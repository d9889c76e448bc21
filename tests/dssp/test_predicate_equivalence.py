"""Property-tested equivalence of the predicate-index invalidation path.

The predicate index replaces a correctness-critical decision: instead of
running ``statement_independent`` over every entry of a bucket, the engine
visits only the index's candidates.  Three invariants justify that:

* **Soundness vs a trusted replay** — every answer a client of an indexed
  node receives equals fresh execution against the master database (the
  paper's correctness definition, Section 2.2).  A retained-but-stale view
  would surface here.
* **Equivalence vs the sweep** — after every single operation, an
  indexed node and its ``sweep_reference`` twin on the identical stream hold
  the *same* cache keys and have invalidated the same number of entries.
  The candidate set omits only entries the decision procedure would have
  retained anyway, so the two paths are observationally identical.
* **Pointwise soundness** — any bucket entry the index omits is provably
  independent of the update under ``statement_independent`` itself: the
  narrowed set never retains a view the existing path would invalidate.

The workload mixes indexable templates (point/byname), a WHERE-pinned
SUM and a GROUP BY (both probed on their pin), an unfiltered aggregate
(always swept), a multi-attribute selection, NULL parameters, and all
three update kinds, so the fallback taxonomy is inside the tested space.
"""

from __future__ import annotations

from functools import partial

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.independence import statement_independent
from repro.dssp.invalidation import PlanKind
from repro.dssp.predicate_index import update_pinned_values
from repro.templates import QueryTemplate, TemplateRegistry, UpdateTemplate

from tests.dssp.index_utils import (
    REGISTRY,
    SCHEMA,
    shop_node,
    sweep_reference,
)

# The index suite's application plus a second MODIFY (``rename`` moves a
# row between ``byname``, ``total`` and ``percat`` views) and an
# unfiltered aggregate.
_REGISTRY = TemplateRegistry(
    SCHEMA,
    queries=[
        REGISTRY.query("point"),
        QueryTemplate.from_sql(
            "byname", "SELECT item_id, stock FROM items WHERE name = ?"
        ),
        QueryTemplate.from_sql(
            "bycat",
            "SELECT item_id FROM items WHERE category = ? AND name = ?",
        ),
        REGISTRY.query("total"),
        REGISTRY.query("percat"),
        REGISTRY.query("instock"),
        QueryTemplate.from_sql("maxstock", "SELECT MAX(stock) FROM items"),
    ],
    updates=[
        *REGISTRY.updates,  # ins, del, setstock
        UpdateTemplate.from_sql(
            "rename", "UPDATE items SET name = ? WHERE item_id = ?"
        ),
    ],
)

_QUERIES = (
    "point", "byname", "bycat", "total", "percat", "instock", "maxstock"
)

_NAMES = st.sampled_from(["a", "b", "c", None])
_CATS = st.sampled_from(["x", "y"])


def _operations():
    query_op = st.one_of(
        st.tuples(st.just("point"), st.tuples(st.integers(1, 12))),
        st.tuples(st.just("byname"), st.tuples(_NAMES)),
        st.tuples(st.just("bycat"), st.tuples(_CATS, _NAMES)),
        st.tuples(st.just("total"), st.tuples(_NAMES)),
        st.tuples(st.just("percat"), st.tuples(_NAMES)),
        st.tuples(st.just("instock"), st.tuples(st.integers(0, 20))),
        st.tuples(st.just("maxstock"), st.tuples()),
    )
    update_op = st.one_of(
        st.tuples(
            st.just("ins"),
            st.tuples(
                st.integers(13, 30), _NAMES, _CATS, st.integers(0, 20)
            ),
        ),
        st.tuples(st.just("del"), st.tuples(st.integers(1, 30))),
        st.tuples(
            st.just("setstock"),
            st.tuples(st.integers(0, 20), st.integers(1, 12)),
        ),
        st.tuples(st.just("rename"), st.tuples(_NAMES, st.integers(1, 12))),
    )
    return st.lists(st.one_of(query_op, update_op), min_size=1, max_size=30)


_ROWS = [
    (i, ["a", "b", "c", None][i % 4], "xy"[i % 2], (i * 7) % 20)
    for i in range(1, 13)
]

_build = partial(shop_node, _REGISTRY, _ROWS)


def _drive(node, home, kind, params, inserted_ids):
    """Apply one operation; return the fresh-vs-served check payload."""
    if kind in _QUERIES:
        bound = _REGISTRY.query(kind).bind(list(params))
        envelope = home.codec.seal_query(bound, home.policy.query_level(kind))
        outcome = node.query(envelope)
        served = home.codec.open_result(outcome.result)
        fresh = home.database.execute(bound.select)
        return served, fresh, bound
    if kind == "ins":
        if params[0] in inserted_ids:
            return None
        inserted_ids.add(params[0])
    elif kind == "del":
        inserted_ids.discard(params[0])
    bound = _REGISTRY.update(kind).bind(list(params))
    envelope = home.codec.seal_update(bound, home.policy.update_level(kind))
    node.update(envelope)
    return None


class TestSoundnessVsTrustedReplay:
    @settings(max_examples=60, deadline=None)
    @given(operations=_operations())
    def test_indexed_node_never_serves_stale(self, operations):
        node, home = _build()
        inserted: set[int] = set()
        for kind, params in operations:
            checked = _drive(node, home, kind, params, inserted)
            if checked is not None:
                served, fresh, bound = checked
                assert served.equivalent(fresh), (
                    f"stale answer with predicate index for {bound.sql}: "
                    f"served {served.rows}, fresh {fresh.rows}"
                )


class TestEquivalenceVsBucketSweep:
    @settings(max_examples=60, deadline=None)
    @given(operations=_operations())
    def test_identical_cache_state_and_counts(self, operations):
        """Lockstep drive: after every op both nodes agree exactly."""
        indexed, home_i = _build()
        swept, home_s = _build()
        sweep_reference(swept)
        inserted_i: set[int] = set()
        inserted_s: set[int] = set()
        for kind, params in operations:
            _drive(indexed, home_i, kind, params, inserted_i)
            _drive(swept, home_s, kind, params, inserted_s)
            assert set(indexed.cache._entries) == set(swept.cache._entries)
            assert indexed.stats.invalidations == swept.stats.invalidations
        assert indexed.stats.hits == swept.stats.hits
        assert indexed.stats.misses == swept.stats.misses
        # Precision: the index never *adds* work — the indexed node's
        # per-entry decisions are a subset of the sweep's.
        assert (
            indexed.stats.invalidation_checks
            <= swept.stats.invalidation_checks
        )

    @settings(max_examples=60, deadline=None)
    @given(operations=_operations())
    def test_omitted_entries_are_provably_independent(self, operations):
        """Pointwise soundness: non-candidates pass the decision procedure.

        For every update in the stream, compare the index's candidate set
        — keyed by the pair's compiled ``PROBE`` attributes, as the engine
        asks it — against the resident bucket; each omitted entry must be
        one ``statement_independent`` itself would retain.
        """
        node, home = _build()
        plans = node._tenants["shop"].engine.plans
        inserted: set[int] = set()
        for kind, params in operations:
            if kind in _QUERIES or kind == "ins" and params[0] in inserted:
                _drive(node, home, kind, params, inserted)
                continue
            bound = _REGISTRY.update(kind).bind(list(params))
            pinned = update_pinned_values(bound.statement)
            for template in _QUERIES:
                plan = plans[(kind, template)]
                if plan.kind is not PlanKind.PROBE:
                    continue  # SKIP never visits; SWEEP checks every entry
                bucket = node.cache.bucket("shop", template)
                candidates = node.cache.predicate_candidates(
                    "shop", template, pinned, plan.attrs
                )
                if candidates is None:
                    continue  # index declined: the sweep runs anyway
                omitted = set(e.key for e in bucket) - set(
                    e.key for e in candidates
                )
                for entry in bucket:
                    if entry.key not in omitted:
                        continue
                    assert entry.statement is not None
                    assert statement_independent(
                        SCHEMA, bound.statement, entry.statement
                    ), (
                        f"index omitted a dependent entry: update "
                        f"{bound.sql} vs cached {entry.statement}"
                    )
            _drive(node, home, kind, params, inserted)
