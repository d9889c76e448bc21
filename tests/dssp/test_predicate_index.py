"""The predicate index's conservative-fallback taxonomy and bookkeeping.

Every case where the index cannot (or must not) narrow is pinned down
here: aggregation and group-by templates, blind entries, NULL-valued
bound attributes, multi-attribute selections, unaccounted entries, and
index consistency across LRU eviction, ``invalidate_app``, and sharded
node join/leave with cold re-fill.
"""

from __future__ import annotations

from functools import partial

from repro.analysis.exposure import ExposureLevel
from repro.dssp import PredicateIndexer, ShardedDsspCluster
from repro.dssp.predicate_index import update_pinned_values
from repro.templates import UpdateTemplate

from tests.dssp.index_utils import (
    REGISTRY,
    assert_index_consistent,
    shop_home,
    shop_node,
)

_ROWS = [(i, "abc"[i % 3], "xy"[i % 2], (i * 7) % 20) for i in range(1, 13)]

_build = partial(shop_node, REGISTRY, _ROWS)


def _query(node, home, name, params, **route):
    """Seal and send one query; ``route`` is a cluster's ``client_id=``."""
    bound = REGISTRY.query(name).bind(params)
    return node.query(
        home.codec.seal_query(bound, home.policy.query_level(name)), **route
    )


def _update(node, home, name, params, **route):
    bound = REGISTRY.update(name).bind(params)
    return node.update(
        home.codec.seal_update(bound, home.policy.update_level(name)), **route
    )


def _pins(name, params):
    return update_pinned_values(REGISTRY.update(name).bind(params).statement)


class TestIndexerAnalysis:
    def test_point_and_byname_are_indexable(self):
        indexer = PredicateIndexer(REGISTRY)
        assert indexer.query_attributes("point") == {("items", "item_id")}
        assert indexer.query_attributes("byname") == {("items", "name")}

    def test_multi_attribute_selection_indexes_both(self):
        indexer = PredicateIndexer(REGISTRY)
        assert indexer.query_attributes("multi") == {
            ("items", "category"),
            ("items", "name"),
        }

    def test_aggregate_and_group_by_refused(self):
        indexer = PredicateIndexer(REGISTRY)
        assert indexer.query_attributes("total") is None
        assert indexer.query_attributes("percat") is None

    def test_range_only_template_refused(self):
        assert PredicateIndexer(REGISTRY).query_attributes("instock") is None

    def test_unknown_template_refused(self):
        assert PredicateIndexer(REGISTRY).query_attributes("nope") is None

    def test_entry_values_extracts_bound_literals(self):
        indexer = PredicateIndexer(REGISTRY)
        bound = REGISTRY.query("multi").bind(["x", "b"])
        values = indexer.entry_values("multi", bound.select)
        assert values == {
            ("items", "category"): frozenset({"x"}),
            ("items", "name"): frozenset({"b"}),
        }


class TestUpdatePinnedValues:
    def test_insert_pins_every_column(self):
        assert _pins("ins", [5, "a", "x", 3]) == {
            ("items", "item_id"): frozenset({5}),
            ("items", "name"): frozenset({"a"}),
            ("items", "category"): frozenset({"x"}),
            ("items", "stock"): frozenset({3}),
        }

    def test_delete_pins_where_equalities(self):
        assert _pins("del", [7]) == {("items", "item_id"): frozenset({7})}

    def test_update_set_value_joins_pinned_where_column(self):
        # setstock: SET stock = ? WHERE item_id = ? — stock is not WHERE-
        # pinned, so only item_id appears.
        assert _pins("setstock", [9, 2]) == {
            ("items", "item_id"): frozenset({2})
        }
        # A template pinning the SET column in WHERE must carry both the
        # old and new locations of the modified row.
        moved = UpdateTemplate.from_sql(
            "move", "UPDATE items SET name = ? WHERE name = ?"
        ).bind(["b", "a"])
        assert update_pinned_values(moved.statement) == {
            ("items", "name"): frozenset({"a", "b"})
        }


class TestFallbackTaxonomy:
    def test_aggregate_bucket_always_sweeps(self):
        node, home = _build()
        _query(node, home, "total", ["a"])
        assert (
            node.cache.predicate_candidates("shop", "total", _pins("del", [1]))
            is None
        )
        # The sweep still invalidates correctly.
        before = len(node.cache)
        _update(node, home, "del", [1])
        assert len(node.cache) < before

    def test_blind_entries_invalidate_wholesale(self):
        node, home = _build(level=ExposureLevel.BLIND)
        _query(node, home, "point", [1])
        assert node.cache.index_postings() == 0  # blind bucket: unindexed
        _update(node, home, "del", [9])
        assert len(node.cache) == 0  # Property 1: everything goes
        assert node._tenants["shop"].engine.last_path == "blind"

    def test_null_valued_bound_attribute_is_always_candidate(self):
        node, home = _build()
        _query(node, home, "byname", [None])
        _query(node, home, "byname", ["a"])
        candidates = node.cache.predicate_candidates(
            "shop", "byname", _pins("ins", [40, "b", "x", 1])
        )
        assert candidates is not None
        keys = {entry.statement.where[0].right.value for entry in candidates}
        assert keys == {None}  # the NULL entry, not the 'a' entry

    def test_multi_attribute_lookup_intersects(self):
        node, home = _build()
        _query(node, home, "multi", ["x", "a"])
        _query(node, home, "multi", ["x", "b"])
        _query(node, home, "multi", ["y", "a"])
        candidates = node.cache.predicate_candidates(
            "shop", "multi", _pins("ins", [40, "a", "x", 1])
        )
        assert candidates is not None and len(candidates) == 1

    def test_unpinned_attribute_declines_to_narrow(self):
        node, home = _build()
        _query(node, home, "byname", ["a"])
        # setstock pins only item_id; byname indexes only name.
        assert (
            node.cache.predicate_candidates(
                "shop", "byname", _pins("setstock", [5, 1])
            )
            is None
        )

    def test_unaccounted_entries_force_sweep(self):
        # An indexer registered only after entries were admitted leaves
        # them unaccounted: the size guard must refuse to narrow.
        node, home = _build()
        node.cache._indexers.pop("shop")
        _query(node, home, "point", [1])
        node.cache.register_indexer("shop", PredicateIndexer(REGISTRY))
        _query(node, home, "point", [2])
        assert (
            node.cache.predicate_candidates("shop", "point", _pins("del", [1]))
            is None
        )


class TestIndexMaintenance:
    def test_lru_eviction_retracts_postings(self):
        node, home = _build(capacity=3)
        for item_id in range(1, 7):
            _query(node, home, "point", [item_id])
        assert len(node.cache) == 3
        assert node.cache.index_postings() == 3
        assert_index_consistent(node.cache)
        # Narrowing still exact after churn: only the resident match.
        candidates = node.cache.predicate_candidates(
            "shop", "point", _pins("del", [6])
        )
        assert candidates is not None
        assert [e.key for e in candidates] == [
            e.key for e in node.cache.bucket("shop", "point")
            if e.statement.where[0].right.value == 6
        ]

    def test_invalidate_app_clears_postings(self):
        node, home = _build()
        _query(node, home, "point", [1])
        _query(node, home, "byname", ["a"])
        assert node.cache.index_postings() == 2
        node.cache.invalidate_app("shop")
        assert node.cache.index_postings() == 0
        assert not node.cache._postings

    def test_cold_start_clears_postings(self):
        node, home = _build()
        _query(node, home, "point", [1])
        node.cold_start()
        assert node.cache.index_postings() == 0
        # Re-fill after the cold start re-indexes.
        _query(node, home, "point", [2])
        assert node.cache.index_postings() == 1

    def test_refresh_after_invalidation_keeps_single_posting(self):
        node, home = _build()
        _query(node, home, "point", [3])
        _update(node, home, "setstock", [9, 3])
        _query(node, home, "point", [3])
        assert node.cache.index_postings() == 1
        assert_index_consistent(node.cache)

    def test_stats_and_span_path(self):
        node, home = _build()
        _query(node, home, "point", [1])
        _query(node, home, "point", [2])
        _update(node, home, "del", [1])
        assert node._tenants["shop"].engine.last_path == "indexed"
        assert node.stats.index_lookups == node.stats.index_narrowed == 1
        snapshot = node.stats.to_dict()
        assert snapshot["index_lookups"] == node.stats.index_lookups
        assert snapshot["index_narrowed"] == node.stats.index_narrowed

    def test_mixed_path_when_a_bucket_declines(self):
        node, home = _build()
        _query(node, home, "point", [1])
        _query(node, home, "total", ["a"])  # refused bucket → sweep
        _update(node, home, "del", [1])
        assert node._tenants["shop"].engine.last_path == "mixed"


class TestShardedColdRefill:
    def _drive(self, cluster, home, pages=40):
        for i in range(pages):
            _query(cluster, home, "point", [1 + i % 12], client_id=i)
            _query(cluster, home, "byname", ["abc"[i % 3]], client_id=i)
            if i % 5 == 0:
                pair = [i % 20, 1 + i % 12]
                _update(cluster, home, "setstock", pair, client_id=i)

    def test_join_and_leave_keep_index_exact(self):
        home = shop_home(REGISTRY, _ROWS)
        cluster = ShardedDsspCluster(nodes=2)
        cluster.register_application(home)
        self._drive(cluster, home)
        joined = cluster.join()
        for shard_id in cluster.shard_ids:
            assert_index_consistent(cluster.shard(shard_id).cache)
        self._drive(cluster, home)  # cold re-fill after the join
        assert cluster.total_cached_views() > 0
        cluster.leave(joined)
        self._drive(cluster, home)
        for shard_id in cluster.shard_ids:
            assert_index_consistent(cluster.shard(shard_id).cache)
        # Answers stay fresh throughout membership churn.
        for item_id in range(1, 13):
            outcome = _query(
                cluster, home, "point", [item_id], client_id=item_id
            )
            served = home.codec.open_result(outcome.result)
            fresh = REGISTRY.query("point").bind([item_id]).select
            assert served.equivalent(home.database.execute(fresh))

