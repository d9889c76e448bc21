"""The mixed invalidation engine (paper Sections 2.2–2.3).

On every completed update the DSSP must invalidate all cached views that
might have changed.  How precisely it can decide depends on what it sees —
per pair, the *minimum* of the update envelope's and the cache entry's
exposure levels selects the strategy class (Figure 6):

* either side blind → **MBS** behaviour: invalidate unconditionally;
* template visible on both → **MTIS**: skip pairs the static analysis
  proves independent at template level (Lemma 1 + integrity constraints);
* both statements visible → **MSIS**: additionally skip when the bound
  statements are provably independent (interval reasoning on parameters);
* plaintext view also visible → **MVIS**: additionally skip when the view
  contents prove the update misses the cached rows.

What each update template can do to each query template is static, so
the engine compiles it once, when the application registers: one
:class:`InvalidationPlan` per (update template, query template) pair —
the IPM as code.  A ``SKIP`` pair (A_ij = 0) is never visited; a
``PROBE`` pair asks the cache's predicate index for the entries the
update's pinned values could touch; a ``SWEEP`` pair runs the per-entry
decision over its whole bucket.  Each plan counts the checks it made and
the views it invalidated: the *observed* IPM.

The engine is *correct by construction* in the paper's sense: every skip is
justified by a sound proof of independence, so a view that actually changed
is always invalidated.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable
from dataclasses import dataclass

from repro.analysis.exposure import ExposureLevel
from repro.analysis.independence import statement_independent
from repro.analysis.ipm import zero_pairs
from repro.crypto.envelope import UpdateEnvelope
from repro.dssp.cache import CacheEntry, ViewCache
from repro.dssp.predicate_index import (
    Attr,
    indexable_attributes,
    update_pinned_columns,
    update_pinned_values,
)
from repro.dssp.stats import DsspStats
from repro.dssp.view_checks import view_allows_skip
from repro.sql.ast import Delete, Insert, Update
from repro.templates.registry import TemplateRegistry

__all__ = [
    "InvalidationEngine",
    "InvalidationPlan",
    "PlanKind",
    "StrategyClass",
    "compile_plans",
]


class StrategyClass(enum.Enum):
    """The four named strategy classes, for uniform-exposure experiments."""

    MBS = "blind"
    MTIS = "template"
    MSIS = "stmt"
    MVIS = "view"

    @property
    def exposure_level(self) -> ExposureLevel:
        """The uniform exposure level that induces this strategy."""
        return {
            StrategyClass.MBS: ExposureLevel.BLIND,
            StrategyClass.MTIS: ExposureLevel.TEMPLATE,
            StrategyClass.MSIS: ExposureLevel.STMT,
            StrategyClass.MVIS: ExposureLevel.VIEW,
        }[self]


class PlanKind(enum.Enum):
    """How an update template's invalidation pass treats one query bucket."""

    #: A_ij = 0: the update can never change the query; never visited.
    SKIP = "skip"
    #: The predicate index answers with the entries the pins could touch.
    PROBE = "probe"
    #: No attribute can probe: every entry of the bucket is decided.
    SWEEP = "sweep"


@dataclass(eq=False, slots=True)
class InvalidationPlan:
    """One compiled IPM cell: what an update template does to a bucket.

    Attributes:
        update_name: The update template.
        query_name: The query template whose bucket the plan governs.
        kind: ``SKIP``, ``PROBE`` or ``SWEEP``.
        attrs: For ``PROBE``: the query's indexable attributes on the
            update's table that the update template pins — the index
            lookup key, fixed at compile time.
        reason: Why the pair is ``SKIP`` or ``SWEEP``.
        checks: Decisions made for this pair (one per bucket visit, one
            per entry whose statement was tested).
        invalidations: Views this pair invalidated.
    """

    update_name: str
    query_name: str
    kind: PlanKind
    attrs: frozenset[Attr] = frozenset()
    reason: str = ""
    checks: int = 0
    invalidations: int = 0


def compile_plans(
    registry: TemplateRegistry, use_integrity_constraints: bool = True
) -> dict[tuple[str, str], InvalidationPlan]:
    """One plan per (update template, query template) pair of ``registry``.

    ``SKIP`` is exactly :func:`~repro.analysis.ipm.zero_pairs` — the
    A_ij = 0 set of ``characterize_pair``: Lemma 1 ignorability, plus the
    integrity-constraint rules (Section 4.5) when
    ``use_integrity_constraints`` is set.
    """
    schema = registry.schema
    skip = zero_pairs(registry, use_integrity_constraints)
    indexed = {
        query.name: indexable_attributes(query.select, schema)
        for query in registry.queries
    }
    pinned = {
        update.name: update_pinned_columns(update.statement)
        for update in registry.updates
    }
    plans: dict[tuple[str, str], InvalidationPlan] = {}
    for update, query in registry.pairs():
        pair = (update.name, query.name)
        reason = skip.get(pair)
        if reason is not None:
            plans[pair] = InvalidationPlan(*pair, PlanKind.SKIP, reason=reason)
            continue
        # Every pinned column is on the update's table.
        attrs = indexed[query.name] & pinned[update.name]
        if attrs:
            plans[pair] = InvalidationPlan(*pair, PlanKind.PROBE, attrs)
            continue
        table = update.statement.table
        if any(attr[0] == table for attr in indexed[query.name]):
            reason = "the update pins no column the query is indexed on"
        else:
            reason = f"the query pins no column of {table} by equality"
        plans[pair] = InvalidationPlan(*pair, PlanKind.SWEEP, reason=reason)
    return plans


class InvalidationEngine:
    """Per-application invalidation decisions over a shared cache.

    Args:
        registry: The application's (public) template registry — the DSSP
            may hold template *texts*; an envelope reveals which template an
            instance came from only at ``template`` exposure and above.
        use_integrity_constraints: Let template-level decisions exploit
            primary/foreign keys (paper Section 4.5).
        equality_only_independence: Restrict per-entry statement checks to
            equality mismatches (the MSIS ablation).
    """

    def __init__(
        self,
        registry: TemplateRegistry,
        use_integrity_constraints: bool = True,
        equality_only_independence: bool = False,
    ) -> None:
        self._registry = registry
        self._schema = registry.schema
        self._equality_only = equality_only_independence
        #: The compiled IPM, keyed by (update template, query template).
        self.plans = compile_plans(registry, use_integrity_constraints)
        #: Per update template, the plans an invalidation pass walks.
        walk: dict[str, list[InvalidationPlan]] = {
            update.name: [] for update in registry.updates
        }
        for (update_name, _), plan in self.plans.items():
            if plan.kind is not PlanKind.SKIP:
                walk[update_name].append(plan)
        self._walk = {name: tuple(plans) for name, plans in walk.items()}
        #: Which path served the most recent ``process_update`` call:
        #: ``indexed`` (every stmt-visible bucket answered from candidate
        #: lists), ``sweep`` (full bucket scans / bucket drops only),
        #: ``mixed``, or ``blind`` (whole-app drop).  Exposure-safe: the
        #: label never carries statement or parameter content.
        self.last_path = "sweep"
        self._used_index = False
        self._used_sweep = False

    def reset_counters(self) -> None:
        """Zero every plan's observed checks and invalidations."""
        for plan in self.plans.values():
            plan.checks = plan.invalidations = 0

    # -- the main entry point ---------------------------------------------------

    def process_update(
        self,
        envelope: UpdateEnvelope,
        cache: ViewCache,
        stats: DsspStats | None = None,
    ) -> int:
        """Invalidate everything the update may have changed; returns count."""
        # Bound through this node's registry (refusing a name or arity it
        # lacks before anything is counted); None where parameters are sealed.
        bound = envelope.bound(self._registry)
        statement = None if bound is None else bound.statement
        app_id = envelope.app_id
        self._used_index = False
        self._used_sweep = False
        if stats is not None:
            stats.updates += 1

        if not envelope.template_visible:
            # Blind update: Property 1 — everything of this app must go.
            count = cache.invalidate_app(app_id)
            if stats is not None:
                stats.record_invalidation(None, count)
            self.last_path = "blind"
            return count

        # Blind query entries: template unknown → must invalidate.
        total = cache.invalidate_bucket(app_id, None)
        if total and stats is not None:
            stats.record_invalidation(None, total)
        # The index lookup key, shared by every bucket of this update.
        pinned = None if statement is None else update_pinned_values(statement)
        assert envelope.template_name is not None
        for plan in self._walk[envelope.template_name]:
            if cache.bucket_size(app_id, plan.query_name):
                total += self._run_plan(
                    plan, statement, cache, app_id, pinned, stats
                )
        if self._used_index:
            self.last_path = "mixed" if self._used_sweep else "indexed"
        else:
            self.last_path = "sweep"
        return total

    def _run_plan(
        self,
        plan: InvalidationPlan,
        statement: Insert | Delete | Update | None,
        cache: ViewCache,
        app_id: str,
        pinned: dict[Attr, frozenset] | None,
        stats: DsspStats | None,
    ) -> int:
        """Apply one non-``SKIP`` plan to its live bucket; returns count."""
        bucket_name = plan.query_name
        checks = 1  # the bucket visit
        if pinned is None:
            # Update at 'template' exposure: entry A governs every pair.
            count = cache.invalidate_bucket(app_id, bucket_name)
            self._used_sweep = True
        else:
            # A PROBE visits only the entries whose bound selection values
            # the update's pins could touch.  A non-candidate provably
            # survives ``statement_independent``, so the invalidated set is
            # identical to the bucket sweep's — which is what runs for a
            # SWEEP plan, or when the index observes it cannot answer
            # (unaccounted entries, no indexer).
            candidates = None
            if plan.kind is PlanKind.PROBE:
                candidates = cache.predicate_candidates(
                    app_id, bucket_name, pinned, plan.attrs
                )
            entries: Iterable[CacheEntry]
            if candidates is None:
                self._used_sweep = True
                entries = cache.bucket(app_id, bucket_name)
            else:
                self._used_index = True
                if stats is not None:
                    stats.index_lookups += 1
                    stats.index_narrowed += (
                        cache.bucket_size(app_id, bucket_name)
                        - len(candidates)
                    )
                entries = candidates
            victims: list[tuple] = []
            for entry in entries:
                # An entry at 'template' level hides its statement: IPM
                # entry A governs it, so it is invalidated unchecked.
                if entry.statement is not None:
                    checks += 1
                    if self._entry_survives(statement, entry):
                        continue
                victims.append(entry.key)
            count = cache.invalidate_many(victims)
        plan.checks += checks
        plan.invalidations += count
        if stats is not None:
            stats.invalidation_checks += checks
            if count:
                stats.record_invalidation(bucket_name, count)
        return count

    def _entry_survives(
        self, statement: Insert | Delete | Update, entry: CacheEntry
    ) -> bool:
        """Can this stmt-visible entry be proven unaffected?"""
        assert entry.statement is not None
        if statement_independent(
            self._schema,
            statement,
            entry.statement,
            equality_only=self._equality_only,
        ):
            return True
        if entry.view_rows is None:
            return False  # 'stmt' level: no view to inspect
        return view_allows_skip(
            self._schema, statement, entry.statement, entry.view_rows
        )
