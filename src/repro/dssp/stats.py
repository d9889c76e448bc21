"""Counters the DSSP keeps for evaluation and the scalability simulator."""

from __future__ import annotations

from dataclasses import dataclass, field, fields

__all__ = ["DsspStats"]


@dataclass
class DsspStats:
    """Operational counters of one DSSP node.

    ``hits``/``misses`` drive the scalability experiments: a miss costs a
    WAN round trip and home-server work, a hit is served locally.

    The ``*_time_s`` fields accumulate wall-clock time spent in the three
    DSSP-side hot paths (cache lookup, invalidation decisions, LRU
    eviction), so optimizations to those paths are directly measurable.
    """

    hits: int = 0
    misses: int = 0
    updates: int = 0
    invalidations: int = 0
    invalidation_checks: int = 0
    #: Entries dropped by capacity eviction (not by invalidation).
    evictions: int = 0
    #: Remote miss fills served but not cached: an invalidation for their
    #: application ran while they were in flight (``DsspNode.admit``).
    fill_refused: int = 0
    #: Bucket visits the predicate index answered during invalidation; a
    #: lookup it declines runs the sweep and is not counted.
    index_lookups: int = 0
    #: Entries the predicate index excused from a per-entry decision
    #: (bucket size minus candidate count, summed over indexed lookups).
    index_narrowed: int = 0
    #: Wall-clock seconds spent probing the cache (``DsspNode.lookup``).
    lookup_time_s: float = 0.0
    #: Wall-clock seconds spent deciding + applying invalidations.
    invalidation_time_s: float = 0.0
    #: Wall-clock seconds spent selecting and dropping LRU victims.
    eviction_time_s: float = 0.0
    per_query_invalidations: dict[str, int] = field(default_factory=dict)

    @property
    def lookups(self) -> int:
        """Total cache lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0 when idle)."""
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups

    def record_invalidation(self, template_name: str | None, count: int = 1) -> None:
        """Count invalidated entries, attributed to a query template."""
        self.invalidations += count
        key = template_name or "<blind>"
        self.per_query_invalidations[key] = (
            self.per_query_invalidations.get(key, 0) + count
        )

    def to_dict(self) -> dict:
        """JSON-safe snapshot, including the derived rates.

        Keys are template *names* (or ``<blind>``) — never statement text
        or parameters, so the snapshot is safe to export at any exposure
        level.
        """
        # The derived rates sit right after the two counters they come
        # from; every other field follows in declaration order.
        snapshot: dict = {
            "hits": self.hits,
            "misses": self.misses,
            "lookups": self.lookups,
            "hit_rate": self.hit_rate,
        }
        for spec in fields(self):
            snapshot.setdefault(spec.name, getattr(self, spec.name))
        snapshot["per_query_invalidations"] = dict(
            sorted(self.per_query_invalidations.items())
        )
        return snapshot

    def register_metrics(self, registry) -> None:
        """Export the live counters as callable gauges on ``registry``.

        Gauges sample this object at snapshot time, so the registry never
        needs to be threaded through the cache/invalidation hot paths.
        """
        registry.gauge("dssp.hits", lambda: self.hits)
        registry.gauge("dssp.misses", lambda: self.misses)
        registry.gauge("dssp.hit_rate", lambda: self.hit_rate)
        registry.gauge("dssp.updates", lambda: self.updates)
        registry.gauge("dssp.invalidations", lambda: self.invalidations)
        registry.gauge(
            "dssp.invalidation_checks", lambda: self.invalidation_checks
        )
        registry.gauge("dssp.evictions", lambda: self.evictions)
        registry.gauge("dssp.fill_refused", lambda: self.fill_refused)
        registry.gauge("dssp.index_lookups", lambda: self.index_lookups)
        registry.gauge("dssp.index_narrowed", lambda: self.index_narrowed)

    def merge(self, other: "DsspStats") -> None:
        """Add another node's counters into this one (fleet aggregation)."""
        for spec in fields(self):
            value = getattr(other, spec.name)
            if isinstance(value, dict):
                mine = getattr(self, spec.name)
                for name, count in value.items():
                    mine[name] = mine.get(name, 0) + count
            else:
                setattr(self, spec.name, getattr(self, spec.name) + value)

    def reset(self) -> None:
        """Zero all counters (e.g. between benchmark phases)."""
        for spec in fields(self):
            value = getattr(self, spec.name)
            if isinstance(value, dict):
                value.clear()
            else:
                setattr(self, spec.name, spec.default)
