"""The DSSP's cache of (possibly encrypted) query results.

Entries are keyed by the envelope's derived identity
(:attr:`repro.crypto.envelope.Envelope.identity`, paper footnote 3) — the
application plus:

* template name + parameters at ``stmt``/``view`` exposure,
* template name + deterministically-encrypted parameters at ``template``,
* the deterministically-encrypted statement at ``blind``.

Each entry remembers the *visible* metadata of the query that produced it —
never more than its exposure level allows — because that is all the
invalidation engine may consult.  Entries are additionally bucketed by
visible template name so template-level invalidation decisions apply to a
whole bucket in one step.

Every operation is O(1) in the number of cached entries (amortized):

* recency is tracked by an :class:`~collections.OrderedDict`, so the LRU
  victim is ``popitem(last=False)`` rather than a full scan;
* a per-application key index makes ``invalidate_app`` /
  ``entries_for_app`` proportional to the app's entries, not the cache;
* buckets (and index sets) are pruned as they empty, so iteration never
  visits dead structure.

Once an application's :class:`PredicateIndexer` is registered the cache
additionally keys each of its entries by the bound values of the
statement's indexable selection attributes
(:mod:`repro.dssp.predicate_index`), so the invalidation engine can ask
for the *candidate* entries an update's pinned values could touch instead
of sweeping the whole bucket.  The posting lists are maintained through
the same ``_index``/``_unindex`` choke points as the buckets, so LRU
eviction, ``invalidate_app`` and shard re-placement all keep them exact.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.analysis.exposure import ExposureLevel
from repro.crypto.envelope import QueryEnvelope, ResultEnvelope
from repro.dssp.predicate_index import Attr, PredicateIndexer
from repro.dssp.stats import DsspStats
from repro.errors import CacheError
from repro.sql.ast import Scalar, Select
from repro.storage.rows import ResultSet
from repro.templates.template import BoundQuery

__all__ = ["CacheEntry", "ViewCache"]

#: Sentinel posting for a NULL-valued bound attribute (``None`` is a real
#: value only for the nulls set; it never keys ``by_value``).
_NULL = object()


@dataclass(frozen=True)
class CacheEntry:
    """One cached view with its DSSP-visible metadata.

    Attributes:
        key: The envelope's derived identity.
        app_id: Owning application.
        level: The query's exposure level when cached.
        result: Sealed (or plaintext, at ``view``) result envelope.
        template_name: Visible at ``template`` exposure and above.
        statement: Bound SELECT AST, visible at ``stmt`` and above — bound
            by the admitting node through the application's registry.
        view_rows: Plaintext result rows, visible only at ``view``.
    """

    key: tuple
    app_id: str
    level: ExposureLevel
    result: ResultEnvelope
    template_name: str | None = None
    statement: Select | None = None
    view_rows: ResultSet | None = None

    @property
    def identity(self) -> tuple:
        """``key``, named as on the envelope, so entries place alike."""
        return self.key


@dataclass
class _PredicateBucket:
    """Posting lists of one (app, template) bucket's predicate index."""

    #: Indexable attributes of the bucket's template (fixed per template).
    attrs: frozenset[Attr]
    #: (attr) → bound value → keys of entries pinned at that value.
    by_value: dict[Attr, dict[Scalar, set[tuple]]] = field(default_factory=dict)
    #: (attr) → keys whose bound value is NULL (always candidates).
    nulls: dict[Attr, set[tuple]] = field(default_factory=dict)
    #: Keys with no extractable statement (always candidates).
    always: set[tuple] = field(default_factory=set)
    #: Entries accounted for; must equal the bucket size for the index to
    #: be authoritative (a mid-life ``register_indexer`` call would leave
    #: earlier entries unaccounted — the lookup then declines to narrow).
    size: int = 0


class ViewCache:
    """In-memory materialized-view cache with template-name buckets.

    Args:
        capacity: Max resident entries (None = unbounded); LRU eviction.
        stats: Optional node counters; eviction work is recorded there.
    """

    def __init__(
        self,
        capacity: int | None = None,
        stats: DsspStats | None = None,
    ) -> None:
        #: Entries in recency order: least recently used first.
        self._entries: OrderedDict[tuple, CacheEntry] = OrderedDict()
        self._buckets: dict[tuple[str, str | None], set[tuple]] = {}
        self._app_keys: dict[str, set[tuple]] = {}
        self._capacity = capacity
        self._stats = stats
        #: (app, template) → posting lists, for buckets whose application
        #: has a registered indexer and whose template it accepts.
        self._predicate: dict[tuple[str, str], _PredicateBucket] = {}
        self._indexers: dict[str, PredicateIndexer] = {}
        #: key → postings to retract on removal: None for always-candidates,
        #: else ((attr, value-or-_NULL), ...).
        self._postings: dict[tuple, tuple | None] = {}
        self._posting_count = 0

    def __len__(self) -> int:
        return len(self._entries)

    def register_indexer(self, app_id: str, indexer: PredicateIndexer) -> None:
        """Attach one application's template analysis to the index.

        Entries of the application admitted before this call stay
        unaccounted, which keeps their buckets on the sweep.
        """
        self._indexers[app_id] = indexer

    def index_postings(self) -> int:
        """Live posting count of the predicate index (size gauge)."""
        return self._posting_count

    def register_metrics(self, registry) -> None:
        """Export live occupancy as callable gauges on ``registry``."""
        registry.gauge("cache.entries", lambda: len(self._entries))
        registry.gauge("cache.buckets", lambda: len(self._buckets))
        registry.gauge(
            "cache.capacity",
            lambda: -1 if self._capacity is None else self._capacity,
        )
        registry.gauge("cache.index_postings", lambda: self._posting_count)

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries

    # -- read path ----------------------------------------------------------

    def get(self, key: tuple) -> CacheEntry | None:
        """Look up an entry; None on miss.  Refreshes LRU position."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def entries_for_app(self, app_id: str) -> list[CacheEntry]:
        """All entries belonging to one application."""
        keys = self._app_keys.get(app_id)
        if not keys:
            return []
        return [self._entries[key] for key in keys]

    def bucket(self, app_id: str, template_name: str | None) -> tuple[CacheEntry, ...]:
        """Entries of one app with the given visible template name.

        ``template_name=None`` selects the blind bucket (template hidden).
        """
        keys = self._buckets.get((app_id, template_name), ())
        return tuple(self._entries[k] for k in keys)

    def bucket_names(self, app_id: str) -> tuple[str | None, ...]:
        """Visible template names (and possibly None) with live entries."""
        return tuple(
            name for (app, name) in self._buckets if app == app_id
        )

    def bucket_size(self, app_id: str, template_name: str | None) -> int:
        """Number of live entries in one bucket."""
        return len(self._buckets.get((app_id, template_name), ()))

    def predicate_candidates(
        self,
        app_id: str,
        template_name: str,
        pinned: dict[Attr, frozenset],
        attrs: frozenset[Attr],
    ) -> list[CacheEntry] | None:
        """Entries of a bucket an update with these pins could affect.

        ``attrs`` are the indexed attributes to intersect over — an
        invalidation plan's, compiled once per template pair: non-empty,
        and every one of them a key of ``pinned``.

        Returns None when the index cannot answer authoritatively (no
        indexer registered, template not indexed, or entries
        unaccounted) — the caller must sweep the bucket.  A non-None answer is *exact* with respect to the
        engine's decision procedure: every omitted entry is provably
        independent of any update carrying these pins.
        """
        keys = self._buckets.get((app_id, template_name))
        if not keys:
            return []
        posting = self._predicate.get((app_id, template_name))
        if posting is None or posting.size != len(keys):
            return None
        candidates: set[tuple] | None = None
        for attr in attrs:
            matched: set[tuple] = set()
            by_value = posting.by_value.get(attr)
            if by_value:
                for value in pinned[attr]:
                    hits = by_value.get(value)
                    if hits:
                        matched |= hits
            nulls = posting.nulls.get(attr)
            if nulls:
                matched |= nulls
            candidates = (
                matched if candidates is None else candidates & matched
            )
            if not candidates:
                break
        assert candidates is not None
        candidates |= posting.always
        return [self._entries[key] for key in candidates]

    # -- write path -----------------------------------------------------------

    def put(
        self,
        envelope: QueryEnvelope,
        result: ResultEnvelope,
        bound: BoundQuery | None = None,
    ) -> CacheEntry:
        """Insert (or refresh) the cached result for a query envelope.

        ``bound`` is the envelope's ``(template_name, params)`` as the
        admitting node bound them; None where the parameters are sealed.
        """
        if result.app_id != envelope.app_id:
            raise CacheError("result/query envelope application mismatch")
        view_rows = result.plaintext if envelope.level is ExposureLevel.VIEW else None
        entry = CacheEntry(
            key=envelope.identity,
            app_id=envelope.app_id,
            level=envelope.level,
            result=result,
            template_name=envelope.template_name,
            statement=None if bound is None else bound.select,
            view_rows=view_rows,
        )
        # The key names its application and (when visible) its template,
        # so a refresh always lands in the bucket it is already in.
        if entry.key not in self._entries:
            self._index(entry)
        self._entries[entry.key] = entry
        self._entries.move_to_end(entry.key)
        self._maybe_evict()
        return entry

    def invalidate(self, key: tuple) -> bool:
        """Drop one entry; True if it existed."""
        entry = self._entries.pop(key, None)
        if entry is None:
            return False
        self._unindex(entry)
        return True

    def invalidate_many(self, keys: Iterable[tuple]) -> int:
        """Drop several entries; returns how many existed."""
        return sum(1 for key in list(keys) if self.invalidate(key))

    def invalidate_bucket(self, app_id: str, template_name: str | None) -> int:
        """Drop a whole template bucket; returns the number of entries."""
        keys = self._buckets.get((app_id, template_name))
        if not keys:
            return 0
        return self.invalidate_many(tuple(keys))

    def invalidate_app(self, app_id: str) -> int:
        """Drop every entry of one application (blind strategy)."""
        keys = self._app_keys.get(app_id)
        if not keys:
            return 0
        return self.invalidate_many(tuple(keys))

    def clear(self) -> None:
        """Empty the cache entirely (cold start)."""
        self._entries.clear()
        self._buckets.clear()
        self._app_keys.clear()
        self._predicate.clear()
        self._postings.clear()
        self._posting_count = 0

    # -- index maintenance -----------------------------------------------------

    def _index(self, entry: CacheEntry) -> None:
        self._buckets.setdefault(
            (entry.app_id, entry.template_name), set()
        ).add(entry.key)
        self._app_keys.setdefault(entry.app_id, set()).add(entry.key)
        if entry.template_name is not None:
            self._index_predicate(entry)

    def _index_predicate(self, entry: CacheEntry) -> None:
        indexer = self._indexers.get(entry.app_id)
        if indexer is None:
            return  # unaccounted: the size guard disables narrowing
        assert entry.template_name is not None
        attrs = indexer.query_attributes(entry.template_name)
        if attrs is None:
            return  # template pins no attribute: its plans sweep
        posting = self._predicate.get((entry.app_id, entry.template_name))
        if posting is None:
            posting = _PredicateBucket(attrs=attrs)
            self._predicate[(entry.app_id, entry.template_name)] = posting
        posting.size += 1
        values = (
            None
            if entry.statement is None
            else indexer.entry_values(entry.template_name, entry.statement)
        )
        if values is None:
            # Statement hidden (template-level entry) or unextractable:
            # the entry must be offered to the engine on every lookup.
            posting.always.add(entry.key)
            self._postings[entry.key] = None
            self._posting_count += 1
            return
        record: list[tuple[Attr, object]] = []
        for attr, bound_values in values.items():
            for value in bound_values:
                if value is None:
                    posting.nulls.setdefault(attr, set()).add(entry.key)
                    record.append((attr, _NULL))
                else:
                    posting.by_value.setdefault(attr, {}).setdefault(
                        value, set()
                    ).add(entry.key)
                    record.append((attr, value))
        self._postings[entry.key] = tuple(record)
        self._posting_count += len(record)

    def _unindex(self, entry: CacheEntry) -> None:
        bucket_id = (entry.app_id, entry.template_name)
        bucket = self._buckets.get(bucket_id)
        if bucket is not None:
            bucket.discard(entry.key)
            if not bucket:
                del self._buckets[bucket_id]
        app_keys = self._app_keys.get(entry.app_id)
        if app_keys is not None:
            app_keys.discard(entry.key)
            if not app_keys:
                del self._app_keys[entry.app_id]
        if self._postings:
            self._unindex_predicate(entry)

    def _unindex_predicate(self, entry: CacheEntry) -> None:
        if entry.key not in self._postings:
            return
        record = self._postings.pop(entry.key)
        bucket_id = (entry.app_id, entry.template_name)
        posting = self._predicate.get(bucket_id)
        if posting is None:  # pragma: no cover - postings imply a bucket
            return
        posting.size -= 1
        if record is None:
            posting.always.discard(entry.key)
            self._posting_count -= 1
        else:
            self._posting_count -= len(record)
            for attr, value in record:
                if value is _NULL:
                    nulls = posting.nulls.get(attr)
                    if nulls is not None:
                        nulls.discard(entry.key)
                        if not nulls:
                            del posting.nulls[attr]
                else:
                    by_value = posting.by_value.get(attr)
                    if by_value is not None:
                        keys = by_value.get(value)
                        if keys is not None:
                            keys.discard(entry.key)
                            if not keys:
                                del by_value[value]
                        if not by_value:
                            del posting.by_value[attr]
        if posting.size <= 0:
            del self._predicate[bucket_id]

    def _maybe_evict(self) -> None:
        if self._capacity is None or len(self._entries) <= self._capacity:
            return
        started = time.perf_counter() if self._stats is not None else 0.0
        evicted = 0
        while len(self._entries) > self._capacity:
            _, victim = self._entries.popitem(last=False)
            self._unindex(victim)
            evicted += 1
        if self._stats is not None:
            self._stats.evictions += evicted
            self._stats.eviction_time_s += time.perf_counter() - started
