"""The DSSP node: cache + invalidation + home forwarding (paper Figure 2).

One :class:`DsspNode` serves many applications; each application registers
with its (public) template registry and its home server.  Clients talk to
the node through sealed envelopes produced by their application's
:class:`~repro.crypto.envelope.EnvelopeCodec`; the node itself never holds
keys.

The ``query``/``update`` methods also report *where* the work happened
(cache hit vs home round trip) so the scalability simulator can attach
realistic service times and network delays.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.crypto.envelope import QueryEnvelope, ResultEnvelope, UpdateEnvelope
from repro.dssp.cache import ViewCache
from repro.dssp.homeserver import HomeServer
from repro.dssp.invalidation import InvalidationEngine
from repro.dssp.predicate_index import PredicateIndexer
from repro.dssp.stats import DsspStats
from repro.errors import CacheError, UnknownApplicationError
from repro.obs.trace import ACTIVE
from repro.obs.trace import span as trace_span
from repro.templates.registry import TemplateRegistry

__all__ = ["DsspNode", "QueryOutcome", "UpdateOutcome"]


@dataclass(frozen=True)
class QueryOutcome:
    """Result of a query through the DSSP, with provenance for the simulator."""

    result: ResultEnvelope
    cache_hit: bool


@dataclass(frozen=True)
class UpdateOutcome:
    """Result of an update through the DSSP."""

    rows_affected: int
    invalidated: int


@dataclass
class _Tenant:
    engine: InvalidationEngine
    #: The application's public template set: how this node turns an
    #: envelope's ``(template_name, params)`` into a statement.
    registry: TemplateRegistry
    #: None for remote tenants: the application's home lives across the
    #: network and miss/update forwarding is the service layer's job.
    home: HomeServer | None = None
    #: Moved by every invalidation pass and flush (:meth:`DsspNode.epoch`).
    epoch: int = 0


class DsspNode:
    """A shared third-party cache node serving multiple applications."""

    def __init__(
        self,
        cache_capacity: int | None = None,
        use_integrity_constraints: bool = True,
        equality_only_independence: bool = False,
    ) -> None:
        self.stats = DsspStats()
        self.cache = ViewCache(capacity=cache_capacity, stats=self.stats)
        self._use_constraints = use_integrity_constraints
        self._equality_only = equality_only_independence
        self._tenants: dict[str, _Tenant] = {}

    # -- tenancy -------------------------------------------------------------

    def register_application(
        self, home: HomeServer, registry: TemplateRegistry | None = None
    ) -> None:
        """Attach an application: its home server and public template set."""
        if home.app_id in self._tenants:
            raise CacheError(f"application {home.app_id!r} already registered")
        resolved = registry or home.registry
        self.cache.register_indexer(home.app_id, PredicateIndexer(resolved))
        self._tenants[home.app_id] = _Tenant(
            self._build_engine(resolved), resolved, home
        )

    def register_remote(self, app_id: str, registry: TemplateRegistry) -> None:
        """Attach an application whose home server is across the network.

        Only the public template set is needed: the node can probe and
        invalidate its cache, while the service layer forwards misses and
        updates to the remote home and admits results via :meth:`admit`.
        """
        if app_id in self._tenants:
            raise CacheError(f"application {app_id!r} already registered")
        self.cache.register_indexer(app_id, PredicateIndexer(registry))
        self._tenants[app_id] = _Tenant(self._build_engine(registry), registry)

    def is_registered(self, app_id: str) -> bool:
        """True if the application is already a tenant of this node."""
        return app_id in self._tenants

    def _build_engine(self, registry: TemplateRegistry) -> InvalidationEngine:
        return InvalidationEngine(
            registry,
            use_integrity_constraints=self._use_constraints,
            equality_only_independence=self._equality_only,
        )

    def _tenant(self, app_id: str) -> _Tenant:
        try:
            return self._tenants[app_id]
        except KeyError:
            raise UnknownApplicationError(app_id) from None

    def _local_home(self, app_id: str) -> HomeServer:
        tenant = self._tenant(app_id)
        if tenant.home is None:
            raise CacheError(
                f"application {app_id!r} is remote: no in-process home server"
            )
        return tenant.home

    # -- client-facing API -----------------------------------------------------

    def query(self, envelope: QueryEnvelope) -> QueryOutcome:
        """Serve a query: cache lookup, else forward to the home server."""
        cached = self.lookup(envelope)
        if cached is not None:
            return QueryOutcome(result=cached, cache_hit=True)
        return QueryOutcome(result=self.fill(envelope), cache_hit=False)

    def update(self, envelope: UpdateEnvelope) -> UpdateOutcome:
        """Route an update to the home server, then invalidate.

        Matches the paper's flow: all updates go to the home organization
        via the DSSP; the DSSP monitors completed updates and invalidates
        cached results as needed — the home organization plays no part in
        invalidation decisions.
        """
        rows = self.forward_update(envelope)
        invalidated = self.invalidate_for(envelope)
        return UpdateOutcome(rows_affected=rows, invalidated=invalidated)

    # -- split-phase API (used by the discrete-event simulator) ---------------------
    #
    # The simulator needs to attach distinct delays to the lookup, the WAN
    # hop, the home service, and the invalidation pass, so it drives these
    # phases separately.  ``query`` / ``update`` above compose them.

    def lookup(self, envelope: QueryEnvelope) -> ResultEnvelope | None:
        """Phase 1 of a query: cache probe.  None means miss (go to home).

        The key is derived from the envelope's fields; a hit binds and
        parses nothing.
        """
        self._tenant(envelope.app_id)  # validate tenancy
        if ACTIVE.get() is None:
            started = time.perf_counter()
            entry = self.cache.get(envelope.identity)
            self.stats.lookup_time_s += time.perf_counter() - started
        else:
            with trace_span("dssp.cache_lookup") as lookup_span:
                started = time.perf_counter()
                entry = self.cache.get(envelope.identity)
                self.stats.lookup_time_s += time.perf_counter() - started
                lookup_span.set("hit", entry is not None)
        if entry is not None:
            self.stats.hits += 1
            return entry.result
        self.stats.misses += 1
        return None

    def visible(self, envelope: QueryEnvelope | UpdateEnvelope):
        """The statement as far as this node may read it: the registry's
        bound instance at ``stmt``/``view``, else None.

        Raises:
            TemplateError, BindingError: a visible name or arity the
                application's registry lacks — known before any hop.
        """
        return envelope.bound(self._tenant(envelope.app_id).registry)

    def fill(self, envelope: QueryEnvelope) -> ResultEnvelope:
        """Phase 2 of a missed query: home round trip + cache admission."""
        bound = self.visible(envelope)
        result = self._local_home(envelope.app_id).serve_query(envelope)
        self.cache.put(envelope, result, bound)
        return result

    def lease(self, envelope: QueryEnvelope) -> tuple:
        """What a remote fill of ``envelope`` needs, taken before it
        leaves: an opaque token for :meth:`admit`.

        It holds the query bound as :meth:`visible` binds it, and the
        application's invalidation epoch.  Every invalidation pass and
        flush for the application moves the epoch, so a fill that finds it
        moved may hold rows one of them was there to drop — the lease idea
        of memcache (Nishtala et al., NSDI 2013).

        Raises:
            TemplateError, BindingError: as :meth:`visible`.
        """
        tenant = self._tenant(envelope.app_id)
        return tenant, tenant.epoch, envelope.bound(tenant.registry)

    def admit(
        self, envelope: QueryEnvelope, result: ResultEnvelope, lease: tuple
    ) -> None:
        """Cache a result fetched from a *remote* home (service layer).

        ``lease`` is :meth:`lease` as taken before the fill left.  If an
        invalidation ran since, the result is not kept (the caller still
        serves it) and ``stats.fill_refused`` counts it.
        """
        tenant, epoch, bound = lease
        if tenant.epoch != epoch:
            self.stats.fill_refused += 1
            return
        self.cache.put(envelope, result, bound)

    def forward_update(self, envelope: UpdateEnvelope) -> int:
        """Phase 1 of an update: application at the home server."""
        return self._local_home(envelope.app_id).apply_update(envelope)

    def invalidate_for(self, envelope: UpdateEnvelope) -> int:
        """Phase 2 of an update: the DSSP-side invalidation pass."""
        tenant = self._tenant(envelope.app_id)
        tenant.epoch += 1
        if ACTIVE.get() is None:
            started = time.perf_counter()
            count = tenant.engine.process_update(
                envelope, self.cache, self.stats
            )
            self.stats.invalidation_time_s += time.perf_counter() - started
            return count
        with trace_span("dssp.invalidate") as invalidate_span:
            started = time.perf_counter()
            count = tenant.engine.process_update(
                envelope, self.cache, self.stats
            )
            self.stats.invalidation_time_s += time.perf_counter() - started
            invalidate_span.set("invalidated", count)
            invalidate_span.set("path", tenant.engine.last_path)
        return count

    def flush(self, app_id: str) -> None:
        """Drop every cached view of an application.

        For when invalidations may have been missed (a re-attached
        invalidation stream): nothing cached, and nothing in flight, may
        be trusted.
        """
        self._tenant(app_id).epoch += 1
        self.cache.invalidate_app(app_id)

    # -- observability -------------------------------------------------------------

    def observed_ipm(
        self, app_id: str
    ) -> dict[tuple[str, str], tuple[int, int]]:
        """The observed IPM: ``(checks, invalidations)`` per compiled plan.

        Keyed by (update template, query template), every pair of the
        application's registry.  Only template-visible updates are
        counted, so no key names more than their envelopes exposed; over
        such updates the values sum to ``stats.invalidation_checks`` and,
        less any blind-bucket drops, to ``stats.invalidations``.  Counted
        since registration or the last :meth:`cold_start`.
        """
        plans = self._tenant(app_id).engine.plans
        return {
            pair: (plan.checks, plan.invalidations)
            for pair, plan in plans.items()
        }

    def snapshot(self) -> dict:
        """JSON-safe live view of this node: counters plus occupancy.

        Exposure-safe by construction: :meth:`DsspStats.to_dict` keys
        invalidations by template *name*, and nothing here touches sealed
        payloads or result rows.
        """
        return {
            "stats": self.stats.to_dict(),
            "cache_entries": len(self.cache),
            "applications": sorted(self._tenants),
        }

    # -- maintenance ---------------------------------------------------------------

    def cold_start(self) -> None:
        """Drop all cached data and counters (each experiment starts cold)."""
        self.cache.clear()
        self.stats.reset()
        for tenant in self._tenants.values():
            tenant.engine.reset_counters()
