"""Load generator for a live DSSP topology: one page runner, two issuers.

Drives the networked system with the same Zipf page workloads the
analytic experiments use, but *measures* instead of predicting.  Every
page goes through one runner, ``_Run.run_page``: it seals and sends each
operation, counts it into the run's books (and its tenant's, when
several run), and records ``now − due`` as the page's latency.  The two
issuers differ only in what ``due`` is:

- :func:`run_load`, the closed loop: N virtual clients each request a
  page, wait for all of its operations, then take the next — the client
  model of the paper's simulator.  A page is due when a lane takes it.
  ``pipeline=N`` gives each client N lanes (pair it with
  ``WireClient(pipeline=N)`` endpoints); issuance still follows
  completions.
- :func:`run_open_load`, the open loop: a seeded
  :class:`~repro.net.traffic.ArrivalSchedule` launches pages regardless
  of completions, and a page is due at its scheduled arrival, so a
  stalled event loop shows in the latencies instead of hiding its own
  queueing.  Each arrival's launch lag is reported as ``sched_lag``, and
  a bounded outstanding-page guard drops (and counts) what the system
  cannot absorb.

Latencies are raw samples in the DES's own
:class:`~repro.simulation.metrics.LatencyStats`, so simulated and
measured pages share one definition of p90 and tail percentiles are
exact.  A recorded :class:`~repro.workloads.trace.Trace` gives every
strategy the identical operation stream; client *i* uses endpoint
``i % len(endpoints)``, the CDN-style affinity of
:class:`~repro.dssp.cluster.DsspCluster`.  The measured counts yield a
:class:`~repro.simulation.scalability.CacheBehavior`, so a run
cross-checks against :func:`~repro.simulation.scalability.predict_p90`.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, replace

from repro.analysis.exposure import ExposurePolicy
from repro.crypto.envelope import EnvelopeCodec
from repro.errors import NetError, WorkloadError
from repro.net.client import WireClient
from repro.net.traffic import ArrivalSchedule
from repro.simulation.metrics import LatencyStats
from repro.simulation.scalability import CacheBehavior
from repro.workloads.trace import Trace

__all__ = ["LoadReport", "TenantWorkload", "run_load", "run_open_load"]


@dataclass(frozen=True)
class LoadReport:
    """What a run against a live topology measured."""

    clients: int
    duration_s: float
    pages: int
    queries: int
    updates: int
    hits: int
    errors: int
    #: Raw page latencies (seconds from each page's due instant).
    latency: LatencyStats
    #: Page lanes per client (1 = closed loop, N = open-loop pipelined).
    pipeline: int = 1
    #: Pages that finished after the deadline.  Closed/pipelined runs
    #: leave them out of ``pages`` and ``latency`` (up to
    #: clients×pipeline lanes straggle past the cutoff and would overstate
    #: throughput).  Open-loop runs keep them: under overload the
    #: stragglers *are* the tail the knee is read from.
    late_pages: int = 0
    #: True when an arrival schedule clocked issuance; False for
    #: completion-clocked runs, pipelined ones included.
    open_loop: bool = False
    #: Arrivals the run *offered*; always ``issued + dropped``.  Closed
    #: runs issue every one (``offered == pages + late_pages + errors``).
    offered: int = 0
    #: Offered arrivals never issued because ``max_outstanding`` requests
    #: were already in flight.  Always 0 for closed/pipelined runs.
    dropped: int = 0
    #: The arrival schedule's compact description (kind, rate, seed,
    #: sha256 digest — see ``ArrivalSchedule.to_dict``); ``None`` for
    #: closed-loop runs.
    arrival: dict | None = None
    #: Per-application books for multi-tenant runs: app id → counter dict
    #: (offered/dropped/pages/late_pages/errors/queries/updates/hits);
    #: ``None`` for single-tenant runs.
    per_app: dict | None = None
    #: Server-side invalidations this run caused, when the caller fetched
    #: STATS around the run (see :meth:`with_invalidations`); ``None``
    #: means "not measured", never "zero".
    invalidations: int | None = None
    #: Per-phase latency breakdown sourced from the client's local span
    #: sink (see :func:`repro.obs.assemble.phase_aggregates`), when the
    #: run traced itself; ``None`` means "not traced".
    phases: dict | None = None
    #: Launch lag of every issued open-loop arrival (seconds from its due
    #: instant to its first instruction); ``None`` for closed-loop runs,
    #: whose pages are due when a lane takes them.
    sched_lag: LatencyStats | None = None

    @property
    def hit_rate(self) -> float:
        """Fraction of queries answered from a DSSP cache."""
        if not self.queries:
            return 0.0
        return self.hits / self.queries

    @property
    def throughput_pages_s(self) -> float:
        """Completed pages per wall-clock second."""
        if self.duration_s <= 0:
            return 0.0
        return self.pages / self.duration_s

    @property
    def mode(self) -> str:
        """``open`` | ``pipelined`` | ``closed`` — how issuance was clocked."""
        if self.open_loop:
            return "open"
        return "pipelined" if self.pipeline > 1 else "closed"

    @property
    def issued(self) -> int:
        """Offered arrivals that were actually launched."""
        return self.offered - self.dropped

    @property
    def offered_rate_s(self) -> float:
        """Offered arrivals per second (the open-loop x-axis)."""
        if self.duration_s <= 0:
            return 0.0
        return self.offered / self.duration_s

    @property
    def achieved_rate_s(self) -> float:
        """Completed pages per second; falls behind ``offered_rate_s``
        past the knee."""
        return self.throughput_pages_s

    @property
    def drop_rate(self) -> float:
        """Fraction of offered arrivals dropped at the outstanding guard."""
        if not self.offered:
            return 0.0
        return self.dropped / self.offered

    def percentile(self, fraction: float) -> float:
        """Page-latency percentile (0 < fraction <= 1) of the raw samples."""
        return self.latency.quantile(fraction)

    @property
    def p50_s(self) -> float:
        """Median page latency."""
        return self.percentile(0.50)

    @property
    def p90_s(self) -> float:
        """90th-percentile page latency (the paper's SLA metric)."""
        return self.percentile(0.90)

    @property
    def p99_s(self) -> float:
        """99th-percentile page latency (tail behaviour under load)."""
        return self.percentile(0.99)

    @property
    def sched_lag_p95_s(self) -> float | None:
        """95th-percentile open-loop launch lag; ``None`` when closed."""
        if self.sched_lag is None:
            return None
        return self.sched_lag.quantile(0.95)

    def with_invalidations(self, invalidations: int) -> "LoadReport":
        """Copy of this report with the server-side invalidation count.

        The client cannot observe invalidations directly; callers that
        fetch STATS snapshots before and after the run attach the delta
        here so :meth:`behavior` can report a real
        ``invalidations_per_update``.
        """
        if invalidations < 0:
            raise WorkloadError(
                f"invalidation count cannot be negative: {invalidations}"
            )
        return replace(self, invalidations=invalidations)

    def with_phases(self, phases: dict) -> "LoadReport":
        """Copy of this report with a per-phase latency breakdown
        (``repro.obs.assemble.phase_aggregates`` over a local span sink):
        the load generator itself only times whole pages."""
        return replace(self, phases=dict(phases))

    def behavior(self) -> CacheBehavior:
        """Measured per-page profile, for ``predict_p90`` cross-checks.

        Raises:
            WorkloadError: if no pages completed, or if updates ran but
                no server-side invalidation count was attached: a silent
                zero ratio would feed ``predict_p90`` a fan-out cost the
                run did not have.  Attach the measured delta via
                :meth:`with_invalidations` or skip the profile.
        """
        if not self.pages:
            raise WorkloadError("no pages completed; nothing to profile")
        if self.updates and self.invalidations is None:
            raise WorkloadError(
                f"{self.updates} updates ran but invalidations were not "
                "measured; attach the server STATS delta with "
                "with_invalidations() before profiling"
            )
        if self.updates:
            invalidations_per_update = self.invalidations / self.updates
        else:
            invalidations_per_update = 0.0
        return CacheBehavior(
            pages=self.pages,
            queries_per_page=self.queries / self.pages,
            hits_per_page=self.hits / self.pages,
            misses_per_page=(self.queries - self.hits) / self.pages,
            updates_per_page=self.updates / self.pages,
            invalidations_per_update=invalidations_per_update,
        )

    def summary(self) -> str:
        """One-line human-readable digest."""
        line = (
            f"pages={self.pages} throughput={self.throughput_pages_s:.1f}/s "
            f"p50={self.p50_s * 1000:.1f}ms p90={self.p90_s * 1000:.1f}ms "
            f"p99={self.p99_s * 1000:.1f}ms "
            f"hits={self.hits} hit_rate={self.hit_rate:.3f} "
            f"errors={self.errors} late_pages={self.late_pages}"
        )
        if self.open_loop:
            line += (
                f" offered={self.offered_rate_s:.1f}/s "
                f"achieved={self.achieved_rate_s:.1f}/s "
                f"dropped={self.dropped} ({self.drop_rate:.1%}) "
                f"sched_lag_p95={self.sched_lag_p95_s * 1000:.1f}ms"
            )
        return line

    def to_dict(self) -> dict:
        """JSON-safe report for machine consumers (CI artifacts)."""
        report = {
            "clients": self.clients,
            "pipeline": self.pipeline,
            "mode": self.mode,
            "invalidations": self.invalidations,
            "duration_s": self.duration_s,
            "offered": self.offered,
            "dropped": self.dropped,
            "pages": self.pages,
            "queries": self.queries,
            "updates": self.updates,
            "hits": self.hits,
            "errors": self.errors,
            "late_pages": self.late_pages,
            "hit_rate": self.hit_rate,
            "offered_rate_s": self.offered_rate_s,
            "achieved_rate_s": self.achieved_rate_s,
            "drop_rate": self.drop_rate,
            "throughput_pages_s": self.throughput_pages_s,
            "p50_s": self.p50_s,
            "p90_s": self.p90_s,
            "p99_s": self.p99_s,
            "sched_lag_p95_s": self.sched_lag_p95_s,
            "latency": {
                "count": self.latency.count,
                "mean_s": self.latency.mean,
                "max_s": max(self.latency.samples, default=0.0),
            },
        }
        if self.arrival is not None:
            report["arrival"] = self.arrival
        if self.per_app is not None:
            report["per_app"] = self.per_app
        if self.phases is not None:
            report["phases"] = self.phases
        return report


@dataclass(frozen=True)
class TenantWorkload:
    """One application's workload: its keys, exposure policy and trace.

    Open-loop runs can mix several: ``weight`` is the tenant's share of
    arrivals (normalised over all tenants), and ``hot_page`` is a
    pre-bound operation list the generator substitutes for arrivals the
    schedule marks hot (flash crowds aim their surge at one template).
    """

    app: str
    codec: EnvelopeCodec
    policy: ExposurePolicy
    trace: Trace
    weight: float = 1.0
    hot_page: tuple | None = None

    def __post_init__(self) -> None:
        if not self.weight > 0:
            raise WorkloadError(
                f"tenant {self.app!r} weight must be positive, "
                f"got {self.weight}"
            )


_BOOK_KEYS = (
    "offered", "dropped", "pages", "late_pages",
    "errors", "queries", "updates", "hits",
)


class _Run:
    """One run's books and the one page runner both issuers share.

    ``deadline`` (a ``perf_counter`` instant, or None) marks pages that
    finish after it as late.  In an ``open_loop`` run a late page still
    counts as a page and every page's launch lag is recorded; in a closed
    loop a late page is only a straggler, and a page is due when a lane
    takes it, so there is no lag to record.
    """

    def __init__(self, tenants, *, deadline, open_loop, on_page) -> None:
        self.totals = dict.fromkeys(_BOOK_KEYS, 0)
        self.per_app = None
        if len(tenants) > 1:
            self.per_app = {
                tenant.app: dict.fromkeys(_BOOK_KEYS, 0) for tenant in tenants
            }
        self.latency = LatencyStats()
        self.sched_lag = LatencyStats() if open_loop else None
        self.deadline = deadline
        self.open_loop = open_loop
        self.on_page = on_page

    def count(self, tenant: TenantWorkload, key: str) -> None:
        self.totals[key] += 1
        if self.per_app is not None:
            self.per_app[tenant.app][key] += 1

    async def run_page(
        self, tenant: TenantWorkload, page, endpoint, due: float
    ) -> None:
        """Seal and send one page's operations; time it from ``due``.

        Operations always count — they really hit the servers, and
        server-side counters (hits, invalidations) must stay reconcilable
        with the client's books.  A failed operation ends the page as an
        error; only a page that completes gets a latency.
        """
        if self.sched_lag is not None:
            self.sched_lag.record(time.perf_counter() - due)
        codec, policy = tenant.codec, tenant.policy
        for operation in page:
            bound = operation.bound
            try:
                if operation.is_update:
                    level = policy.update_level(bound.template.name)
                    await endpoint.update(codec.seal_update(bound, level))
                    self.count(tenant, "updates")
                else:
                    level = policy.query_level(bound.template.name)
                    outcome = await endpoint.query(
                        codec.seal_query(bound, level)
                    )
                    self.count(tenant, "queries")
                    if outcome.cache_hit:
                        self.count(tenant, "hits")
            except NetError:
                self.count(tenant, "errors")
                return
        finished = time.perf_counter()
        if self.past_deadline(finished):
            self.count(tenant, "late_pages")
            if not self.open_loop:
                return
        self.count(tenant, "pages")
        self.latency.record(finished - due)
        if self.on_page is not None:
            await self.on_page(self.totals["pages"])

    def past_deadline(self, now: float) -> bool:
        return self.deadline is not None and now >= self.deadline

    def report(self, **fields) -> LoadReport:
        totals = self.totals
        return LoadReport(
            pages=totals["pages"],
            queries=totals["queries"],
            updates=totals["updates"],
            hits=totals["hits"],
            errors=totals["errors"],
            late_pages=totals["late_pages"],
            offered=totals["offered"],
            dropped=totals["dropped"],
            latency=self.latency,
            open_loop=self.open_loop,
            sched_lag=self.sched_lag,
            per_app=self.per_app,
            **fields,
        )


async def run_load(
    endpoints: list[WireClient],
    workload: TenantWorkload,
    *,
    clients: int = 8,
    pages: int | None = None,
    duration_s: float | None = None,
    pipeline: int = 1,
    on_page=None,
) -> LoadReport:
    """Drive a live topology closed-loop and measure it.

    Args:
        endpoints: One :class:`WireClient` per DSSP node.
        workload: Codec, exposure policy and bound trace of the one
            application driven.
        clients: Closed-loop virtual client count.
        pages: Stop after this many pages (None = until ``duration_s``).
        duration_s: Stop after this much wall-clock time.
        pipeline: Concurrent page lanes per client (1 = closed loop).
        on_page: Optional async callback awaited with the cumulative
            completed-page count after each page (chaos uses it to sever
            connections every N pages).

    A duration-bounded run can wrap around the trace; replayed INSERTs
    then collide with rows the first pass created and land in
    ``errors`` — keep ``pages <= len(trace)`` when that matters.
    """
    if not endpoints:
        raise WorkloadError("loadgen needs at least one DSSP endpoint")
    if pages is None and duration_s is None:
        raise WorkloadError("set a pages budget or a duration (or both)")
    if pipeline < 1:
        raise WorkloadError(f"pipeline must be >= 1, got {pipeline}")
    started = time.perf_counter()
    run = _Run(
        [workload],
        deadline=None if duration_s is None else started + duration_s,
        open_loop=False,
        on_page=on_page,
    )
    remaining = pages

    async def lane(endpoint) -> None:
        nonlocal remaining
        while not run.past_deadline(time.perf_counter()):
            if remaining is not None:
                if remaining <= 0:
                    return
                remaining -= 1
            # Every offered page is issued: dropped stays 0.
            run.count(workload, "offered")
            page = workload.trace.sample_page()
            await run.run_page(workload, page, endpoint, time.perf_counter())

    await asyncio.gather(
        *(
            lane(endpoints[client_id % len(endpoints)])
            for client_id in range(clients)
            for _ in range(pipeline)
        )
    )
    elapsed = time.perf_counter() - started
    if duration_s is not None:
        # Headline pages all finished inside the budget (stragglers are
        # in ``late_pages``), so the matching denominator is the budget
        # window, not the budget plus straggler drain time.
        elapsed = min(elapsed, duration_s)
    return run.report(clients=clients, duration_s=elapsed, pipeline=pipeline)


async def run_open_load(
    endpoints: list[WireClient],
    tenants: list[TenantWorkload],
    schedule: ArrivalSchedule,
    *,
    max_outstanding: int = 256,
    on_page=None,
) -> LoadReport:
    """Drive a live topology open-loop: issue on the arrival schedule.

    Each timestamp in ``schedule`` launches one page without waiting for
    earlier pages, and the page's clock starts at that timestamp, not
    when its task first runs.  The only brake is ``max_outstanding``: an
    arrival finding that many pages in flight is *dropped* and counted,
    never queued, so the report says how much offered load the system
    absorbed.

    Tenants split arrivals by ``weight`` via a seeded choice that
    consumes one RNG draw per arrival whether or not the arrival is
    dropped — per-app offered counts depend only on the schedule and
    seed, not on timing.  Arrivals the schedule marks hot use the
    tenant's ``hot_page`` (when set) instead of advancing its trace.

    Pages finishing after the window stay in the headline counts
    (``late_pages`` just counts them).  The :class:`LoadReport` has
    ``open_loop=True``, the launch lags under ``sched_lag``, the
    schedule's digest under ``arrival``, and per-app books when more
    than one tenant runs.
    """
    if not endpoints:
        raise WorkloadError("open-loop loadgen needs at least one endpoint")
    if not tenants:
        raise WorkloadError("open-loop loadgen needs at least one tenant")
    if max_outstanding < 1:
        raise WorkloadError(
            f"max_outstanding must be >= 1, got {max_outstanding}"
        )
    apps = [tenant.app for tenant in tenants]
    if len(set(apps)) != len(apps):
        raise WorkloadError(f"duplicate tenant apps: {apps}")
    weights = [tenant.weight for tenant in tenants]
    tenant_rng = random.Random(f"tenants:{schedule.seed}")
    outstanding: set[asyncio.Task] = set()
    started = time.perf_counter()
    run = _Run(
        tenants,
        deadline=started + schedule.duration_s,
        open_loop=True,
        on_page=on_page,
    )

    for index, at in enumerate(schedule.timestamps):
        if len(tenants) == 1:
            tenant = tenants[0]
        else:
            pick = tenant_rng.choices(range(len(tenants)), weights=weights)
            tenant = tenants[pick[0]]
        due = started + at
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        run.count(tenant, "offered")
        if len(outstanding) >= max_outstanding:
            run.count(tenant, "dropped")
            continue
        hot = bool(schedule.hot) and schedule.hot[index]
        if hot and tenant.hot_page is not None:
            page = tenant.hot_page
        else:
            page = tenant.trace.sample_page()
        task = asyncio.create_task(
            run.run_page(tenant, page, endpoints[index % len(endpoints)], due)
        )
        outstanding.add(task)
        task.add_done_callback(outstanding.discard)

    if outstanding:
        await asyncio.gather(*outstanding)
    return run.report(
        clients=len(endpoints),
        duration_s=schedule.duration_s,
        arrival=schedule.to_dict(),
    )
