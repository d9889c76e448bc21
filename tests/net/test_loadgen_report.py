"""LoadReport accounting: measured invalidations feed the analytic model.

Regression for the ``behavior()`` hole where ``invalidations_per_update``
was hardcoded to zero: the client cannot observe server-side
invalidations, so the report must distinguish "not measured" (None) from
"measured zero", accept the STATS delta via ``with_invalidations``, and
propagate the ratio into the ``CacheBehavior`` that ``predict_p90``
consumes.
"""

from __future__ import annotations

import asyncio
import time
from types import SimpleNamespace

import pytest

from repro.analysis.exposure import ExposureLevel, ExposurePolicy
from repro.crypto import Keyring
from repro.crypto.envelope import EnvelopeCodec
from repro.errors import WorkloadError
from repro.net.loadgen import (
    LoadReport,
    TenantWorkload,
    run_load,
    run_open_load,
)
from repro.net.traffic import ArrivalSchedule
from repro.simulation.metrics import LatencyStats, percentile
from repro.simulation.scalability import SimulationParams, predict_p90
from repro.workloads.base import Operation
from repro.workloads.trace import Trace


def make_report(**overrides) -> LoadReport:
    latency = LatencyStats([0.01, 0.02, 0.05])
    fields = dict(
        clients=4,
        duration_s=1.0,
        pages=100,
        queries=300,
        updates=50,
        hits=200,
        errors=0,
        latency=latency,
    )
    fields.update(overrides)
    return LoadReport(**fields)


class TestInvalidationAccounting:
    def test_unmeasured_with_updates_refuses_to_profile(self):
        """Updates ran but nobody measured the invalidations: a silent
        0.0 ratio would make ``predict_p90`` optimistic, so ``behavior``
        must refuse instead."""
        report = make_report()
        assert report.invalidations is None
        with pytest.raises(WorkloadError, match="not.*measured"):
            report.behavior()

    def test_unmeasured_without_updates_is_a_true_zero(self):
        report = make_report(updates=0)
        assert report.behavior().invalidations_per_update == 0.0

    def test_with_invalidations_populates_the_ratio(self):
        report = make_report().with_invalidations(150)
        assert report.invalidations == 150
        # 150 invalidations over 50 updates: 3 entries die per update.
        assert report.behavior().invalidations_per_update == 3.0

    def test_original_report_is_unchanged(self):
        original = make_report()
        original.with_invalidations(10)
        assert original.invalidations is None

    def test_measured_zero_is_a_real_measurement(self):
        report = make_report().with_invalidations(0)
        assert report.invalidations == 0
        assert report.behavior().invalidations_per_update == 0.0

    def test_negative_count_rejected(self):
        with pytest.raises(WorkloadError, match="negative"):
            make_report().with_invalidations(-1)

    def test_to_dict_carries_pipeline_and_invalidations(self):
        report = make_report(pipeline=8).with_invalidations(42)
        payload = report.to_dict()
        assert payload["pipeline"] == 8
        assert payload["invalidations"] == 42

    def test_to_dict_summarises_raw_latencies(self):
        payload = make_report().to_dict()
        assert payload["latency"] == {
            "count": 3,
            "mean_s": pytest.approx(0.08 / 3),
            "max_s": 0.05,
        }
        # A closed run has no arrival schedule, so no launch lag.
        assert payload["sched_lag_p95_s"] is None

    def test_predict_p90_responds_to_the_measured_ratio(self):
        """The cross-check is only honest if the measured fan-out cost
        actually reaches the analytic model: a heavy invalidation ratio
        must predict a strictly slower p90 than the hardcoded zero did."""
        params = SimulationParams()
        cheap = make_report().with_invalidations(0).behavior()
        heavy = make_report().with_invalidations(50 * 40).behavior()
        assert heavy.invalidations_per_update == 40.0
        assert predict_p90(50, params, heavy) > predict_p90(50, params, cheap)


class _StubEndpoint:
    """Endpoint double: serves misses after a fixed per-operation delay."""

    def __init__(self, delay_s: float = 0.0) -> None:
        self.delay_s = delay_s

    async def query(self, envelope):
        if self.delay_s:
            await asyncio.sleep(self.delay_s)
        return SimpleNamespace(cache_hit=False)

    async def update(self, envelope):
        if self.delay_s:
            await asyncio.sleep(self.delay_s)
        return SimpleNamespace(rows_affected=1, invalidated=0)


def _tenant(simple_toystore, app="toystore", **overrides) -> TenantWorkload:
    fields = dict(
        app=app,
        codec=EnvelopeCodec(Keyring("toystore")),
        policy=ExposurePolicy.uniform(simple_toystore, ExposureLevel.STMT),
        trace=Trace(
            application="toystore", pages=[[("query", "Q2", [5])]]
        ).bind(simple_toystore),
    )
    fields.update(overrides)
    return TenantWorkload(**fields)


class TestDeadlineAccounting:
    """Regression: lanes in flight at the deadline used to finish late and
    still count toward ``pages``, overstating duration-bounded throughput
    at high ``--pipeline``."""

    async def test_page_finishing_after_deadline_is_late(self, simple_toystore):
        workload = _tenant(simple_toystore)
        report = await run_load(
            [_StubEndpoint(delay_s=0.15)],
            workload,
            clients=1,
            duration_s=0.03,
        )
        assert report.pages == 0
        assert report.late_pages == 1
        # A late page's operations still count — they really hit the
        # servers, and server-side counters must reconcile with the
        # client's books — but the page itself stays out of ``pages``
        # and the latency histogram.
        assert report.queries == 1
        assert report.latency.count == 0

    async def test_every_straggling_lane_is_accounted(self, simple_toystore):
        workload = _tenant(simple_toystore)
        report = await run_load(
            [_StubEndpoint(delay_s=0.15)],
            workload,
            clients=2,
            pipeline=3,
            duration_s=0.03,
        )
        assert report.pages == 0
        assert report.late_pages == 6  # one per lane: clients * pipeline

    async def test_duration_is_clamped_to_the_budget(self, simple_toystore):
        workload = _tenant(simple_toystore)
        report = await run_load(
            [_StubEndpoint(delay_s=0.15)],
            workload,
            clients=1,
            duration_s=0.03,
        )
        assert report.duration_s <= 0.03

    async def test_on_time_pages_are_unaffected(self, simple_toystore):
        workload = _tenant(simple_toystore)
        report = await run_load(
            [_StubEndpoint()],
            workload,
            clients=2,
            pages=6,
            duration_s=30.0,
        )
        assert report.pages == 6
        assert report.late_pages == 0
        assert report.queries == 6
        assert report.latency.count == 6


def _schedule(timestamps, duration_s=1.0, hot=()) -> ArrivalSchedule:
    return ArrivalSchedule(
        kind="poisson",
        rate=len(timestamps) / duration_s,
        seed=0,
        duration_s=duration_s,
        timestamps=tuple(timestamps),
        hot=tuple(hot),
    )


class TestClosedLoopOfferedAccounting:
    """Regression for the offered-vs-issued hole: a pipelined run used to
    report throughput/latency as if every arrival was issued without ever
    saying how many arrivals there *were*.  Closed and pipelined runs now
    carry explicit offered/dropped counts with a checkable identity."""

    async def test_closed_loop_offered_identity(self, simple_toystore):
        workload = _tenant(simple_toystore)
        report = await run_load(
            [_StubEndpoint()], workload, clients=2, pages=6
        )
        assert not report.open_loop
        assert report.mode == "closed"
        assert report.dropped == 0
        assert report.offered == report.issued == 6
        assert report.offered == (
            report.pages + report.late_pages + report.errors
        )

    async def test_pipelined_run_is_labeled_and_balanced(
        self, simple_toystore
    ):
        workload = _tenant(simple_toystore)
        report = await run_load(
            [_StubEndpoint(delay_s=0.05)],
            workload,
            clients=2,
            pipeline=3,
            duration_s=0.02,
        )
        assert report.mode == "pipelined"
        assert not report.open_loop  # issuance is still completion-clocked
        assert report.dropped == 0
        # The straggling lanes are never-completed-in-window arrivals and
        # must show up on the offered side, not vanish.
        assert report.offered == (
            report.pages + report.late_pages + report.errors
        )
        payload = report.to_dict()
        assert payload["mode"] == "pipelined"
        assert payload["offered"] == report.offered
        assert payload["dropped"] == 0


class TestOpenLoopAccounting:
    async def test_offered_equals_issued_plus_dropped(self, simple_toystore):
        tenant = _tenant(simple_toystore)
        # Four near-simultaneous arrivals against one in-flight slot and a
        # slow endpoint: the first is issued, the rest hit the guard.
        schedule = _schedule([0.0, 0.001, 0.002, 0.003], duration_s=0.05)
        report = await run_open_load(
            [_StubEndpoint(delay_s=0.1)],
            [tenant],
            schedule,
            max_outstanding=1,
        )
        assert report.open_loop and report.mode == "open"
        assert report.offered == 4
        assert report.dropped == 3
        assert report.issued == 1
        assert report.offered == report.issued + report.dropped
        assert report.drop_rate == 0.75

    async def test_late_pages_stay_in_headline_counts(self, simple_toystore):
        tenant = _tenant(simple_toystore)
        schedule = _schedule([0.0], duration_s=0.02)
        report = await run_open_load(
            [_StubEndpoint(delay_s=0.1)], [tenant], schedule
        )
        # Completed after the window: still a page, still in the
        # histogram — under overload the stragglers are the tail.
        assert report.pages == 1
        assert report.late_pages == 1
        assert report.latency.count == 1
        assert report.p99_s >= 0.1

    async def test_report_carries_schedule_digest(self, simple_toystore):
        tenant = _tenant(simple_toystore)
        schedule = _schedule([0.0, 0.01], duration_s=0.1)
        report = await run_open_load([_StubEndpoint()], [tenant], schedule)
        assert report.arrival["digest"] == schedule.digest()
        assert report.arrival["offered"] == 2
        payload = report.to_dict()
        assert payload["arrival"]["digest"] == schedule.digest()
        assert payload["mode"] == "open"

    async def test_hot_arrivals_use_the_hot_page(self, simple_toystore):
        hot_page = (
            Operation.update(simple_toystore.update("U1").bind([1])),
        )
        tenant = _tenant(simple_toystore, hot_page=hot_page)
        schedule = _schedule(
            [0.0, 0.01, 0.02], duration_s=0.1, hot=[True, False, True]
        )
        report = await run_open_load([_StubEndpoint()], [tenant], schedule)
        # Two hot arrivals ran the one-update hot page; the cold one
        # advanced the trace (a one-query page).
        assert report.updates == 2
        assert report.queries == 1

    async def test_single_tenant_has_no_per_app_books(self, simple_toystore):
        report = await run_open_load(
            [_StubEndpoint()],
            [_tenant(simple_toystore)],
            _schedule([0.0], duration_s=0.1),
        )
        assert report.per_app is None

    async def test_per_app_books_balance_and_are_deterministic(
        self, simple_toystore
    ):
        async def one_run():
            tenants = [
                _tenant(simple_toystore, app="heavy", weight=0.7),
                _tenant(simple_toystore, app="light", weight=0.3),
            ]
            schedule = _schedule(
                [index * 0.001 for index in range(30)], duration_s=0.5
            )
            return await run_open_load(
                [_StubEndpoint()], tenants, schedule
            )

        first = await one_run()
        second = await one_run()
        assert set(first.per_app) == {"heavy", "light"}
        for books in first.per_app.values():
            assert books["offered"] == (
                books["pages"] + books["late_pages"] + books["errors"]
            ) + books["dropped"]
        # The weighted tenant split is seeded by the schedule: same
        # schedule, same split, drop or no drop.
        assert {
            app: books["offered"] for app, books in first.per_app.items()
        } == {app: books["offered"] for app, books in second.per_app.items()}

    async def test_validation(self, simple_toystore):
        tenant = _tenant(simple_toystore)
        schedule = _schedule([0.0], duration_s=0.1)
        with pytest.raises(WorkloadError, match="at least one endpoint"):
            await run_open_load([], [tenant], schedule)
        with pytest.raises(WorkloadError, match="at least one tenant"):
            await run_open_load([_StubEndpoint()], [], schedule)
        with pytest.raises(WorkloadError, match="max_outstanding"):
            await run_open_load(
                [_StubEndpoint()], [tenant], schedule, max_outstanding=0
            )
        with pytest.raises(WorkloadError, match="duplicate tenant"):
            await run_open_load(
                [_StubEndpoint()],
                [tenant, _tenant(simple_toystore)],
                schedule,
            )
        with pytest.raises(WorkloadError, match="weight must be positive"):
            _tenant(simple_toystore, weight=0.0)


class _StallOnce(_StubEndpoint):
    """Endpoint whose first query blocks the whole event loop."""

    def __init__(self, stall_s: float) -> None:
        super().__init__()
        self.stall_s = stall_s

    async def query(self, envelope):
        stall, self.stall_s = self.stall_s, 0.0
        time.sleep(stall)  # deliberately blocking: the loop itself stalls
        return await super().query(envelope)


class _SpreadEndpoint(_StubEndpoint):
    """Endpoint whose n-th operation takes the n-th of ``delays``."""

    def __init__(self, delays) -> None:
        super().__init__()
        self.delays = iter(delays)

    async def query(self, envelope):
        await asyncio.sleep(next(self.delays))
        return SimpleNamespace(cache_hit=False)


class TestHonestClock:
    """Open-loop pages are timed from their scheduled arrival, and the
    percentiles are read from raw samples."""

    async def test_stalled_loop_shows_in_the_latency(self, simple_toystore):
        # The first page blocks the loop for 200 ms, so the arrival due at
        # 50 ms cannot launch before ~200 ms.  Timed from its task's first
        # instruction it would look instant; timed from its due instant it
        # carries the ~150 ms it queued.
        report = await run_open_load(
            [_StallOnce(0.2)],
            [_tenant(simple_toystore)],
            _schedule([0.0, 0.05], duration_s=1.0),
        )
        assert report.pages == 2
        assert report.latency.samples[1] >= 0.14
        assert max(report.sched_lag.samples) >= 0.14
        assert report.sched_lag_p95_s == report.to_dict()["sched_lag_p95_s"]
        assert "sched_lag_p95=" in report.summary()

    async def test_percentiles_are_exact(self, simple_toystore):
        pages = 120
        delays = [(index * 37 % pages) * 0.0004 for index in range(pages)]
        report = await run_open_load(
            [_SpreadEndpoint(delays)],
            [_tenant(simple_toystore)],
            _schedule([0.0] * pages, duration_s=1.0),
        )
        samples = report.latency.samples
        assert len(samples) == pages
        for name, q in (("p50_s", 0.50), ("p90_s", 0.90), ("p99_s", 0.99)):
            assert getattr(report, name) == percentile(samples, q)
        assert report.p90_s < report.p99_s
