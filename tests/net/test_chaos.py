"""Chaos acceptance: the oracle passes under faults and catches sabotage.

Three layers of evidence that the fault injection + oracle combination is
doing real work:

* a matrix of fault plans (frame faults, node kills, both) over a live
  2-node topology ends with zero violations — the service's recovery
  machinery (retries, dedup, reconnect-and-flush) genuinely masks every
  injected fault;
* two runs with the same seed produce byte-identical canonical fault logs
  and reports — a failing chaos run is replayable;
* a *mutation* run — one node's invalidation deliberately broken — makes
  the oracle report a stale read, while the unmutated system passes the
  identical trace.  An oracle that cannot fail proves nothing.
"""

from __future__ import annotations

import pytest

from repro.analysis.exposure import ExposurePolicy
from repro.dssp.invalidation import StrategyClass
from repro.net.chaos import ChaosLog, FaultPlan
from repro.net.oracle import ChaosRunner, ChaosTopology, run_chaos
from repro.workloads.trace import Trace


def make_trace() -> Trace:
    """A fixed mixed workload: cyclic replay stretches it to any length."""
    return Trace(
        application="toystore",
        pages=[
            [("query", "Q2", [1]), ("query", "Q2", [2]), ("query", "Q1", ["toy3"])],
            [("query", "Q2", [1]), ("update", "U1", [5]), ("query", "Q2", [5])],
            [("query", "Q3", [1]), ("query", "Q2", [2])],
            [("update", "U1", [6]), ("query", "Q2", [6]), ("query", "Q2", [1])],
            [("query", "Q2", [3]), ("query", "Q1", ["toy2"]), ("query", "Q2", [2])],
            [("query", "Q2", [4]), ("update", "U1", [7]), ("query", "Q3", [2])],
        ],
    )


def make_policy(registry, strategy=StrategyClass.MTIS) -> ExposurePolicy:
    return ExposurePolicy.uniform(registry, strategy.exposure_level)


async def run(
    registry, database, plan, *, pages, clients=4, nodes=2, pipeline=None,
    shards=False, policy=None,
):
    return await run_chaos(
        "toystore",
        registry,
        database.clone(),
        policy or make_policy(registry),
        make_trace(),
        plan,
        nodes=nodes,
        clients=clients,
        pages=pages,
        pipeline=pipeline,
        shards=shards,
    )


class TestChaosMatrix:
    async def test_fault_free_baseline(self, simple_toystore, toystore_db):
        plan = FaultPlan(seed=0)
        # Two full cycles of the trace: second-cycle reads of tables no
        # update touches (Q3 on customers) are guaranteed cache hits.
        report, log = await run(
            simple_toystore, toystore_db, plan, pages=12
        )
        assert report.ok, report.summary()
        assert report.queries > 0 and report.updates > 0
        assert report.hits > 0  # the cache is actually in play
        assert len(log) == 0

    @pytest.mark.parametrize(
        "plan",
        [
            FaultPlan.uniform(101, 0.15),
            FaultPlan.uniform(202, 0.3),
            FaultPlan(seed=7, drop_rate=0.3),  # pure connection carnage
            FaultPlan(seed=8, truncate_rate=0.25),  # garbled frames only
        ],
        ids=["uniform-15", "uniform-30", "drops", "truncations"],
    )
    async def test_frame_faults_never_violate(
        self, plan, simple_toystore, toystore_db
    ):
        report, log = await run(
            simple_toystore, toystore_db, plan, pages=10
        )
        assert report.ok, report.summary()
        assert len(log) > 0  # the plan actually fired

    async def test_kills_with_faults_never_violate(
        self, simple_toystore, toystore_db
    ):
        plan = FaultPlan.uniform(
            303, 0.15, kill_every=3, kill_targets=("dssp-0", "home")
        )
        report, log = await run(
            simple_toystore, toystore_db, plan, pages=9
        )
        assert report.ok, report.summary()
        assert report.kills == 2  # pages 3 (dssp-0) and 6 (home)
        kinds = log.counts()
        assert kinds.get("kill") == 2

    @pytest.mark.parametrize("level", [StrategyClass.MSIS, StrategyClass.MVIS])
    async def test_sharded_kills_with_visible_statements_never_violate(
        self, level, simple_toystore, toystore_db
    ):
        # The one sharded kill-and-restart case, at the exposure levels
        # where invalidation reads buckets through the index.
        plan = FaultPlan.uniform(
            404, 0.15, kill_every=4, kill_targets=("dssp-0",)
        )
        report, log = await run(
            simple_toystore, toystore_db, plan, pages=12, shards=True,
            policy=make_policy(simple_toystore, level),
        )
        assert report.ok, report.summary()
        assert report.queries > 0 and report.updates > 0
        assert len(log) > 0  # faults genuinely fired across the indexed path

    async def test_same_seed_gives_identical_run(
        self, simple_toystore, toystore_db
    ):
        plan = FaultPlan.uniform(
            77, 0.25, kill_every=4, kill_targets=("dssp-1",)
        )
        first_report, first_log = await run(
            simple_toystore, toystore_db, plan, pages=8
        )
        second_report, second_log = await run(
            simple_toystore, toystore_db, plan, pages=8
        )
        assert first_report.ok and second_report.ok
        assert len(first_log) > 0
        assert [e.to_dict() for e in first_log.canonical()] == [
            e.to_dict() for e in second_log.canonical()
        ]
        assert first_report.to_dict() == second_report.to_dict()


# Marked slow centrally: tests/conftest.py::SLOW_NODEID_PREFIXES.
class TestPipelinedChaosMatrix:
    """The PR-4 fault matrix again, with ops routed over the pipelined
    channel (and batched fan-out live): the pending-map/reader machinery
    must mask the same faults the serial transport does."""

    PIPELINE = 4

    async def test_fault_free_baseline(self, simple_toystore, toystore_db):
        report, log = await run(
            simple_toystore,
            toystore_db,
            FaultPlan(seed=0),
            pages=12,
            pipeline=self.PIPELINE,
        )
        assert report.ok, report.summary()
        assert report.hits > 0
        assert len(log) == 0

    @pytest.mark.parametrize(
        "plan",
        [
            FaultPlan.uniform(101, 0.15),
            FaultPlan.uniform(202, 0.3),
            FaultPlan(seed=7, drop_rate=0.3),
            FaultPlan(seed=8, truncate_rate=0.25),
        ],
        ids=["uniform-15", "uniform-30", "drops", "truncations"],
    )
    async def test_frame_faults_never_violate(
        self, plan, simple_toystore, toystore_db
    ):
        report, log = await run(
            simple_toystore,
            toystore_db,
            plan,
            pages=10,
            pipeline=self.PIPELINE,
        )
        assert report.ok, report.summary()
        assert len(log) > 0

    async def test_kills_with_faults_never_violate(
        self, simple_toystore, toystore_db
    ):
        plan = FaultPlan.uniform(
            303, 0.15, kill_every=3, kill_targets=("dssp-0", "home")
        )
        report, log = await run(
            simple_toystore,
            toystore_db,
            plan,
            pages=9,
            pipeline=self.PIPELINE,
        )
        assert report.ok, report.summary()
        assert report.kills == 2
        assert log.counts().get("kill") == 2

    async def test_same_seed_gives_identical_run(
        self, simple_toystore, toystore_db
    ):
        plan = FaultPlan.uniform(
            77, 0.25, kill_every=4, kill_targets=("dssp-1",)
        )
        first_report, first_log = await run(
            simple_toystore, toystore_db, plan, pages=8,
            pipeline=self.PIPELINE,
        )
        second_report, second_log = await run(
            simple_toystore, toystore_db, plan, pages=8,
            pipeline=self.PIPELINE,
        )
        assert first_report.ok and second_report.ok
        assert len(first_log) > 0
        assert [e.to_dict() for e in first_log.canonical()] == [
            e.to_dict() for e in second_log.canonical()
        ]
        assert first_report.to_dict() == second_report.to_dict()


# The mutation trace isolates one read-your-peers'-writes scenario: with
# clients=2 and 2 nodes, page p is issued by client p % 2 on node p % 2.
MUTATION_TRACE_PAGES = [
    [("query", "Q2", [5])],  # page 0, node 0: prime its cache
    [("query", "Q2", [5])],  # page 1, node 1: prime its cache
    [("update", "U1", [5])],  # page 2, node 0: delete; stream must reach 1
    [("query", "Q2", [5])],  # page 3, node 1: must observe the delete
]


class TestOracleIsLive:
    """Disable invalidation on one node; the oracle must catch it."""

    @staticmethod
    async def run_mutation_scenario(registry, database, *, mutate: bool):
        trace = Trace(application="toystore", pages=MUTATION_TRACE_PAGES)
        log = ChaosLog()
        topology = ChaosTopology(
            "toystore",
            registry,
            database.clone(),
            make_policy(registry),
            plan=FaultPlan(seed=0),
            log=log,
            nodes=2,
        )
        if mutate:
            # The sabotage: node 1 acknowledges stream pushes (so the
            # convergence barrier is satisfied) but never invalidates —
            # exactly the failure mode the stale-read check exists for.
            topology.handles[1].node.invalidate_for = lambda envelope: 0
        await topology.start()
        try:
            runner = ChaosRunner(topology, trace, clients=2, pages=4)
            return await runner.run()
        finally:
            await topology.stop()

    async def test_broken_invalidation_is_reported_as_stale_read(
        self, simple_toystore, toystore_db
    ):
        report = await self.run_mutation_scenario(
            simple_toystore, toystore_db, mutate=True
        )
        assert not report.ok
        kinds = {violation.kind for violation in report.violations}
        assert "stale_read" in kinds
        stale = next(
            v for v in report.violations if v.kind == "stale_read"
        )
        assert stale.node == "dssp-1"
        assert stale.template == "Q2"

    async def test_unmutated_system_passes_the_same_trace(
        self, simple_toystore, toystore_db
    ):
        report = await self.run_mutation_scenario(
            simple_toystore, toystore_db, mutate=False
        )
        assert report.ok, report.summary()
