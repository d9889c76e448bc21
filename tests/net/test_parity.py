"""Deployment parity: the networked cluster equals the in-process one.

The oracle's trust argument leans on the in-process engine being a faithful
model of the networked deployment.  This suite closes the loop: replaying
one recorded trace through both — same placement (client affinity, or a
consistent-hash ring when sharded), no faults — must produce *identical*
cache behavior (hits, misses, invalidations) and identical master
databases.  Any drift here would mean the service layer
changed the caching semantics, not just the transport.
"""

from __future__ import annotations

import pytest

from repro.analysis.exposure import ExposurePolicy
from repro.crypto import Keyring
from repro.dssp import HomeServer
from repro.dssp.cluster import DsspCluster, replay_trace_counts
from repro.dssp.invalidation import StrategyClass
from repro.dssp.stats import DsspStats
from repro.net.chaos import ChaosLog, FaultPlan
from repro.net.oracle import ChaosRunner, ChaosTopology
from repro.workloads.trace import Trace

from tests.net.test_chaos import make_trace

PAGES = 12
CLIENTS = 4
NODES = 2


def replay_in_process(
    registry, database, policy, trace: Trace, *, sharded: bool = False
) -> dict:
    cluster = DsspCluster(nodes=NODES, sharded=sharded)
    home = HomeServer(
        "toystore",
        database.clone(),
        registry,
        policy,
        Keyring("toystore", b"k" * 32),
    )
    cluster.register_application(home)
    counts = replay_trace_counts(
        cluster, home, trace, clients=CLIENTS, pages=PAGES
    )
    return counts, home.database


async def replay_networked(
    registry,
    database,
    policy,
    trace: Trace,
    *,
    pipeline: int | None = None,
    sharded: bool = False,
):
    topology = ChaosTopology(
        "toystore",
        registry,
        database.clone(),
        policy,
        plan=FaultPlan(seed=0),  # all rates zero: transport only
        log=ChaosLog(),
        nodes=NODES,
        pipeline=pipeline,
        shards=sharded,
    )
    async with topology:
        runner = ChaosRunner(
            topology, trace, clients=CLIENTS, pages=PAGES
        )
        report = await runner.run()
        stats = DsspStats()
        for handle in topology.handles:
            stats.merge(handle.node.stats)
        return report, stats, topology.home_database().clone()


@pytest.fixture(params=[StrategyClass.MTIS, StrategyClass.MVIS])
def policy(request, simple_toystore) -> ExposurePolicy:
    return ExposurePolicy.uniform(
        simple_toystore, request.param.exposure_level
    )


@pytest.mark.parametrize("sharded", [False, True])
class TestDeploymentParity:
    async def test_same_trace_same_counts_same_database(
        self, policy, simple_toystore, toystore_db, sharded
    ):
        trace = make_trace()
        counts, reference_db = replay_in_process(
            simple_toystore, toystore_db, policy, trace, sharded=sharded
        )
        report, net_stats, net_db = await replay_networked(
            simple_toystore, toystore_db, policy, trace, sharded=sharded
        )

        assert report.ok, report.summary()
        assert report.pages == counts["pages"] == PAGES
        assert report.queries == counts["queries"]
        assert report.updates == counts["updates"]
        # The load-bearing equality: byte-identical cache behavior.
        assert report.hits == counts["hits"]
        assert net_stats.hits == counts["hits"]
        assert net_stats.misses == counts["misses"]
        assert net_stats.invalidations == counts["invalidations"]
        assert counts["hits"] > 0  # parity on an idle cache proves nothing

        # And identical master copies at the end.
        for table in sorted(net_db.schema.table_names):
            assert sorted(net_db.rows(table), key=repr) == sorted(
                reference_db.rows(table), key=repr
            ), f"table {table!r} diverged"

    async def test_pipelined_batched_transport_preserves_parity(
        self, policy, simple_toystore, toystore_db, sharded
    ):
        """The pipelined channel + batched fan-out are pure transport
        changes: the same trace still produces the exact cache behavior
        and master database of the in-process engine."""
        trace = make_trace()
        counts, reference_db = replay_in_process(
            simple_toystore, toystore_db, policy, trace, sharded=sharded
        )
        report, net_stats, net_db = await replay_networked(
            simple_toystore,
            toystore_db,
            policy,
            trace,
            pipeline=4,
            sharded=sharded,
        )

        assert report.ok, report.summary()
        assert report.pages == counts["pages"] == PAGES
        assert report.queries == counts["queries"]
        assert report.updates == counts["updates"]
        assert report.hits == counts["hits"]
        assert net_stats.hits == counts["hits"]
        assert net_stats.misses == counts["misses"]
        assert net_stats.invalidations == counts["invalidations"]
        assert counts["hits"] > 0

        for table in sorted(net_db.schema.table_names):
            assert sorted(net_db.rows(table), key=repr) == sorted(
                reference_db.rows(table), key=repr
            ), f"table {table!r} diverged"
