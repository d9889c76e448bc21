"""The sharded networked cluster: placement routing, no-admit gating,
filtered fan-out, and the chaos oracle against a sharded topology.

The soundness chain under test: the router sends every query to the shard
that owns its placement key, a non-owner never *admits* what it merely
forwards, therefore the home may skip pushing an invalidation to shards
that own none of the update's affected template buckets — and the oracle
must still find zero stale reads when a shard dies mid-run.
"""

from __future__ import annotations

import pytest

from repro.analysis.exposure import ExposurePolicy
from repro.dssp import DsspNode
from repro.dssp.invalidation import StrategyClass
from repro.dssp.placement import Placement, bucket_key
from repro.dssp.ring import HashRing
from repro.errors import WireError
from repro.net import (
    DsspNetServer,
    HomeNetServer,
    ShardRouter,
    WireClient,
    eventually,
    run_chaos,
)
from repro.net.chaos import FaultPlan
from repro.workloads.trace import Trace
from tests.net.test_end_to_end import Topology
from tests.net import streams
from tests.net.test_home_server import make_home


class ShardedTopology(Topology):
    """home + N sharded DSSP nodes + a ShardRouter over their clients."""

    def __init__(
        self, registry, database, *, nodes=3, declare_shards=True
    ) -> None:
        super().__init__(
            registry, database, nodes=nodes, shards=declare_shards
        )
        self.names = tuple(handle.name for handle in self.handles)
        self.ring = HashRing(self.names)

    async def __aenter__(self):
        await super().__aenter__()
        self.clients = {handle.name: handle.client for handle in self.handles}
        self.router = ShardRouter(
            Placement(self.names, sharded=True), list(self.clients.values())
        )
        return self

    def server(self, name: str) -> DsspNetServer:
        return self.handle(name).server


class TestShardedRouting:
    async def test_router_forms_single_logical_cache(
        self, simple_toystore, toystore_db
    ):
        """Routed by placement key, the second read of a view hits no
        matter which client issued the first — the dilution the
        client-partitioned cluster suffers cannot happen."""
        top = ShardedTopology(simple_toystore, toystore_db.clone())
        async with top:
            q2_of_5 = simple_toystore.query("Q2").bind([5])
            first = await top.router.query(top.seal_query(q2_of_5))
            assert first.cache_hit is False
            second = await top.router.query(top.seal_query(q2_of_5))
            assert second.cache_hit is True
            # The view lives exactly where the ring says it should.
            owner = top.ring.owner(bucket_key("toystore", "Q2"))
            assert top.router.placement.query_node(
                top.seal_query(q2_of_5)
            ) == owner

    async def test_non_owner_serves_passthrough_without_admitting(
        self, simple_toystore, toystore_db
    ):
        """A query forced onto the wrong shard is answered (via home) but
        never cached there — the entry a filtered push could not reach
        must not exist."""
        top = ShardedTopology(simple_toystore, toystore_db.clone())
        async with top:
            q2_of_5 = simple_toystore.query("Q2").bind([5])
            owner = top.ring.owner(bucket_key("toystore", "Q2"))
            stranger = next(n for n in top.names if n != owner)
            first = await top.clients[stranger].query(top.seal_query(q2_of_5))
            second = await top.clients[stranger].query(
                top.seal_query(q2_of_5)
            )
            assert first.cache_hit is False
            assert second.cache_hit is False  # still not admitted
            assert top.server(stranger).passthrough_misses == 2
            # The owner, by contrast, admits normally.
            await top.clients[owner].query(top.seal_query(q2_of_5))
            hit = await top.clients[owner].query(top.seal_query(q2_of_5))
            assert hit.cache_hit is True

    def test_node_must_be_in_its_own_shard_set(self):
        with pytest.raises(WireError, match="not in its own shard set"):
            DsspNetServer(
                DsspNode(), node_id="dssp-9", shards=("dssp-0", "dssp-1")
            )


class TestDeclaredTopologyIsChecked:
    """The home refuses a declared topology it cannot place by: a node
    outside its own shard set."""

    async def test_home_refuses(self, simple_toystore, toystore_db):
        home, _ = make_home(simple_toystore, toystore_db.clone())
        server = HomeNetServer(home)
        client = WireClient(*await server.start())
        try:
            with pytest.raises(WireError, match="not in its declared shard"):
                await streams.subscribe(
                    client, "n1", ("toystore",), shards=("n2", "n3")
                )
            assert server.subscriber_count == 0
            accepted, _ = await streams.subscribe(
                client, "n1", ("toystore",), shards=("n1", "n2")
            )
            [subscriber] = server.stats_snapshot()["subscribers"]
            assert subscriber["shard_filtered"] is True
            await accepted.aclose()
        finally:
            await client.aclose()
            await server.stop()


class TestFilteredFanOut:
    async def test_pushes_skip_shards_owning_no_affected_bucket(
        self, simple_toystore, toystore_db
    ):
        """U1 affects Q1 and Q2: their bucket owners get the push, every
        other shard is filtered — and a re-read still sees the delete."""
        top = ShardedTopology(
            simple_toystore, toystore_db.clone(), nodes=4
        )
        async with top:
            q2_of_5 = simple_toystore.query("Q2").bind([5])
            owners = {
                top.ring.owner(bucket_key("toystore", "Q1")),
                top.ring.owner(bucket_key("toystore", "Q2")),
            }
            await top.router.query(top.seal_query(q2_of_5))
            assert (
                await top.router.query(top.seal_query(q2_of_5))
            ).cache_hit

            origin = top.ring.owner(bucket_key("toystore", "Q2"))
            ack = await top.clients[origin].update(
                top.seal_update(simple_toystore.update("U1").bind([5]))
            )
            assert ack.rows_affected == 1
            assert ack.invalidated == 1  # synchronous, at the origin

            for name in owners - {origin}:
                server = top.server(name)
                await eventually(
                    lambda s=server: s.stream_pushes_applied >= 1
                )
            # With 4 shards and at most 2 owners there is always at least
            # one bystander: not the origin, owning neither bucket.
            bystanders = set(top.names) - owners - {origin}
            assert bystanders
            assert top.home_net.pushes_filtered == len(bystanders)
            for name in bystanders:
                assert top.server(name).stream_pushes_applied == 0

            re_read = await top.router.query(top.seal_query(q2_of_5))
            assert re_read.cache_hit is False
            assert top.codec.open_result(re_read.result).rows == ()

    async def test_subscribers_negotiate_shard_filtering(
        self, simple_toystore, toystore_db
    ):
        top = ShardedTopology(simple_toystore, toystore_db.clone())
        async with top:
            snapshot = top.home_net.stats_snapshot()
            assert snapshot["subscribers"]
            assert all(
                subscriber["shard_filtered"]
                for subscriber in snapshot["subscribers"]
            )

    async def test_undeclared_topology_is_not_filtered(
        self, simple_toystore, toystore_db
    ):
        """The home filters only by a topology a subscriber declares:
        nodes that name no shards get every non-origin push."""
        top = ShardedTopology(
            simple_toystore,
            toystore_db.clone(),
            declare_shards=False,
        )
        async with top:
            snapshot = top.home_net.stats_snapshot()
            assert not any(
                subscriber["shard_filtered"]
                for subscriber in snapshot["subscribers"]
            )
            origin = top.names[0]
            await top.clients[origin].update(
                top.seal_update(simple_toystore.update("U1").bind([5]))
            )
            for name in top.names[1:]:
                server = top.server(name)
                await eventually(
                    lambda s=server: s.stream_pushes_applied >= 1
                )
            assert top.home_net.pushes_filtered == 0


def make_trace() -> Trace:
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


class TestShardedChaosOracle:
    async def test_fault_free_sharded_run_converges(
        self, simple_toystore, toystore_db
    ):
        policy = ExposurePolicy.uniform(
            simple_toystore, StrategyClass.MTIS.exposure_level
        )
        report, _ = await run_chaos(
            "toystore",
            simple_toystore,
            toystore_db.clone(),
            policy,
            make_trace(),
            FaultPlan(seed=11),
            nodes=3,
            clients=4,
            pages=12,
            shards=True,
        )
        assert report.ok, report.summary()
        assert report.hits > 0  # placement routing makes hits possible

    async def test_shard_killed_mid_run_stays_consistent(
        self, simple_toystore, toystore_db
    ):
        """A shard dies (and restarts cold) mid-run: no stale reads, no
        lost acked updates, and the home database converges."""
        policy = ExposurePolicy.uniform(
            simple_toystore, StrategyClass.MTIS.exposure_level
        )
        report, _ = await run_chaos(
            "toystore",
            simple_toystore,
            toystore_db.clone(),
            policy,
            make_trace(),
            FaultPlan(seed=23, kill_every=4, kill_targets=("dssp-1",)),
            nodes=3,
            clients=4,
            pages=12,
            shards=True,
        )
        assert report.ok, report.summary()
        assert report.kills >= 1
