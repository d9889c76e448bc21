"""Tests for the multi-node DSSP cluster extension."""

import random

import pytest

from repro.analysis.exposure import ExposureLevel, ExposurePolicy
from repro.crypto import Keyring
from repro.dssp import HomeServer
from repro.dssp.cluster import DsspCluster, measure_cluster_behavior
from repro.errors import CacheError
from repro.workloads import get_application, simple_toystore_spec


@pytest.fixture
def deployment(toystore_db, simple_toystore):
    policy = ExposurePolicy.uniform(simple_toystore, ExposureLevel.STMT)
    home = HomeServer(
        "toystore", toystore_db, simple_toystore, policy, Keyring("toystore")
    )
    cluster = DsspCluster(nodes=3)
    cluster.register_application(home)
    return cluster, home


def seal(home, template, params):
    bound = home.registry.query(template).bind(params)
    return home.codec.seal_query(bound, home.policy.query_level(template))


class TestRouting:
    def test_minimum_one_node(self):
        with pytest.raises(CacheError):
            DsspCluster(nodes=0)

    def test_affinity_is_stable(self, deployment):
        cluster, _ = deployment
        assert cluster.node_for(7) is cluster.node_for(7)
        assert cluster.node_for(0) is not cluster.node_for(1)

    def test_per_client_caches_are_separate(self, deployment):
        cluster, home = deployment
        envelope = seal(home, "Q2", [5])
        first = cluster.query(envelope, client_id=0)
        other_node = cluster.query(envelope, client_id=1)
        same_node = cluster.query(envelope, client_id=0)
        assert not first.cache_hit
        assert not other_node.cache_hit  # different node: its own cold cache
        assert same_node.cache_hit

    def test_total_cached_views(self, deployment):
        cluster, home = deployment
        cluster.query(seal(home, "Q2", [5]), client_id=0)
        cluster.query(seal(home, "Q2", [5]), client_id=1)
        assert cluster.total_cached_views() == 2


class TestInvalidationFanOut:
    def test_update_invalidates_every_node(self, deployment):
        cluster, home = deployment
        for client in range(3):
            cluster.query(seal(home, "Q2", [5]), client_id=client)
        assert cluster.total_cached_views() == 3
        bound = home.registry.update("U1").bind([5])
        envelope = home.codec.seal_update(
            bound, home.policy.update_level("U1")
        )
        outcome = cluster.update(envelope, client_id=0)
        assert outcome.rows_affected == 1
        assert outcome.invalidated == 3  # one view per node
        assert cluster.total_cached_views() == 0

    def test_update_applied_exactly_once(self, deployment):
        cluster, home = deployment
        bound = home.registry.update("U1").bind([2])
        envelope = home.codec.seal_update(
            bound, home.policy.update_level("U1")
        )
        cluster.update(envelope, client_id=2)
        assert home.updates_applied == 1
        assert home.database.row_count("toys") == 7

    def test_consistency_across_nodes(self, deployment):
        """A client on any node sees fresh data after any client's update."""
        cluster, home = deployment
        envelope = seal(home, "Q2", [5])
        for client in range(3):
            cluster.query(envelope, client_id=client)
        bound = home.registry.update("U1").bind([5])
        cluster.update(
            home.codec.seal_update(bound, home.policy.update_level("U1")),
            client_id=1,
        )
        for client in range(3):
            outcome = cluster.query(envelope, client_id=client)
            assert not outcome.cache_hit
            assert home.codec.open_result(outcome.result).empty


class TestFanOutFilter:
    """Regression: ``update`` must not charge nodes that cannot hold an
    affected view an invalidation pass (the old code broadcast to every
    node, inflating ``stats.updates`` and check counts fleet-wide)."""

    def test_nodes_without_affected_buckets_are_skipped(self, deployment):
        cluster, home = deployment
        # Node 0 and 1 hold Q2 (toys) views; node 2 holds only Q3
        # (customers), which U1 (DELETE FROM toys) provably cannot touch.
        cluster.query(seal(home, "Q2", [5]), client_id=0)
        cluster.query(seal(home, "Q2", [7]), client_id=1)
        cluster.query(seal(home, "Q3", [1]), client_id=2)
        bound = home.registry.update("U1").bind([5])
        envelope = home.codec.seal_update(bound, home.policy.update_level("U1"))
        outcome = cluster.update(envelope, client_id=0)
        assert outcome.invalidated == 1  # Q2[5] on node 0, nothing else
        stats = cluster.aggregate_stats()
        assert stats.updates == 2  # nodes 0 and 1 ran their engines; 2 did not
        assert cluster.node_for(2).stats.updates == 0
        # The skipped node's cache is untouched.
        outcome = cluster.query(seal(home, "Q3", [1]), client_id=2)
        assert outcome.cache_hit

    def test_empty_nodes_are_skipped_entirely(self, deployment):
        cluster, home = deployment
        bound = home.registry.update("U1").bind([5])
        envelope = home.codec.seal_update(bound, home.policy.update_level("U1"))
        outcome = cluster.update(envelope, client_id=0)
        assert outcome.invalidated == 0
        assert cluster.aggregate_stats().updates == 0

    def test_filter_never_changes_invalidated_counts(self, deployment):
        """The filter is an efficiency fix, not a semantics change: with
        every node holding an affected view, fan-out is still complete."""
        cluster, home = deployment
        for client in range(3):
            cluster.query(seal(home, "Q2", [5]), client_id=client)
        bound = home.registry.update("U1").bind([5])
        envelope = home.codec.seal_update(bound, home.policy.update_level("U1"))
        outcome = cluster.update(envelope, client_id=0)
        assert outcome.invalidated == 3
        assert cluster.aggregate_stats().updates == 3


class TestMembership:
    def test_join_and_leave_under_client_affinity(self, deployment):
        """Client affinity lets every node hold every view: a join drops
        nothing and only re-pins clients by the new node count."""
        cluster, home = deployment
        envelope = seal(home, "Q2", [5])
        cluster.query(envelope, client_id=0)
        joined = cluster.join()
        assert len(cluster) == 4
        assert cluster.node_for(3) is cluster.node(joined)
        assert cluster.total_cached_views() == 1
        assert cluster.query(envelope, client_id=0).cache_hit
        cluster.leave(joined)
        assert cluster.node_ids == ("shard-0", "shard-1", "shard-2")
        assert cluster.query(envelope, client_id=3).cache_hit
        with pytest.raises(CacheError):
            cluster.leave(joined)


class TestCacheDilution:
    def test_more_nodes_lower_fleet_hit_rate(self):
        """Partitioning dilutes caches: the home server pays for it."""
        spec = get_application("bookstore")
        rates = {}
        for nodes in (1, 4):
            instance = spec.instantiate(scale=0.2, seed=1)
            policy = ExposurePolicy.uniform(spec.registry, ExposureLevel.VIEW)
            home = HomeServer(
                "bookstore",
                instance.database,
                spec.registry,
                policy,
                Keyring("bookstore"),
            )
            cluster = DsspCluster(nodes=nodes)
            cluster.register_application(home)
            behavior = measure_cluster_behavior(
                cluster, home, instance.sampler, pages=500, clients=32, seed=3
            )
            rates[nodes] = behavior.hit_rate
        assert rates[4] < rates[1]
