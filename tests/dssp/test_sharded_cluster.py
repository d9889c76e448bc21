"""Tests for the key-sharded DSSP cluster (consistent-hash placement)."""

from __future__ import annotations

import pytest

from repro.analysis.exposure import ExposureLevel, ExposurePolicy
from repro.crypto import Keyring
from repro.dssp import DsspCluster, HomeServer
from repro.dssp.placement import bucket_key, query_placement_key
from repro.dssp.ring import HashRing
from repro.errors import CacheError


def make_deployment(db, registry, level=ExposureLevel.STMT, nodes=3, **kwargs):
    policy = ExposurePolicy.uniform(registry, level)
    home = HomeServer("toystore", db, registry, policy, Keyring("toystore"))
    cluster = DsspCluster(nodes=nodes, sharded=True, **kwargs)
    cluster.register_application(home)
    return cluster, home


def ring(cluster):
    """An independent ring over the cluster's membership."""
    return HashRing(cluster.node_ids)


def seal(home, template, params):
    bound = home.registry.query(template).bind(params)
    return home.codec.seal_query(bound, home.policy.query_level(template))


def seal_update(home, template, params):
    bound = home.registry.update(template).bind(params)
    return home.codec.seal_update(bound, home.policy.update_level(template))


class TestPlacement:
    def test_minimum_one_shard(self, toystore_db, simple_toystore):
        with pytest.raises(CacheError):
            make_deployment(toystore_db, simple_toystore, nodes=0)

    def test_one_template_one_shard(self, toystore_db, simple_toystore):
        cluster, home = make_deployment(toystore_db, simple_toystore)
        first = cluster.placement.query_node(seal(home, "Q2", [5]))
        second = cluster.placement.query_node(seal(home, "Q2", [7]))
        assert first == second  # whole template bucket shares a shard

    def test_single_logical_cache_no_dilution(
        self, toystore_db, simple_toystore
    ):
        """The second client hits the first client's entry: views are not
        duplicated per node the way client-affinity partitioning does."""
        cluster, home = make_deployment(toystore_db, simple_toystore)
        envelope = seal(home, "Q2", [5])
        assert not cluster.query(envelope, client_id=0).cache_hit
        assert cluster.query(envelope, client_id=1).cache_hit
        assert cluster.total_cached_views() == 1

    def test_blind_entries_place_by_identity(
        self, toystore_db, simple_toystore
    ):
        cluster, home = make_deployment(
            toystore_db, simple_toystore, level=ExposureLevel.BLIND
        )
        envelope = seal(home, "Q2", [5])
        assert cluster.placement.query_node(envelope) == ring(cluster).owner(
            repr(("toystore", envelope.sealed_statement))
        )


class TestShardedInvalidation:
    def test_recipients_are_the_affected_template_owners(
        self, toystore_db, simple_toystore
    ):
        """U1 touches ``toys`` so only Q1/Q2 views can change; the push
        set is exactly those buckets' owners — Q3 (customers) stays out
        unless it happens to share a shard."""
        cluster, home = make_deployment(toystore_db, simple_toystore)
        recipients = set(
            cluster.placement.recipients(seal_update(home, "U1", [5]))
        )
        expected = {
            ring(cluster).owner(bucket_key("toystore", name))
            for name in ("Q1", "Q2")
        }
        assert recipients == expected

    def test_unaffected_views_survive_the_update(
        self, toystore_db, simple_toystore
    ):
        cluster, home = make_deployment(toystore_db, simple_toystore)
        cluster.query(seal(home, "Q2", [5]))
        cluster.query(seal(home, "Q3", [1]))
        outcome = cluster.update(seal_update(home, "U1", [5]))
        assert outcome.rows_affected == 1
        assert outcome.invalidated == 1  # the Q2 view, nothing else
        assert cluster.query(seal(home, "Q3", [1])).cache_hit

    def test_consistency_after_update(self, toystore_db, simple_toystore):
        cluster, home = make_deployment(toystore_db, simple_toystore)
        envelope = seal(home, "Q2", [5])
        cluster.query(envelope)
        cluster.update(seal_update(home, "U1", [5]))
        outcome = cluster.query(envelope)
        assert not outcome.cache_hit
        assert home.codec.open_result(outcome.result).empty

    def test_blind_query_policy_forces_full_fan_out(
        self, toystore_db, simple_toystore
    ):
        """With blind query templates in the policy, blind entries may sit
        on any shard, so no update's push set can be narrowed."""
        cluster, home = make_deployment(
            toystore_db, simple_toystore, level=ExposureLevel.BLIND
        )
        recipients = cluster.placement.recipients(seal_update(home, "U1", [5]))
        assert recipients == cluster.node_ids

    def test_update_applied_exactly_once(self, toystore_db, simple_toystore):
        cluster, home = make_deployment(toystore_db, simple_toystore)
        cluster.update(seal_update(home, "U1", [2]))
        assert home.updates_applied == 1
        assert home.database.row_count("toys") == 7


class TestMembership:
    def test_join_leaves_every_entry_on_its_owner(
        self, toystore_db, simple_toystore
    ):
        cluster, home = make_deployment(toystore_db, simple_toystore)
        for template, params in (("Q1", ["toy5"]), ("Q2", [5]), ("Q3", [1])):
            cluster.query(seal(home, template, params))
        cluster.join()
        assert len(cluster) == 4
        owners = ring(cluster)
        for shard_id in cluster.node_ids:
            for entry in cluster.node(shard_id).cache.entries_for_app(
                "toystore"
            ):
                assert owners.owner(query_placement_key(entry)) == shard_id

    def test_leave_reassigns_and_serves_cold(
        self, toystore_db, simple_toystore
    ):
        cluster, home = make_deployment(toystore_db, simple_toystore)
        envelope = seal(home, "Q2", [5])
        cluster.query(envelope)
        cluster.leave(cluster.placement.query_node(envelope))
        outcome = cluster.query(envelope)  # survivor starts cold, refills
        assert not outcome.cache_hit
        assert cluster.query(envelope).cache_hit

    def test_cannot_remove_last_shard(self, toystore_db, simple_toystore):
        cluster, _ = make_deployment(toystore_db, simple_toystore, nodes=1)
        with pytest.raises(CacheError):
            cluster.leave("shard-0")

    def test_cannot_remove_a_stranger(self, toystore_db, simple_toystore):
        cluster, _ = make_deployment(toystore_db, simple_toystore)
        with pytest.raises(CacheError):
            cluster.leave("shard-99")
