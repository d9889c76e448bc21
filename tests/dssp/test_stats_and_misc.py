"""Small-unit tests: stats, home-server guards, split-phase proxy API."""

import pytest

from repro.analysis.exposure import ExposureLevel, ExposurePolicy
from repro.crypto import EnvelopeCodec, Keyring
from repro.dssp import DsspNode, DsspStats, HomeServer
from repro.errors import CacheError


class TestDsspStats:
    def test_hit_rate_empty(self):
        assert DsspStats().hit_rate == 0.0

    def test_lookups(self):
        stats = DsspStats(hits=3, misses=1)
        assert stats.lookups == 4
        assert stats.hit_rate == 0.75

    def test_record_invalidation_attribution(self):
        stats = DsspStats()
        stats.record_invalidation("Q1", 2)
        stats.record_invalidation("Q1")
        stats.record_invalidation(None, 5)
        assert stats.invalidations == 8
        assert stats.per_query_invalidations == {"Q1": 3, "<blind>": 5}

    def test_reset(self):
        stats = DsspStats(hits=2, index_narrowed=3, lookup_time_s=0.5)
        stats.record_invalidation("Q", 4)
        stats.reset()
        assert stats == DsspStats()  # every field, whatever its type

    def test_to_dict_is_json_safe_with_derived_rates(self):
        import json

        stats = DsspStats(hits=3, misses=1, invalidation_checks=4)
        stats.record_invalidation("Q1", 2)
        snapshot = json.loads(json.dumps(stats.to_dict()))
        assert list(snapshot)[:3] == ["hits", "misses", "lookups"]
        assert snapshot["lookups"] == 4
        assert snapshot["hit_rate"] == 0.75
        assert snapshot["invalidation_checks"] == 4
        assert snapshot["per_query_invalidations"] == {"Q1": 2}

    def test_merge_sums_per_query_invalidations_disjoint(self):
        left = DsspStats()
        right = DsspStats()
        left.record_invalidation("Q1", 2)
        right.record_invalidation("Q2", 5)
        right.record_invalidation(None, 1)
        left.merge(right)
        assert left.per_query_invalidations == {
            "Q1": 2,
            "Q2": 5,
            "<blind>": 1,
        }
        assert left.invalidations == 8

    def test_merge_sums_per_query_invalidations_overlapping(self):
        left = DsspStats()
        right = DsspStats()
        left.record_invalidation("Q1", 2)
        left.record_invalidation("Q2", 1)
        right.record_invalidation("Q1", 3)
        right.record_invalidation(None, 4)
        left.record_invalidation(None, 6)
        left.merge(right)
        assert left.per_query_invalidations == {
            "Q1": 5,
            "Q2": 1,
            "<blind>": 10,
        }
        assert left.invalidations == 16
        # Merging must not alias the source dict: mutating the source
        # afterwards leaves the merged counters untouched.
        right.record_invalidation("Q1", 100)
        assert left.per_query_invalidations["Q1"] == 5

    def test_register_metrics_exports_live_gauges(self):
        from repro.obs import MetricsRegistry

        stats = DsspStats()
        registry = MetricsRegistry()
        stats.register_metrics(registry)
        stats.hits += 3
        stats.misses += 1
        snapshot = registry.snapshot()
        assert snapshot["gauges"]["dssp.hits"] == 3
        assert snapshot["gauges"]["dssp.hit_rate"] == 0.75


class TestHomeServerGuards:
    def test_blind_identity_mismatch_rejected(
        self, simple_toystore, toystore_db
    ):
        policy = ExposurePolicy.uniform(simple_toystore, ExposureLevel.STMT)
        home = HomeServer(
            "toystore", toystore_db, simple_toystore, policy, Keyring("toystore")
        )
        bound = simple_toystore.query("Q2").bind([1])
        envelope = home.codec.seal_query(bound, ExposureLevel.BLIND)
        # Forge an envelope claiming stmt level but without template name.
        object.__setattr__(envelope, "level", ExposureLevel.STMT)
        with pytest.raises(CacheError):
            home.serve_query(envelope)

    def test_serves_blind_envelopes(self, simple_toystore, toystore_db):
        policy = ExposurePolicy.uniform(simple_toystore, ExposureLevel.BLIND)
        home = HomeServer(
            "toystore", toystore_db, simple_toystore, policy, Keyring("toystore")
        )
        bound = simple_toystore.query("Q2").bind([1])
        envelope = home.codec.seal_query(bound, ExposureLevel.BLIND)
        result = home.serve_query(envelope)
        assert not result.visible
        assert home.codec.open_result(result).rows == ((2,),)


class TestSplitPhaseApi:
    @pytest.fixture
    def deployment(self, simple_toystore, toystore_db):
        policy = ExposurePolicy.uniform(simple_toystore, ExposureLevel.STMT)
        home = HomeServer(
            "toystore", toystore_db, simple_toystore, policy, Keyring("toystore")
        )
        node = DsspNode()
        node.register_application(home)
        return node, home

    def test_lookup_then_fill(self, deployment):
        node, home = deployment
        bound = home.registry.query("Q2").bind([1])
        envelope = home.codec.seal_query(bound, ExposureLevel.STMT)
        assert node.lookup(envelope) is None
        node.fill(envelope)
        assert node.lookup(envelope) is not None
        assert node.stats.misses == 1
        assert node.stats.hits == 1

    def test_forward_then_invalidate(self, deployment):
        node, home = deployment
        query = home.registry.query("Q2").bind([1])
        q_env = home.codec.seal_query(query, ExposureLevel.STMT)
        node.fill(q_env)
        update = home.registry.update("U1").bind([1])
        u_env = home.codec.seal_update(update, ExposureLevel.STMT)
        assert node.forward_update(u_env) == 1
        assert node.invalidate_for(u_env) == 1
        assert node.lookup(q_env) is None

    def test_lookup_unknown_app_rejected(self, deployment):
        node, home = deployment
        other = EnvelopeCodec(Keyring("ghost"))
        bound = home.registry.query("Q2").bind([1])
        envelope = other.seal_query(bound, ExposureLevel.STMT)
        with pytest.raises(CacheError):
            node.lookup(envelope)


class TestDatagen:
    def test_person_name_from_pools(self):
        import random

        from repro.workloads import datagen

        first, last = datagen.person_name(random.Random(0))
        assert first and last

    def test_random_date_int_shape(self):
        import random

        from repro.workloads import datagen

        for seed in range(20):
            date = datagen.random_date_int(random.Random(seed))
            year, month, day = date // 10000, date // 100 % 100, date % 100
            assert 2000 <= year <= 2006
            assert 1 <= month <= 12
            assert 1 <= day <= 28

    def test_sequential_ids(self):
        from repro.workloads import datagen

        assert datagen.sequential_ids(3) == [1, 2, 3]
        assert datagen.sequential_ids(2, start=10) == [10, 11]
