"""Failure injection: the DSSP stays safe under adverse conditions.

* a pathologically small cache (constant LRU eviction) must never cause a
  stale answer — eviction only converts hits into misses;
* tampered cached ciphertexts must be *detected* at the client, never
  silently decrypted into wrong data;
* spontaneous full cache loss (node restart) is absorbed transparently;
* interleaved tenants stay individually consistent.
"""

import random

import pytest

from repro.analysis.exposure import ExposureLevel, ExposurePolicy
from repro.crypto import Keyring
from repro.dssp import DsspNode, HomeServer
from repro.dssp.correctness import verify_invalidation_correctness
from repro.errors import CryptoError
from repro.workloads import get_application, toystore_spec


def deploy(level=ExposureLevel.STMT, cache_capacity=None, seed=1):
    spec = toystore_spec()
    instance = spec.instantiate(scale=0.4, seed=seed)
    policy = ExposurePolicy.uniform(spec.registry, level)
    home = HomeServer(
        "toystore", instance.database, spec.registry, policy, Keyring("toystore")
    )
    node = DsspNode(cache_capacity=cache_capacity)
    node.register_application(home)
    return node, home, instance.sampler


class TestEvictionPressure:
    def test_tiny_cache_never_serves_stale(self):
        node, home, sampler = deploy(cache_capacity=5)
        report = verify_invalidation_correctness(
            node, home, sampler, pages=120, seed=3
        )
        assert report.correct, report.summary()

    def test_capacity_one(self):
        node, home, sampler = deploy(cache_capacity=1)
        report = verify_invalidation_correctness(
            node, home, sampler, pages=60, seed=3
        )
        assert report.correct, report.summary()
        assert len(node.cache) <= 1


class TestTamperDetection:
    def test_flipped_ciphertext_detected_not_decrypted(self):
        node, home, sampler = deploy(level=ExposureLevel.STMT)
        bound = home.registry.query("Q2").bind([3])
        envelope = home.codec.seal_query(bound, ExposureLevel.STMT)
        node.query(envelope)
        entry = node.cache.get(envelope.identity)
        assert entry is not None and entry.result.ciphertext is not None

        corrupted = bytearray(entry.result.ciphertext)
        corrupted[-1] ^= 0xFF
        from repro.crypto.envelope import ResultEnvelope

        forged = ResultEnvelope(app_id="toystore", ciphertext=bytes(corrupted))
        with pytest.raises(CryptoError):
            home.codec.open_result(forged)

    def test_swapped_app_ciphertext_rejected(self):
        node, home, sampler = deploy(level=ExposureLevel.STMT)
        other = Keyring("attacker")
        from repro.crypto import EnvelopeCodec
        from repro.crypto.envelope import ResultEnvelope
        from repro.storage.rows import ResultSet

        attacker = EnvelopeCodec(other)
        fake = attacker.seal_result(
            ResultSet(("qty",), ((999999,),)), ExposureLevel.STMT
        )
        forged = ResultEnvelope(app_id="toystore", ciphertext=fake.ciphertext)
        with pytest.raises(CryptoError):
            home.codec.open_result(forged)


class TestNodeRestart:
    def test_cache_loss_is_transparent(self):
        node, home, sampler = deploy(level=ExposureLevel.VIEW)
        rng = random.Random(4)
        for _ in range(30):
            for operation in sampler.sample_page(rng):
                bound = operation.bound
                if operation.is_update:
                    node.update(
                        home.codec.seal_update(
                            bound, home.policy.update_level(bound.template.name)
                        )
                    )
                else:
                    node.query(
                        home.codec.seal_query(
                            bound, home.policy.query_level(bound.template.name)
                        )
                    )
        node.cache.clear()  # simulated restart, mid-workload
        report = verify_invalidation_correctness(
            node, home, sampler, pages=60, seed=5
        )
        assert report.correct, report.summary()


class TestInterleavedTenants:
    def test_both_tenants_stay_consistent(self):
        node = DsspNode()
        tenants = []
        for name, seed in (("auction", 1), ("bboard", 2)):
            spec = get_application(name)
            instance = spec.instantiate(scale=0.15, seed=seed)
            policy = ExposurePolicy.uniform(spec.registry, ExposureLevel.STMT)
            home = HomeServer(
                name, instance.database, spec.registry, policy, Keyring(name)
            )
            node.register_application(home)
            tenants.append((home, instance.sampler, random.Random(seed + 10)))

        # Interleave page-by-page across tenants, auditing each answer.
        for _ in range(40):
            for home, sampler, rng in tenants:
                for operation in sampler.sample_page(rng):
                    bound = operation.bound
                    if operation.is_update:
                        level = home.policy.update_level(bound.template.name)
                        node.update(home.codec.seal_update(bound, level))
                    else:
                        level = home.policy.query_level(bound.template.name)
                        outcome = node.query(
                            home.codec.seal_query(bound, level)
                        )
                        served = home.codec.open_result(outcome.result)
                        fresh = home.database.execute(bound.select)
                        assert served.equivalent(fresh), (
                            home.app_id,
                            bound.sql,
                        )
