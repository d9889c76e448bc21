"""Differential check of the sharded fan-out narrowing against push-to-all.

Two in-process sharded clusters replay one recorded trace in lockstep.
Cluster A invalidates on the nodes :meth:`Placement.recipients` names;
cluster B's recipients are forced to every node.  If the narrowing ever
skipped a node holding an affected view, B would invalidate an entry A
kept: the counts or the per-node cache contents would part.

Run with the placement at the engines' constraint setting (exact
recipient sets) and at the home's constraints-off setting (the
conservative sets the networked home pushes by).
"""

from __future__ import annotations

import pytest

from repro.analysis.exposure import ExposurePolicy
from repro.crypto import Keyring
from repro.crypto.envelope import EnvelopeCodec
from repro.dssp import DsspCluster, HomeServer, StrategyClass
from repro.workloads import get_application
from repro.workloads.trace import record_trace

NODES = 4
PAGES = 150


@pytest.fixture(scope="module", params=["bboard", "bookstore"])
def recorded(request):
    spec = get_application(request.param)
    instance = spec.instantiate(scale=0.1, seed=2)
    trace = record_trace(
        instance.sampler, PAGES, seed=4, application=request.param
    )
    return spec, instance.database, trace


def sharded_cluster(spec, database, policy, keyring, constraints_off):
    home = HomeServer(
        spec.name, database.clone(), spec.registry, policy, keyring
    )
    cluster = DsspCluster(nodes=NODES, sharded=True)
    cluster.register_application(home)
    if constraints_off:
        cluster.placement.register(home, use_integrity_constraints=False)
    return cluster


def cache_keys(cluster, app_id):
    return {
        node_id: {
            entry.key
            for entry in cluster.node(node_id).cache.entries_for_app(app_id)
        }
        for node_id in cluster.node_ids
    }


def counts(cluster):
    stats = cluster.aggregate_stats()
    return stats.hits, stats.misses, stats.invalidations


@pytest.mark.parametrize("constraints_off", [False, True])
@pytest.mark.parametrize("strategy", list(StrategyClass))
def test_narrowed_fan_out_equals_push_to_all(
    recorded, strategy, constraints_off
):
    spec, database, trace = recorded
    app_id = spec.name
    policy = ExposurePolicy.uniform(spec.registry, strategy.exposure_level)
    keyring = Keyring(app_id, b"d" * 32)
    narrowed = sharded_cluster(
        spec, database, policy, keyring, constraints_off
    )
    everyone = sharded_cluster(
        spec, database, policy, keyring, constraints_off
    )
    everyone.placement.recipients = lambda envelope: everyone.node_ids
    codec = EnvelopeCodec(keyring)

    trace.bind(spec.registry)
    updates = narrowed_updates = 0
    for page_index in range(len(trace)):
        for operation in trace.sample_page():
            bound = operation.bound
            name = bound.template.name
            if not operation.is_update:
                envelope = codec.seal_query(bound, policy.query_level(name))
                narrowed.query(envelope, page_index)
                everyone.query(envelope, page_index)
                continue
            envelope = codec.seal_update(bound, policy.update_level(name))
            recipients = narrowed.placement.recipients(envelope)
            narrowed_updates += len(recipients) < NODES
            updates += 1
            a = narrowed.update(envelope, page_index)
            b = everyone.update(envelope, page_index)
            assert a == b, (page_index, name)
            assert counts(narrowed) == counts(everyone), (page_index, name)
            assert cache_keys(narrowed, app_id) == cache_keys(
                everyone, app_id
            ), (page_index, name)

    assert updates > 0
    assert narrowed.aggregate_stats().hits > 0
    if strategy is not StrategyClass.MBS:
        # Only blind queries force push-to-all; anything else narrows.
        assert narrowed_updates > 0
