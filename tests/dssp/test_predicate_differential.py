"""Differential traces: the predicate index changes cost, never behavior.

Every example application replays the identical workload through two
nodes — indexed vs the sweep reference — and the observable record must
match exactly: same hits, same misses, same invalidations, and
(spot-checked along the way) no stale read on either side.  The index is
allowed to spend fewer per-entry decisions, never to diverge.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.exposure import ExposurePolicy
from repro.crypto import Keyring
from repro.dssp import DsspNode, HomeServer, StrategyClass
from repro.workloads import APPLICATIONS, toystore_spec

from tests.dssp.index_utils import sweep_reference

_APPS = {**APPLICATIONS, "toystore": toystore_spec}


def _deploy(app_name, strategy):
    spec = _APPS[app_name]()
    instance = spec.instantiate(scale=0.2, seed=1)
    policy = ExposurePolicy.uniform(spec.registry, strategy.exposure_level)
    home = HomeServer(
        app_name, instance.database, spec.registry, policy, Keyring(app_name)
    )
    node = DsspNode()
    node.register_application(home)
    return node, home, instance.sampler


def _replay(node, home, sampler, pages, seed, check_every=7):
    """Deterministic trace replay; periodically check served vs fresh."""
    rng = random.Random(seed)
    step = 0
    for _ in range(pages):
        for operation in sampler.sample_page(rng):
            bound = operation.bound
            step += 1
            if operation.is_update:
                level = home.policy.update_level(bound.template.name)
                node.update(home.codec.seal_update(bound, level))
            else:
                level = home.policy.query_level(bound.template.name)
                outcome = node.query(home.codec.seal_query(bound, level))
                if step % check_every == 0:
                    served = home.codec.open_result(outcome.result)
                    fresh = home.database.execute(bound.select)
                    assert served.equivalent(fresh), (
                        f"stale read at step {step}: {bound.sql}"
                    )


@pytest.mark.parametrize("app_name", sorted(_APPS))
@pytest.mark.parametrize(
    "strategy",
    [StrategyClass.MSIS, StrategyClass.MVIS],
    ids=lambda s: s.name,
)
def test_indexed_and_swept_identical_trace_behavior(app_name, strategy):
    swept, home_off, sampler_off = _deploy(app_name, strategy)
    sweep_reference(swept)
    indexed, home_on, sampler_on = _deploy(app_name, strategy)
    _replay(swept, home_off, sampler_off, pages=120, seed=9)
    _replay(indexed, home_on, sampler_on, pages=120, seed=9)
    assert indexed.stats.hits == swept.stats.hits
    assert indexed.stats.misses == swept.stats.misses
    assert indexed.stats.invalidations == swept.stats.invalidations
    assert (
        indexed.stats.per_query_invalidations
        == swept.stats.per_query_invalidations
    )
    # Monotone improvement: the index never invalidates more, and at
    # stmt/view exposure it must pay no extra per-entry decisions.
    assert indexed.stats.invalidations <= swept.stats.invalidations
    assert (
        indexed.stats.invalidation_checks <= swept.stats.invalidation_checks
    )
    assert indexed.stats.index_lookups > 0


def test_index_actually_narrows_somewhere():
    """At least one app/strategy pair shows real narrowing, or the index
    is dead weight and the benchmark's premise is false."""
    node, home, sampler = _deploy("bookstore", StrategyClass.MSIS)
    _replay(node, home, sampler, pages=120, seed=9)
    assert node.stats.index_narrowed > 0
    assert node.cache.index_postings() > 0
