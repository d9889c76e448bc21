"""The compiled IPM: one invalidation plan per (update, query) template pair.

Pins the plan of three bboard pairs (one of each kind), proves the
compiler's ``SKIP`` set is exactly the static analysis's A_ij = 0 set on
all four applications, and checks that the per-plan counters — the
observed IPM — add up to the node's own invalidation counters.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.exposure import ExposureLevel, ExposurePolicy
from repro.analysis.ipm import characterize_pair
from repro.crypto import Keyring
from repro.dssp import DsspNode, HomeServer
from repro.dssp.invalidation import PlanKind, compile_plans
from repro.dssp.placement import affected_queries
from repro.dssp.predicate_index import (
    indexable_attributes,
    update_pinned_columns,
)
from repro.workloads import APPLICATIONS, toystore_spec

_APPS = {**APPLICATIONS, "toystore": toystore_spec}


def _deploy(app_name, level):
    spec = _APPS[app_name]()
    instance = spec.instantiate(scale=0.2, seed=1)
    home = HomeServer(
        app_name,
        instance.database,
        spec.registry,
        ExposurePolicy.uniform(spec.registry, level),
        Keyring(app_name),
    )
    node = DsspNode()
    node.register_application(home)
    return node, home, instance.sampler


def _replay(node, home, sampler, pages, seed):
    rng = random.Random(seed)
    for _ in range(pages):
        for operation in sampler.sample_page(rng):
            bound = operation.bound
            name = bound.template.name
            if operation.is_update:
                level = home.policy.update_level(name)
                node.update(home.codec.seal_update(bound, level))
            else:
                level = home.policy.query_level(name)
                node.query(home.codec.seal_query(bound, level))


class TestBboardPlanTable:
    @pytest.fixture(scope="class")
    def plans(self):
        node, _, _ = _deploy("bboard", ExposureLevel.STMT)
        return node._tenants["bboard"].engine.plans

    def test_insert_probes_the_aggregate_on_its_pin(self, plans):
        plan = plans[("rateComment", "getCommentRatingSum")]
        assert plan.kind is PlanKind.PROBE
        assert plan.attrs == {("ratings", "rt_comment")}

    def test_other_table_is_skipped(self, plans):
        plan = plans[("updateUserRating", "getStory")]
        assert plan.kind is PlanKind.SKIP
        assert plan.reason

    def test_range_query_is_swept(self, plans):
        plan = plans[("submitStory", "getStoriesOfTheDay")]
        assert plan.kind is PlanKind.SWEEP
        assert not plan.attrs
        assert plan.reason


@pytest.mark.parametrize("constraints", [True, False], ids=["ic", "no-ic"])
@pytest.mark.parametrize("app_name", sorted(_APPS))
def test_skip_is_exactly_a_is_zero(app_name, constraints):
    registry = _APPS[app_name]().registry
    plans = compile_plans(registry, use_integrity_constraints=constraints)
    assert len(plans) == len(registry.queries) * len(registry.updates)
    affected = affected_queries(registry, constraints)
    for update, query in registry.pairs():
        plan = plans[(update.name, query.name)]
        a_is_zero = characterize_pair(
            registry.schema, update, query, constraints
        ).a_is_zero
        assert (plan.kind is PlanKind.SKIP) == a_is_zero, plan
        assert (query.name in affected[update.name]) == (
            not a_is_zero
        )
        if plan.kind is PlanKind.PROBE:
            # The lookup key: indexed on the query, pinned by every
            # instance of the update, on the update's table.
            assert plan.attrs
            assert plan.attrs <= indexable_attributes(
                query.select, registry.schema
            )
            assert plan.attrs <= update_pinned_columns(update.statement)
        else:
            assert not plan.attrs


def _all_zero(observed) -> bool:
    return not any(any(counts) for counts in observed.values())


@pytest.mark.parametrize(
    "level",
    [ExposureLevel.TEMPLATE, ExposureLevel.STMT, ExposureLevel.VIEW],
    ids=lambda level: level.value,
)
@pytest.mark.parametrize("app_name", ["bboard", "bookstore"])
def test_observed_ipm_sums_to_the_node_counters(app_name, level):
    node, home, sampler = _deploy(app_name, level)
    _replay(node, home, sampler, pages=80, seed=3)
    observed = node.observed_ipm(app_name)
    plans = node._tenants[app_name].engine.plans
    assert set(observed) == set(plans)
    stats = node.stats
    assert stats.invalidations > 0
    assert sum(c for c, _ in observed.values()) == stats.invalidation_checks
    assert sum(i for _, i in observed.values()) == stats.invalidations
    per_query: dict[str, int] = {}
    for pair, (checks, invalidated) in observed.items():
        if plans[pair].kind is PlanKind.SKIP:
            assert checks == invalidated == 0
        if invalidated:
            per_query[pair[1]] = per_query.get(pair[1], 0) + invalidated
    assert per_query == stats.per_query_invalidations
    node.cold_start()
    assert _all_zero(node.observed_ipm(app_name))


def test_blind_updates_are_not_counted():
    node, home, sampler = _deploy("bboard", ExposureLevel.BLIND)
    _replay(node, home, sampler, pages=40, seed=3)
    assert node.stats.invalidations > 0
    assert _all_zero(node.observed_ipm("bboard"))
