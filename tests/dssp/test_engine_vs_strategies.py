"""The engine's per-entry decisions equal the formal strategy objects'.

The InvalidationEngine takes bucket-level shortcuts; the formal strategies
decide one pair at a time.  For every uniform exposure level, after every
update, the set of entries the engine invalidates must equal the set the
corresponding formal strategy would invalidate — strategy by strategy,
entry by entry.
"""

import random

import pytest

from repro.analysis.exposure import ExposureLevel, ExposurePolicy
from repro.crypto import Keyring
from repro.dssp import DsspNode, HomeServer
from repro.dssp.strategies import (
    BlindStrategy,
    Decision,
    InvalidationInput,
    StatementInspectionStrategy,
    TemplateInspectionStrategy,
    ViewInspectionStrategy,
)
from repro.workloads import simple_toystore_spec, toystore_spec

_STRATEGY_FOR_LEVEL = {
    ExposureLevel.BLIND: BlindStrategy,
    ExposureLevel.TEMPLATE: TemplateInspectionStrategy,
    ExposureLevel.STMT: StatementInspectionStrategy,
    ExposureLevel.VIEW: ViewInspectionStrategy,
}


@pytest.mark.parametrize(
    "level",
    list(_STRATEGY_FOR_LEVEL),
    ids=lambda level: level.name,
)
def test_engine_matches_formal_strategy(level):
    spec = toystore_spec()
    instance = spec.instantiate(scale=0.4, seed=9)
    registry = spec.registry
    schema = registry.schema
    policy = ExposurePolicy.uniform(registry, level)
    home = HomeServer(
        "toystore", instance.database, registry, policy, Keyring("toystore")
    )
    node = DsspNode()
    node.register_application(home)
    strategy = _STRATEGY_FOR_LEVEL[level](schema)

    rng = random.Random(5)
    # Track, for every cached key, the bound query that produced it so the
    # expected decision can be recomputed independently.
    bound_by_key: dict[str, object] = {}
    audited_updates = 0

    for _ in range(150):
        for operation in instance.sampler.sample_page(rng):
            bound = operation.bound
            if not operation.is_update:
                envelope = home.codec.seal_query(
                    bound, policy.query_level(bound.template.name)
                )
                node.query(envelope)
                bound_by_key[envelope.identity] = bound
                continue

            # Snapshot cache + views BEFORE the update reaches the master.
            pre_entries = {
                key: entry
                for key in list(bound_by_key)
                if (entry := node.cache.get(key)) is not None
            }
            expected_victims = set()
            for key, entry in pre_entries.items():
                cached_query = bound_by_key[key]
                item = InvalidationInput(
                    update_template=bound.template.statement,
                    query_template=cached_query.template.select,
                    update_statement=bound.statement,
                    query_statement=cached_query.select,
                    view=entry.view_rows,
                )
                if strategy.decide(item) is Decision.INVALIDATE:
                    expected_victims.add(key)

            envelope = home.codec.seal_update(
                bound, policy.update_level(bound.template.name)
            )
            node.update(envelope)
            audited_updates += 1

            actual_victims = {
                key for key in pre_entries if key not in node.cache
            }
            assert actual_victims == expected_victims, (
                level.name,
                bound.sql,
            )
            for key in actual_victims:
                del bound_by_key[key]

    assert audited_updates > 0
