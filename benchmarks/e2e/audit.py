"""Answer checks: the stale-view audit and the in-process replay.

The audit runs after a window, on the quiesced deployment: a seeded
sample of distinct trace queries goes through every DSSP node over the
wire, and each opened answer must equal what the home's master copy
returns right now.  A cached view that an update should have killed, a
crypto round-trip error and a wire round-trip error all show up as a
mismatch.

The replay pushes the same pages through a trusted in-process
``DsspNode`` wired directly to a ``HomeServer``.  With one lane the wire
deployment must reproduce its hits, misses and invalidations exactly; its
run time is the in-process baseline ``transport.wire_tax_us_per_op`` is
measured against.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from repro.crypto.envelope import EnvelopeCodec
from repro.dssp import DsspNode, HomeServer

from deploy import Deployment, Inputs

__all__ = ["AUDIT_QUERIES", "ReplayResult", "replay_in_process", "stale_view_audit"]

AUDIT_QUERIES = 200


async def stale_view_audit(deployment: Deployment) -> list[str]:
    """Problems found (empty = every audited answer is current)."""
    await deployment.quiesce()
    inputs = deployment.inputs
    registry = inputs.spec.registry
    distinct = sorted(
        {
            (template, tuple(params))
            for page in inputs.pages
            for kind, template, params in page
            if kind == "query"
        },
        key=repr,
    )
    rng = random.Random(f"e2e-audit:{inputs.seed}")
    sample = rng.sample(distinct, min(AUDIT_QUERIES, len(distinct)))
    problems: list[str] = []
    for template, params in sample:
        bound = registry.query(template).bind(list(params))
        sealed = deployment.codec.seal_query(
            bound, inputs.policy.query_level(template)
        )
        truth = deployment.home.database.execute(bound.select)
        for index, client in enumerate(deployment.clients):
            outcome = await client.query(sealed)
            answer = deployment.codec.open_result(outcome.result)
            if not answer.equivalent(truth):
                problems.append(
                    f"node {index} answered {template}{params} with "
                    f"{len(answer)} rows (hit={outcome.cache_hit}); the "
                    f"master copy holds {len(truth)} different rows"
                )
    return problems


@dataclass
class ReplayResult:
    hits: int
    misses: int
    invalidations: int
    operations: int
    #: Seconds spent on the pages after ``warm`` (the measured range).
    elapsed_s: float


def replay_in_process(inputs: Inputs, pages: list, warm: int) -> ReplayResult:
    """Run ``pages`` through an in-process node; count from page ``warm``."""
    workload = inputs.workload
    home = HomeServer(
        workload.app,
        inputs.database(),
        inputs.spec.registry,
        inputs.policy,
        inputs.keyring,
    )
    node = DsspNode(cache_capacity=workload.cache_capacity)
    node.register_application(home)
    codec = EnvelopeCodec(inputs.keyring)
    policy = inputs.policy
    trace = inputs.trace(pages)
    operations = 0
    started = 0.0
    for index in range(len(pages)):
        if index == warm:
            node.stats.reset()
            operations = 0
            started = time.perf_counter()
        for operation in trace.sample_page():
            bound = operation.bound
            name = bound.template.name
            if operation.is_update:
                node.update(codec.seal_update(bound, policy.update_level(name)))
            else:
                outcome = node.query(
                    codec.seal_query(bound, policy.query_level(name))
                )
                codec.open_result(outcome.result)
            operations += 1
    return ReplayResult(
        hits=node.stats.hits,
        misses=node.stats.misses,
        invalidations=node.stats.invalidations,
        operations=operations,
        elapsed_s=time.perf_counter() - started,
    )
