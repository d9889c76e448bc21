"""What a DSSP hit costs, counted: calls into the program and tasks.

A hit is the request the paper's DSSP exists to answer at the edge, and
its cost is the stack's own per-request scaffolding: the socket round
trip is the same for every version of it.  Counts, not clocks, pin that
scaffolding: the profiler's ``call`` events in code under ``src/repro``
(each coroutine resume is one) and the tasks created, both the same on
every supported Python and on any machine.  The bookstore runs behind
the one :class:`~repro.net.deploy.Deployment`, 100 distinct queries are
warmed, and then 500 hits are served.
"""

from __future__ import annotations

import asyncio
import sys
from pathlib import Path

import repro
from repro.analysis.exposure import ExposurePolicy
from repro.crypto import Keyring
from repro.crypto.envelope import EnvelopeCodec
from repro.dssp import HomeServer
from repro.dssp.invalidation import StrategyClass
from repro.net.deploy import Deployment
from repro.workloads import get_application
from repro.workloads.trace import record_trace
from tests.net.test_request_budget import TaskCounts

SRC = str(Path(repro.__file__).parent)
WARM = 100
HITS = 500
#: Calls into ``src/repro`` one hit may make, client and DSSP together:
#: one coroutine per hop, one header parse per frame and no call into a
#: tracer that is off make 38 on Python 3.11, 3.12 and 3.13.
CALLS_PER_HIT = 50


def bookstore():
    """The bookstore's home and its distinct sealed queries, in order."""
    spec = get_application("bookstore")
    instance = spec.instantiate(scale=0.1, seed=1)
    policy = ExposurePolicy.uniform(
        spec.registry, StrategyClass.MVIS.exposure_level
    )
    keyring = Keyring("bookstore", b"k" * 32)
    home = HomeServer(
        "bookstore", instance.database, spec.registry, policy, keyring
    )
    codec = EnvelopeCodec(keyring)
    trace = record_trace(instance.sampler, 400, seed=1, application="bookstore")
    seen, envelopes = set(), []
    for page in trace.pages:
        for kind, name, params in page:
            if kind == "query" and (name, repr(params)) not in seen:
                seen.add((name, repr(params)))
                bound = spec.registry.query(name).bind(params)
                envelopes.append(
                    codec.seal_query(bound, policy.query_level(name))
                )
    return home, envelopes


class CallCounter:
    """A profile function counting ``call`` events in ``src/repro``."""

    def __init__(self) -> None:
        self.calls = 0

    def __call__(self, frame, event, arg) -> None:
        if event == "call" and frame.f_code.co_filename.startswith(SRC):
            self.calls += 1


async def test_a_hit_costs_at_most_50_calls_and_no_task():
    home, envelopes = bookstore()
    assert len(envelopes) >= WARM + 10
    async with Deployment(home, nodes=1) as deployment:
        client = deployment.handles[0].client
        for envelope in envelopes[:WARM]:
            assert (await client.query(envelope)).cache_hit is False
        loop = asyncio.get_running_loop()
        tasks = TaskCounts()
        loop.set_task_factory(tasks)
        counter = CallCounter()
        sys.setprofile(counter)
        try:
            for index in range(HITS):
                answer = await client.query(envelopes[index % WARM])
                assert answer.cache_hit is True
        finally:
            sys.setprofile(None)
        assert counter.calls <= CALLS_PER_HIT * HITS, counter.calls / HITS
        assert tasks.by_owner == {}

        # A miss waits for the home in one DSSP task; the home answers the
        # forwarded query from inside its read, without a task.
        try:
            for envelope in envelopes[WARM : WARM + 10]:
                assert (await client.query(envelope)).cache_hit is False
        finally:
            loop.set_task_factory(None)
        assert tasks.by_owner == {"dssp-0": 10}
