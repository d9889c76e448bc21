"""What a request costs, counted: calls into the program and tasks.

A hit is the request the paper's DSSP exists to answer at the edge, and a
miss and an update are what every invalidation turns hits into.  Each
one's cost is the stack's own per-request scaffolding: the socket round
trips are the same for every version of it.  Counts, not clocks, pin that
scaffolding: the profiler's ``call`` events in code under ``src/repro``
(each coroutine resume is one) and the tasks created, both the same on
any machine.  The bookstore runs behind the one
:class:`~repro.net.deploy.Deployment`, 100 distinct queries are warmed,
and then 500 hits, 200 misses (queries not asked before) and 200 updates
are served, each path counted on its own.

A miss or an update costs one hop more than a hit and nothing else: no
task (the DSSP's handler is stepped on from the read that brings the
home's answer), no call into the tracer while tracing is off, and no
second encoding of the envelope the DSSP was given (its forward re-sends
the bytes it arrived as).
"""

from __future__ import annotations

import asyncio
import sys
from pathlib import Path

import repro
import repro.net.wire
import repro.obs.trace
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
WIRE = repro.net.wire.__file__
TRACE = repro.obs.trace.__file__
ENVELOPE_BYTES = repro.net.wire._envelope_bytes.__code__
WARM, HITS, MISSES, UPDATES = 100, 500, 200, 200
#: Per request: at most so many calls into ``src/repro`` and in
#: ``net/wire.py`` among them, the tasks created, by owner, and the event
#: loop's turns.  Each call bound sits at most 15 % above the count on
#: Python 3.11: 36, 126.8 and 183.5 calls, 8, 21.7 and 29.0 of them in the
#: codec.  No request creates a task: a hit is answered from the read that
#: brings it, a miss and an update from the read that brings the home's
#: answer, and the home answers from inside its read.  So a hit takes
#: three turns (client, DSSP, client) and a miss or an update five.
BUDGETS = {
    "hit": (41, 9, {}, 3),
    "miss": (145, 24, {}, 5),
    "update": (211, 33, {}, 5),
}


def bookstore():
    """The bookstore's home, its distinct sealed queries in order, and
    its sealed updates in order."""
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
    seen, queries, updates = set(), [], []
    for page in trace.pages:
        for kind, name, params in page:
            if kind == "update":
                bound = spec.registry.update(name).bind(params)
                updates.append(
                    codec.seal_update(bound, policy.update_level(name))
                )
            elif (name, repr(params)) not in seen:
                seen.add((name, repr(params)))
                bound = spec.registry.query(name).bind(params)
                queries.append(
                    codec.seal_query(bound, policy.query_level(name))
                )
    return home, queries, updates


class CallCounter:
    """A profile function counting ``call`` events in ``src/repro``, and
    among them those in the wire codec, those in the tracer, and the
    envelope encodings."""

    def __init__(self) -> None:
        self.calls = 0
        self.wire = 0
        self.trace = 0
        self.envelope_encodings = 0

    def __call__(self, frame, event, arg) -> None:
        if event == "call":
            code = frame.f_code
            filename = code.co_filename
            if filename.startswith(SRC):
                self.calls += 1
                self.wire += filename == WIRE
                self.trace += filename == TRACE
                self.envelope_encodings += code is ENVELOPE_BYTES


async def cost(operation, count: int):
    """``operation(0..count-1)``'s calls, codec calls, tasks by owner and
    loop turns, each per operation, and its call counter."""
    loop = asyncio.get_running_loop()
    tasks, counter = TaskCounts(), CallCounter()
    turns = 0
    run_once = loop._run_once

    def counting_run_once() -> None:
        nonlocal turns
        turns += 1
        run_once()

    loop.set_task_factory(tasks)
    loop._run_once = counting_run_once
    sys.setprofile(counter)
    try:
        for index in range(count):
            await operation(index)
    finally:
        sys.setprofile(None)
        del loop._run_once
        loop.set_task_factory(None)
    per_owner = {owner: n / count for owner, n in tasks.by_owner.items()}
    calls, wire = counter.calls / count, counter.wire / count
    return calls, wire, per_owner, turns / count, counter


async def test_hits_misses_and_updates_stay_within_their_budgets():
    home, queries, updates = bookstore()
    assert len(queries) >= WARM + MISSES and len(updates) >= UPDATES
    async with Deployment(home, nodes=1) as deployment:
        client = deployment.handles[0].client
        for envelope in queries[:WARM]:
            assert (await client.query(envelope)).cache_hit is False

        async def hit(index: int) -> None:
            answer = await client.query(queries[index % WARM])
            assert answer.cache_hit is True

        async def miss(index: int) -> None:
            answer = await client.query(queries[WARM + index])
            assert answer.cache_hit is False

        async def update(index: int) -> None:
            await client.update(updates[index])

        measured = {
            "hit": await cost(hit, HITS),
            "miss": await cost(miss, MISSES),
            "update": await cost(update, UPDATES),
        }
    for path, (calls, wire_calls, tasks, turns, counter) in measured.items():
        most_calls, most_wire_calls, budgeted_tasks, budgeted_turns = (
            BUDGETS[path]
        )
        assert calls <= most_calls, (path, measured)
        assert wire_calls <= most_wire_calls, (path, measured)
        assert tasks == budgeted_tasks, (path, measured)
        assert turns == budgeted_turns, (path, measured)
        assert counter.trace == 0, (path, "calls into the tracer")
    # The client's sealed query is encoded; the DSSP's forward of it is not.
    assert measured["miss"][4].envelope_encodings == MISSES
