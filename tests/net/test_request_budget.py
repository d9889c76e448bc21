"""The wire tier's fixed per-request budget: one task, one deadline timer.

Everything here is a count or a typed outcome — no wall-clock thresholds.
A counting task factory attributes every task created on the shared loop
to the server whose coroutine it runs (or to nobody: the client library
and everything else), so "a cache hit costs one task" is asserted, not
estimated.  The deadline tests pin what replacing ``asyncio.wait_for``
with ``asyncio.timeout`` must keep: the same typed outcomes and the same
retry safety.
"""

from __future__ import annotations

import asyncio
from collections import Counter

import pytest

from repro.analysis.exposure import ExposureLevel
from repro.crypto.envelope import QueryEnvelope, UpdateEnvelope
from repro.dssp.invalidation import StrategyClass
from repro.errors import NetTimeoutError
from repro.net import RetryPolicy, WireClient, wire
from repro.net.service import WireServer
from tests.net.test_end_to_end import Topology

QUERY = QueryEnvelope(
    app_id="toystore", level=ExposureLevel.BLIND, cache_key="k1"
)
UPDATE = UpdateEnvelope(
    app_id="toystore", level=ExposureLevel.BLIND, opaque_id="u1"
)
N = 8


class TaskCounts:
    """Task factory counting created tasks by the server that owns them."""

    def __init__(self) -> None:
        self.by_owner: Counter[str] = Counter()

    def __call__(self, loop, coro, **kwargs):
        owner = coro.cr_frame.f_locals.get("self")
        self.by_owner[getattr(owner, "server_id", "elsewhere")] += 1
        return asyncio.Task(coro, loop=loop, **kwargs)


class TestTaskBudget:
    async def test_hits_cost_one_task_and_misses_two(
        self, toystore, toystore_db
    ):
        topology = Topology(toystore, toystore_db, StrategyClass.MSIS)
        async with topology as top:
            client = top.clients[0]
            q2 = toystore.query("Q2")
            # Open both hops' connections before counting: accepting a
            # connection is a per-connection task, not a per-request one.
            warm = top.seal_query(q2.bind([1]))
            assert (await client.query(warm)).cache_hit is False
            counts = TaskCounts()
            asyncio.get_running_loop().set_task_factory(counts)

            for _ in range(N):
                assert (await client.query(warm)).cache_hit is True
            assert counts.by_owner == {"dssp-0": N}

            counts.by_owner.clear()
            for toy_id in range(2, 2 + N):
                outcome = await client.query(top.seal_query(q2.bind([toy_id])))
                assert outcome.cache_hit is False
            assert counts.by_owner == {"dssp-0": N, "home": N}


class SlowServer(WireServer):
    """Never answers within any deadline; records its own cancellation."""

    cancelled = 0

    async def handle(self, frame, context):
        try:
            await asyncio.sleep(3600)
        except asyncio.CancelledError:
            self.cancelled += 1
            raise


async def silent_server(seen: list):
    """Reads request frames forever and never replies."""

    async def serve(reader, writer):
        try:
            while (traced := await wire.read_traced(reader)) is not None:
                seen.append(traced[1])
        finally:
            writer.close()

    server = await asyncio.start_server(serve, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]


class TestDeadlines:
    async def test_overrunning_handler_is_cancelled_and_answered_timeout(self):
        server = SlowServer(request_timeout_s=0.05)
        host, port = await server.start()
        client = WireClient(host, port, retry=RetryPolicy(attempts=1))
        try:
            # The TIMEOUT error frame comes back typed on a live
            # connection — twice, so the stream survived the first one.
            for served in (1, 2):
                with pytest.raises(NetTimeoutError, match="exceeded 0.05s"):
                    await client.update(UPDATE)
                assert server.cancelled == served
            assert server.metrics.counter("server.timeouts").value == 2
            opened = client.metrics.counter("client.connections_opened")
            assert opened.value == 1
        finally:
            await client.aclose()
            await server.stop()

    async def test_silent_server_times_out_and_the_update_is_not_retried(self):
        seen: list = []
        server, port = await silent_server(seen)
        client = WireClient(
            "127.0.0.1",
            port,
            request_timeout_s=0.05,
            retry=RetryPolicy(attempts=3, backoff_s=0.001, max_backoff_s=0.01),
        )
        try:
            with pytest.raises(NetTimeoutError, match="no response"):
                await client.update(UPDATE, request_id="the-update")
            # sent=True: its fate is unknown, so it must not be re-applied.
            assert seen == ["the-update"]
            assert client.metrics.counter("client.retries").value == 0
        finally:
            await client.aclose()
            server.close()
            await server.wait_closed()

    async def test_full_pipeline_window_is_a_provably_unsent_timeout(self):
        seen: list = []
        server, port = await silent_server(seen)
        holding = asyncio.Event()

        async def stall_blocker(frame, request_id):
            if request_id == "blocker":  # holds the only slot, unsent
                holding.set()
                await asyncio.Event().wait()

        client = WireClient(
            "127.0.0.1",
            port,
            pipeline=1,
            request_timeout_s=0.05,
            retry=RetryPolicy(attempts=3, backoff_s=0.001, max_backoff_s=0.01),
            fault_hook=stall_blocker,
        )
        blocker = asyncio.ensure_future(
            client.query(QUERY, request_id="blocker")
        )
        try:
            await holding.wait()
            with pytest.raises(NetTimeoutError, match="pipeline window"):
                await client.update(UPDATE, request_id="starved")
            # Never on the wire, so even the update was safe to retry —
            # and it was, on every attempt the policy allows.
            assert seen == []
            assert client.metrics.counter("client.retries").value == 2
            window_timeouts = client.metrics.counter(
                "client.pipeline_window_timeouts"
            )
            assert window_timeouts.value == 3
        finally:
            blocker.cancel()
            await asyncio.gather(blocker, return_exceptions=True)
            await client.aclose()
            server.close()
            await server.wait_closed()
