"""The wire tier's fixed per-request budget: a request that waits for
nothing or for a forward's reply costs no task, and none costs a timer.

A server answers a request inline, from the connection's read callback,
until its handler first waits: a DSSP hit and every home request cost no
task.  A DSSP miss or update waits for its forward's reply with no task
either: the read that brings the home's answer steps it on.  On the
client side the budget is zero tasks: responses resolve their senders
from the connection's read callback.

Everything here is a count or a typed outcome — no wall-clock thresholds.
A counting task factory attributes every task created on the shared loop
to the server whose coroutine it runs (or to nobody: the client library
and everything else), so "a cache hit costs no task" is asserted, not
estimated; a counting ``loop.call_at`` does the same for timers.  The
deadline tests pin what keeping deadlines in a
:class:`~repro.net.deadline.DeadlineQueue` must preserve: the typed
outcomes and retry safety ``asyncio.wait_for`` gave, and the cancellation
contract of ``asyncio.timeout``.
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
from repro.net.deadline import DeadlineQueue
from repro.net.service import WireServer
from tests.net import streams
from tests.net.test_end_to_end import Topology

QUERY = QueryEnvelope(
    app_id="toystore", level=ExposureLevel.BLIND, sealed_statement=b"k1"
)
UPDATE = UpdateEnvelope(
    app_id="toystore", level=ExposureLevel.BLIND, sealed_statement=b"u1"
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


def count_timers(loop) -> list:
    """Make ``loop`` record every timer armed from now on."""
    armed: list = []
    call_at = loop.call_at

    def counting_call_at(when, callback, *args, **kwargs):
        armed.append(callback)
        return call_at(when, callback, *args, **kwargs)

    loop.call_at = counting_call_at  # call_later goes through it too
    return armed


class TestTaskBudget:
    async def test_hits_misses_and_updates_cost_no_task_and_no_timer(
        self, toystore, toystore_db
    ):
        topology = Topology(toystore, toystore_db, StrategyClass.MSIS)
        async with topology as top:
            client = top.clients[0]
            q2 = toystore.query("Q2")
            u1 = toystore.update("U1")
            # Open both hops' connections before counting: accepting a
            # connection is a per-connection task, not a per-request one.
            await client.update(top.seal_update(u1.bind([100])))
            warm = top.seal_query(q2.bind([1]))
            assert (await client.query(warm)).cache_hit is False
            counts = TaskCounts()
            asyncio.get_running_loop().set_task_factory(counts)
            # The warm-up armed each queue's one deadline timer (the DSSP's
            # for its forwards and their requests, the home's for its
            # invalidation pushes); every later deadline lies behind it,
            # so no request arms another.
            timers = count_timers(asyncio.get_running_loop())

            for _ in range(N):
                assert (await client.query(warm)).cache_hit is True
            # Answered from inside the read: no task anywhere.
            assert counts.by_owner == {}

            for toy_id in range(2, 2 + N):
                outcome = await client.query(top.seal_query(q2.bind([toy_id])))
                assert outcome.cache_hit is False
            # The DSSP's forward waits in no task; the home answers inline.
            assert counts.by_owner == {}

            for toy_id in range(2, 2 + N):
                await client.update(top.seal_update(u1.bind([toy_id])))
            assert counts.by_owner == {}
            assert timers == []


class ClientTasks:
    """Task factory recording tasks whose coroutine is a client method."""

    def __init__(self) -> None:
        self.created: list[str] = []

    def __call__(self, loop, coro, **kwargs):
        owner = coro.cr_frame.f_locals.get("self")
        if type(owner).__module__ == "repro.net.client":
            self.created.append(coro.__qualname__)
        return asyncio.Task(coro, loop=loop, **kwargs)


class TestClientBudget:
    @pytest.mark.parametrize(
        "window", [{"pool_size": 1}, {"pool_size": 4}, {"pipeline": 4}]
    )
    async def test_a_client_creates_no_task(self, window):
        """Serial or concurrent, first request on a fresh connection or
        later: the client itself spawns nothing."""
        server = WireServer(server_id="stats")
        host, port = await server.start()
        loop = asyncio.get_running_loop()
        tasks = ClientTasks()
        loop.set_task_factory(tasks)
        client = WireClient(host, port, **window)
        try:
            for _ in range(N):
                await client.stats()
            # The callers' own tasks, built past the factory on purpose.
            await asyncio.gather(
                *(asyncio.Task(client.stats()) for _ in range(N))
            )
        finally:
            loop.set_task_factory(None)
            await client.aclose()
            await server.stop()
        assert tasks.created == []
        opened = client.metrics.counter("client.connections_opened")
        assert opened.value == 1


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
            while (traced := await streams.read_traced(reader)) is not None:
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


class TestDeadlineQueue:
    async def test_two_timeouts_on_one_queue_expire_in_deadline_order(self):
        queue = DeadlineQueue()
        expired: list[str] = []

        async def wait(name: str, delay: float):
            try:
                with queue.after(delay):
                    await asyncio.Event().wait()
            except TimeoutError:
                expired.append(name)

        timers = count_timers(asyncio.get_running_loop())
        slow = asyncio.ensure_future(wait("slow", 0.06))
        await asyncio.sleep(0)
        # The shorter timeout arrives while the longer one is armed.
        fast = asyncio.ensure_future(wait("fast", 0.02))
        await asyncio.gather(slow, fast)
        assert expired == ["fast", "slow"]
        # Idle again: nothing open, nothing armed.
        assert len(queue) == 0 and not queue.armed
        # slow armed, fast re-armed earlier, fast's expiry re-armed slow's.
        assert len(timers) == 3

    async def test_a_deadline_behind_the_armed_one_arms_nothing(self):
        queue = DeadlineQueue()
        with queue.after(5.0):
            timers = count_timers(asyncio.get_running_loop())
            for _ in range(N):
                with queue.after(5.0):
                    assert len(queue) == 2
        assert timers == [] and len(queue) == 0 and queue.armed

    async def test_outside_cancellation_stays_cancellation(self):
        queue = DeadlineQueue()
        entered = asyncio.Event()

        async def body():
            with queue.after(5.0):
                entered.set()
                await asyncio.Event().wait()

        task = asyncio.ensure_future(body())
        await entered.wait()
        task.cancel()
        with pytest.raises(asyncio.CancelledError):
            await task
        assert len(queue) == 0

    async def test_expiry_is_a_timeout_once_and_the_task_stays_usable(self):
        queue = DeadlineQueue()
        with pytest.raises(TimeoutError):
            with queue.after(0.01):
                await asyncio.Event().wait()
        assert asyncio.current_task().cancelling() == 0
        await asyncio.sleep(0)  # no second cancellation is lurking
        assert len(queue) == 0 and not queue.armed

    async def test_cancelled_while_expiring_is_a_cancellation(self):
        """Both the deadline and the caller cancelled the task: the
        caller's request wins, as with ``asyncio.timeout``."""
        queue = DeadlineQueue()
        entered = asyncio.Event()

        async def body():
            with queue.after(0.01):
                entered.set()
                try:
                    await asyncio.Event().wait()
                except asyncio.CancelledError:
                    asyncio.current_task().cancel()  # the caller's, too
                    raise

        task = asyncio.ensure_future(body())
        await entered.wait()
        with pytest.raises(asyncio.CancelledError):
            await task
