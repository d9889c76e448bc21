"""``ChaosProxy`` on its own: a real client, the proxy, a small server.

The chaos oracle exercises the proxy end to end; these cases pin each
fault's effect on the bytes.  A scripted stand-in for the
:class:`~repro.net.chaos.FaultPlan` picks the fault for chosen frames, and
both peers record every frame they send and receive, so "forwarded
exactly" and "severed" are asserted on bytes and connections rather than
inferred from retries.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.errors import NetConnectionError
from repro.net import RetryPolicy, WireClient, eventually, wire
from repro.net.chaos import ChaosLog, ChaosProxy, FaultDecision, FaultKind
from repro.net.service import WireServer
from repro.net.wire import FrameType

PASS = FaultDecision(FaultKind.PASS)


class ScriptedPlan:
    """Stands in for a ``FaultPlan``: PASS unless the script names the frame.

    The script is keyed by ``(direction, index)``; every request here is a
    STATS frame and every answer a STATS_RESULT, so the per-type index is
    the frame's position in its direction.
    """

    def __init__(self, script=None) -> None:
        self.script = dict(script or {})

    def decide(self, link, direction, frame_type, index) -> FaultDecision:
        return self.script.get((direction, index), PASS)


class Counting(WireServer):
    """Answers the nth STATS request with ``n``; records every frame."""

    def __init__(self) -> None:
        self.frames: list[bytes] = []
        super().__init__(frame_observer=self.frames.append)
        self.answered = 0

    @property
    def connections(self) -> int:
        return len(self._contexts)

    async def handle(self, frame, context):
        answer, self.answered = self.answered, self.answered + 1
        return wire.StatsResponse(self.server_id, json.dumps(answer))


class Link:
    """client -> proxy -> server, torn down in reverse."""

    def __init__(self, script=None, *, pipeline: int | None = None) -> None:
        self.server = Counting()
        self.plan = ScriptedPlan(script)
        self.log = ChaosLog()
        self.client_frames: list[bytes] = []
        self.pipeline = pipeline

    async def __aenter__(self) -> "Link":
        upstream = await self.server.start()
        self.proxy = ChaosProxy(upstream, self.plan, "client->server", self.log)
        host, port = await self.proxy.start()
        self.client = WireClient(
            host,
            port,
            pipeline=self.pipeline,
            retry=RetryPolicy(attempts=1),
            request_timeout_s=2.0,
            frame_observer=self.client_frames.append,
        )
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.client.aclose()
        await self.proxy.stop()
        await self.server.stop()


def requests(frames: list[bytes]) -> list[bytes]:
    return [raw for raw in frames if raw[3] == FrameType.STATS]


def answers(frames: list[bytes]) -> list[bytes]:
    return [raw for raw in frames if raw[3] != FrameType.STATS]


class TestForwarding:
    async def test_pass_forwards_exact_bytes_in_order_both_ways(self):
        async with Link(pipeline=4) as link:
            got = await asyncio.gather(
                *(link.client.stats() for _ in range(6))
            )
        assert sorted(got) == list(range(6))
        assert len(requests(link.client_frames)) == 6
        assert requests(link.server.frames) == requests(link.client_frames)
        assert answers(link.server.frames) == answers(link.client_frames)
        assert len(link.log) == 0

    async def test_delay_keeps_order(self):
        delay = FaultDecision(FaultKind.DELAY, delay_s=0.05)
        async with Link({("c2s", 0): delay}, pipeline=4) as link:
            await asyncio.gather(*(link.client.stats() for _ in range(3)))
        # The held frame holds the frames behind it: nothing overtakes.
        assert len(requests(link.server.frames)) == 3
        assert requests(link.server.frames) == requests(link.client_frames)
        [event] = link.log.events
        assert (event.kind, event.direction, event.index) == ("delay", "c2s", 0)
        assert event.detail == "50.0ms"

    async def test_duplicate_delivers_twice_and_the_client_sees_one_answer(
        self,
    ):
        duplicate = FaultDecision(FaultKind.DUPLICATE)
        async with Link({("c2s", 0): duplicate}) as link:
            # The server answers both copies (0, 1); the proxy swallows the
            # first answer, so the client's one request sees one response.
            assert await link.client.stats() == 1
            assert await link.client.stats() == 2  # the stream is in step
        sent = requests(link.client_frames)
        assert requests(link.server.frames) == [sent[0], sent[0], sent[1]]
        assert answers(link.client_frames) == answers(link.server.frames)[1:]
        assert [event.kind for event in link.log.events] == ["duplicate"]


class TestSevering:
    @pytest.mark.parametrize("direction", ["c2s", "s2c"])
    @pytest.mark.parametrize("kind", [FaultKind.TRUNCATE, FaultKind.DROP])
    async def test_fault_severs_both_halves_and_logs_one_event(
        self, kind, direction
    ):
        fault = FaultDecision(kind, keep_fraction=0.5)
        async with Link({(direction, 0): fault}) as link:
            with pytest.raises(NetConnectionError):
                await link.client.stats()
            await eventually(lambda: link.server.connections == 0)
            await eventually(lambda: not link.proxy._connections)
            [event] = link.log.events
            assert (event.kind, event.direction, event.index) == (
                kind.value,
                direction,
                0,
            )
            if kind is FaultKind.DROP and direction == "c2s":
                assert link.server.frames == []  # never reached the server
            # The proxy keeps accepting: a new pair serves normally.
            next_answer = link.server.answered
            assert await link.client.stats() == next_answer

    async def test_malformed_header_from_the_client_severs(self):
        async with Link() as link:
            reader, writer = await asyncio.open_connection(*link.proxy.address)
            try:
                writer.write(b"XX" + bytes(wire.HEADER_SIZE))
                assert await asyncio.wait_for(reader.read(), 2.0) == b""
            finally:
                writer.close()
            await eventually(lambda: link.server.connections == 0)
            await eventually(lambda: not link.proxy._connections)
            assert link.server.frames == []
            assert len(link.log) == 0

    async def test_malformed_header_from_the_server_severs(self):
        hung_up = asyncio.Event()

        async def garbler(reader, writer):
            writer.write(b"XX" + bytes(wire.HEADER_SIZE))
            await reader.read()  # until the proxy hangs up
            hung_up.set()
            writer.close()

        upstream = await asyncio.start_server(garbler, "127.0.0.1", 0)
        log = ChaosLog()
        proxy = ChaosProxy(
            upstream.sockets[0].getsockname()[:2], ScriptedPlan(), "x", log
        )
        try:
            reader, writer = await asyncio.open_connection(*await proxy.start())
            try:
                assert await asyncio.wait_for(reader.read(), 2.0) == b""
            finally:
                writer.close()
            await asyncio.wait_for(hung_up.wait(), 2.0)
            await eventually(lambda: not proxy._connections)
            assert len(log) == 0
        finally:
            await proxy.stop()
            upstream.close()
            await upstream.wait_closed()

    async def test_stop_returns_while_a_client_holds_an_idle_pair(self):
        """``stop`` severs the pairs before it awaits the listener's
        ``wait_closed``, which waits for them on Python >= 3.12.1."""
        async with Link() as link:
            reader, writer = await asyncio.open_connection(*link.proxy.address)
            try:
                await eventually(lambda: len(link.proxy._connections) == 2)
                await asyncio.wait_for(link.proxy.stop(), timeout=5.0)
                assert not link.proxy._connections
                assert await asyncio.wait_for(reader.read(), 2.0) == b""
            finally:
                writer.close()

    async def test_kill_connections_ends_live_pairs(self):
        async with Link() as link:
            reader, writer = await asyncio.open_connection(*link.proxy.address)
            try:
                request = wire.encode_frame(wire.StatsRequest(), request_id="a")
                writer.write(request)
                raw = await asyncio.wait_for(
                    reader.readexactly(wire.HEADER_SIZE), 2.0
                )
                assert raw[3] == FrameType.STATS_RESULT  # the pair is live
                assert link.server.connections == 1
                await link.proxy.kill_connections()
                assert not link.proxy._connections
                await asyncio.wait_for(reader.read(), 2.0)  # rest, then EOF
                assert reader.at_eof()
            finally:
                writer.close()
            await eventually(lambda: link.server.connections == 0)
            assert await link.client.stats() == 1  # new pairs still served
