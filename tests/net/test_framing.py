"""``FrameConnection`` against an independent reference: the stream helpers.

``wire.read_raw_frame`` over an ``asyncio.StreamReader`` is a separately
written reader of the same wire format, so it is the oracle here: whatever
bytes arrive, in whatever pieces, the buffered protocol must hand out the
same raw frames and end with the same error text.  The connection is
driven the way a selector transport drives it — ``get_buffer`` /
``buffer_updated`` / ``eof_received`` — through a recording fake
transport, so flow control is asserted as calls, not timing.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import WireError
from repro.net import WireClient, wire
from repro.net.framing import (
    INITIAL_BUFFER_BYTES,
    READ_BACKLOG_BYTES,
    FrameConnection,
)
from repro.net.service import WireServer

MAX_FRAME = 64 * 1024


class FakeTransport:
    """Records what the protocol asks of its transport."""

    def __init__(self) -> None:
        self.reading = True
        self.calls: list[str] = []

    def is_closing(self) -> bool:
        return False

    def pause_reading(self) -> None:
        self.reading = False
        self.calls.append("pause")

    def resume_reading(self) -> None:
        self.reading = True
        self.calls.append("resume")


def connect(**kwargs) -> tuple[FrameConnection, FakeTransport]:
    connection = FrameConnection(max_frame=MAX_FRAME, **kwargs)
    transport = FakeTransport()
    connection.connection_made(transport)
    return connection, transport


def feed(connection: FrameConnection, chunk: bytes) -> None:
    """One socket's worth of bytes, read the way a transport reads."""
    while chunk:
        buffer = connection.get_buffer(-1)
        assert len(buffer) > 0, "the protocol must always offer room"
        count = min(len(buffer), len(chunk))
        buffer[:count] = chunk[:count]
        connection.buffer_updated(count)
        chunk = chunk[count:]


def split(data: bytes, sizes: list[int]) -> list[bytes]:
    chunks, position = [], 0
    for size in itertools.cycle(sizes):
        if position >= len(data):
            return chunks
        chunks.append(data[position : position + size])
        position += size


async def through_framing(chunks: list[bytes]) -> tuple[list[bytes], str | None]:
    connection, _ = connect()
    for chunk in chunks:
        feed(connection, chunk)
    connection.eof_received()
    frames = []
    try:
        while (raw := await connection.receive()) is not None:
            frames.append(raw)
    except WireError as error:
        return frames, str(error)
    return frames, None


async def through_streams(chunks: list[bytes]) -> tuple[list[bytes], str | None]:
    reader = asyncio.StreamReader()
    for chunk in chunks:
        reader.feed_data(chunk)
    reader.feed_eof()
    frames = []
    try:
        while (
            raw := await wire.read_raw_frame(reader, max_frame=MAX_FRAME)
        ) is not None:
            frames.append(raw)
    except WireError as error:
        return frames, str(error)
    return frames, None


def both(chunks: list[bytes]):
    async def run():
        return await through_framing(chunks), await through_streams(chunks)

    return asyncio.run(run())


def stats_frame(size: int, index: int = 0) -> bytes:
    return wire.encode_frame(
        wire.StatsResponse("n", "x" * size), request_id=f"rid-{index}"
    )


#: Larger than the initial buffer: forces the grow-then-drop-back path.
BIG = INITIAL_BUFFER_BYTES * 2 + 17


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(0, 3000), min_size=1, max_size=8),
    st.integers(0, 8),
    st.lists(st.integers(1, 6000), min_size=1, max_size=12),
    st.binary(max_size=24),
)
@example([700, 1200, 900], 1, [1], b"")  # byte at a time
@example([3000, 3000, 3000], 3, [INITIAL_BUFFER_BYTES], b"")  # straddles
def test_reassembly_agrees_with_the_stream_reference(
    payload_sizes, big_at, chunk_sizes, tail
):
    sizes = list(payload_sizes)
    sizes.insert(min(big_at, len(sizes)), BIG)
    frames = [stats_frame(size, index) for index, size in enumerate(sizes)]
    # ``tail`` is what a severed or garbled peer leaves behind the last
    # whole frame: both readers must stop at the same frame with the same
    # words.
    ours, reference = both(split(b"".join(frames) + tail, chunk_sizes))
    assert ours == reference
    assert ours[0][: len(frames)] == frames


def header(magic=wire.MAGIC, version=wire.VERSION, rid=0, length=0) -> bytes:
    return struct.pack(">2sBBBI", magic, version, 10, rid, length)


@pytest.mark.parametrize(
    "data, words",
    [
        (header(magic=b"XX"), "bad magic"),
        (header(version=1), "unsupported protocol version 1"),
        (header(rid=200), "request id of 200 bytes"),
        (header(length=MAX_FRAME + 1), "exceeds limit"),
        (stats_frame(10)[:5], "closed mid-header (5 bytes)"),
        (stats_frame(10)[:-3], "closed mid-frame"),
    ],
)
def test_malformed_input_fails_with_the_reference_error(data, words):
    good = stats_frame(33)
    ours, reference = both([good + data])
    assert ours == reference
    assert ours[0] == [good] and words in ours[1]


class TestBuffer:
    async def test_a_large_frame_does_not_pin_its_buffer(self):
        connection, _ = connect()
        feed(connection, stats_frame(BIG) + stats_frame(5)[:4])
        assert len(await connection.receive()) > BIG
        # Back to the small buffer, the next frame's first bytes kept.
        assert len(connection.get_buffer(-1)) == INITIAL_BUFFER_BYTES - 4
        feed(connection, stats_frame(5)[4:])
        assert await connection.receive() == stats_frame(5)

    async def test_an_announced_frame_gets_exactly_its_size(self):
        connection, _ = connect()
        frame = stats_frame(BIG)
        feed(connection, frame[: wire.HEADER_SIZE])
        assert len(connection.get_buffer(-1)) == len(frame) - wire.HEADER_SIZE


class TestReadBacklog:
    async def test_unread_frames_pause_the_transport_at_the_bound(self):
        connection, transport = connect()
        frame = stats_frame(1000)
        fits = READ_BACKLOG_BYTES // len(frame)
        for _ in range(fits):
            feed(connection, frame)
        assert transport.reading and transport.calls == []
        feed(connection, frame)  # crosses the bound
        assert not transport.reading
        feed(connection, frame)  # what was already in flight still lands
        assert transport.calls == ["pause"]

        # Draining resumes exactly when the backlog is back under the bound.
        assert await connection.receive() == frame
        assert not transport.reading
        assert await connection.receive() == frame
        assert transport.reading and transport.calls == ["pause", "resume"]
        for _ in range(fits):
            assert await connection.receive() == frame

    async def test_a_waiting_reader_is_woken_by_the_next_frame(self):
        connection, _ = connect()
        waiting = asyncio.ensure_future(connection.receive())
        await asyncio.sleep(0)
        assert not waiting.done()
        feed(connection, stats_frame(7))
        assert await waiting == stats_frame(7)


class TestPushMode:
    async def test_owner_sees_frames_then_the_end_once(self):
        seen: list = []
        connection, _ = connect(
            on_frame=seen.append, on_end=lambda error: seen.append(("end", error))
        )
        feed(connection, stats_frame(1) + stats_frame(2))
        connection.eof_received()
        connection.connection_lost(None)
        assert seen == [stats_frame(1), stats_frame(2), ("end", None)]

    async def test_an_error_from_the_owner_ends_the_input(self):
        seen: list = []

        def reject_second(raw):
            if seen:
                raise WireError("no")
            seen.append(raw)

        ended: list = []
        connection, transport = connect(
            on_frame=reject_second, on_end=ended.append
        )
        feed(connection, stats_frame(1) + stats_frame(2) + stats_frame(3))
        assert seen == [stats_frame(1)]  # the third frame is never handed out
        assert [str(error) for error in ended] == ["no"]
        assert not transport.reading


class BigAnswers(WireServer):
    """Answers STATS with a payload far larger than the initial buffer."""

    BIG = 50 * INITIAL_BUFFER_BYTES

    def __init__(self) -> None:
        super().__init__()
        self.size = self.BIG
        self.contexts: list = []

    async def handle(self, frame, context):
        self.contexts.append(context)
        return wire.StatsResponse(self.server_id, json.dumps("y" * self.size))


class TestOnRealSockets:
    async def test_both_ends_are_buffered_protocols(self):
        """Structural guard: a plain ``Protocol`` would silently put the
        256 KiB-per-read ``recv`` back on the serving path."""
        loop = asyncio.get_running_loop()
        protocols: list = []

        def spy_on(name):
            real = getattr(loop, name)

            def spying(factory, *args, **kwargs):
                def made():
                    protocols.append(factory())
                    return protocols[-1]

                return real(made, *args, **kwargs)

            setattr(loop, name, spying)

        spy_on("create_server")
        spy_on("create_connection")
        server = BigAnswers()
        host, port = await server.start()
        pooled = WireClient(host, port)
        pipelined = WireClient(host, port, pipeline=4)
        try:
            for client in (pooled, pipelined):
                # Grown for the large answer, dropped back for the small.
                for size in (server.BIG, 3, server.BIG):
                    server.size = size
                    assert await client.stats() == "y" * size
        finally:
            await pooled.aclose()
            await pipelined.aclose()
            await server.stop()
        assert len(protocols) == 4  # two accepted, two connected
        for protocol in protocols:
            assert isinstance(protocol, asyncio.BufferedProtocol)
        for context in server.contexts:
            assert isinstance(context.writer, FrameConnection)
