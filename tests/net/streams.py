"""Stream-side test helpers: reference readers and a fake transport.

Every socket in ``src/`` is a :class:`~repro.net.framing.FrameConnection`.
The readers here are a second, independently written reader of the same
wire format over ``asyncio.StreamReader`` (and :func:`write_frame` its
writing half over ``asyncio.StreamWriter``): ``test_framing.py`` holds the
buffered protocol to them as its interop oracle, and the hand-rolled fake
servers of the client and pipeline suites read requests with them.  Their
error text matches the buffered protocol's word for word.

:class:`FakeTransport` / :func:`feed` drive a ``FrameConnection`` the way
a selector transport does (``get_buffer`` / ``buffer_updated``), so
framing and flow control are asserted as calls, not timing.
:func:`subscribe` opens an invalidation stream whose pushes a test awaits.
"""

from __future__ import annotations

import asyncio

from repro.errors import WireError
from repro.net import wire
from repro.net.framing import FrameConnection


class FakeTransport:
    """Records what the protocol asks of its transport."""

    def __init__(self) -> None:
        self.reading = True
        self.calls: list[str] = []
        self.written = bytearray()

    def is_closing(self) -> bool:
        return False

    def pause_reading(self) -> None:
        self.reading = False
        self.calls.append("pause")

    def resume_reading(self) -> None:
        self.reading = True
        self.calls.append("resume")

    def write(self, data: bytes) -> None:
        self.written += data


def connect(*, max_frame: int, **kwargs) -> tuple[FrameConnection, FakeTransport]:
    connection = FrameConnection(max_frame=max_frame, **kwargs)
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


async def read_raw_frame(
    reader: asyncio.StreamReader, *, max_frame: int = wire.MAX_FRAME_BYTES
) -> bytes | None:
    """One frame's exact bytes (header included); ``None`` on a clean EOF.

    Raises:
        WireError: on EOF mid-frame or a malformed header.
    """
    try:
        header = await reader.readexactly(wire.HEADER_SIZE)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise WireError(
            f"connection closed mid-header ({len(error.partial)} bytes)"
        ) from error
    _, rid_length, length = wire._check_header(header, max_frame=max_frame)
    try:
        body = await reader.readexactly(rid_length + length)
    except asyncio.IncompleteReadError as error:
        raise WireError(
            f"connection closed mid-frame ({len(error.partial)} of "
            f"{rid_length + length} body bytes)"
        ) from error
    return header + body


async def read_traced(
    reader: asyncio.StreamReader, *, max_frame: int = wire.MAX_FRAME_BYTES
) -> tuple[wire.Frame, str | None] | None:
    """One decoded ``(frame, request_id)``; ``None`` on a clean EOF."""
    raw = await read_raw_frame(reader, max_frame=max_frame)
    if raw is None:
        return None
    return wire.decode_traced(raw, max_frame=max_frame)


async def read_frame(
    reader: asyncio.StreamReader, *, max_frame: int = wire.MAX_FRAME_BYTES
) -> wire.Frame | None:
    """:func:`read_traced` for callers that ignore the request id."""
    traced = await read_traced(reader, max_frame=max_frame)
    return None if traced is None else traced[0]


async def write_frame(
    writer: asyncio.StreamWriter,
    frame: wire.Frame,
    *,
    request_id: str | None = None,
) -> None:
    """Send one frame on a stream writer and wait for it to drain."""
    writer.write(wire.encode_frame(frame, request_id=request_id))
    await writer.drain()


async def subscribe(client, node_id: str, app_ids: tuple[str, ...], **kwargs):
    """An invalidation-stream subscription, and the queue its pushes land
    in as ``(frame, request_id)`` pairs, in arrival order."""
    pushes: asyncio.Queue = asyncio.Queue()
    subscription = await client.subscribe(
        node_id, app_ids, lambda *push: pushes.put_nowait(push), **kwargs
    )
    return subscription, pushes
