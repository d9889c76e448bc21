"""The serving path's framing: one ``asyncio.BufferedProtocol`` per connection.

A stream transport hands an ordinary protocol a fresh ``bytes`` object
sized for the largest read it allows (256 KiB) on *every* read; a
``BufferedProtocol`` is asked for a buffer instead and the transport
``recv_into``\\ s it, so a read costs no allocation at all.
:class:`FrameConnection` owns one small reusable buffer, cuts complete
frames out of it with the same header check the stream helpers in
:mod:`repro.net.wire` use, and gives each frame's raw bytes to its owner:

* a **server** passes ``on_frame`` / ``on_end`` and is called back from
  the read itself — no per-connection reader task;
* a **client** passes neither and pulls with :meth:`receive`; frames it
  has not taken yet wait in a queue bounded by
  :data:`READ_BACKLOG_BYTES` through ``pause_reading()``.

The writing half is the ``write`` / ``drain`` / ``close`` /
``wait_closed`` subset of an asyncio stream writer, so
:func:`repro.net.wire.write_frame` sends on either.
"""

from __future__ import annotations

import asyncio
from collections import deque

from repro.errors import WireError
from repro.net import wire

__all__ = ["FrameConnection", "INITIAL_BUFFER_BYTES", "READ_BACKLOG_BYTES"]

#: Receive buffer a connection starts with and returns to.  Frames are
#: 0.7-1.2 KB (``net.wire.bytes_per_op``), so one read takes a pipelined
#: burst of a few; a larger frame grows the buffer to exactly its
#: announced size and the buffer is dropped back once that frame is cut,
#: so one big result does not pin memory on an idle connection.
INITIAL_BUFFER_BYTES = 4096
#: Frames received but not yet taken by :meth:`FrameConnection.receive`
#: may hold this many bytes before the transport stops reading (and the
#: peer's writes back up into TCP): the default ``limit`` of an asyncio
#: stream reader, which bounded the same backlog before.
READ_BACKLOG_BYTES = 64 * 1024


class FrameConnection(asyncio.BufferedProtocol):
    """One connection's framing: reusable read buffer, frame-sized writes.

    Args:
        max_frame: Largest payload a header may announce.
        on_frame: ``on_frame(raw)`` for each complete frame, in order, from
            inside the read.  A :class:`~repro.errors.WireError` it raises
            ends the input exactly like a malformed header.
        on_end: ``on_end(error)`` once, when no more frames will come:
            ``None`` for a clean EOF between frames, a ``WireError`` for a
            malformed header or an EOF inside a frame, the transport's
            exception for a lost connection.
    """

    def __init__(self, *, max_frame: int, on_frame=None, on_end=None) -> None:
        self._max_frame = max_frame
        self._on_frame = on_frame or self._enqueue
        self._on_end = on_end or self._wake_receiver
        self._loop = asyncio.get_running_loop()
        self._transport: asyncio.Transport | None = None
        self._closed: asyncio.Future = self._loop.create_future()
        # Read side: bytes [_start, _end) of _buffer are received and not
        # yet cut; _need is the pending frame's total size once its header
        # has been validated.
        self._buffer = bytearray(INITIAL_BUFFER_BYTES)
        self._view = memoryview(self._buffer)
        self._start = self._end = 0
        self._need: int | None = None
        self._ended = False
        self._error: BaseException | None = None
        # Pull mode: undelivered frames, their size, the one waiting reader.
        self._frames: deque[bytes] = deque()
        self._backlog = 0
        self._reading_paused = False
        self._receiver: asyncio.Future | None = None
        # Write side: cleared while the transport's buffer is over its
        # high-water mark.
        self._writable = asyncio.Event()
        self._writable.set()
        self._close_requested = False

    # -- transport callbacks: lifecycle -----------------------------------

    def connection_made(self, transport) -> None:
        self._transport = transport
        if self._close_requested:  # closed between accept and here
            transport.close()

    def eof_received(self) -> bool:
        self._end_input(self._truncation())
        return True  # stay writable: in-flight responses still go out

    def connection_lost(self, exc) -> None:
        self._end_input(exc or self._truncation())
        self._transport = None
        self._writable.set()  # drain() wakes up and finds the transport gone
        if not self._closed.done():
            self._closed.set_result(None)

    def _truncation(self) -> WireError | None:
        """What an end of input here means: clean, or cut inside a frame."""
        have = self._end - self._start
        if not have:
            return None
        if self._need is None:
            return WireError(f"connection closed mid-header ({have} bytes)")
        return WireError(
            f"connection closed mid-frame ({have - wire.HEADER_SIZE} of "
            f"{self._need - wire.HEADER_SIZE} body bytes)"
        )

    def _end_input(self, error: BaseException | None) -> None:
        if self._ended:
            return
        self._ended = True
        self._error = error
        if self._transport is not None and not self._transport.is_closing():
            self._transport.pause_reading()  # nothing after the end counts
        self._on_end(error)

    # -- transport callbacks: reading --------------------------------------

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._view[self._end :]

    def buffer_updated(self, nbytes: int) -> None:
        self._end += nbytes
        try:
            self._cut_frames()
        except WireError as error:
            self._end_input(error)
            return
        self._make_room()

    def _cut_frames(self) -> None:
        view = self._view
        while True:
            have = self._end - self._start
            if self._need is None:
                if have < wire.HEADER_SIZE:
                    return
                header_end = self._start + wire.HEADER_SIZE
                _, rid_length, length = wire._check_header(
                    view[self._start : header_end], max_frame=self._max_frame
                )
                self._need = wire.HEADER_SIZE + rid_length + length
            if have < self._need:
                return
            frame_end = self._start + self._need
            raw = bytes(view[self._start : frame_end])
            self._start = frame_end
            self._need = None
            self._on_frame(raw)

    def _make_room(self) -> None:
        """Leave the buffer able to take the rest of the pending frame."""
        have = self._end - self._start
        size = max(self._need or 0, INITIAL_BUFFER_BYTES)
        if len(self._buffer) != size:
            # Grow to what the validated header announced, or drop back
            # after a large frame; either way the partial frame moves over.
            buffer = bytearray(size)
            buffer[:have] = self._view[self._start : self._end]
            self._buffer, self._view = buffer, memoryview(buffer)
            self._start, self._end = 0, have
        elif not have:
            self._start = self._end = 0
        elif self._start and (
            self._need is None or self._start + self._need > len(self._buffer)
        ):
            # The pending frame would straddle the buffer's end: move its
            # first part to the front (less than one frame's bytes; through
            # a copy, because the two ranges may overlap).
            self._buffer[:have] = bytes(self._view[self._start : self._end])
            self._start, self._end = 0, have

    # -- pull mode ------------------------------------------------------------

    def _enqueue(self, raw: bytes) -> None:
        self._frames.append(raw)
        self._backlog += len(raw)
        if self._backlog > READ_BACKLOG_BYTES and not self._reading_paused:
            self._reading_paused = True
            self._transport.pause_reading()
        self._wake_receiver()

    def _wake_receiver(self, error=None) -> None:
        receiver = self._receiver
        if receiver is not None and not receiver.done():
            receiver.set_result(None)

    async def receive(self) -> bytes | None:
        """Next frame's raw bytes; ``None`` on a clean EOF between frames.

        Frames that arrived before the input ended are delivered first.
        One reader at a time.

        Raises:
            WireError: malformed header, or EOF inside a frame.
            OSError: the connection was lost.
        """
        while not self._frames:
            if self._ended:
                if self._error is not None:
                    raise self._error
                return None
            self._receiver = self._loop.create_future()
            try:
                await self._receiver
            finally:
                self._receiver = None
        raw = self._frames.popleft()
        self._backlog -= len(raw)
        if self._reading_paused and self._backlog <= READ_BACKLOG_BYTES:
            self._reading_paused = False
            if not self._ended and self._transport is not None:
                self._transport.resume_reading()
        return raw

    # -- writing (the stream-writer subset wire.write_frame uses) ---------

    def pause_writing(self) -> None:
        self._writable.clear()

    def resume_writing(self) -> None:
        self._writable.set()

    def write(self, data: bytes) -> None:
        if self._transport is not None:
            self._transport.write(data)

    async def drain(self) -> None:
        """Wait until the transport's write buffer is below its high water.

        Raises:
            ConnectionResetError: the connection is gone.
        """
        if self._transport is not None and self._transport.is_closing():
            # Let a pending connection_lost run, so that writing to a
            # connection closed under us raises instead of vanishing.
            await asyncio.sleep(0)
        if not self._writable.is_set():
            await self._writable.wait()
        if self._transport is None:
            raise ConnectionResetError("Connection lost")

    def close(self) -> None:
        self._close_requested = True
        if self._transport is not None:
            self._transport.close()

    async def wait_closed(self) -> None:
        await self._closed
