"""The one framing: an ``asyncio.BufferedProtocol`` per connection.

A stream transport hands an ordinary protocol a fresh ``bytes`` object
sized for the largest read it allows (256 KiB) on *every* read; a
``BufferedProtocol`` is asked for a buffer instead and the transport
``recv_into``\\ s it, so a read costs no allocation at all.
:class:`FrameConnection` owns one small reusable buffer, cuts complete
frames out of it with :mod:`repro.net.wire`'s header check (each
header's only check: :func:`~repro.net.wire.decode_checked` decodes a
cut frame), and gives each frame's raw bytes to its owner:

* request traffic — a **server**'s accepted connections and a
  **client**'s request channel — passes ``on_frame`` / ``on_end`` and is
  called back from the read itself: no reader task on either end;
* a **subscription** and each half of a chaos proxy's pair pass neither
  and pull with :meth:`receive`; frames not taken yet wait in a queue
  bounded by :data:`READ_BACKLOG_BYTES` through ``pause_reading()``.

Every socket in ``src/`` is one of these.  The writing half is
``write`` / ``writable`` / ``drain`` / ``close`` / ``wait_closed``: a
frame is one synchronous ``write`` of its whole bytes, and
:func:`repro.net.wire.write_frame` awaits ``drain`` only when the
connection is not ``writable``.  A server answers from the read itself
and never drains, so a connection it accepted is a
:class:`ServedConnection`: it stops reading while its write buffer is
above high water, and a peer that sends requests without reading the
answers stalls itself, not the server's memory.  Client and subscription
connections keep reading: their input is the answers that let the other
side's writes drain.
"""

from __future__ import annotations

import asyncio
from collections import deque

from repro.errors import WireError
from repro.net import wire
from repro.net.wire import HEADER_SIZE

__all__ = [
    "FrameConnection",
    "INITIAL_BUFFER_BYTES",
    "READ_BACKLOG_BYTES",
    "ServedConnection",
]

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
            f"connection closed mid-frame ({have - HEADER_SIZE} of "
            f"{self._need - HEADER_SIZE} body bytes)"
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
        return self._view[self._end :] if self._end else self._view

    def buffer_updated(self, nbytes: int) -> None:
        """Cut every complete frame out of the buffer, in order: each
        header is checked once, here, so ``on_frame`` is given a frame with
        a valid header and exactly the length it announces."""
        end = self._end = self._end + nbytes
        view, start, need = self._view, self._start, self._need
        try:
            while True:
                have = end - start
                if need is None:
                    if have < HEADER_SIZE:
                        break
                    _, rid_length, length = wire._check_header(
                        view, start, max_frame=self._max_frame
                    )
                    need = self._need = HEADER_SIZE + rid_length + length
                if have < need:
                    break
                raw = bytes(view[start : start + need])
                start = self._start = start + need
                need = self._need = None
                self._on_frame(raw)
        except WireError as error:
            self._end_input(error)
            return
        if start == end and need is None and len(view) == INITIAL_BUFFER_BYTES:
            self._start = self._end = 0  # the common case of _make_room
        else:
            self._make_room()

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

    # -- writing (what wire.write_frame uses) ------------------------------

    def pause_writing(self) -> None:
        self._writable.clear()

    def resume_writing(self) -> None:
        self._writable.set()

    @property
    def writable(self) -> bool:
        """Open, and the transport's write buffer below its high water."""
        return (
            self._transport is not None
            and not self._transport.is_closing()
            and self._writable.is_set()
        )

    def write(self, data: bytes) -> None:
        """Queue ``data`` on the transport, without waiting.

        Raises:
            ConnectionResetError: the bytes will not leave: the connection
                was closed or closing, or the send failed and closed it.
        """
        transport = self._transport
        if transport is None or transport.is_closing():
            raise ConnectionResetError("Connection lost")
        transport.write(data)
        if transport.is_closing():
            raise ConnectionResetError("Connection lost")

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


class ServedConnection(FrameConnection):
    """A connection a server accepted: it reads only while it can write.

    The server answers each request from inside the read, so what bounds
    its write buffer is its reading: above high water the transport stops
    reading, below low water it starts again.
    """

    def pause_writing(self) -> None:
        super().pause_writing()
        self._transport.pause_reading()

    def resume_writing(self) -> None:
        super().resume_writing()
        if not self._ended and self._transport is not None:
            self._transport.resume_reading()
