"""Async client for DSSP and home servers: one channel, retries, typed errors.

The client owns the trust boundary on the caller's side: wire-level
:class:`~repro.net.wire.ErrorResponse` frames are mapped back to the typed
exceptions of :mod:`repro.errors`, so no stringly-typed control flow (and
no :class:`~repro.errors.CacheError` text matching) leaks across the
service boundary.

Retry discipline: queries are idempotent and retried on any transient
failure (connection loss, ``OVERLOADED``, ``MISS_FORWARDED``, ``TIMEOUT``).
Updates are retried only when the request provably never reached the server
(connect/send failure before the first byte was written) or when the server
shed it unprocessed (``OVERLOADED``); a lost *response* to an applied
update must surface, not silently re-apply.

Transport: every request rides the client's one connection, multiplexed
by its wire request id.  The window — ``pipeline`` if set, else
``pool_size`` — bounds the requests in flight on it; a request that cannot
take a slot within the request timeout fails with a typed ``TIMEOUT``
(and, being provably unsent, stays retry-safe).  Responses may arrive in
any order: the connection's read callback matches each to its sender
through a pending map of per-request futures, so a request costs no task.
A response that arrives after its request gave up is counted and dropped;
it never resolves another request.  Subscriptions open a dedicated
connection of their own.

Stepping: a request is one coroutine, every attempt included, returned by
:meth:`WireClient.query` / :meth:`~WireClient.update`; it returns the
decoded answer frame.  Its future's deadline is a dictionary entry and
``client.in_flight`` a field moved in place: no object, no call.  With no
span sink and no active trace, tracing costs one attribute test and one
context-variable read.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from collections import deque
from collections.abc import Awaitable
from dataclasses import dataclass

from repro.crypto.envelope import QueryEnvelope, UpdateEnvelope
from repro.errors import (
    HomeUnreachableError,
    NetConnectionError,
    NetError,
    NetTimeoutError,
    ReproError,
    ServerOverloadedError,
    UnknownApplicationError,
    WireError,
)
from repro.net import wire
from repro.net.deadline import DeadlineQueue
from repro.net.framing import FrameConnection
from repro.net.wire import (
    ErrorCode,
    ErrorResponse,
    Frame,
    InvalidationBatch,
    InvalidationPush,
    QueryRequest,
    QueryResponse,
    StatsRequest,
    StatsResponse,
    SubscribeRequest,
    SubscribeResponse,
    UpdateRequest,
    UpdateResponse,
)
from repro.obs import NOOP_SPAN, MetricsRegistry, SpanRecorder, new_request_id
from repro.obs.trace import ACTIVE, leave
from repro.obs.trace import span as trace_span

__all__ = [
    "RetryPolicy",
    "Subscription",
    "WireClient",
    "exception_for",
]

#: Error codes meaning "the server never processed the request".
_UNPROCESSED_CODES = frozenset({ErrorCode.OVERLOADED})
#: Additional codes safe to retry when the request is idempotent.
_IDEMPOTENT_RETRY_CODES = frozenset(
    {ErrorCode.OVERLOADED, ErrorCode.MISS_FORWARDED, ErrorCode.TIMEOUT}
)

_EXCEPTION_FOR_CODE: dict[ErrorCode, type[ReproError]] = {
    ErrorCode.UNKNOWN_APP: UnknownApplicationError,
    ErrorCode.MISS_FORWARDED: HomeUnreachableError,
    ErrorCode.TIMEOUT: NetTimeoutError,
    ErrorCode.BAD_FRAME: WireError,
    ErrorCode.OVERLOADED: ServerOverloadedError,
    ErrorCode.INTERNAL: NetError,
}


def exception_for(response: ErrorResponse) -> ReproError:
    """Typed exception for a wire error frame.

    ``UNKNOWN_APP`` frames carry the offending application id as their
    message, so the reconstructed exception keeps its ``app_id`` attribute.
    """
    if response.code is ErrorCode.UNKNOWN_APP:
        return UnknownApplicationError(response.message)
    return _EXCEPTION_FOR_CODE[response.code](response.message)


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff schedule for transient failures: exponential + jitter.

    With ``jitter`` on (the default), retry ``attempt`` sleeps a uniform
    draw from ``[backoff_s, backoff_s * multiplier**(attempt + 1)]``
    capped at ``max_backoff_s`` — the stateless form of decorrelated
    jitter.  Without jitter, concurrent clients that all lost the same
    home server retry in lockstep and re-create the very load spike that
    killed it; the jitter spreads the reconnect storm out.

    ``seed`` makes one instance's draws reproducible (chaos runs pin it);
    by default each instance draws from OS entropy, so separate clients
    de-correlate even when constructed identically.
    """

    attempts: int = 3
    backoff_s: float = 0.05
    multiplier: float = 2.0
    max_backoff_s: float = 2.0
    jitter: bool = True
    seed: int | None = None

    def __post_init__(self) -> None:
        # Not a dataclass field: the RNG is per-instance mutable state,
        # invisible to eq/repr, allowed on a frozen instance via the
        # object protocol.
        object.__setattr__(self, "_rng", random.Random(self.seed))

    def delay(self, attempt: int) -> float:
        """Seconds to sleep before retry number ``attempt`` (0-based)."""
        ceiling = min(
            self.backoff_s * self.multiplier ** (attempt + 1),
            self.max_backoff_s,
        )
        floor = min(self.backoff_s, ceiling)
        if not self.jitter:
            return min(
                self.backoff_s * self.multiplier**attempt, self.max_backoff_s
            )
        return self._rng.uniform(floor, ceiling)  # type: ignore[attr-defined]


class Subscription:
    """An open invalidation-stream channel (DSSP side).

    Iterate :meth:`events` to receive
    :class:`~repro.net.wire.InvalidationPush` frames — and, when the
    channel negotiated batching (``batch_enabled``),
    :class:`~repro.net.wire.InvalidationBatch` frames a consumer applies
    atomically; iteration ends when the server closes the channel.  The
    channel is its own pull-mode connection: the stream's pace is the
    consumer's, bounded by the connection's read backlog.
    """

    def __init__(
        self, connection: FrameConnection, *, max_frame: int, observer=None
    ) -> None:
        self._connection = connection
        self._max_frame = max_frame
        self._observer = observer
        self.app_ids: tuple[str, ...] = ()
        self.batch_enabled = False
        #: The home accepted this subscriber's shard topology and narrows
        #: invalidation fan-out to owning shards.
        self.shard_filtered = False

    async def _handshake(self, request: SubscribeRequest) -> None:
        """Send the SUBSCRIBE and take the home's terms from its answer."""
        await wire.write_frame(
            self._connection,
            request,
            max_frame=self._max_frame,
            observer=self._observer,
        )
        response, _ = await self._receive()
        if isinstance(response, ErrorResponse):
            raise exception_for(response)
        if not isinstance(response, SubscribeResponse):
            raise WireError(
                f"expected SUBSCRIBED frame, got {type(response).__name__}"
            )
        self.app_ids = response.app_ids
        self.batch_enabled = response.batch_enabled
        self.shard_filtered = response.shard_filtered

    async def _receive(self) -> tuple[Frame, str | None]:
        raw = await self._connection.receive()
        if raw is None:
            raise NetConnectionError("server closed the connection")
        if self._observer is not None:
            self._observer(raw)
        return wire.decode_checked(raw)

    async def events(self):
        """Yield ``(frame, request_id)`` pairs until the channel closes.

        ``frame`` is an :class:`~repro.net.wire.InvalidationPush` or — on
        a batching channel — an :class:`~repro.net.wire.InvalidationBatch`
        (whose per-entry ids carry the tracing; its own id is ``None``).
        The request id is the trace id of the update that caused the push
        (``None`` when the update arrived untraced), so a node can log
        stream invalidations correlated with their originating request.
        """
        while True:
            try:
                frame, request_id = await self._receive()
            except NetConnectionError:
                return
            if isinstance(frame, (InvalidationPush, InvalidationBatch)):
                yield frame, request_id
            elif isinstance(frame, ErrorResponse):
                raise exception_for(frame)
            else:
                raise WireError(
                    f"unexpected {type(frame).__name__} on subscription channel"
                )

    async def aclose(self) -> None:
        self._connection.close()
        await self._connection.wait_closed()


class _Channel:
    """The client's one connection, multiplexing requests by request id.

    A sender registers a future under its request id before its frame
    leaves; :meth:`_on_frame`, called from the connection's read, resolves
    whichever future a response's id names — responses may arrive in any
    order.  ``window`` bounds the requests holding a slot: a count plus a
    deque of parked senders, each freed slot handed to the longest-parked.
    Overflow is a typed, provably-unsent ``TIMEOUT``.  The end of the
    connection's input fails every pending future with
    ``NetConnectionError`` (fate unknown, ``sent=True``) and the next
    request reconnects.
    """

    def __init__(self, client: "WireClient", window: int) -> None:
        if window < 1:
            raise ValueError(f"request window must be >= 1, got {window}")
        self._client = client
        self.window = window
        #: Slots held: by requests, and by parked senders handed one.
        self._used = 0
        self._waiters: deque[asyncio.Future] = deque()
        self._pending: dict[str, asyncio.Future] = {}
        self._connection: FrameConnection | None = None
        self._connect_lock = asyncio.Lock()
        self._closed = False
        client.metrics.gauge(
            "client.pipeline_depth", lambda: len(self._pending)
        )
        self._window_timeouts = client.metrics.counter(
            "client.pipeline_window_timeouts"
        )
        self._unmatched = client.metrics.counter("client.pipeline_unmatched")

    def send(self, frame: Frame, request_id: str) -> asyncio.Future | None:
        """Send ``frame`` now and return its response's future; ``None``,
        sending nothing, if it must first wait (:meth:`send_later`)."""
        if (
            self._used < self.window
            and self._connection is not None
            and self._client._fault_hook is None
            and request_id not in self._pending
        ):
            self._used += 1
            return self._write(self._connection, frame, request_id)
        return None

    async def send_later(
        self, frame: Frame, request_id: str
    ) -> asyncio.Future:
        """:meth:`send`, after waiting for a slot, the connection, the
        fault hook and an earlier request under the same id."""
        if self._used < self.window:
            self._used += 1
        else:
            await self._wait_for_slot()
        try:
            client = self._client
            connection = self._connection or await self._connect()
            if client._fault_hook is not None:
                await client._fault_hook(frame, request_id)
            while (
                earlier := self._pending.get(request_id)
            ) is not None and not earlier.done():
                # A response names only its request id: a second request
                # under an id in flight goes out once the first finished.
                await asyncio.wait((earlier,))
            if connection is not self._connection:
                # It ended while this request waited; the frame never left.
                raise _ExchangeFailed(
                    self._lost("Connection lost"), sent=False
                )
        except BaseException:
            self._release()
            raise
        return self._write(connection, frame, request_id)

    def _write(
        self, connection: FrameConnection, frame: Frame, request_id: str
    ) -> asyncio.Future:
        """Send one frame on a slot already held; its response's future,
        in the pending map and with its deadline queued until
        :meth:`settle`.  If the frame does not leave, the slot is freed."""
        client = self._client
        try:
            data = wire.encode_frame(
                frame, request_id=request_id, max_frame=client._max_frame
            )
        except BaseException:
            self._release()
            raise
        if client._frame_observer is not None:
            client._frame_observer(data)
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self._pending[request_id] = future
        try:
            # No drain: the window bounds what this side has in flight.
            connection.write(data)
        except (ConnectionError, OSError) as error:
            del self._pending[request_id]
            self._release()
            if self._connection is connection:
                self._connection = None
            raise _ExchangeFailed(self._lost(error), sent=False) from error
        # The deadline is an entry in the client's queue, not an object or
        # a task scope: this wait may run inline from a server's read
        # callback (a DSSP's forward).
        deadlines = client._deadlines
        when = loop.time() + client._request_timeout_s
        deadlines.due[future] = when
        if when < deadlines.armed_for:
            deadlines.arm(when)
        return future

    def settle(self, request_id: str, future: asyncio.Future) -> None:
        """End one request's wait, however it ended: forget its future and
        deadline, and hand its slot on."""
        if self._pending.get(request_id) is future:
            del self._pending[request_id]
        self._client._deadlines.due.pop(future, None)
        if future.done() and not future.cancelled():
            future.exception()  # mark retrieved on racing failures
        if self._waiters:
            self._release()
        else:
            self._used -= 1

    async def _wait_for_slot(self) -> None:
        """Park until a finishing request hands over its slot."""
        client = self._client
        loop = asyncio.get_running_loop()
        waiter = loop.create_future()
        self._waiters.append(waiter)
        deadlines = client._deadlines
        when = loop.time() + client._request_timeout_s
        deadlines.due[waiter] = when
        if when < deadlines.armed_for:
            deadlines.arm(when)
        try:
            await waiter
        except TimeoutError:
            # The deadline failed the waiter: it was never handed a slot,
            # so it has none to pass on.
            self._window_timeouts.inc()
            raise _ExchangeFailed(
                NetTimeoutError(
                    f"pipeline window of {self.window} requests to "
                    f"{client.host}:{client.port} stayed full for "
                    f"{client._request_timeout_s}s"
                ),
                sent=False,
            ) from None
        except BaseException:
            if waiter.done() and not waiter.cancelled():
                self._release()  # handed a slot it will not use: pass it on
            raise
        finally:
            deadlines.due.pop(waiter, None)

    def _release(self) -> None:
        while self._waiters:
            waiter = self._waiters.popleft()
            if not waiter.done():
                waiter.set_result(None)
                return
        self._used -= 1

    async def _connect(self) -> FrameConnection:
        async with self._connect_lock:
            if self._connection is None:
                if self._closed:
                    raise _ExchangeFailed(
                        NetConnectionError("client is closed"), sent=False
                    )

                def framed() -> FrameConnection:
                    connection = FrameConnection(
                        max_frame=self._client._max_frame,
                        on_frame=self._on_frame,
                        on_end=lambda error: self._on_end(connection, error),
                    )
                    return connection

                try:
                    self._connection = await self._client._dial(framed)
                except NetConnectionError as error:
                    raise _ExchangeFailed(error, sent=False) from error
            return self._connection

    def _on_frame(self, raw: bytes) -> None:
        """One response, from inside the read: resolve its sender."""
        client = self._client
        if client._frame_observer is not None:
            client._frame_observer(raw)
        frame, request_id = wire.decode_checked(raw)
        future = self._pending.get(request_id)
        if future is None or future.done():
            # Nobody is waiting: a late response whose sender already
            # timed out (and possibly retried), or a duplicate.  Count it;
            # matching is by id only, so it never lands on another
            # request's future.
            self._unmatched.inc()
            return
        future.set_result(frame)

    def _on_end(self, connection: FrameConnection, error) -> None:
        """The connection's input ended: fail whatever still waits on it."""
        if self._connection is connection:
            self._connection = None
        connection.close()
        client = self._client
        if isinstance(error, WireError):
            failure = NetConnectionError(
                f"malformed response from {client.host}:{client.port}: "
                f"{error}"
            )
        elif error is None:
            failure = NetConnectionError("server closed the connection")
        else:
            failure = self._lost(error)
        for future in self._pending.values():
            if not future.done():
                future.set_exception(failure)

    def _lost(self, reason) -> NetConnectionError:
        client = self._client
        return NetConnectionError(
            f"connection to {client.host}:{client.port} failed: {reason}"
        )

    async def aclose(self) -> None:
        self._closed = True
        connection, self._connection = self._connection, None
        if connection is not None:
            connection.close()
            await connection.wait_closed()


class WireClient:
    """Async client for one server address.

    Works against both server roles: clients point it at a DSSP node,
    DSSP nodes point it at their applications' home servers.

    Every request rides one multiplexed connection (see :class:`_Channel`)
    with up to ``pipeline`` requests in flight, or ``pool_size`` when
    ``pipeline`` is ``None``.  Subscriptions open dedicated connections.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        pool_size: int = 4,
        connect_timeout_s: float = 5.0,
        request_timeout_s: float = 30.0,
        retry: RetryPolicy | None = None,
        max_frame: int = wire.MAX_FRAME_BYTES,
        frame_observer=None,
        metrics: MetricsRegistry | None = None,
        fault_hook=None,
        pipeline: int | None = None,
        tracer: SpanRecorder | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self._retry = retry or RetryPolicy()
        self._connect_timeout_s = connect_timeout_s
        self._request_timeout_s = request_timeout_s
        self._max_frame = max_frame
        self._frame_observer = frame_observer
        self._fault_hook = fault_hook
        self.metrics = metrics or MetricsRegistry()
        #: Span recorder for this caller's side of each request; sink-less
        #: (disabled) by default.  A DSSP node passes its own recorder so
        #: forwarded misses appear as nested client spans on that node.
        self.tracer = tracer or SpanRecorder("client")
        #: Every request deadline of this client, behind one loop timer.
        self._deadlines = DeadlineQueue()
        self._in_flight = self.metrics.gauge("client.in_flight")
        self._request_seconds = self.metrics.histogram("client.request_seconds")
        self._retries = self.metrics.counter("client.retries")
        self._backoff_sleeps = self.metrics.counter("client.backoff_sleeps")
        self._connections_opened = self.metrics.counter(
            "client.connections_opened"
        )
        self._channel = _Channel(
            self, pipeline if pipeline is not None else pool_size
        )

    # -- public API --------------------------------------------------------

    def query(
        self, envelope: QueryEnvelope, *, request_id: str | None = None
    ) -> Awaitable[QueryResponse]:
        """Issue a sealed query; await its answer, a
        :class:`~repro.net.wire.QueryResponse` (the result still sealed).

        A fresh trace id is minted unless the caller supplies one (a DSSP
        node forwarding a miss passes through the client's id).
        """
        return self._request(
            QueryRequest(envelope), QueryResponse, True, request_id
        )

    def update(
        self,
        envelope: UpdateEnvelope,
        *,
        origin: str | None = None,
        request_id: str | None = None,
    ) -> Awaitable[UpdateResponse]:
        """Issue a sealed update; await its acknowledgement, an
        :class:`~repro.net.wire.UpdateResponse`."""
        return self._request(
            UpdateRequest(envelope, origin=origin),
            UpdateResponse,
            False,
            request_id,
        )

    async def stats(self) -> dict:
        """Fetch the server's live stats snapshot as a parsed dict."""
        response = await self._request(
            StatsRequest(), StatsResponse, True, None
        )
        return json.loads(response.payload)

    async def subscribe(
        self,
        node_id: str,
        app_ids: tuple[str, ...],
        *,
        supports_batch: bool = False,
        shards: tuple[str, ...] = (),
        vnodes: int = 0,
    ) -> Subscription:
        """Open a dedicated invalidation-stream channel.

        ``supports_batch`` advertises that this subscriber understands
        ``INVALIDATE_BATCH`` frames; the returned subscription's
        ``batch_enabled`` reports whether the home agreed.
        ``shards``/``vnodes`` declare the subscriber's sharded topology
        (ring membership + virtual nodes); ``shard_filtered`` on the
        subscription reports whether the home will narrow fan-out with it.
        """
        connection = await self._dial(
            lambda: FrameConnection(max_frame=self._max_frame)
        )
        subscription = Subscription(
            connection,
            max_frame=self._max_frame,
            observer=self._frame_observer,
        )
        try:
            await subscription._handshake(
                SubscribeRequest(
                    node_id,
                    app_ids,
                    supports_batch=supports_batch,
                    shards=shards,
                    vnodes=vnodes,
                )
            )
        except BaseException:
            await subscription.aclose()
            raise
        return subscription

    async def aclose(self) -> None:
        """Close the request channel (subscriptions close on their own)."""
        await self._channel.aclose()

    # -- request machinery -------------------------------------------------

    async def _dial(self, protocol_factory) -> FrameConnection:
        """Dial the server: every connection of this client starts here.

        Bounded by ``asyncio.wait``, not ``wait_for``: a DSSP's first
        forward dials from inside a read callback, where no task is
        current, and ``wait_for`` needs one on Python 3.12+.
        """
        loop = asyncio.get_running_loop()
        connecting = loop.create_task(
            loop.create_connection(protocol_factory, self.host, self.port)
        )
        done: set = set()
        try:
            done, _ = await asyncio.wait(
                (connecting,), timeout=self._connect_timeout_s
            )
        finally:
            if not done:  # timed out, or this caller was cancelled
                connecting.cancel()
        try:
            if not done:
                raise TimeoutError
            _, connection = connecting.result()
        except (ConnectionError, OSError, TimeoutError) as error:
            raise NetConnectionError(
                f"cannot connect to {self.host}:{self.port}: {error}"
            ) from error
        self._connections_opened.inc()
        return connection

    async def _request(
        self, frame: Frame, expected: type, idempotent, request_id
    ) -> Frame:
        """One logical request, every attempt of it, in one coroutine.

        One trace id covers the whole logical request: retries reuse it,
        so server-side records of every attempt correlate.
        """
        if not request_id:
            request_id = new_request_id()
        channel = self._channel
        scope = None
        request_span = NOOP_SPAN
        if self.tracer.sink is not None:
            scope = self.tracer.trace(
                request_id, "client.request", frame=type(frame).__name__
            )
            request_span = scope.__enter__()
        started = time.perf_counter()
        self._in_flight.level += 1
        failed: BaseException | None = None
        attempt = 0
        try:
            while True:
                exchange = None
                if ACTIVE.get() is not None:
                    exchange = trace_span("client.exchange", attempt=attempt)
                    exchange.__enter__()
                try:
                    future = channel.send(frame, request_id)
                    if future is None:
                        future = await channel.send_later(frame, request_id)
                    try:
                        response = await future
                    except TimeoutError as timeout:
                        raise _ExchangeFailed(
                            NetTimeoutError(
                                f"no response from {self.host}:{self.port} "
                                f"within {self._request_timeout_s}s"
                            ),
                            sent=True,
                        ) from timeout
                    except NetConnectionError as lost:
                        raise _ExchangeFailed(lost, sent=True) from lost
                    finally:
                        channel.settle(request_id, future)
                except BaseException as failure:
                    if exchange is not None:
                        leave(exchange, failure)
                    if not isinstance(failure, _ExchangeFailed):
                        raise
                    retryable = idempotent or not failure.sent
                    error = failure.error
                else:
                    if exchange is not None:
                        leave(exchange)
                    if not isinstance(response, ErrorResponse):
                        break
                    retryable = response.code in (
                        _IDEMPOTENT_RETRY_CODES
                        if idempotent
                        else _UNPROCESSED_CODES
                    )
                    error = exception_for(response)
                if not retryable or attempt + 1 >= self._retry.attempts:
                    raise error from error.__cause__
                self._retries.inc()
                self._backoff_sleeps.inc()
                await asyncio.sleep(self._retry.delay(attempt))
                attempt += 1
        except BaseException as failure:
            failed = failure
            raise
        finally:
            self._in_flight.level -= 1
            self._request_seconds.observe(
                time.perf_counter() - started,
                exemplar=request_id if request_span.recorded else None,
            )
            if scope is not None:
                leave(scope, failed)
        if not isinstance(response, expected):
            raise WireError(
                f"expected {expected.__name__}, got {type(response).__name__}"
            )
        return response


class _ExchangeFailed(Exception):
    """Internal: a transport-level failure plus whether the request left."""

    def __init__(self, error: NetError, *, sent: bool) -> None:
        super().__init__(str(error))
        self.error = error
        self.sent = sent
