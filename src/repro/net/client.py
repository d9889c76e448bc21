"""Async client for DSSP and home servers: pooling, retries, typed errors.

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

Pipelining: with ``WireClient(pipeline=N)`` the client multiplexes up to
``N`` in-flight requests over one connection instead of dedicating a
pooled connection per request.  Each request carries its wire request
id; a reader task matches responses — which may arrive in any order — to
their senders through a pending map of per-request futures.  The window
is a hard bound: a request that cannot acquire a slot within the request
timeout fails with a typed ``TIMEOUT`` (and, being provably unsent, stays
retry-safe).  The retry discipline above is unchanged — pipelining swaps
the transport under ``_exchange``, not the failure semantics.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from collections import deque
from dataclasses import dataclass

from repro.crypto.envelope import QueryEnvelope, ResultEnvelope, UpdateEnvelope
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
from repro.obs import MetricsRegistry, SpanRecorder, new_request_id
from repro.obs.trace import span as trace_span

__all__ = [
    "NetQueryOutcome",
    "NetUpdateOutcome",
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


@dataclass(frozen=True)
class NetQueryOutcome:
    """A query's answer as observed through the service boundary."""

    result: ResultEnvelope
    cache_hit: bool


@dataclass(frozen=True)
class NetUpdateOutcome:
    """An update's acknowledgement through the service boundary."""

    rows_affected: int
    invalidated: int


class _Connection:
    """One open framed connection; requests are strictly send-then-receive."""

    def __init__(
        self, stream: FrameConnection, *, max_frame: int, observer=None
    ) -> None:
        self._stream = stream
        self._max_frame = max_frame
        self._observer = observer

    async def send(self, frame: Frame, *, request_id: str | None = None) -> None:
        await wire.write_frame(
            self._stream,
            frame,
            request_id=request_id,
            max_frame=self._max_frame,
            observer=self._observer,
        )

    async def receive(self) -> Frame:
        frame, _ = await self.receive_traced()
        return frame

    async def receive_traced(self) -> tuple[Frame, str | None]:
        raw = await self._stream.receive()
        if raw is None:
            raise NetConnectionError("server closed the connection")
        if self._observer is not None:
            self._observer(raw)
        return wire.decode_traced(raw, max_frame=self._max_frame)

    async def aclose(self) -> None:
        self._stream.close()
        await self._stream.wait_closed()


class _ConnectionPool:
    """Bounded pool of lazily opened connections to one address."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        size: int,
        connect_timeout_s: float,
        max_frame: int,
        observer=None,
        on_open=None,
    ) -> None:
        self._host = host
        self._port = port
        self._size = size
        self._connect_timeout_s = connect_timeout_s
        self._max_frame = max_frame
        self._observer = observer
        self._on_open = on_open
        self._idle: list[_Connection] = []
        self._open_count = 0
        #: Acquirers parked because every connection is out; woken one per
        #: freed slot.  With an idle connection and nobody parked, acquire
        #: and release touch only ``_idle``.
        self._waiters: deque[asyncio.Future] = deque()
        self._closed = False

    async def acquire(self) -> _Connection:
        while True:
            if self._closed:
                raise NetConnectionError("client is closed")
            if self._idle:
                return self._idle.pop()
            if self._open_count < self._size:
                self._open_count += 1
                break
            waiter = asyncio.get_running_loop().create_future()
            self._waiters.append(waiter)
            try:
                await waiter
            except BaseException:
                if waiter.done() and not waiter.cancelled():
                    self._wake_one()  # woken and cancelled: pass it on
                raise
        try:
            return await self._connect()
        except BaseException:
            self._open_count -= 1
            self._wake_one()
            raise

    def _wake_one(self) -> None:
        while self._waiters:
            waiter = self._waiters.popleft()
            if not waiter.done():
                waiter.set_result(None)
                return

    async def _connect(self) -> _Connection:
        try:
            _, stream = await asyncio.wait_for(
                asyncio.get_running_loop().create_connection(
                    lambda: FrameConnection(max_frame=self._max_frame),
                    self._host,
                    self._port,
                ),
                self._connect_timeout_s,
            )
        except (ConnectionError, OSError, asyncio.TimeoutError) as error:
            raise NetConnectionError(
                f"cannot connect to {self._host}:{self._port}: {error}"
            ) from error
        if self._on_open is not None:
            self._on_open()
        return _Connection(
            stream, max_frame=self._max_frame, observer=self._observer
        )

    async def release(self, connection: _Connection, *, discard: bool) -> None:
        if discard or self._closed:
            await connection.aclose()
            self._open_count -= 1
        else:
            self._idle.append(connection)
        self._wake_one()

    async def aclose(self) -> None:
        self._closed = True
        idle, self._idle = self._idle, []
        self._open_count -= len(idle)
        while self._waiters:
            self._wake_one()
        for connection in idle:
            await connection.aclose()


class Subscription:
    """An open invalidation-stream channel (DSSP side).

    Iterate :meth:`frames` to receive
    :class:`~repro.net.wire.InvalidationPush` messages; iteration ends when
    the server closes the channel.  When the channel negotiated batching
    (``batch_enabled``), :meth:`events` also yields
    :class:`~repro.net.wire.InvalidationBatch` frames so a consumer can
    apply a coalesced batch atomically; :meth:`frames` transparently
    explodes batches into singleton pushes for consumers that do not care.
    """

    def __init__(
        self,
        connection: _Connection,
        app_ids: tuple[str, ...],
        *,
        batch_enabled: bool = False,
        shard_filtered: bool = False,
    ):
        self._connection = connection
        self.app_ids = app_ids
        self.batch_enabled = batch_enabled
        #: The home accepted this subscriber's shard topology and narrows
        #: invalidation fan-out to owning shards.
        self.shard_filtered = shard_filtered

    async def frames(self):
        """Yield invalidation pushes until the channel closes."""
        async for frame, request_id in self.events():
            if isinstance(frame, InvalidationBatch):
                for entry_rid, envelope in frame.entries:
                    yield InvalidationPush(envelope)
            else:
                yield frame

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
                frame, request_id = await self._connection.receive_traced()
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
        await self._connection.aclose()


class _PipelinedChannel:
    """One connection multiplexing many in-flight requests by request id.

    A pending map of per-request futures plus a single reader task: the
    sender registers its future under the request id before the frame
    leaves, the reader resolves whichever future matches each response's
    id — responses may arrive in any order.  The window semaphore bounds
    in-flight requests; overflow is a typed, provably-unsent ``TIMEOUT``.
    A transport or framing failure poisons the whole channel: every
    pending future fails with ``NetConnectionError`` (fate unknown,
    ``sent=True``) and the next request transparently reconnects.
    """

    def __init__(self, client: "WireClient", window: int) -> None:
        if window < 1:
            raise ValueError(f"pipeline window must be >= 1, got {window}")
        self._client = client
        self.window = window
        self._slots = asyncio.Semaphore(window)
        self._pending: dict[str, asyncio.Future] = {}
        self._connection: _Connection | None = None
        self._reader_task: asyncio.Task | None = None
        self._send_lock = asyncio.Lock()
        self._closed = False
        client.metrics.gauge(
            "client.pipeline_depth", lambda: len(self._pending)
        )
        self._window_timeouts = client.metrics.counter(
            "client.pipeline_window_timeouts"
        )
        self._unmatched = client.metrics.counter("client.pipeline_unmatched")

    async def exchange(self, frame: Frame, *, request_id: str | None) -> Frame:
        if request_id is None:
            request_id = new_request_id()  # the pending map needs a key
        timeout_s = self._client._request_timeout_s
        deadlines = self._client._deadlines
        try:
            with deadlines.after(timeout_s):
                await self._slots.acquire()
        except TimeoutError:
            self._window_timeouts.inc()
            raise _ExchangeFailed(
                NetTimeoutError(
                    f"pipeline window of {self.window} requests to "
                    f"{self._client.host}:{self._client.port} stayed full "
                    f"for {timeout_s}s"
                ),
                sent=False,
            ) from None
        future: asyncio.Future | None = None
        try:
            async with self._send_lock:
                connection = await self._ensure_connection()
                if self._client._fault_hook is not None:
                    await self._client._fault_hook(frame, request_id)
                future = asyncio.get_running_loop().create_future()
                stale = self._pending.pop(request_id, None)
                if stale is not None and not stale.done():
                    stale.cancel()
                self._pending[request_id] = future
                try:
                    await connection.send(frame, request_id=request_id)
                except (ConnectionError, OSError) as error:
                    self._drop_connection(connection)
                    raise _ExchangeFailed(
                        NetConnectionError(
                            f"connection to {self._client.host}:"
                            f"{self._client.port} failed: {error}"
                        ),
                        sent=False,
                    ) from error
            try:
                with deadlines.after(timeout_s):
                    return await future
            except TimeoutError as error:
                raise _ExchangeFailed(
                    NetTimeoutError(
                        f"no response from {self._client.host}:"
                        f"{self._client.port} within {timeout_s}s"
                    ),
                    sent=True,
                ) from error
            except NetConnectionError as error:
                raise _ExchangeFailed(error, sent=True) from error
        finally:
            if future is not None:
                if self._pending.get(request_id) is future:
                    del self._pending[request_id]
                if future.done() and not future.cancelled():
                    future.exception()  # mark retrieved on racing failures
            self._slots.release()

    async def _ensure_connection(self) -> _Connection:
        # Under the send lock: connect/reconnect races are serialized.
        if self._closed:
            raise _ExchangeFailed(
                NetConnectionError("client is closed"), sent=False
            )
        if self._connection is None:
            try:
                self._connection = await self._client._pool._connect()
            except NetConnectionError as error:
                raise _ExchangeFailed(error, sent=False) from error
            self._reader_task = asyncio.create_task(
                self._read_loop(self._connection)
            )
        return self._connection

    async def _read_loop(self, connection: _Connection) -> None:
        try:
            while True:
                frame, request_id = await connection.receive_traced()
                future = (
                    self._pending.get(request_id)
                    if request_id is not None
                    else None
                )
                if future is None or future.done():
                    # Nobody is waiting: a late response whose sender
                    # already timed out (and possibly retried), or a
                    # duplicate.  Count it; matching is by id only, so it
                    # can never land on another request's future.
                    self._unmatched.inc()
                    continue
                future.set_result(frame)
        except NetConnectionError as error:
            failure = error
        except WireError as error:
            failure = NetConnectionError(
                f"malformed response from {self._client.host}:"
                f"{self._client.port}: {error}"
            )
        except (ConnectionError, OSError) as error:
            failure = NetConnectionError(
                f"connection to {self._client.host}:"
                f"{self._client.port} failed: {error}"
            )
        self._drop_connection(connection)
        for future in list(self._pending.values()):
            if not future.done():
                future.set_exception(failure)

    def _drop_connection(self, connection: _Connection) -> None:
        if self._connection is connection:
            self._connection = None
        connection._stream.close()

    async def aclose(self) -> None:
        self._closed = True
        connection, self._connection = self._connection, None
        reader_task, self._reader_task = self._reader_task, None
        if connection is not None:
            await connection.aclose()
        if reader_task is not None:
            try:
                await reader_task
            except Exception:
                pass  # the loop reports failures through pending futures


class WireClient:
    """Pooled async client for one server address.

    Works against both server roles: clients point it at a DSSP node,
    DSSP nodes point it at their applications' home servers.

    ``pipeline=N`` switches request transport from one-pooled-connection-
    per-request to a single multiplexed connection with up to ``N``
    requests in flight (see :class:`_PipelinedChannel`); ``None`` keeps
    the serial pooled transport.  Subscriptions and their dedicated
    channels are unaffected either way.
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
        self._pool = _ConnectionPool(
            host,
            port,
            size=pool_size,
            connect_timeout_s=connect_timeout_s,
            max_frame=max_frame,
            observer=frame_observer,
            on_open=self.metrics.counter("client.connections_opened").inc,
        )
        self.pipeline = pipeline
        self._channel = (
            _PipelinedChannel(self, pipeline) if pipeline is not None else None
        )

    # -- public API --------------------------------------------------------

    async def query(
        self, envelope: QueryEnvelope, *, request_id: str | None = None
    ) -> NetQueryOutcome:
        """Issue a sealed query; returns the (still sealed) result.

        A fresh trace id is minted unless the caller supplies one (a DSSP
        node forwarding a miss passes through the client's id).
        """
        response = await self._request(
            QueryRequest(envelope),
            idempotent=True,
            request_id=request_id or new_request_id(),
        )
        if not isinstance(response, QueryResponse):
            raise WireError(
                f"expected RESULT frame, got {type(response).__name__}"
            )
        return NetQueryOutcome(
            result=response.result, cache_hit=response.cache_hit
        )

    async def update(
        self,
        envelope: UpdateEnvelope,
        *,
        origin: str | None = None,
        request_id: str | None = None,
    ) -> NetUpdateOutcome:
        """Issue a sealed update; returns the acknowledgement."""
        response = await self._request(
            UpdateRequest(envelope, origin=origin),
            idempotent=False,
            request_id=request_id or new_request_id(),
        )
        if not isinstance(response, UpdateResponse):
            raise WireError(
                f"expected UPDATE_ACK frame, got {type(response).__name__}"
            )
        return NetUpdateOutcome(
            rows_affected=response.rows_affected,
            invalidated=response.invalidated,
        )

    async def stats(self) -> dict:
        """Fetch the server's live stats snapshot as a parsed dict."""
        response = await self._request(
            StatsRequest(), idempotent=True, request_id=new_request_id()
        )
        if not isinstance(response, StatsResponse):
            raise WireError(
                f"expected STATS_RESULT frame, got {type(response).__name__}"
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
        """Open a dedicated invalidation-stream channel (not pooled).

        ``supports_batch`` advertises that this subscriber understands
        ``INVALIDATE_BATCH`` frames; the returned subscription's
        ``batch_enabled`` reports whether the home agreed.
        ``shards``/``vnodes`` declare the subscriber's sharded topology
        (ring membership + virtual nodes); ``shard_filtered`` on the
        subscription reports whether the home will narrow fan-out with it.
        """
        connection = await self._pool._connect()
        try:
            await connection.send(
                SubscribeRequest(
                    node_id,
                    app_ids,
                    supports_batch=supports_batch,
                    shards=shards,
                    vnodes=vnodes,
                )
            )
            response = await connection.receive()
        except BaseException:
            await connection.aclose()
            raise
        if isinstance(response, ErrorResponse):
            await connection.aclose()
            raise exception_for(response)
        if not isinstance(response, SubscribeResponse):
            await connection.aclose()
            raise WireError(
                f"expected SUBSCRIBED frame, got {type(response).__name__}"
            )
        return Subscription(
            connection,
            response.app_ids,
            batch_enabled=response.batch_enabled,
            shard_filtered=response.shard_filtered,
        )

    async def aclose(self) -> None:
        """Close the pipelined channel (if any) and all pooled connections."""
        if self._channel is not None:
            await self._channel.aclose()
        await self._pool.aclose()

    # -- request machinery -------------------------------------------------

    async def _request(
        self,
        frame: Frame,
        *,
        idempotent: bool,
        request_id: str | None = None,
    ) -> Frame:
        # One trace id covers the whole logical request: retries reuse it,
        # so server-side records of every attempt correlate.
        started = time.perf_counter()
        self._in_flight.inc()
        with self.tracer.trace(
            request_id, "client.request", frame=type(frame).__name__
        ) as request_span:
            try:
                return await self._request_with_retries(
                    frame, idempotent=idempotent, request_id=request_id
                )
            finally:
                self._in_flight.dec()
                self._request_seconds.observe(
                    time.perf_counter() - started,
                    exemplar=(
                        request_id if request_span.recorded else None
                    ),
                )

    async def _request_with_retries(
        self,
        frame: Frame,
        *,
        idempotent: bool,
        request_id: str | None,
    ) -> Frame:
        attempt = 0
        while True:
            try:
                with trace_span("client.exchange", attempt=attempt):
                    response = await self._exchange(
                        frame, request_id=request_id
                    )
            except _ExchangeFailed as failure:
                retryable = idempotent or not failure.sent
                if retryable and attempt + 1 < self._retry.attempts:
                    await self._backoff(attempt)
                    attempt += 1
                    continue
                raise failure.error from failure.error.__cause__
            if isinstance(response, ErrorResponse):
                retryable = response.code in (
                    _IDEMPOTENT_RETRY_CODES
                    if idempotent
                    else _UNPROCESSED_CODES
                )
                if retryable and attempt + 1 < self._retry.attempts:
                    await self._backoff(attempt)
                    attempt += 1
                    continue
                raise exception_for(response)
            return response

    async def _backoff(self, attempt: int) -> None:
        self._retries.inc()
        self._backoff_sleeps.inc()
        await asyncio.sleep(self._retry.delay(attempt))

    async def _exchange(
        self, frame: Frame, *, request_id: str | None = None
    ) -> Frame:
        if self._channel is not None:
            return await self._channel.exchange(frame, request_id=request_id)
        sent = False
        try:
            connection = await self._pool.acquire()
        except NetConnectionError as error:
            raise _ExchangeFailed(error, sent=False) from error
        discard = True
        try:
            if self._fault_hook is not None:
                await self._fault_hook(frame, request_id)
            await connection.send(frame, request_id=request_id)
            sent = True
            try:
                with self._deadlines.after(self._request_timeout_s):
                    response = await connection.receive()
            except WireError as error:
                # A garbled response frame poisons only this connection;
                # the request's fate is unknown (sent=True), so queries
                # retry on a fresh stream and updates surface.
                raise _ExchangeFailed(
                    NetConnectionError(
                        f"malformed response from {self.host}:{self.port}: "
                        f"{error}"
                    ),
                    sent=True,
                ) from error
            discard = False
            return response
        except TimeoutError as error:
            raise _ExchangeFailed(
                NetTimeoutError(
                    f"no response from {self.host}:{self.port} within "
                    f"{self._request_timeout_s}s"
                ),
                sent=sent,
            ) from error
        except (ConnectionError, OSError, NetConnectionError) as error:
            wrapped = (
                error
                if isinstance(error, NetConnectionError)
                else NetConnectionError(
                    f"connection to {self.host}:{self.port} failed: {error}"
                )
            )
            raise _ExchangeFailed(wrapped, sent=sent) from error
        finally:
            await self._pool.release(connection, discard=discard)


class _ExchangeFailed(Exception):
    """Internal: a transport-level failure plus whether the request left."""

    def __init__(self, error: NetError, *, sent: bool) -> None:
        super().__init__(str(error))
        self.error = error
        self.sent = sent
