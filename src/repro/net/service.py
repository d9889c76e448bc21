"""Shared asyncio server machinery for the DSSP service layer.

Both servers (:class:`~repro.net.home_server.HomeNetServer`,
:class:`~repro.net.dssp_server.DsspNetServer`) are request/response frame
servers with the same operational envelope:

* **Concurrent connections** *and* concurrent requests per connection:
  each connection is a :class:`~repro.net.framing.ServedConnection` that
  calls the server back per complete frame, its header checked once.
  The server steps the subclass's ``handle`` coroutine itself, from that
  callback, until it first has to wait: one that never waits (a DSSP
  hit, every home request) is answered with one write, no task and no
  other coroutine.  One that waits for the reply to a forward it sent
  on one of the server's client channels (a DSSP's miss or update) is
  parked on that reply and stepped on from the read that brings it —
  still no task, in the request's own copied context.  One that waits
  on anything else (a retry backoff, a window slot, a connect, a fault
  hook) is carried on in a task of its own.  So many requests can be in
  flight on one connection and responses may return out of order.  The
  wire request id is the pipelining id — every response carries the id
  of the request it answers, and the client matches on it.  With no span
  sink, tracing costs an attribute test.
* **Bounded in-flight backpressure**: at most ``max_in_flight`` requests
  execute at once across all connections; excess requests are shed
  immediately with ``OVERLOADED`` rather than queued without bound, so a
  slow home server cannot make a DSSP node accumulate unbounded state.
* **Per-request timeout**: a request that cannot finish within
  ``request_timeout_s`` is cancelled and answered with ``TIMEOUT``.  The
  deadline is opened only when a handler waits, as an entry in the
  server's one :class:`~repro.net.deadline.DeadlineQueue` — the parked
  request itself, or the task scope of the task that carries it on — so
  no request costs a timer.
* **Bounded write buffers**: answers are written without waiting for the
  peer, and a connection stops reading while its write buffer is above
  high water, so a peer that never reads cannot make the server buffer
  without bound.
* **Typed error mapping**: library exceptions never cross the wire as
  control flow — they become :class:`~repro.net.wire.ErrorResponse` frames
  with a typed code, and the client maps them back to exceptions.
"""

from __future__ import annotations

import asyncio
import contextvars
import json
import logging
import time
import types
from collections.abc import Coroutine
from contextlib import AbstractContextManager
from dataclasses import dataclass, field
from functools import partial

from repro.errors import (
    HomeUnreachableError,
    NetTimeoutError,
    ReproError,
    ServerOverloadedError,
    TemplateError,
    UnknownApplicationError,
    WireError,
)
from repro.net import wire
from repro.net.deadline import DeadlineQueue
from repro.net.framing import FrameConnection, ServedConnection
from repro.net.wire import (
    ErrorCode,
    ErrorResponse,
    Frame,
    StatsRequest,
    StatsResponse,
)
from repro.obs import (
    NOOP_SPAN,
    MetricsRegistry,
    SpanRecorder,
    envelope_context,
    memo,
)
from repro.obs.trace import leave

__all__ = ["ConnectionContext", "WireServer"]

logger = logging.getLogger(__name__)


@types.coroutine
def _resumed(coroutine, waiting_on):
    """Drive ``coroutine`` on from the ``yield`` its first step parked at.

    ``waiting_on`` is what that step yielded (a future, or ``None`` for a
    bare yield); from here on this is ``yield from``: whatever the task
    sends or throws goes to ``coroutine``.
    """
    while True:
        try:
            sent = yield waiting_on
        except BaseException as error:
            step, argument = coroutine.throw, error
        else:
            step, argument = coroutine.send, sent
        try:
            waiting_on = step(argument)
        except StopIteration as done:
            return done.value


@dataclass(eq=False, slots=True)  # identity semantics: a set member, a key
class _Waiting:
    """A request whose handler waits: what answering it needs, held until
    it is answered.

    Waiting on a forward's reply it has no task: the client channel the
    reply comes in on steps it on (:meth:`WireServer._advance`).  It is
    then also a future-kind entry of its server's
    :class:`~repro.net.deadline.DeadlineQueue`, which fails a pending
    future at its deadline with ``set_exception``: failing this one
    cancels the handler where it waits, as a task scope's expiry cancels
    its task.  Waiting on anything else, it is carried on in :attr:`task`.
    """

    server: WireServer
    handler: Coroutine
    frame: Frame
    context: ConnectionContext
    started: float
    scope: AbstractContextManager | None
    span: object
    request_context: contextvars.Context
    #: The connection's waiting requests, this one among them.
    waiting: set
    #: Loop instant by which it must be answered.
    deadline: float
    expired: bool = False
    #: The task carrying it on, if it waits on anything else: held here
    #: because the loop keeps tasks weakly.
    task: asyncio.Task | None = None
    #: Made only for a connection that waits for this request to end.
    finished: asyncio.Future | None = None

    def done(self) -> bool:
        """Never, while it is an entry of the deadline queue."""
        return False

    def set_exception(self, error: BaseException) -> None:
        """The deadline passed: cancel the handler where it waits."""
        self.expired = True
        self.request_context.run(
            self.server._advance, self, asyncio.CancelledError()
        )

    def finish_waiter(self) -> asyncio.Future:
        """A future done once the request has been answered."""
        if self.finished is None:
            self.finished = asyncio.get_running_loop().create_future()
        return self.finished


@dataclass(eq=False)  # identity semantics: contexts live in a set
class ConnectionContext:
    """Per-connection state handed to frame handlers."""

    #: Responses (from the read or from request tasks) and pushes
    #: (broadcasts) share it without a lock: each frame is one synchronous
    #: ``write`` of its whole bytes, so frames cannot interleave.
    writer: FrameConnection
    #: Callbacks run exactly once when the connection goes away.
    close_callbacks: list = field(default_factory=list)
    #: Trace id of the request this context serves.  Requests on one
    #: connection are dispatched concurrently, so each gets its own
    #: context, sharing the connection's ``writer`` and ``close_callbacks``;
    #: handlers read the id to propagate it downstream.
    request_id: str | None = None

    def on_close(self, callback) -> None:
        """Register cleanup to run when this connection closes."""
        self.close_callbacks.append(callback)


class WireServer:
    """Base class: asyncio frame server with backpressure and timeouts."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_in_flight: int = 64,
        request_timeout_s: float = 10.0,
        max_frame: int = wire.MAX_FRAME_BYTES,
        frame_observer=None,
        server_id: str = "server",
        metrics: MetricsRegistry | None = None,
        fault_hook=None,
        tracer: SpanRecorder | None = None,
    ) -> None:
        self._host = host
        self._port = port
        self._max_in_flight = max_in_flight
        self.request_timeout_s = request_timeout_s
        self.max_frame = max_frame
        self._frame_observer = frame_observer
        #: Awaited before each request handler runs (chaos injects
        #: deterministic processing stalls here); ``None`` in production.
        self.fault_hook = fault_hook
        self._server: asyncio.AbstractServer | None = None
        self._in_flight = 0
        self._deadlines = DeadlineQueue()
        #: The client channels this server forwards requests on (a DSSP's
        #: to its homes): a handler waiting on one's reply has no task.
        self._forward_channels: list = []
        self._contexts: set[ConnectionContext] = set()
        #: Tasks winding down connections whose input ended.
        self._closers: set[asyncio.Task] = set()
        self._stopping = False
        #: Stable identity in logs and STATS snapshots.
        self.server_id = server_id
        self.metrics = metrics or MetricsRegistry()
        #: Span recorder keyed on the wire request id; sink-less (and
        #: therefore disabled, near-zero cost) unless one is supplied.
        self.tracer = tracer or SpanRecorder(server_id)
        # Metric handles are resolved once, here: the request path only
        # increments them.
        counter = self.metrics.counter
        self.metrics.gauge("server.connections", lambda: len(self._contexts))
        self.metrics.gauge("server.in_flight", lambda: self._in_flight)
        self._requests = counter("server.requests")
        self._shed_count = counter("server.shed")
        self._timeouts = counter("server.timeouts")
        self._bad_frames = counter("server.bad_frames")
        self._forward_failures = counter("server.forward_failures")
        self._internal_errors = counter("server.internal_errors")
        self._handle_seconds = self.metrics.histogram("server.handle_seconds")
        #: app_id -> (requests, shed) for the applications this server has
        #: registered.  ``app_id`` on the wire is unauthenticated input, so
        #: every other id is counted under one fixed name: a client cannot
        #: grow the registry.
        self._app_counters: dict[str, tuple] = {}
        self._unknown_app_requests = counter("server.unknown_app_requests")
        memo.register_metrics(self.metrics)  # does each memo here pay?

    def _bind_application(self, app_id: str) -> None:
        """Keep per-application request/shed books for a registered app."""
        self._app_counters[app_id] = (
            self.metrics.counter(f"server.app_requests.{app_id}"),
            self.metrics.counter(f"server.app_shed.{app_id}"),
        )

    # -- lifecycle ---------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """(host, port) actually bound; valid after :meth:`start`."""
        if self._server is None:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[:2]

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting connections; returns the address."""
        self._server = await asyncio.get_running_loop().create_server(
            self._accept, self._host, self._port
        )
        return self.address

    async def stop(self) -> None:
        """Stop accepting, close every live connection, run cleanups.

        The connections close before ``wait_closed`` is awaited: since
        Python 3.12.1 it waits for every accepted connection, so a peer
        holding its connection open would otherwise block it for ever.
        """
        self._stopping = True
        if self._server is not None:
            self._server.close()
        for context in list(self._contexts):
            await self._close_context(context)
        if self._server is not None:
            await self._server.wait_closed()

    # -- connections -------------------------------------------------------

    def _accept(self) -> FrameConnection:
        """Protocol factory: one framed connection, its context, and its
        requests in flight that wait."""
        waiting: set[_Waiting] = set()
        context = ConnectionContext(writer=None)
        connection = ServedConnection(
            max_frame=self.max_frame,
            on_frame=partial(self._on_frame, context, waiting),
            on_end=lambda error: self._on_end(error, context, waiting),
        )
        context.writer = connection
        self._contexts.add(context)
        return connection

    def _on_frame(
        self, connection: ConnectionContext, waiting: set, raw: bytes
    ) -> None:
        """One complete frame, called from the read: decode it once (the
        connection checked its header), count it, and start the request
        in a copy of the read's context (:meth:`_step`), where a task it
        continues in runs too: the read callback of a connection always
        runs in one context, so a handler parked inside a span would
        otherwise be the ambient parent of the next frame's.

        A ``WireError`` goes back to the connection, which ends its input
        and reports it to :meth:`_on_end` like a malformed header.
        """
        if self._stopping:
            return
        if self._frame_observer is not None:
            self._frame_observer(raw)
        if self.tracer.sink is None:
            frame, request_id = wire.decode_checked(raw)
        else:  # the span covers codec work only, not waiting for bytes
            _, request_id = wire.peek_raw(raw)
            with self.tracer.trace(request_id, "server.decode") as span:
                frame, request_id = wire.decode_checked(raw)
                span.set("bytes", len(raw))
                span.set("frame", type(frame).__name__)
        context = ConnectionContext(
            connection.writer, connection.close_callbacks, request_id
        )
        # Books kept in place, without a call.  Per application for
        # envelope-bearing frames (control frames have no tenant): what
        # multi-tenant fairness tests reconcile and shedding is judged on.
        self._requests.value += 1
        envelope = getattr(frame, "envelope", None)
        app_counters = None
        if envelope is not None:
            app_counters = self._app_counters.get(envelope.app_id)
            if app_counters is None:
                self._unknown_app_requests.value += 1
            else:
                app_counters[0].value += 1
        if self._in_flight >= self._max_in_flight:
            self._respond(context, self._shed(frame, context, app_counters))
            return
        request_context = contextvars.copy_context()
        request_context.run(
            self._step, frame, context, request_context, waiting
        )

    def _on_end(
        self,
        error: BaseException | None,
        context: ConnectionContext,
        waiting: set,
    ) -> None:
        closer = asyncio.create_task(
            self._finish_connection(error, context, waiting)
        )
        self._closers.add(closer)
        closer.add_done_callback(self._closers.discard)

    async def _finish_connection(
        self,
        error: BaseException | None,
        context: ConnectionContext,
        waiting: set,
    ) -> None:
        """The connection's input ended: answer, drain handlers, clean up."""
        if isinstance(error, WireError):
            self._bad_frames.inc()
            logger.warning(
                "rejecting malformed frame: %s",
                error,
                extra={"ctx": {"server": self.server_id}},
            )
            self._respond(
                context, ErrorResponse(ErrorCode.BAD_FRAME, str(error))
            )
        if waiting:
            # Let in-flight handlers finish (each is bounded by the
            # request timeout) so their effects and responses are not
            # lost to a racing disconnect — matching the sequential
            # protocol, where a read-side EOF never aborted a handler.
            await asyncio.gather(
                *(request.finish_waiter() for request in waiting),
                return_exceptions=True,
            )
        self._contexts.discard(context)
        await self._close_context(context)

    def _respond(self, context: ConnectionContext, response) -> None:
        """Write one answer now; the connection's reads bound its buffer."""
        if response is None:
            return
        try:
            data = wire.encode_frame(
                response,
                request_id=context.request_id,
                max_frame=self.max_frame,
            )
        except WireError:
            # Response encoding failed (e.g. oversized frame): the stream
            # is unusable for this peer — close it rather than stall.
            context.writer.close()
            return
        if self._frame_observer is not None:
            self._frame_observer(data)
        try:
            context.writer.write(data)
        except (ConnectionError, OSError):
            pass  # peer vanished; connection cleanup handles the rest

    async def _send(
        self,
        context: ConnectionContext,
        frame: Frame,
        *,
        request_id: str | None = None,
    ) -> None:
        await wire.write_frame(
            context.writer,
            frame,
            request_id=request_id,
            max_frame=self.max_frame,
            observer=self._frame_observer,
        )

    async def _close_context(self, context: ConnectionContext) -> None:
        callbacks, context.close_callbacks = context.close_callbacks, []
        for callback in callbacks:
            callback()
        context.writer.close()
        await context.writer.wait_closed()

    # -- request execution -------------------------------------------------

    def _request_ctx(self, frame: Frame, context: ConnectionContext) -> dict:
        """Loggable identifiers for one request: never payload bytes."""
        ctx = {"server": self.server_id, "frame": type(frame).__name__}
        if context.request_id is not None:
            ctx["request_id"] = context.request_id
        envelope = getattr(frame, "envelope", None)
        if envelope is not None:
            ctx.update(envelope_context(envelope))
        return ctx

    def _shed(
        self, frame: Frame, context: ConnectionContext, app_counters
    ) -> ErrorResponse:
        """All permits taken: count the request shed, and its answer —
        shed instead of queueing without bound."""
        self._shed_count.inc()
        if app_counters is not None:
            app_counters[1].inc()
        logger.warning(
            "shedding request under backpressure",
            extra={"ctx": self._request_ctx(frame, context)},
        )
        return ErrorResponse(
            ErrorCode.OVERLOADED,
            f"more than {self._max_in_flight} requests in flight",
        )

    def _step(
        self,
        frame: Frame,
        context: ConnectionContext,
        request_context: contextvars.Context,
        waiting: set,
    ) -> None:
        """Start one admitted request, in its own context, and answer it if
        its handler returns before it first waits; else hand the handler
        to :meth:`_wait`, which keeps it in ``waiting`` (the connection's
        requests in flight) until it is answered."""
        started = time.perf_counter()
        scope = None
        span = NOOP_SPAN
        if self.tracer.sink is not None:
            scope = self.tracer.trace(
                context.request_id, "server.handle", frame=type(frame).__name__
            )
            span = scope.__enter__()
        self._in_flight += 1
        if self.fault_hook is None:
            handler = self.handle(frame, context)
        else:
            handler = self._hooked(frame, context)
        try:
            waiting_on = handler.send(None)
        except StopIteration as done:
            response = done.value
        except Exception as error:
            response = self._error_response(error, frame, context, span)
        except BaseException as error:
            self._finish(None, frame, context, started, scope, span, error)
            raise
        else:
            request = _Waiting(
                self,
                handler,
                frame,
                context,
                started,
                scope,
                span,
                request_context,
                waiting,
                asyncio.get_running_loop().time() + self.request_timeout_s,
            )
            waiting.add(request)
            self._wait(request, waiting_on)
            return
        self._finish(response, frame, context, started, scope, span)

    def _wait(self, request: _Waiting, waiting_on) -> None:
        """``request``'s handler yielded ``waiting_on``.  The reply to a
        forward on one of :attr:`_forward_channels` is waited for with no
        task: the read that delivers it steps the handler on
        (:meth:`_advance`), and the request's deadline is an entry in this
        server's queue.  Anything else — a backoff, a window slot, a
        connect, a fault hook — is waited for in a task of its own
        (:meth:`_resume`)."""
        resume = partial(request.request_context.run, self._advance, request)
        for channel in self._forward_channels:
            if channel.park(waiting_on, resume):
                deadlines = self._deadlines
                deadlines.due[request] = when = request.deadline
                if when < deadlines.armed_for:
                    deadlines.arm(when)
                return
        request.task = asyncio.create_task(
            self._resume(request, waiting_on), context=request.request_context
        )

    def _advance(self, request: _Waiting, error=None) -> None:
        """Step a parked handler on, in its request's context: its reply
        came or failed, or ``error`` — its deadline's cancellation — is
        thrown in where it waits.

        This runs inside another connection's read (or a timer), so no
        exception leaves it but an interpreter exit or interrupt: the
        handler's own cancellation ends the request unanswered, as it
        would end a task.
        """
        self._deadlines.due.pop(request, None)
        handler = request.handler
        try:
            if error is None:
                waiting_on = handler.send(None)
            else:
                waiting_on = handler.throw(error)
        except StopIteration as done:
            response = done.value
        except Exception as failure:
            response = self._error_response(
                failure, request.frame, request.context, request.span
            )
        except asyncio.CancelledError as cancelled:
            if not request.expired:
                self._done(request, None, cancelled)
                return
            response = self._error_response(
                TimeoutError(), request.frame, request.context, request.span
            )
        except BaseException as failure:
            self._done(request, None, failure)
            raise
        else:
            self._wait(request, waiting_on)
            return
        self._done(request, response)

    async def _resume(self, request: _Waiting, waiting_on) -> None:
        """The rest of a request whose handler waits on something other
        than a forward's reply, in its one task."""
        remaining = request.deadline - asyncio.get_running_loop().time()
        try:
            # The hook sits inside the deadline on purpose: a stall long
            # enough to blow the deadline is answered with TIMEOUT like
            # any slow handler, which is exactly the failure chaos wants
            # to provoke.
            with self._deadlines.after(remaining):
                response = await _resumed(request.handler, waiting_on)
        except Exception as error:
            response = self._error_response(
                error, request.frame, request.context, request.span
            )
        except BaseException as error:
            self._done(request, None, error)
            raise
        self._done(request, response)

    def _done(self, request: _Waiting, response, error=None) -> None:
        """:meth:`_finish` a request that waited, and let go of it."""
        request.waiting.discard(request)
        self._finish(
            response,
            request.frame,
            request.context,
            request.started,
            request.scope,
            request.span,
            error,
        )
        if request.finished is not None:
            request.finished.set_result(None)

    def _finish(
        self, response, frame, context, started, scope, span, error=None
    ) -> None:
        """Close one request's books and span, then answer it; ``error``
        ends a request left unanswered (its handler cancelled under it).
        Handlers answer with frames, never with an ``ErrorResponse``."""
        served = error is None and not isinstance(response, ErrorResponse)
        if served and logger.isEnabledFor(logging.DEBUG):
            ctx = self._request_ctx(frame, context)
            logger.debug("request served", extra={"ctx": ctx})
        self._in_flight -= 1
        # Exemplars only for sampled requests: the linked trace must
        # actually exist in the span logs.
        self._handle_seconds.observe(
            time.perf_counter() - started,
            exemplar=context.request_id if span.recorded else None,
        )
        if scope is not None:
            leave(scope, error)
        self._respond(context, response)

    async def _hooked(
        self, frame: Frame, context: ConnectionContext
    ) -> Frame | None:
        await self.fault_hook(frame, context.request_id)
        return await self.handle(frame, context)

    def _error_response(
        self,
        error: Exception,
        frame: Frame,
        context: ConnectionContext,
        handle_span,
    ) -> ErrorResponse:
        """The typed answer to a request whose handling raised ``error``."""
        if isinstance(error, TimeoutError):
            self._timeouts.inc()
            logger.warning(
                "request timed out",
                extra={"ctx": self._request_ctx(frame, context)},
            )
            handle_span.set("error", "timeout")
            return ErrorResponse(
                ErrorCode.TIMEOUT,
                f"request exceeded {self.request_timeout_s}s",
            )
        if isinstance(error, NetTimeoutError):
            self._timeouts.inc()
            handle_span.set("error", "timeout")
            return ErrorResponse(ErrorCode.TIMEOUT, str(error))
        if isinstance(error, UnknownApplicationError):
            return ErrorResponse(ErrorCode.UNKNOWN_APP, error.app_id)
        if isinstance(error, HomeUnreachableError):
            self._forward_failures.inc()
            logger.warning(
                "home unreachable: %s",
                error,
                extra={"ctx": self._request_ctx(frame, context)},
            )
            handle_span.set("error", "home_unreachable")
            return ErrorResponse(ErrorCode.MISS_FORWARDED, str(error))
        if isinstance(error, ServerOverloadedError):
            # A downstream hop shed the request unprocessed: relay the
            # code so the client keeps its retry-safety guarantee.
            return ErrorResponse(ErrorCode.OVERLOADED, str(error))
        if isinstance(error, (WireError, TemplateError)):
            # TemplateError: a well-formed frame naming a template, or an
            # arity (BindingError), the registry does not have.
            self._bad_frames.inc()
            return ErrorResponse(ErrorCode.BAD_FRAME, str(error))
        if isinstance(error, ReproError):
            # Typed library errors are expected application failures
            # (e.g. replayed INSERTs colliding): one line, no traceback.
            self._internal_errors.inc()
            logger.warning(
                "request failed: %s: %s",
                type(error).__name__,
                error,
                extra={"ctx": self._request_ctx(frame, context)},
            )
        else:
            # A handler bug must not tear down the connection without an
            # ERROR frame — the client could misread a silently dropped
            # connection as "update never sent".
            self._internal_errors.inc()
            logger.error(
                "request handler crashed",
                exc_info=error,
                extra={"ctx": self._request_ctx(frame, context)},
            )
        handle_span.set("error", type(error).__name__)
        return ErrorResponse(
            ErrorCode.INTERNAL, f"{type(error).__name__}: {error}"
        )

    # -- observability -----------------------------------------------------

    def stats_snapshot(self) -> dict:
        """JSON-safe live snapshot; subclasses layer their own sections in."""
        return {
            "node_id": self.server_id,
            "metrics": self.metrics.snapshot(),
        }

    def _stats_response(self) -> StatsResponse:
        snapshot = self.stats_snapshot()
        return StatsResponse(
            node_id=self.server_id,
            payload=json.dumps(snapshot, separators=(",", ":"), default=str),
        )

    async def handle(
        self, frame: Frame, context: ConnectionContext
    ) -> Frame | None:
        """Serve one request frame; subclasses implement the semantics.

        Subclasses answer :class:`~repro.net.wire.StatsRequest` via
        :meth:`_stats_response` after layering their sections into
        :meth:`stats_snapshot`.
        """
        if isinstance(frame, StatsRequest):
            return self._stats_response()
        raise NotImplementedError
