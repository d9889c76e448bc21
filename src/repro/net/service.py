"""Shared asyncio server machinery for the DSSP service layer.

Both servers (:class:`~repro.net.home_server.HomeNetServer`,
:class:`~repro.net.dssp_server.DsspNetServer`) are request/response frame
servers with the same operational envelope:

* **Concurrent connections** *and* concurrent requests per connection:
  each connection is a :class:`~repro.net.framing.FrameConnection` that
  calls the server back per complete frame, and every request frame gets
  its own task, so many requests can be in flight on one connection and
  responses may return out of order.
  The wire request id is the pipelining id — every response carries
  the id of the request it answers, and the client matches on it.
* **Bounded in-flight backpressure**: at most ``max_in_flight`` requests
  execute at once across all connections; excess requests are shed
  immediately with ``OVERLOADED`` rather than queued without bound, so a
  slow home server cannot make a DSSP node accumulate unbounded state.
* **Per-request timeout**: a request that cannot finish within
  ``request_timeout_s`` is cancelled and answered with ``TIMEOUT``.  The
  deadline is an entry in the server's one
  :class:`~repro.net.deadline.DeadlineQueue` — the request budget is one
  task, no timer.
* **Typed error mapping**: library exceptions never cross the wire as
  control flow — they become :class:`~repro.net.wire.ErrorResponse` frames
  with a typed code, and the client maps them back to exceptions.
"""

from __future__ import annotations

import asyncio
import json
import logging
import time
from dataclasses import dataclass, field

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
from repro.net.framing import FrameConnection
from repro.net.wire import (
    ErrorCode,
    ErrorResponse,
    Frame,
    StatsRequest,
    StatsResponse,
)
from repro.obs import MetricsRegistry, SpanRecorder, envelope_context, memo

__all__ = ["ConnectionContext", "WireServer"]

logger = logging.getLogger(__name__)


@dataclass(eq=False)  # identity semantics: contexts live in a set
class ConnectionContext:
    """Per-connection state handed to frame handlers."""

    writer: FrameConnection
    #: Serializes writes: responses (request tasks) vs pushes (broadcasts).
    write_lock: asyncio.Lock = field(default_factory=asyncio.Lock)
    #: Callbacks run exactly once when the connection goes away.
    close_callbacks: list = field(default_factory=list)
    #: Trace id of the request this context serves.  Requests on one
    #: connection are dispatched concurrently, so each gets its own
    #: context view (:meth:`for_request`) sharing the connection state;
    #: handlers read the id to propagate it downstream.
    request_id: str | None = None

    def on_close(self, callback) -> None:
        """Register cleanup to run when this connection closes."""
        self.close_callbacks.append(callback)

    def for_request(self, request_id: str | None) -> "ConnectionContext":
        """Per-request view: same connection state, this request's id.

        ``writer``, ``write_lock`` and ``close_callbacks`` are shared by
        reference — a callback registered through the view still fires
        when the underlying connection closes.
        """
        return ConnectionContext(
            writer=self.writer,
            write_lock=self.write_lock,
            close_callbacks=self.close_callbacks,
            request_id=request_id,
        )


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
        self._shed = counter("server.shed")
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

    async def serve_forever(self) -> None:
        """Block until cancelled (after :meth:`start`)."""
        assert self._server is not None
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting, close every live connection, run cleanups."""
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for context in list(self._contexts):
            await self._close_context(context)

    # -- connections -------------------------------------------------------

    def _accept(self) -> FrameConnection:
        """Protocol factory: one framed connection, its context, its tasks."""
        tasks: set[asyncio.Task] = set()
        connection = FrameConnection(
            max_frame=self.max_frame,
            on_frame=lambda raw: self._on_frame(raw, context, tasks),
            on_end=lambda error: self._on_end(error, context, tasks),
        )
        context = ConnectionContext(writer=connection)
        self._contexts.add(context)
        return connection

    def _on_frame(
        self, raw: bytes, context: ConnectionContext, tasks: set
    ) -> None:
        """One complete frame, called from the read: decode and dispatch.

        A ``WireError`` goes back to the connection, which ends its input
        and reports it to :meth:`_on_end` like a malformed header.
        """
        if self._stopping:
            return
        if self._frame_observer is not None:
            self._frame_observer(raw)
        _, request_id = wire.peek_raw(raw)
        # The span covers codec work only; waiting for bytes is not in it.
        with self.tracer.trace(request_id, "server.decode") as decode_span:
            frame, request_id = wire.decode_traced(
                raw, max_frame=self.max_frame
            )
            decode_span.set("bytes", len(raw))
            decode_span.set("frame", type(frame).__name__)
        # Pipelining: one task per request, dispatched as frames arrive;
        # _dispatch bounds concurrency and responses go out whenever their
        # handler finishes (out of order).
        task = asyncio.create_task(
            self._serve_request(frame, context.for_request(request_id))
        )
        tasks.add(task)
        task.add_done_callback(tasks.discard)

    def _on_end(
        self,
        error: BaseException | None,
        context: ConnectionContext,
        tasks: set,
    ) -> None:
        closer = asyncio.create_task(
            self._finish_connection(error, context, tasks)
        )
        self._closers.add(closer)
        closer.add_done_callback(self._closers.discard)

    async def _finish_connection(
        self,
        error: BaseException | None,
        context: ConnectionContext,
        tasks: set,
    ) -> None:
        """The connection's input ended: answer, drain handlers, clean up."""
        if isinstance(error, WireError):
            self._bad_frames.inc()
            logger.warning(
                "rejecting malformed frame: %s",
                error,
                extra={"ctx": {"server": self.server_id}},
            )
            try:
                await self._send(
                    context, ErrorResponse(ErrorCode.BAD_FRAME, str(error))
                )
            except (ConnectionError, OSError):
                pass  # peer vanished; cleanups below
        if tasks:
            # Let in-flight handlers finish (each is bounded by the
            # request timeout) so their effects and responses are not
            # lost to a racing disconnect — matching the sequential
            # protocol, where a read-side EOF never aborted a handler.
            await asyncio.gather(*tasks, return_exceptions=True)
        self._contexts.discard(context)
        await self._close_context(context)

    async def _serve_request(
        self, frame: Frame, context: ConnectionContext
    ) -> None:
        """Run one request to completion and write its response."""
        try:
            response = await self._dispatch(frame, context)
            if response is not None:
                await self._send(
                    context, response, request_id=context.request_id
                )
        except (ConnectionError, OSError):
            pass  # peer vanished; connection cleanup handles the rest
        except WireError:
            # Response encoding failed (e.g. oversized frame): the stream
            # is unusable for this peer — close it rather than stall.
            context.writer.close()

    async def _send(
        self,
        context: ConnectionContext,
        frame: Frame,
        *,
        request_id: str | None = None,
    ) -> None:
        async with context.write_lock:
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

    async def _dispatch(
        self, frame: Frame, context: ConnectionContext
    ) -> Frame | None:
        self._requests.inc()
        # Per-application books (envelope-bearing frames only — STATS and
        # other control frames have no tenant).  Multi-tenant fairness
        # tests reconcile these against each client's local counts, and
        # served-vs-shed per app is what "shedding does not starve the
        # light tenants" is asserted on.
        envelope = getattr(frame, "envelope", None)
        app_id = getattr(envelope, "app_id", None)
        app_counters = None
        if app_id is not None:
            app_counters = self._app_counters.get(app_id)
            if app_counters is None:
                self._unknown_app_requests.inc()
            else:
                app_counters[0].inc()
        if self._in_flight >= self._max_in_flight:
            # All permits taken: shed instead of queueing without bound.
            self._shed.inc()
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
        started = time.perf_counter()
        with self.tracer.trace(
            context.request_id, "server.handle", frame=type(frame).__name__
        ) as handle_span:
            self._in_flight += 1
            try:
                # The deadline is an entry in this server's queue, not a
                # timer of its own; the hook sits inside it on purpose: a
                # stall long enough to blow the deadline is answered with
                # TIMEOUT like any slow handler, which is exactly the
                # failure chaos wants to provoke.
                with self._deadlines.after(self.request_timeout_s):
                    if self.fault_hook is not None:
                        await self.fault_hook(frame, context.request_id)
                    response = await self.handle(frame, context)
                if logger.isEnabledFor(logging.DEBUG):
                    logger.debug(
                        "request served",
                        extra={"ctx": self._request_ctx(frame, context)},
                    )
                return response
            except TimeoutError:
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
            except NetTimeoutError as error:
                self._timeouts.inc()
                handle_span.set("error", "timeout")
                return ErrorResponse(ErrorCode.TIMEOUT, str(error))
            except UnknownApplicationError as error:
                return ErrorResponse(ErrorCode.UNKNOWN_APP, error.app_id)
            except HomeUnreachableError as error:
                self._forward_failures.inc()
                logger.warning(
                    "home unreachable: %s",
                    error,
                    extra={"ctx": self._request_ctx(frame, context)},
                )
                handle_span.set("error", "home_unreachable")
                return ErrorResponse(ErrorCode.MISS_FORWARDED, str(error))
            except ServerOverloadedError as error:
                # A downstream hop shed the request unprocessed: relay the
                # code so the client keeps its retry-safety guarantee.
                return ErrorResponse(ErrorCode.OVERLOADED, str(error))
            except (WireError, TemplateError) as error:
                # TemplateError: a well-formed frame naming a template, or
                # an arity (BindingError), the registry does not have.
                self._bad_frames.inc()
                return ErrorResponse(ErrorCode.BAD_FRAME, str(error))
            except ReproError as error:
                # Typed library errors are expected application failures
                # (e.g. replayed INSERTs colliding): one line, no traceback.
                self._internal_errors.inc()
                logger.warning(
                    "request failed: %s: %s",
                    type(error).__name__,
                    error,
                    extra={"ctx": self._request_ctx(frame, context)},
                )
                handle_span.set("error", type(error).__name__)
                return ErrorResponse(
                    ErrorCode.INTERNAL, f"{type(error).__name__}: {error}"
                )
            except Exception as error:
                # A handler bug must not tear down the connection without an
                # ERROR frame — the client could misread a silently dropped
                # connection as "update never sent".
                self._internal_errors.inc()
                logger.exception(
                    "request handler crashed",
                    extra={"ctx": self._request_ctx(frame, context)},
                )
                handle_span.set("error", type(error).__name__)
                return ErrorResponse(
                    ErrorCode.INTERNAL, f"{type(error).__name__}: {error}"
                )
            finally:
                self._in_flight -= 1
                # Exemplars only for sampled requests: the linked trace
                # must actually exist in the span logs.
                self._handle_seconds.observe(
                    time.perf_counter() - started,
                    exemplar=(
                        context.request_id if handle_span.recorded else None
                    ),
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
