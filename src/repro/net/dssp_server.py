"""Networked DSSP node (paper Figure 2, left side, deployed).

Wraps a keyless :class:`~repro.dssp.proxy.DsspNode` behind the wire
protocol.  Tenancy is *remote*: the node holds each application's public
template registry and its own invalidation engine, while misses and
updates are forwarded to the application's home server over one
:class:`~repro.net.client.WireClient` per home.  A miss's answer is cached
only if no invalidation for its application ran on the node while the
forward was in flight (:meth:`~repro.dssp.proxy.DsspNode.admit`);
otherwise it is served pass-through.

Invalidation arrives two ways, mirroring :class:`~repro.dssp.cluster.DsspCluster`:

* **synchronously** for updates this node itself forwarded — it invalidates
  its cache before acknowledging the client, so a client never re-reads its
  own stale write through the same node;
* **asynchronously** over the home's invalidation stream for updates that
  entered through other nodes.  The subscription channel reconnects with
  backoff if it drops, and on (re)connect the node flushes its cache for
  the affected applications — pushes may have been missed while detached.
  The node always advertises ``INVALIDATE_BATCH`` support on subscribe
  (the home decides whether to batch); a coalesced batch is applied
  atomically — every entry invalidated in one synchronous sweep with no
  await in between, so no query can observe a half-applied batch.
"""

from __future__ import annotations

import asyncio
import logging

from repro.dssp.placement import Placement
from repro.dssp.proxy import DsspNode
from repro.dssp.ring import DEFAULT_VNODES
from repro.errors import (
    HomeUnreachableError,
    NetConnectionError,
    NetError,
    NetTimeoutError,
    ReproError,
    UnknownApplicationError,
    WireError,
)
from repro.net.client import RetryPolicy, WireClient
from repro.net.service import ConnectionContext, WireServer
from repro.net.wire import (
    Frame,
    InvalidationBatch,
    QueryRequest,
    QueryResponse,
    StatsRequest,
    SubscribeRequest,
    UpdateRequest,
    UpdateResponse,
)
from repro.obs import envelope_context
from repro.obs.trace import ACTIVE
from repro.obs.trace import span as trace_span
from repro.templates.registry import TemplateRegistry

__all__ = ["DsspNetServer"]

logger = logging.getLogger(__name__)

#: Failures that mean the home could not be reached or never answered.
#: Typed errors the home *returned* (including its own shedding) are not
#: in this set: they travel back to the client with their own codes.
_TRANSPORT_FAILURES = (
    NetConnectionError,
    NetTimeoutError,
    ConnectionError,
    OSError,
)
#: Failures that end one subscription attempt or one live stream, never
#: the task keeping the stream alive.  An ``ERROR(UNKNOWN_APP)`` frame
#: maps back to an :class:`UnknownApplicationError`, which is not a
#: ``NetError``.
_STREAM_FAILURES = (
    NetError,
    UnknownApplicationError,
    ConnectionError,
    OSError,
)


class DsspNetServer(WireServer):
    """Asyncio server exposing one DSSP node to clients over the wire.

    Args:
        node: The cache + invalidation engine this server fronts.  Register
            applications through :meth:`register_application`, not directly
            on the node.
        node_id: Stable identity on home invalidation streams.
        subscribe_retry: Backoff schedule for re-opening dropped streams
            and retrying refused subscribes.
        home_pool_size: The home channel's window: forwarded misses and
            updates in flight at once on the one connection to each home.
        shards: Full shard membership of the cluster this node belongs to
            (must include ``node_id``).  When set, the node only *admits*
            entries its sharded :class:`Placement` says it owns — misses
            it merely routes are served pass-through — and it declares
            the topology on subscribe so the home can narrow invalidation
            fan-out to owning shards.
    """

    def __init__(
        self,
        node: DsspNode,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        node_id: str = "dssp-0",
        subscribe_retry: RetryPolicy | None = None,
        home_retry: RetryPolicy | None = None,
        home_pool_size: int = 4,
        home_timeout_s: float = 30.0,
        shards: tuple[str, ...] | None = None,
        **kwargs,
    ) -> None:
        kwargs.setdefault("server_id", node_id)
        super().__init__(host, port, **kwargs)
        self.node = node
        self.node_id = node_id
        #: None when unsharded: the miss path then admits after one check.
        self.placement: Placement | None = None
        if shards:
            if node_id not in shards:
                raise WireError(
                    f"node {node_id!r} is not in its own shard set "
                    f"{sorted(shards)}"
                )
            self.placement = Placement(shards, sharded=True)
        #: Misses served pass-through because another shard owns the key.
        self.passthrough_misses = 0
        # The node's cache and counters export through this server's
        # registry, so one STATS snapshot covers every layer of the node.
        node.stats.register_metrics(self.metrics)
        node.cache.register_metrics(self.metrics)
        self._subscribe_retry = subscribe_retry or RetryPolicy(
            attempts=1_000_000, backoff_s=0.05, max_backoff_s=2.0
        )
        self._home_retry = home_retry
        self._home_pool_size = home_pool_size
        self._home_timeout_s = home_timeout_s
        #: app_id -> home address; populated before start().
        self._home_addresses: dict[str, tuple[str, int]] = {}
        #: home address -> shared client.
        self._home_clients: dict[tuple[str, int], WireClient] = {}
        self._stream_tasks: list[asyncio.Task] = []
        #: Pushes applied from the invalidation stream (tests/monitoring).
        self.stream_pushes_applied = 0
        #: Safety flushes performed on (re)subscribe (tests/monitoring).
        self.stream_flushes = 0
        #: Failed subscribe attempts to the home (tests/monitoring).
        self.stream_subscribe_failures = 0
        counter = self.metrics.counter
        self._passthrough_counter = counter("dssp.passthrough_misses")
        self._stream_pushes = counter("dssp.stream_pushes")
        self._stream_reconnects = counter("dssp.stream_reconnects")
        self._stream_batches = counter("dssp.stream_batches")
        self._stream_batch_size = self.metrics.histogram(
            "dssp.stream_batch_size"
        )

    # -- tenancy -----------------------------------------------------------

    def register_application(
        self,
        app_id: str,
        registry: TemplateRegistry,
        home_address: tuple[str, int],
    ) -> None:
        """Attach an application: public templates + its home's address.

        Idempotent on the node side, so a restarted server can wrap a
        still-warm :class:`DsspNode` without re-registering its tenants.
        """
        if not self.node.is_registered(app_id):
            self.node.register_remote(app_id, registry)
        self._home_addresses[app_id] = (home_address[0], int(home_address[1]))
        self._bind_application(app_id)

    def _home_client(self, app_id: str) -> WireClient:
        try:
            address = self._home_addresses[app_id]
        except KeyError:
            raise UnknownApplicationError(app_id) from None
        client = self._home_clients.get(address)
        if client is None:
            client = WireClient(
                address[0],
                address[1],
                pool_size=self._home_pool_size,
                request_timeout_s=self._home_timeout_s,
                retry=self._home_retry,
                frame_observer=self._frame_observer,
                metrics=self.metrics,
                tracer=self.tracer,
            )
            self._home_clients[address] = client
        return client

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        address = await super().start()
        # One stream per home endpoint, covering all its applications.
        by_home: dict[tuple[str, int], list[str]] = {}
        for app_id, home in self._home_addresses.items():
            by_home.setdefault(home, []).append(app_id)
        for home, app_ids in sorted(by_home.items()):
            task = asyncio.create_task(
                self._stream_loop(home, tuple(sorted(app_ids)))
            )
            self._stream_tasks.append(task)
        return address

    async def stop(self) -> None:
        for task in self._stream_tasks:
            task.cancel()
        for task in self._stream_tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._stream_tasks.clear()
        for client in self._home_clients.values():
            await client.aclose()
        self._home_clients.clear()
        await super().stop()

    # -- request handling --------------------------------------------------

    async def handle(
        self, frame: Frame, context: ConnectionContext
    ) -> Frame | None:
        """One request, one coroutine: a hit, or a forwarded miss/update."""
        if isinstance(frame, QueryRequest):
            envelope = frame.envelope
            cached = self.node.lookup(envelope)  # validates tenancy
            if cached is not None:
                return QueryResponse(result=cached, cache_hit=True)
            # A name or arity the registry lacks is refused here, not a hop on.
            self.node.visible(envelope)
            client = self._home_client(envelope.app_id)
            # Read before the forward leaves: an invalidation applied while it
            # is in flight may have been for rows the home's answer still has.
            epoch = self.node.epoch(envelope.app_id)
            # The client's trace id rides the forwarded hop, so the home's
            # log records correlate with the originating request.
            forward = client.query(envelope, request_id=context.request_id)
            span_name, what = "dssp.miss_forward", "miss"
        elif isinstance(frame, UpdateRequest):
            envelope = frame.envelope
            self.node.visible(envelope)  # refuse what the registry lacks
            client = self._home_client(envelope.app_id)
            forward = client.update(
                envelope, origin=self.node_id, request_id=context.request_id
            )
            span_name, what = "dssp.update_forward", "update"
        elif isinstance(frame, StatsRequest):
            return self._stats_response()
        elif isinstance(frame, SubscribeRequest):
            raise WireError("DSSP nodes do not serve invalidation streams")
        else:
            raise WireError(f"unexpected frame {type(frame).__name__}")
        try:
            if ACTIVE.get() is None:
                answer = await forward
            else:
                with trace_span(span_name):
                    answer = await forward
        except _TRANSPORT_FAILURES as error:
            # Only transport-level trouble means "home unreachable"; a
            # home-side application error travels back typed as-is.
            raise HomeUnreachableError(
                f"forwarding {what} to {client.host}:{client.port} failed: "
                f"{error}"
            ) from error
        if isinstance(frame, UpdateRequest):
            return UpdateResponse(
                rows_affected=answer.rows_affected,
                invalidated=self.node.invalidate_for(envelope),
            )
        placement = self.placement
        if placement is None or placement.owns(self.node_id, envelope):
            self.node.admit(envelope, answer.result, epoch)
        else:
            # Serving pass-through keeps home-side shard filtering sound:
            # the home only pushes invalidations to the owning shard, so a
            # non-owner must never hold a copy it would not hear about.
            self.passthrough_misses += 1
            self._passthrough_counter.inc()
        return QueryResponse(result=answer.result, cache_hit=False)

    def stats_snapshot(self) -> dict:
        """Base snapshot + the node's cache/invalidation counters."""
        snapshot = super().stats_snapshot()
        snapshot["role"] = "dssp"
        snapshot["dssp"] = self.node.snapshot()
        snapshot["stream_pushes_applied"] = self.stream_pushes_applied
        snapshot["stream_flushes"] = self.stream_flushes
        snapshot["stream_subscribe_failures"] = self.stream_subscribe_failures
        snapshot["applications"] = sorted(self._home_addresses)
        if self.placement is not None:
            snapshot["shards"] = sorted(self.placement.node_ids)
            snapshot["passthrough_misses"] = self.passthrough_misses
        return snapshot

    # -- invalidation stream -----------------------------------------------

    def _apply_push(
        self, envelope, request_id: str | None, stream_ctx: dict
    ) -> None:
        """Invalidate for one pushed update; failures log, never kill."""
        try:
            # Per-entry trace id: the push span joins the trace of the
            # update that caused it, on whichever node receives it.
            with self.tracer.trace(request_id, "dssp.stream_apply"):
                self.node.invalidate_for(envelope)
            self.stream_pushes_applied += 1
            self._stream_pushes.inc()
        except ReproError:
            logger.exception(
                "invalidation push failed",
                extra={
                    "ctx": {
                        **stream_ctx,
                        "request_id": request_id,
                        **envelope_context(envelope),
                    }
                },
            )

    async def _stream_loop(
        self, home: tuple[str, int], app_ids: tuple[str, ...]
    ) -> None:
        """Keep one invalidation-stream subscription alive with backoff."""
        shards = () if self.placement is None else self.placement.node_ids
        attempt = 0
        while True:
            client = self._home_clients.get(home)
            if client is None:
                client = self._home_client(
                    next(
                        app
                        for app, addr in self._home_addresses.items()
                        if addr == home
                    )
                )
            stream_ctx = {
                "server": self.server_id,
                "home": f"{home[0]}:{home[1]}",
                "app_ids": ",".join(app_ids),
            }
            try:
                subscription = await client.subscribe(
                    self.node_id,
                    app_ids,
                    supports_batch=True,
                    shards=shards,
                    vnodes=DEFAULT_VNODES if shards else 0,
                )
            except _STREAM_FAILURES as error:
                self.stream_subscribe_failures += 1
                if isinstance(error, UnknownApplicationError):
                    # Not a dropped connection: the home does not master
                    # an application this node streams from it.  Say so
                    # loudly, and keep asking (a restarted home may).
                    logger.warning(
                        "home %s:%s refused to stream application %r; "
                        "retrying",
                        *home,
                        error.app_id,
                        extra={"ctx": stream_ctx},
                    )
                else:
                    logger.debug(
                        "subscribe to %s:%s failed (%s); retrying",
                        *home,
                        error,
                        extra={"ctx": stream_ctx},
                    )
                await asyncio.sleep(self._subscribe_retry.delay(attempt))
                attempt = min(attempt + 1, 16)
                continue
            attempt = 0
            # Pushes may have been lost while detached: without a stream
            # cursor, the only safe move is to drop the apps' entries on
            # *every* successful subscribe — on a cold cache (normal first
            # connect) this is a no-op, but a restarted server wrapping a
            # still-warm node must not serve entries that went stale while
            # no subscription existed.
            self._stream_reconnects.inc()
            logger.debug(
                "invalidation stream connected; flushing applications",
                extra={"ctx": stream_ctx},
            )
            for app_id in app_ids:
                self.node.flush(app_id)
            self.stream_flushes += 1
            try:
                async for event, request_id in subscription.events():
                    if isinstance(event, InvalidationBatch):
                        # Atomic on the event loop: every entry is applied
                        # in one synchronous sweep, so no concurrently
                        # served query can observe a half-applied batch.
                        for entry_rid, envelope in event.entries:
                            self._apply_push(envelope, entry_rid, stream_ctx)
                        self._stream_batches.inc()
                        self._stream_batch_size.observe(len(event.entries))
                    else:
                        self._apply_push(
                            event.envelope, request_id, stream_ctx
                        )
            except _STREAM_FAILURES as error:
                # A garbled or error frame mid-stream must not kill this
                # task — that would leave the node serving a cache nobody
                # invalidates.  Treat it like a dropped channel: close,
                # reconnect, flush.
                logger.warning(
                    "invalidation stream failed (%s); reconnecting",
                    error,
                    extra={"ctx": stream_ctx},
                )
            finally:
                await subscription.aclose()
            # events() ended: channel dropped; loop to reconnect.
