"""Networked home organization (paper Figure 2, right side, deployed).

Wraps one or more in-process :class:`~repro.dssp.homeserver.HomeServer`
instances behind the wire protocol:

* ``QUERY`` frames (cache misses forwarded by DSSP nodes) are opened,
  executed against the master database, and the result is sealed per the
  application's exposure policy before it travels back — exactly
  :meth:`HomeServer.serve_query`.
* ``UPDATE`` frames are applied to the master copy, acknowledged, and then
  **fanned out** on the invalidation stream: every subscribed DSSP node
  except the forwarding origin receives an ``INVALIDATE`` push carrying the
  same sealed update envelope.  This is the networked analogue of
  :meth:`~repro.dssp.cluster.DsspCluster.update` — the home organization
  still plays no part in invalidation *decisions*; it merely relays the
  completed update, as the paper's update stream does.
* ``SUBSCRIBE`` frames register a DSSP node's long-lived stream channel.

Fan-out is decoupled from the update request path: the ack never waits for
pushes.  Each subscriber has a bounded send queue drained by its own sender
task with a per-send timeout; a subscriber that stalls (full TCP buffer,
dead peer) is dropped by *closing its channel*, so the node's
reconnect-and-flush safety net restores correctness, and one stuck node can
neither delay the update ack nor starve the other subscribers.

Subscribers that advertise batching (``SubscribeRequest.supports_batch``)
get their queue *coalesced*: whatever has accumulated behind the head
push is drained into one ``INVALIDATE_BATCH`` frame, deduplicating
repeated envelope identities, so a burst of updates costs a
stalled-but-recovering subscriber one frame instead of one per update.
Non-batching subscribers keep receiving byte-identical singleton
``INVALIDATE`` frames — coalescing is per-channel, negotiated, and never
changes *which* invalidations are delivered, only their framing.
"""

from __future__ import annotations

import asyncio
import logging
import time
from collections import OrderedDict
from collections.abc import Iterable

from repro.crypto.envelope import UpdateEnvelope
from repro.dssp.homeserver import HomeServer
from repro.dssp.placement import (
    TemplateAffinity,
    policy_allows_blind_queries,
    shards_for_update,
)
from repro.dssp.ring import HashRing
from repro.errors import UnknownApplicationError, WireError
from repro.net import wire
from repro.net.service import ConnectionContext, WireServer
from repro.net.wire import (
    Frame,
    InvalidationBatch,
    InvalidationPush,
    QueryRequest,
    QueryResponse,
    StatsRequest,
    SubscribeRequest,
    SubscribeResponse,
    UpdateRequest,
    UpdateResponse,
)
from repro.obs.trace import span as trace_span

__all__ = ["HomeNetServer", "UpdateDedup"]

logger = logging.getLogger(__name__)


class UpdateDedup:
    """Bounded idempotency log for ``UPDATE`` requests, keyed by trace id.

    A client retries an update under the *same* request id (and a chaos
    proxy may duplicate the frame outright); applying it twice would
    corrupt the master copy and double the invalidation fan-out.  The home
    remembers the acknowledgement of each recently applied update and
    replays it verbatim for a repeat — without touching the database or
    the stream.

    The envelope's derived identity guards against trace-id collisions: a
    repeat whose identity differs from the remembered one is *not* treated
    as a duplicate (it is a different update that unluckily reused an id).

    Deliberately a standalone object rather than server state: passing one
    instance across :class:`HomeNetServer` restarts models the durable
    idempotency log a production home would keep, which is what makes
    retry-until-ack safe across a kill/restart.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._capacity = capacity
        self._entries: OrderedDict[str, tuple[tuple, UpdateResponse]] = (
            OrderedDict()
        )
        self.hits = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, request_id: str, identity: tuple) -> UpdateResponse | None:
        """Remembered ack for this (trace id, envelope) pair, if any."""
        entry = self._entries.get(request_id)
        if entry is None:
            return None
        remembered_identity, response = entry
        if remembered_identity != identity:
            logger.warning(
                "request id %s reused by a different update; not deduping",
                request_id,
            )
            return None
        self._entries.move_to_end(request_id)
        self.hits += 1
        return response

    def put(
        self, request_id: str, identity: tuple, response: UpdateResponse
    ) -> None:
        """Remember the ack; evicts the least recently seen entry."""
        self._entries[request_id] = (identity, response)
        self._entries.move_to_end(request_id)
        while len(self._entries) > self._capacity:
            self._entries.popitem(last=False)


class _Subscriber:
    def __init__(
        self,
        node_id: str,
        app_ids: frozenset[str],
        context: ConnectionContext,
        queue_size: int,
        *,
        batch_enabled: bool = False,
        ring: HashRing | None = None,
    ) -> None:
        self.node_id = node_id
        self.app_ids = app_ids
        self.context = context
        #: Negotiated: this channel may receive INVALIDATE_BATCH frames.
        self.batch_enabled = batch_enabled
        #: The subscriber's declared shard topology, when the home agreed
        #: to narrow fan-out with it (None on unsharded channels).
        self.ring = ring
        #: Pending (push, request id) pairs; the id is the trace id of the
        #: update that caused the push, so invalidations stay correlatable.
        self.queue: asyncio.Queue[tuple[InvalidationPush, str | None]] = (
            asyncio.Queue(maxsize=queue_size)
        )
        self.sender: asyncio.Task | None = None


class HomeNetServer(WireServer):
    """Asyncio server exposing home servers to DSSP nodes over the wire.

    Args:
        homes: The application home server(s) this endpoint masters.
        host/port: Bind address (port 0 picks an ephemeral port).
        push_queue_size: Pending pushes a subscriber may accumulate before
            it is considered stalled and dropped.
        push_timeout_s: Ceiling on one push write; a subscriber whose
            socket cannot take a frame within this window is dropped.
        batch_pushes: Master switch for coalescing; when False the home
            answers every subscriber with ``batch_enabled=False`` and
            sends only singleton frames, whatever the peer advertised.
        push_coalesce_s: Optional dwell after the head push before the
            queue is drained into a batch (0 disables).  A small dwell
            lets a burst of independent updates land in one frame at the
            cost of that much added push latency.
        shard_filtered_pushes: Master switch for shard-aware fan-out;
            when True (default) a subscriber that declares its cluster's
            shard topology on subscribe only receives pushes for updates
            whose affected template buckets it owns on the ring.  The
            affinity used is *conservative* (integrity constraints off),
            so a filtered push is never one the subscriber could need.
        Remaining keyword arguments are the
        :class:`~repro.net.service.WireServer` operational knobs.
    """

    def __init__(
        self,
        homes: HomeServer | Iterable[HomeServer],
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        push_queue_size: int = 256,
        push_timeout_s: float = 5.0,
        batch_pushes: bool = True,
        push_coalesce_s: float = 0.0,
        update_dedup: UpdateDedup | None = None,
        shard_filtered_pushes: bool = True,
        **kwargs,
    ) -> None:
        kwargs.setdefault("server_id", "home")
        super().__init__(host, port, **kwargs)
        self._push_queue_size = push_queue_size
        self._push_timeout_s = push_timeout_s
        self._batch_pushes = batch_pushes
        self._push_coalesce_s = push_coalesce_s
        self._shard_filtered_pushes = shard_filtered_pushes
        self.update_dedup = update_dedup or UpdateDedup()
        if isinstance(homes, HomeServer):
            homes = [homes]
        self._homes: dict[str, HomeServer] = {}
        for home in homes:
            if home.app_id in self._homes:
                raise ValueError(f"duplicate application {home.app_id!r}")
            self._homes[home.app_id] = home
            self._bind_application(home.app_id)
        counter = self.metrics.counter
        self._dedup_hits = counter("home.dedup_hits")
        self._pushes_filtered = counter("home.pushes_filtered")
        self._pushes_enqueued = counter("home.pushes_enqueued")
        self._subscribers_dropped = counter("home.subscribers_dropped")
        self._push_dedup_dropped = counter("home.push_dedup_dropped")
        self._push_frames = counter("home.push_frames")
        self._pushes_sent = counter("home.pushes_sent")
        self._push_batch_size = self.metrics.histogram("home.push_batch_size")
        self._subscribers: list[_Subscriber] = []
        # Per-application fan-out filtering inputs, built lazily.  The
        # affinity deliberately ignores integrity constraints: the home
        # must never filter a push a constraint-less subscriber would
        # have applied, so it always computes the *larger* affected set.
        self._affinities: dict[str, TemplateAffinity] = {}
        self._blind_queries: dict[str, bool] = {}
        #: Pushes skipped because the owning shard was someone else.
        self.pushes_filtered = 0

    @property
    def subscriber_count(self) -> int:
        """Live invalidation-stream channels (for tests/monitoring)."""
        return len(self._subscribers)

    def has_subscriber(self, node_id: str) -> bool:
        """True if a node's invalidation-stream channel is currently live."""
        return any(
            subscriber.node_id == node_id for subscriber in self._subscribers
        )

    def _home(self, app_id: str) -> HomeServer:
        try:
            return self._homes[app_id]
        except KeyError:
            raise UnknownApplicationError(app_id) from None

    def _fan_out_inputs(self, app_id: str) -> tuple[TemplateAffinity, bool]:
        """Conservative (constraints-off) affinity + blind-query flag."""
        affinity = self._affinities.get(app_id)
        if affinity is None:
            home = self._home(app_id)
            affinity = TemplateAffinity(
                home.registry, use_integrity_constraints=False
            )
            self._affinities[app_id] = affinity
            self._blind_queries[app_id] = policy_allows_blind_queries(
                home.policy
            )
        return affinity, self._blind_queries[app_id]

    async def handle(
        self, frame: Frame, context: ConnectionContext
    ) -> Frame | None:
        if isinstance(frame, QueryRequest):
            home = self._home(frame.envelope.app_id)
            result = home.serve_query(frame.envelope)
            return QueryResponse(result=result, cache_hit=False)
        if isinstance(frame, UpdateRequest):
            home = self._home(frame.envelope.app_id)
            # Dedup check, apply, and remember happen with no await in
            # between, so the sequence is atomic on the event loop — two
            # copies of the same request cannot interleave mid-apply.
            request_id = context.request_id
            identity = frame.envelope.identity
            if request_id is not None:
                remembered = self.update_dedup.get(request_id, identity)
                if remembered is not None:
                    self._dedup_hits.inc()
                    logger.info(
                        "duplicate update suppressed",
                        extra={
                            "ctx": {
                                "server": self.server_id,
                                "request_id": request_id,
                            }
                        },
                    )
                    return remembered
            rows = home.apply_update(frame.envelope)
            response = UpdateResponse(rows_affected=rows, invalidated=0)
            if request_id is not None:
                self.update_dedup.put(request_id, identity, response)
            self._fan_out(frame, request_id=request_id)
            return response
        if isinstance(frame, SubscribeRequest):
            return self._subscribe(frame, context)
        if isinstance(frame, StatsRequest):
            return self._stats_response()
        raise WireError(f"unexpected frame {type(frame).__name__}")

    def stats_snapshot(self) -> dict:
        """Base snapshot + per-application load + fan-out queue depths."""
        snapshot = super().stats_snapshot()
        snapshot["role"] = "home"
        snapshot["applications"] = {
            app_id: {
                "queries_served": home.queries_served,
                "updates_applied": home.updates_applied,
            }
            for app_id, home in sorted(self._homes.items())
        }
        snapshot["subscribers"] = [
            {
                "node_id": subscriber.node_id,
                "app_ids": sorted(subscriber.app_ids),
                "queue_depth": subscriber.queue.qsize(),
                "shard_filtered": subscriber.ring is not None,
            }
            for subscriber in self._subscribers
        ]
        snapshot["pushes_filtered"] = self.pushes_filtered
        return snapshot

    # -- invalidation stream -----------------------------------------------

    def _subscribe(
        self, frame: SubscribeRequest, context: ConnectionContext
    ) -> SubscribeResponse:
        for app_id in frame.app_ids:
            self._home(app_id)  # all-or-nothing validation
        ring: HashRing | None = None
        if frame.shards and self._shard_filtered_pushes:
            if frame.node_id not in frame.shards:
                raise WireError(
                    f"subscriber {frame.node_id!r} is not in its declared "
                    f"shard set {sorted(frame.shards)}"
                )
            ring = HashRing(frame.shards, vnodes=frame.vnodes)
        subscriber = _Subscriber(
            frame.node_id,
            frozenset(frame.app_ids),
            context,
            self._push_queue_size,
            batch_enabled=frame.supports_batch and self._batch_pushes,
            ring=ring,
        )
        subscriber.sender = asyncio.create_task(self._push_loop(subscriber))
        self._subscribers.append(subscriber)
        context.on_close(lambda: self._unsubscribe(subscriber))
        return SubscribeResponse(
            app_ids=tuple(sorted(subscriber.app_ids)),
            batch_enabled=subscriber.batch_enabled,
            shard_filtered=ring is not None,
        )

    def _unsubscribe(self, subscriber: _Subscriber) -> None:
        try:
            self._subscribers.remove(subscriber)
        except ValueError:
            pass
        sender = subscriber.sender
        if (
            sender is not None
            and sender is not asyncio.current_task()
            and not sender.done()
        ):
            sender.cancel()

    def _fan_out(
        self, request: UpdateRequest, *, request_id: str | None = None
    ) -> None:
        """Enqueue the completed update for every subscribed node but the
        origin; the senders deliver asynchronously.

        The origin DSSP invalidates synchronously before acknowledging its
        client, so pushing to it as well would only double-count.  Never
        blocks: the update ack must not hostage on a slow subscriber.
        """
        app_id = request.envelope.app_id
        push = InvalidationPush(envelope=request.envelope)
        with trace_span("home.fanout_enqueue") as fanout_span:
            enqueued = filtered = 0
            for subscriber in list(self._subscribers):
                if app_id not in subscriber.app_ids:
                    continue
                if request.origin is not None and subscriber.node_id == request.origin:
                    continue
                if not self._shard_may_hold(subscriber, request):
                    self.pushes_filtered += 1
                    filtered += 1
                    self._pushes_filtered.inc()
                    continue
                try:
                    subscriber.queue.put_nowait((push, request_id))
                    enqueued += 1
                    self._pushes_enqueued.inc()
                except asyncio.QueueFull:
                    self._subscribers_dropped.inc()
                    logger.warning(
                        "subscriber stalled with %d pushes pending; dropping",
                        subscriber.queue.qsize(),
                        extra={
                            "ctx": {
                                "server": self.server_id,
                                "node_id": subscriber.node_id,
                                "app_id": app_id,
                                "request_id": request_id,
                            }
                        },
                    )
                    self._drop(subscriber)
            fanout_span.set("enqueued", enqueued)
            fanout_span.set("filtered", filtered)

    def _shard_may_hold(
        self, subscriber: _Subscriber, request: UpdateRequest
    ) -> bool:
        """Whether a sharded subscriber can hold views this update affects.

        Unsharded subscribers always qualify.  For sharded ones the home
        asks :func:`shards_for_update` which shards own the affected
        template buckets on *this subscriber's* declared ring; ``None``
        (opaque update or a blind-query policy) falls back to push-to-all.
        """
        if subscriber.ring is None:
            return True
        affinity, blind = self._fan_out_inputs(request.envelope.app_id)
        shards = shards_for_update(
            request.envelope, subscriber.ring, affinity, blind
        )
        return shards is None or subscriber.node_id in shards

    def _coalesce(
        self, entries: list[tuple[InvalidationPush, str | None]]
    ) -> tuple[Frame, str | None, int]:
        """Collapse drained queue entries into one frame.

        Deduplicates literal re-pushes of the same envelope identity
        — only exact repeats, never two distinct updates — then picks the
        cheapest framing: a singleton ``INVALIDATE`` for one survivor
        (byte-identical to the unbatched protocol), an
        ``INVALIDATE_BATCH`` otherwise.  Returns the frame, the request
        id to put in its header, and the invalidations it delivers.
        """
        seen: set[tuple] = set()
        deduped: list[tuple[str | None, UpdateEnvelope]] = []
        for push, request_id in entries:
            identity = push.envelope.identity
            if identity in seen:
                self._push_dedup_dropped.inc()
                continue
            seen.add(identity)
            deduped.append((request_id, push.envelope))
        if len(deduped) == 1:
            request_id, envelope = deduped[0]
            return InvalidationPush(envelope), request_id, 1
        return InvalidationBatch(tuple(deduped)), None, len(deduped)

    async def _push_loop(self, subscriber: _Subscriber) -> None:
        """Drain one subscriber's queue onto its channel until it dies.

        On a batching channel, everything queued behind the head push
        (plus anything arriving during the optional coalesce dwell) goes
        out as one frame.
        """
        try:
            while True:
                entries = [await subscriber.queue.get()]
                if subscriber.batch_enabled:
                    if self._push_coalesce_s > 0.0:
                        await asyncio.sleep(self._push_coalesce_s)
                    while len(entries) < wire.MAX_BATCH_ENTRIES:
                        try:
                            entries.append(subscriber.queue.get_nowait())
                        except asyncio.QueueEmpty:
                            break
                frame, request_id, delivered = self._coalesce(entries)
                send_wall = time.time()
                send_started = time.perf_counter()
                with self._deadlines.after(self._push_timeout_s):
                    await self._send(
                        subscriber.context, frame, request_id=request_id
                    )
                self._record_push_spans(
                    frame,
                    request_id,
                    subscriber,
                    start_s=send_wall,
                    duration_s=time.perf_counter() - send_started,
                    delivered=delivered,
                )
                self._push_frames.inc()
                self._pushes_sent.inc(delivered)
                self._push_batch_size.observe(delivered)
        except (ConnectionError, OSError, TimeoutError):
            self._subscribers_dropped.inc()
            logger.warning(
                "dropping dead subscriber",
                extra={
                    "ctx": {
                        "server": self.server_id,
                        "node_id": subscriber.node_id,
                        "app_ids": ",".join(sorted(subscriber.app_ids)),
                    }
                },
            )
            self._drop(subscriber)

    def _record_push_spans(
        self,
        frame: Frame,
        request_id: str | None,
        subscriber: _Subscriber,
        *,
        start_s: float,
        duration_s: float,
        delivered: int,
    ) -> None:
        """One ``home.push_send`` span per coalesced entry's trace.

        A batched frame serves several traces at once, so the one timed
        send is recorded against every entry's trace id — each sampled
        trace sees the push that carried its invalidation.
        """
        if not self.tracer.enabled:
            return
        if isinstance(frame, InvalidationBatch):
            trace_ids = [entry_rid for entry_rid, _ in frame.entries]
        else:
            trace_ids = [request_id]
        for trace_id in trace_ids:
            self.tracer.record(
                trace_id,
                "home.push_send",
                start_s=start_s,
                duration_s=duration_s,
                subscriber=subscriber.node_id,
                batch=delivered,
            )

    def _drop(self, subscriber: _Subscriber) -> None:
        """Remove a subscriber and close its channel.

        Closing (rather than silently forgetting) is load-bearing: the DSSP
        node sees its stream end, reconnects, and flushes its cache for the
        affected applications — so the pushes it missed cannot leave it
        serving stale entries.
        """
        self._unsubscribe(subscriber)
        subscriber.context.writer.close()
