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
pushes.  Each subscriber has a bounded send queue
(:data:`PUSH_QUEUE_SIZE`) drained by its own sender task with a per-send
timeout; a subscriber that stalls (full TCP buffer, dead peer) is dropped
by *closing its channel*, so the node's reconnect-and-flush safety net
restores correctness, and one stuck node can neither delay the update ack
nor starve the other subscribers.

Each time a sender wakes it *coalesces* whatever its queue holds into one
frame, deduplicating literal repeats of an envelope identity: one survivor
ships as a plain ``INVALIDATE``, several as one ``INVALIDATE_BATCH``.  The
sender never waits for a batch to form, so coalescing changes only how a
backlog is framed, never *which* invalidations are delivered or when the
first of them leaves.
"""

from __future__ import annotations

import asyncio
import logging
import time
from collections import OrderedDict
from collections.abc import Iterable

from repro.crypto.envelope import UpdateEnvelope
from repro.dssp.homeserver import HomeServer
from repro.dssp.placement import Placement
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
from repro.obs.trace import ACTIVE
from repro.obs.trace import span as trace_span

__all__ = ["HomeNetServer", "UpdateDedup"]

logger = logging.getLogger(__name__)

#: Pending pushes a subscriber may accumulate before it is considered
#: stalled and dropped.
PUSH_QUEUE_SIZE = 256


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
        placement: Placement | None,
    ) -> None:
        self.node_id = node_id
        self.app_ids = app_ids
        self.context = context
        #: The subscriber's declared shard topology, which narrows its
        #: fan-out (None on unsharded channels).
        self.placement = placement
        #: Pending (push, request id) pairs; the id is the trace id of the
        #: update that caused the push, so invalidations stay correlatable.
        self.queue: asyncio.Queue[tuple[InvalidationPush, str | None]] = (
            asyncio.Queue(maxsize=PUSH_QUEUE_SIZE)
        )
        self.sender: asyncio.Task | None = None


class HomeNetServer(WireServer):
    """Asyncio server exposing home servers to DSSP nodes over the wire.

    Fan-out honours every declared topology: a subscriber that names its
    cluster's shards on subscribe only receives pushes for updates its
    :class:`~repro.dssp.placement.Placement` lists it as a recipient of,
    and one that names none receives every push for its applications.
    That placement is *conservative* (integrity constraints off), so a
    filtered push is never one the subscriber could need.

    Args:
        homes: The application home server(s) this endpoint masters.
        host/port: Bind address (port 0 picks an ephemeral port).
        push_timeout_s: Ceiling on one push write; a subscriber whose
            socket cannot take a frame within this window is dropped.
        Remaining keyword arguments are the
        :class:`~repro.net.service.WireServer` operational knobs.
    """

    def __init__(
        self,
        homes: HomeServer | Iterable[HomeServer],
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        push_timeout_s: float = 5.0,
        update_dedup: UpdateDedup | None = None,
        **kwargs,
    ) -> None:
        kwargs.setdefault("server_id", "home")
        super().__init__(host, port, **kwargs)
        self._push_timeout_s = push_timeout_s
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
            if ACTIVE.get() is None:
                self._fan_out(frame, request_id)
            else:
                with trace_span("home.fanout_enqueue") as fanout_span:
                    enqueued, filtered = self._fan_out(frame, request_id)
                    fanout_span.set("enqueued", enqueued)
                    fanout_span.set("filtered", filtered)
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
                "shard_filtered": subscriber.placement is not None,
            }
            for subscriber in self._subscribers
        ]
        snapshot["pushes_filtered"] = self.pushes_filtered
        return snapshot

    # -- invalidation stream -----------------------------------------------

    def _subscribe(
        self, frame: SubscribeRequest, context: ConnectionContext
    ) -> SubscribeResponse:
        homes = [self._home(app_id) for app_id in frame.app_ids]
        placement = None
        if frame.shards:
            placement = self._shard_placement(frame, homes)
        subscriber = _Subscriber(
            frame.node_id, frozenset(frame.app_ids), context, placement
        )
        subscriber.sender = asyncio.create_task(self._push_loop(subscriber))
        self._subscribers.append(subscriber)
        context.on_close(lambda: self._unsubscribe(subscriber))
        return SubscribeResponse()

    @staticmethod
    def _shard_placement(
        frame: SubscribeRequest, homes: list[HomeServer]
    ) -> Placement:
        """The subscriber's declared topology as a conservative placement:
        the fleet's one ring, and integrity constraints off, so the home
        never filters a push a constraint-less subscriber would have
        applied."""
        if frame.node_id not in frame.shards:
            raise WireError(
                f"subscriber {frame.node_id!r} is not in its declared "
                f"shard set {sorted(frame.shards)}"
            )
        placement = Placement(frame.shards, sharded=True)
        for home in homes:
            placement.register(home, use_integrity_constraints=False)
        return placement

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
        self, request: UpdateRequest, request_id: str | None
    ) -> tuple[int, int]:
        """Enqueue the completed update for every subscribed node but the
        origin; the senders deliver asynchronously.  Returns the pushes
        enqueued and those the subscribers' shard topology filtered out.

        The origin DSSP invalidates synchronously before acknowledging its
        client, so pushing to it as well would only double-count.  Never
        blocks: the update ack must not hostage on a slow subscriber.
        """
        app_id = request.envelope.app_id
        push = InvalidationPush(envelope=request.envelope)
        enqueued = filtered = 0
        for subscriber in list(self._subscribers):
            if app_id not in subscriber.app_ids:
                continue
            if request.origin is not None and subscriber.node_id == request.origin:
                continue
            placement = subscriber.placement
            if placement is not None and (
                subscriber.node_id
                not in placement.recipients(request.envelope)
            ):
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
        return enqueued, filtered

    def _coalesce(
        self, entries: list[tuple[InvalidationPush, str | None]]
    ) -> tuple[Frame, str | None, int]:
        """Collapse drained queue entries into one frame.

        Deduplicates literal re-pushes of the same envelope identity
        — only exact repeats, never two distinct updates — then picks the
        cheapest framing: a plain ``INVALIDATE`` for one survivor, an
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
        """Drain one subscriber's queue onto its channel until it dies:
        each wake sends everything queued by then as one frame."""
        try:
            while True:
                entries = [await subscriber.queue.get()]
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
