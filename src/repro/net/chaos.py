"""Deterministic fault injection for the networked DSSP.

Jepsen-style chaos, minus the wall clock: every fault is decided by a pure
function of ``(seed, link, direction, frame type, per-type frame index)``,
so the same :class:`FaultPlan` seed produces the *same* fault schedule on
every run regardless of scheduling jitter — which is what makes a failing
chaos run replayable.

Frame faults are injected by :class:`ChaosProxy`, an in-process TCP proxy
spliced into a link (client→DSSP or DSSP→home).  It understands the wire
framing just enough to act on whole frames: **drop** (swallow the frame
and sever the connection, as real TCP must), **delay** (hold the frame),
**duplicate** (send a request twice; the extra response is swallowed on
the way back), and **truncate** (forward a prefix, then sever).

Node **kill/restart** events are not frame faults: the plan schedules them
at operation indices (``kill_every``) and the harness (the oracle runner
or the load generator) enacts them between operations, so a "crash" is
always a whole-process event, never a torn half-operation.

Every decision that fires is recorded as a :class:`FaultEvent` in a
:class:`ChaosLog`; the log's canonical form (sorted by decision key, not
by wall-clock arrival) is the determinism contract checked by the tests.
"""

from __future__ import annotations

import asyncio
import enum
import hashlib
import json
import logging
from dataclasses import dataclass, field

from repro.net import wire
from repro.net.framing import FrameConnection
from repro.net.wire import FrameType
from repro.obs import MetricsRegistry

__all__ = [
    "ChaosLog",
    "ChaosProxy",
    "FaultEvent",
    "FaultKind",
    "FaultPlan",
]

logger = logging.getLogger(__name__)

#: Frame types that are safe to duplicate client→server: both are
#: idempotent at the receiver (queries trivially, updates via the home's
#: dedup log), and both follow strict request→response framing, so the
#: proxy knows exactly one extra response comes back to swallow.
_DUPLICABLE = frozenset({int(FrameType.QUERY), int(FrameType.UPDATE)})


class FaultKind(enum.Enum):
    """What the plan decided to do with one frame (or one operation)."""

    PASS = "pass"
    DROP = "drop"
    DELAY = "delay"
    DUPLICATE = "duplicate"
    TRUNCATE = "truncate"
    KILL = "kill"

    def __str__(self) -> str:  # pragma: no cover - repr sugar
        return self.value


@dataclass(frozen=True)
class FaultDecision:
    """One plan verdict; ``PASS`` decisions are not logged."""

    kind: FaultKind
    #: Seconds to hold the frame (DELAY).
    delay_s: float = 0.0
    #: Fraction of the frame's bytes to forward before severing (TRUNCATE).
    keep_fraction: float = 0.0


@dataclass(frozen=True)
class FaultEvent:
    """A fault that actually fired, in canonical (replayable) coordinates."""

    link: str
    direction: str  # "c2s" | "s2c" | "op"
    frame_type: int
    index: int
    kind: str
    request_id: str | None = None
    detail: str = ""

    def key(self) -> tuple[str, str, int, int]:
        return (self.link, self.direction, self.frame_type, self.index)

    def to_dict(self) -> dict:
        return {
            "link": self.link,
            "direction": self.direction,
            "frame_type": self.frame_type,
            "index": self.index,
            "kind": self.kind,
            "request_id": self.request_id,
            "detail": self.detail,
        }


def _unit(seed: int, *parts: object) -> float:
    """Deterministic uniform draw in [0, 1) keyed by the decision tuple."""
    material = "|".join([str(seed), *(str(part) for part in parts)])
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, fully deterministic fault schedule.

    ``decide`` is a pure function: nothing is consumed, so concurrent
    links cannot perturb each other's schedules, and the nth QUERY frame
    on a given link/direction meets the same fate on every run.
    """

    seed: int
    drop_rate: float = 0.0
    delay_rate: float = 0.0
    duplicate_rate: float = 0.0
    truncate_rate: float = 0.0
    max_delay_s: float = 0.05
    #: Kill a node every this many operations (None: never).
    kill_every: int | None = None
    #: Round-robin pool of kill targets ("home", "dssp-0", ...).
    kill_targets: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        total = (
            self.drop_rate
            + self.delay_rate
            + self.duplicate_rate
            + self.truncate_rate
        )
        if total > 1.0:
            raise ValueError(f"frame fault rates sum to {total} > 1")

    @classmethod
    def uniform(
        cls,
        seed: int,
        fault_rate: float,
        *,
        kill_every: int | None = None,
        kill_targets: tuple[str, ...] = (),
    ) -> FaultPlan:
        """Spread one aggregate rate evenly across the four frame faults."""
        if not 0.0 <= fault_rate <= 1.0:
            raise ValueError(f"fault_rate {fault_rate} outside [0, 1]")
        quarter = fault_rate / 4.0
        return cls(
            seed=seed,
            drop_rate=quarter,
            delay_rate=quarter,
            duplicate_rate=quarter,
            truncate_rate=quarter,
            kill_every=kill_every,
            kill_targets=kill_targets,
        )

    def decide(
        self, link: str, direction: str, frame_type: int, index: int
    ) -> FaultDecision:
        """Fate of the ``index``-th ``frame_type`` frame on this flow."""
        roll = _unit(self.seed, link, direction, frame_type, index)
        threshold = self.drop_rate
        if roll < threshold:
            return FaultDecision(FaultKind.DROP)
        threshold += self.delay_rate
        if roll < threshold:
            # A second independent draw sizes the delay.
            fraction = _unit(self.seed, "delay", link, direction, frame_type, index)
            return FaultDecision(
                FaultKind.DELAY, delay_s=fraction * self.max_delay_s
            )
        threshold += self.duplicate_rate
        if roll < threshold:
            if direction == "c2s" and frame_type in _DUPLICABLE:
                return FaultDecision(FaultKind.DUPLICATE)
            return FaultDecision(FaultKind.PASS)
        threshold += self.truncate_rate
        if roll < threshold:
            fraction = _unit(
                self.seed, "truncate", link, direction, frame_type, index
            )
            return FaultDecision(FaultKind.TRUNCATE, keep_fraction=fraction)
        return FaultDecision(FaultKind.PASS)

    def kill_target(self, op_index: int) -> str | None:
        """Node to kill *before* operation ``op_index``, if any."""
        if not self.kill_every or not self.kill_targets or op_index == 0:
            return None
        if op_index % self.kill_every != 0:
            return None
        round_number = op_index // self.kill_every - 1
        return self.kill_targets[round_number % len(self.kill_targets)]


class ChaosLog:
    """Append-only record of fired faults with a canonical ordering.

    Arrival order depends on scheduling; the *canonical* order (sorted by
    each event's decision key) does not — two runs with the same seed must
    produce identical canonical logs, and the chaos tests assert exactly
    that.
    """

    def __init__(self, metrics: MetricsRegistry | None = None) -> None:
        self._events: list[FaultEvent] = []
        self._metrics = metrics

    def append(self, event: FaultEvent) -> None:
        self._events.append(event)
        if self._metrics is not None:
            self._metrics.counter(f"chaos.{event.kind}").inc()
        logger.debug(
            "chaos: %s",
            event.kind,
            extra={"ctx": event.to_dict()},
        )

    def __len__(self) -> int:
        return len(self._events)

    @property
    def events(self) -> tuple[FaultEvent, ...]:
        """Events in arrival order (scheduling-dependent)."""
        return tuple(self._events)

    def canonical(self) -> tuple[FaultEvent, ...]:
        """Events in decision-key order: the determinism contract."""
        return tuple(sorted(self._events, key=FaultEvent.key))

    def counts(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for event in self._events:
            totals[event.kind] = totals.get(event.kind, 0) + 1
        return dict(sorted(totals.items()))

    def to_json(self, *, indent: int | None = None) -> str:
        return json.dumps(
            {
                "counts": self.counts(),
                "events": [event.to_dict() for event in self.canonical()],
            },
            indent=indent,
        )


@dataclass
class _FlowState:
    """Shared per-(direction, frame type) frame counters for one link.

    Shared across connections on purpose: the decision index advances per
    frame *type* on the link, so reconnects (which chaos itself causes)
    don't reset the schedule or replay the same decisions.
    """

    counters: dict[tuple[str, int], int] = field(default_factory=dict)

    def next_index(self, direction: str, frame_type: int) -> int:
        key = (direction, frame_type)
        index = self.counters.get(key, 0)
        self.counters[key] = index + 1
        return index


class ChaosProxy:
    """Frame-aware TCP proxy that enacts a :class:`FaultPlan` on one link.

    Splice it between a client and a server (or a DSSP node and its home):
    point the downstream side at ``upstream`` and clients at
    :attr:`address`.  Each accepted connection gets its own upstream
    connection and two pump tasks (client→server, server→client); both
    halves are pull-mode :class:`~repro.net.framing.FrameConnection`\\ s,
    the serving path's own framing, so a pump takes whole raw frames
    (header validated, payload opaque) and forwards them untouched.  Frame
    fates come from the shared plan via per-link flow counters.

    TCP honesty: a "dropped" frame severs the connection, because a real
    network cannot remove bytes from the middle of a healthy stream — the
    peer would desynchronize.  Severing exercises exactly the recovery
    paths the service claims to have (client retries, reconnect-and-flush).
    """

    def __init__(
        self,
        upstream: tuple[str, int],
        plan: FaultPlan,
        link: str,
        log: ChaosLog,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_frame: int = wire.MAX_FRAME_BYTES,
    ) -> None:
        self.upstream = (upstream[0], int(upstream[1]))
        self.plan = plan
        self.link = link
        self.log = log
        self._host = host
        self._port = port
        self._max_frame = max_frame
        self._flow = _FlowState()
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[FrameConnection] = set()
        #: One task per accepted connection: dial upstream, run the pumps.
        self._pairs: set[asyncio.Task] = set()
        #: Extra s2c frames to swallow, per live connection pair (the
        #: response to a duplicated request must not reach the client).
        self._swallow: dict[int, int] = {}

    @property
    def address(self) -> tuple[str, int]:
        if self._server is None:
            raise RuntimeError("proxy is not started")
        return self._server.sockets[0].getsockname()[:2]

    async def start(self) -> tuple[str, int]:
        self._server = await asyncio.get_running_loop().create_server(
            self._accept, self._host, self._port
        )
        return self.address

    async def stop(self) -> None:
        """Stop accepting, sever every pair, then wait for the listener.

        Same order as :meth:`WireServer.stop`: ``wait_closed`` waits for
        the accepted connections on Python >= 3.12.1, so they go first.
        """
        server, self._server = self._server, None
        if server is not None:
            server.close()
        await self.kill_connections()
        if server is not None:
            await server.wait_closed()

    async def kill_connections(self) -> None:
        """Sever every live proxied connection (connection-churn chaos)."""
        halves, self._connections = self._connections, set()
        for half in halves:
            half.close()
        for half in halves:
            await half.wait_closed()

    # -- connection pumps ---------------------------------------------------

    def _framed(self) -> FrameConnection:
        return FrameConnection(max_frame=self._max_frame)

    def _accept(self) -> FrameConnection:
        """Protocol factory: the client's half, spliced by its own task."""
        downstream = self._framed()
        pair = asyncio.create_task(self._splice(downstream))
        self._pairs.add(pair)
        pair.add_done_callback(self._pairs.discard)
        return downstream

    async def _splice(self, downstream: FrameConnection) -> None:
        try:
            _, upstream = await asyncio.get_running_loop().create_connection(
                self._framed, *self.upstream
            )
        except (ConnectionError, OSError):
            downstream.close()
            return
        self._connections.add(downstream)
        self._connections.add(upstream)
        pair_id = id(downstream)
        self._swallow[pair_id] = 0
        # Pumps can see (and cancel) each other: a sever decision must
        # stop the opposite pump *before* the stream dies, or an in-flight
        # reply could race the teardown and consume a fault index in one
        # run but not another.
        pumps: dict[str, asyncio.Task] = {}
        c2s = asyncio.create_task(
            self._pump(downstream, upstream, "c2s", pair_id, pumps)
        )
        s2c = asyncio.create_task(
            self._pump(upstream, downstream, "s2c", pair_id, pumps)
        )
        pumps["c2s"] = c2s
        pumps["s2c"] = s2c
        try:
            await asyncio.wait(
                {c2s, s2c}, return_when=asyncio.FIRST_COMPLETED
            )
        finally:
            for task in (c2s, s2c):
                task.cancel()
            for task in (c2s, s2c):
                try:
                    await task
                except (asyncio.CancelledError, Exception):
                    pass
            self._swallow.pop(pair_id, None)
            for half in (downstream, upstream):
                self._connections.discard(half)
                half.close()
                await half.wait_closed()

    async def _pump(
        self,
        src: FrameConnection,
        dst: FrameConnection,
        direction: str,
        pair_id: int,
        pumps: dict[str, asyncio.Task],
    ) -> None:
        def sever_sibling() -> None:
            sibling = pumps.get("s2c" if direction == "c2s" else "c2s")
            if sibling is not None and sibling is not asyncio.current_task():
                sibling.cancel()

        try:
            while True:
                # Pull mode bounds what the proxy holds unforwarded: past
                # READ_BACKLOG_BYTES the source stops being read.
                raw = await src.receive()
                if raw is None:
                    return
                frame_type, request_id = wire.peek_raw(raw)
                if direction == "s2c" and self._swallow.get(pair_id, 0) > 0:
                    # The response to a duplicated request: the client sent
                    # one request and must see exactly one response.  Not a
                    # plan decision, so no flow index is consumed.  Under
                    # pipelining the swallowed frame may answer a *different*
                    # in-flight request — response counts are still conserved,
                    # and the starved request resolves through its normal
                    # timeout/retry path (queries re-ask; updates are covered
                    # by retry-until-ack + the home's idempotency log).
                    self._swallow[pair_id] -= 1
                    continue
                index = self._flow.next_index(direction, frame_type)
                decision = self.plan.decide(
                    self.link, direction, frame_type, index
                )
                if decision.kind is FaultKind.PASS:
                    dst.write(raw)
                    await dst.drain()
                    continue
                if decision.kind is FaultKind.DELAY:
                    self._record(
                        direction,
                        frame_type,
                        index,
                        FaultKind.DELAY,
                        request_id,
                        f"{decision.delay_s * 1000:.1f}ms",
                    )
                    await asyncio.sleep(decision.delay_s)
                    dst.write(raw)
                    await dst.drain()
                    continue
                if decision.kind is FaultKind.DUPLICATE:
                    self._record(
                        direction,
                        frame_type,
                        index,
                        FaultKind.DUPLICATE,
                        request_id,
                    )
                    self._swallow[pair_id] = (
                        self._swallow.get(pair_id, 0) + 1
                    )
                    dst.write(raw)
                    dst.write(raw)
                    await dst.drain()
                    continue
                if decision.kind is FaultKind.TRUNCATE:
                    keep = max(1, int(len(raw) * decision.keep_fraction))
                    keep = min(keep, len(raw) - 1)
                    self._record(
                        direction,
                        frame_type,
                        index,
                        FaultKind.TRUNCATE,
                        request_id,
                        f"{keep}/{len(raw)}B",
                    )
                    sever_sibling()
                    dst.write(raw[:keep])
                    await dst.drain()
                    return  # sever: the stream is now unparseable
                # DROP: swallow the frame and sever both halves.
                self._record(
                    direction, frame_type, index, FaultKind.DROP, request_id
                )
                sever_sibling()
                return
        except (ConnectionError, OSError, wire.WireError):
            return
        finally:
            dst.close()

    def _record(
        self,
        direction: str,
        frame_type: int,
        index: int,
        kind: FaultKind,
        request_id: str | None,
        detail: str = "",
    ) -> None:
        self.log.append(
            FaultEvent(
                link=self.link,
                direction=direction,
                frame_type=frame_type,
                index=index,
                kind=kind.value,
                request_id=request_id,
                detail=detail,
            )
        )
