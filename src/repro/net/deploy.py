"""One deployment: start, restart and stop a networked DSSP fleet.

The paper's architecture (Figure 1) has one shape, a home organization
plus DSSP nodes near the clients, and :class:`Deployment` is the one
place that wires it up::

    client --[ChaosProxy]--> DsspNetServer --[ChaosProxy]--> HomeNetServer
                                  ^------ invalidation stream ------'

It owns the start order (the home, then per node: home-side proxy, DSSP
server, client-side proxy, client), one readiness barrier (every node
subscribed at the home *and* past its connect flush), restarts over the
state that survives a process death, and one stop order — also after a
start that failed part-way.  DESIGN.md §6 "Topology" lists its inputs.
"""

from __future__ import annotations

import asyncio
import time
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

from repro.dssp.homeserver import HomeServer
from repro.dssp.placement import Placement
from repro.dssp.proxy import DsspNode
from repro.errors import WorkloadError
from repro.net.chaos import ChaosLog, ChaosProxy, FaultPlan
from repro.net.client import RetryPolicy, WireClient
from repro.net.dssp_server import DsspNetServer
from repro.net.home_server import HomeNetServer, UpdateDedup
from repro.obs import SpanRecorder, SpanSink, merge_snapshots
from repro.storage.backends import SqliteBackend

__all__ = ["Deployment", "NodeHandle", "eventually", "span_recorder"]


async def eventually(
    predicate, timeout_s: float = 5.0, what: str = "condition"
) -> None:
    """Poll until ``predicate()`` holds; ``TimeoutError`` naming ``what``."""
    deadline = time.perf_counter() + timeout_s
    while not predicate():
        if time.perf_counter() >= deadline:
            raise TimeoutError(f"timed out waiting for {what}")
        await asyncio.sleep(0.002)


def span_recorder(node_id: str, path, sample_rate: float = 1.0):
    """A recorder writing ``node_id``'s spans to ``path``; None = off."""
    if path is None:
        return None
    return SpanRecorder(node_id, SpanSink(path), sample_rate=sample_rate)


@dataclass(eq=False)
class NodeHandle:
    """One node's live pieces; ``server`` is replaced on restart.  A node
    served elsewhere has no ``node`` and is reached at ``upstream``."""

    name: str
    node: DsspNode | None = None
    upstream: tuple[str, int] | None = None
    server: DsspNetServer | None = None
    port: int = 0
    home_proxy: ChaosProxy | None = None
    client_proxy: ChaosProxy | None = None
    client: WireClient | None = None


class Deployment:
    """A home endpoint over ``homes``, DSSP nodes, one client per node.

    ``nodes`` is a count (fresh nodes ``dssp-<i>``), the caller's own
    :class:`DsspNode` objects, or ``(host, port)`` addresses of nodes
    served elsewhere (named ``host:port``; only their client half is
    local).  ``placement`` is the fleet's one
    :class:`~repro.dssp.placement.Placement` over the node names — a ring
    when ``shards`` is set, registered with every home's constraints-off
    setting, so it names the recipients the home's fan-out picks.  A
    ``plan`` (with its ``log``) puts a :class:`ChaosProxy` on both hops,
    chaos timeouts, and retry policies seeded from the plan.
    A setting only one caller needs goes through an override of
    :meth:`home_server`, :meth:`dssp_server` or :meth:`client`.
    """

    def __init__(
        self,
        homes: HomeServer | Sequence[HomeServer] = (),
        *,
        nodes: int | Sequence[DsspNode | tuple[str, int]] = 1,
        shards: bool = False,
        service_latency_s: float = 0.0,
        pipeline: int | None = None,
        max_in_flight: int | None = None,
        retry: RetryPolicy | None = None,
        plan: FaultPlan | None = None,
        log: ChaosLog | None = None,
        span_dir=None,
        trace_sample: float = 1.0,
    ) -> None:
        self.homes = [homes] if isinstance(homes, HomeServer) else list(homes)
        if isinstance(nodes, int):
            nodes = [DsspNode() for _ in range(nodes)]
        self.handles = [
            NodeHandle(f"dssp-{i}", node)
            if isinstance(node, DsspNode)
            else NodeHandle(f"{node[0]}:{node[1]}", upstream=tuple(node))
            for i, node in enumerate(nodes)
        ]
        if not self.handles:
            raise WorkloadError("a deployment needs at least one node")
        if not self.homes and any(h.node is not None for h in self.handles):
            raise WorkloadError("DSSP nodes served here need a home")
        self.placement = Placement(
            (h.name for h in self.handles), sharded=shards
        )
        for home in self.homes:
            self.placement.register(home, use_integrity_constraints=False)
        self.service_latency_s = service_latency_s
        self.pipeline = pipeline
        self.max_in_flight = max_in_flight
        self.retry = retry
        self.plan = plan
        self.log = log
        self.span_dir = Path(span_dir) if span_dir is not None else None
        self.trace_sample = trace_sample
        #: Recorders by node id, kept across restarts: built on first use
        #: under ``span_dir``, or placed here by the caller before start.
        self.tracers: dict[str, SpanRecorder] = {}
        #: Survives home restarts: models the durable idempotency log.
        self.dedup = UpdateDedup()
        self.home_net: HomeNetServer | None = None
        self.home_port = 0
        self.clients: list[WireClient] = []
        #: What the fleet was stood up for, where a caller records it
        #: (``deploy_scenario`` does): a name, a seed, tenant workloads.
        self.name, self.seed, self.tenants = None, None, []

    def handle(self, name: str) -> NodeHandle:
        return next(h for h in self.handles if h.name == name)

    @property
    def servers(self) -> list[DsspNetServer]:
        return [h.server for h in self.handles if h.server is not None]

    def server_snapshot(self) -> dict:
        """Merged metrics of the DSSP fleet (per-app books included)."""
        return merge_snapshots(*(s.metrics.snapshot() for s in self.servers))

    def sum_invalidations(self) -> int:
        return sum(s.node.stats.invalidations for s in self.servers)

    def tracer(self, node_id: str) -> SpanRecorder | None:
        if node_id not in self.tracers and self.span_dir is not None:
            self.tracers[node_id] = span_recorder(
                node_id,
                self.span_dir / f"{node_id}.spans.jsonl",
                self.trace_sample,
            )
        return self.tracers.get(node_id)

    # -- construction ------------------------------------------------------

    def _seeded(self, attempts: int, max_backoff_s: float, salt: int):
        return RetryPolicy(
            attempts=attempts,
            backoff_s=0.005,
            max_backoff_s=max_backoff_s,
            seed=self.plan.seed * 1000 + salt,
        )

    def home_server(self, **options) -> HomeNetServer:
        """The home listener, on the same port across restarts."""
        settings = dict(
            port=self.home_port,
            update_dedup=self.dedup,
            tracer=self.tracer("home"),
        )
        if self.plan is not None:
            settings.update(request_timeout_s=5.0, push_timeout_s=2.0)
        return HomeNetServer(self.homes, **{**settings, **options})

    def dssp_server(self, handle: NodeHandle, **options) -> DsspNetServer:
        """A server over ``handle.node``, registered with every home."""
        settings = dict(
            port=handle.port,
            node_id=handle.name,
            shards=(
                self.placement.node_ids if self.placement.sharded else None
            ),
            tracer=self.tracer(handle.name),
        )
        if self.service_latency_s:
            settings["fault_hook"] = self._service_latency
        if self.max_in_flight is not None:
            settings["max_in_flight"] = self.max_in_flight
        home = self.home_net.address
        if self.plan is not None:
            index = self.handles.index(handle)
            settings.update(
                request_timeout_s=5.0,
                home_pool_size=1,
                home_timeout_s=2.0,
                home_retry=self._seeded(2, 0.05, 10 + index),
                subscribe_retry=self._seeded(1_000_000, 0.1, 20 + index),
            )
            home = handle.home_proxy.address
        server = DsspNetServer(handle.node, **{**settings, **options})
        for app in self.homes:
            server.register_application(app.app_id, app.registry, home)
        return server

    def client(self, handle: NodeHandle, host, port, **options) -> WireClient:
        settings = dict(
            pipeline=self.pipeline,
            retry=self.retry,
            tracer=self.tracer("client"),
        )
        if self.plan is not None:
            index = self.handles.index(handle)
            settings.update(
                request_timeout_s=3.0, retry=self._seeded(3, 0.05, 30 + index)
            )
        return WireClient(host, port, **{**settings, **options})

    async def _service_latency(self, frame, request_id) -> None:
        await asyncio.sleep(self.service_latency_s)

    async def _proxy(self, upstream, link: str) -> ChaosProxy:
        proxy = ChaosProxy(upstream, self.plan, link, self.log)
        await proxy.start()
        return proxy

    # -- lifecycle ---------------------------------------------------------

    async def __aenter__(self) -> "Deployment":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    async def start(self) -> None:
        """Start in order, then wait for every stream; a failure part-way
        tears down whatever did start and re-raises."""
        try:
            if self.homes:
                self.home_net = self.home_server()
                _, self.home_port = await self.home_net.start()
            for handle in self.handles:
                address = handle.upstream
                if handle.node is not None:
                    if self.plan is not None:
                        handle.home_proxy = await self._proxy(
                            self.home_net.address, f"{handle.name}->home"
                        )
                    handle.server = self.dssp_server(handle)
                    address = await handle.server.start()
                    handle.port = address[1]
                if self.plan is not None:
                    handle.client_proxy = await self._proxy(
                        address, f"client->{handle.name}"
                    )
                    address = handle.client_proxy.address
                handle.client = self.client(handle, *address)
            self.clients = [handle.client for handle in self.handles]
            await self.wait_streams()
        except BaseException:
            await self.stop()
            raise

    async def stop(self) -> None:
        """Clients, DSSP servers, home, proxies, span recorders, SQLite
        backends; safe after a partial start and more than once."""
        for handle in self.handles:
            if handle.client is not None:
                await handle.client.aclose()
        for server in self.servers:
            await server.stop()
        if self.home_net is not None:
            await self.home_net.stop()
        for handle in self.handles:
            for proxy in (handle.client_proxy, handle.home_proxy):
                if proxy is not None:
                    await proxy.stop()
        for recorder in self.tracers.values():
            recorder.close()
        for home in self.homes:
            home.database.close()

    async def restart(self, name: str) -> None:
        """Kill and restart the home (``"home"``) or one node, same port.

        Returns only once every affected stream has re-established *and
        re-flushed*: no operation runs while a subscription (or its safety
        flush) is half-done, so cache contents — and the frames a fault
        plan sees — never depend on restart timing.
        """
        if name == "home":
            baselines = {s.node_id: s.stream_flushes for s in self.servers}
            await self.home_net.stop()
            for home in self.homes:
                old = home.database
                if isinstance(old, SqliteBackend) and old.path is not None:
                    # A process death, not a dropped listener: the home
                    # resumes from the durable file alone (and the
                    # idempotency log, ``self.dedup``).
                    old.close()
                    home.database = SqliteBackend(
                        old.schema,
                        path=old.path,
                        enforce_foreign_keys=old.enforce_foreign_keys,
                        strict_model=old.strict_model,
                    )
            self.home_net = self.home_server()
            await self.home_net.start()
            await self.wait_streams(baselines)
            return
        handle = self.handle(name)
        await handle.server.stop()
        # The old subscription must be gone from the home before the
        # replacement subscribes, or a lingering half-dead channel could
        # swallow (or leak) a push unpredictably.
        await eventually(
            lambda: not self.home_net.has_subscriber(name),
            10.0,
            f"{name} old stream teardown",
        )
        handle.server = self.dssp_server(handle)
        await handle.server.start()
        await self.wait_streams({name: 0})

    async def wait_streams(self, flush_baselines=None) -> None:
        """Block until each named node is subscribed with ``stream_flushes``
        above its baseline (default: every served node's first flush)."""
        if flush_baselines is None:
            flush_baselines = {s.node_id: 0 for s in self.servers}

        def settled() -> bool:
            return all(
                self.home_net.has_subscriber(name)
                and self.handle(name).server.stream_flushes > baseline
                for name, baseline in flush_baselines.items()
            )

        await eventually(settled, 20.0, "invalidation streams")
