"""Workload definitions and the loopback deployment they run on.

A workload names a deployment (application, data scale, exposure policy,
DSSP node count, cache capacity) and the load offered to it.  Everything
the deployment is built from derives from ``--seed``: the generated rows,
the recorded page trace, the application's master key and (open loop) the
arrival schedule.  The program under test only ever sees those inputs.

The topology is the real one: ``WireClient -> DsspNetServer ->
HomeNetServer`` over loopback TCP, no injected latency, every server on
the caller's event loop.
"""

from __future__ import annotations

import asyncio
import hashlib
from dataclasses import dataclass, replace

from repro.analysis.exposure import ExposureLevel, ExposurePolicy
from repro.analysis.methodology import design_exposure_policy
from repro.crypto import Keyring
from repro.crypto.envelope import EnvelopeCodec
from repro.dssp import DsspNode, HomeServer
from repro.net import DsspNetServer, HomeNetServer, WireClient
from repro.workloads import get_application
from repro.workloads.trace import Trace, record_trace

__all__ = ["WORKLOADS", "Deployment", "Inputs", "Workload", "make_inputs"]

#: Open-loop guard: arrivals beyond this many outstanding pages are dropped.
MAX_OUTSTANDING = 64
#: Pipelining window of the open-loop client's single connection.
OPEN_PIPELINE = 16


@dataclass(frozen=True)
class Workload:
    """One named benchmark workload (see README.md for the why of each)."""

    name: str
    app: str
    scale: float
    #: ``designed`` (methodology output), ``blind`` or ``stmt`` (uniform).
    policy: str
    nodes: int
    cache_capacity: int | None
    #: Closed-loop lanes; lane *i* is pinned to node ``i % nodes``.
    lanes: int
    #: Pages warmed through the wire before the measured window.  With
    #: ``queries_only`` it is the number of pages recorded, of which the
    #: update-free ones are kept and warmed in one full pass.
    warm_pages: int
    #: Measured pages per second of ``--seconds`` (closed loop: fixed work
    #: sized so the window lasts about that long on the reference box;
    #: open loop: the offered Poisson rate).
    pages_per_second: float
    open_loop: bool = False
    #: Keep only the trace's update-free pages and cycle them.
    queries_only: bool = False

    def measured_pages(self, seconds: float) -> int:
        return max(20, round(self.pages_per_second * seconds))

    def smoke(self) -> "Workload":
        """The same workload with a tenth of the warm-up."""
        return replace(self, warm_pages=max(20, self.warm_pages // 10))


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="hot_reads",
            app="bookstore",
            scale=2.0,
            policy="designed",
            nodes=1,
            cache_capacity=None,
            lanes=1,
            warm_pages=1500,
            pages_per_second=1150.0,
            queries_only=True,
        ),
        Workload(
            name="paper_mix",
            app="bookstore",
            scale=2.0,
            policy="designed",
            nodes=1,
            cache_capacity=1024,
            lanes=1,
            warm_pages=600,
            pages_per_second=370.0,
        ),
        Workload(
            name="blind_mix",
            app="bookstore",
            scale=2.0,
            policy="blind",
            nodes=1,
            cache_capacity=1024,
            lanes=1,
            warm_pages=600,
            pages_per_second=430.0,
        ),
        Workload(
            name="inval_heavy",
            app="bboard",
            scale=5.0,
            policy="stmt",
            nodes=2,
            cache_capacity=2000,
            lanes=2,
            warm_pages=400,
            pages_per_second=150.0,
        ),
        Workload(
            name="open_mix",
            app="bookstore",
            scale=2.0,
            policy="designed",
            nodes=1,
            cache_capacity=1024,
            lanes=1,
            warm_pages=600,
            pages_per_second=120.0,
            open_loop=True,
        ),
    )
}

@dataclass
class Inputs:
    """Everything generated from the seed, before any server exists."""

    workload: Workload
    seed: int
    spec: object
    policy: ExposurePolicy
    keyring: Keyring
    #: Raw recorded pages (``(kind, template, params)`` triples).
    pages: list
    warm_pages: int
    measured_pages: int

    @property
    def headroom_pages(self) -> int:
        """Recorded pages beyond warm + measured (cycled traces: 0)."""
        if self.workload.queries_only:
            return 0
        return len(self.pages) - self.warm_pages - self.measured_pages

    def database(self):
        """A fresh master copy (every deployment mutates its own)."""
        return self.spec.instantiate(
            scale=self.workload.scale, seed=self.seed
        ).database

    def trace(self, pages: list) -> Trace:
        """A cursor over ``pages`` that binds each page as it is issued."""
        return Trace(self.workload.app, pages).bind(self.spec.registry)


def _policy(kind: str, registry) -> ExposurePolicy:
    if kind == "designed":
        return design_exposure_policy(registry).final
    if kind == "blind":
        return ExposurePolicy.uniform(registry, ExposureLevel.BLIND)
    if kind == "stmt":
        return ExposurePolicy.uniform(registry, ExposureLevel.STMT)
    raise ValueError(f"unknown policy {kind!r}")


def make_inputs(
    workload: Workload, seed: int, seconds: float, *, arrivals: int = 0
) -> Inputs:
    """Generate data, trace, keys and policy for one run from ``seed``.

    ``arrivals`` is the open-loop schedule's length; closed-loop runs
    measure ``workload.measured_pages(seconds)`` pages.
    """
    spec = get_application(workload.app)
    measured = arrivals if workload.open_loop else workload.measured_pages(seconds)
    recorder = spec.instantiate(scale=workload.scale, seed=seed)
    if workload.queries_only:
        recorded = record_trace(
            recorder.sampler, workload.warm_pages, seed=seed
        )
        pages = [
            page
            for page in recorded.pages
            if all(kind == "query" for kind, _, _ in page)
        ]
        warm = len(pages)  # one pass caches every view the window reads
    else:
        warm = workload.warm_pages
        pages = record_trace(
            recorder.sampler, warm + measured, seed=seed
        ).pages
    key = hashlib.sha256(f"e2e-master-key:{seed}".encode()).digest()
    return Inputs(
        workload=workload,
        seed=seed,
        spec=spec,
        policy=_policy(workload.policy, spec.registry),
        keyring=Keyring(workload.app, key),
        pages=pages,
        warm_pages=warm,
        measured_pages=measured,
    )


class Deployment:
    """Home + DSSP node(s) + one client per node, on the running loop.

    The ``make_*`` methods build one layer each; the traced run overrides
    them with the timing subclasses from ``spans.py``.
    """

    def __init__(self, inputs: Inputs) -> None:
        workload = inputs.workload
        self.inputs = inputs
        self.codec = self.make_codec("client")
        self.home = self.make_home(self.wrap_database(inputs.database()))
        self.home.codec = self.make_codec("home")
        self.home_net = self.make_home_net(self.home)
        self.servers = [
            self.make_dssp_net(
                self.make_node(workload.cache_capacity), f"dssp-{index}"
            )
            for index in range(workload.nodes)
        ]
        self.clients: list[WireClient] = []

    def make_codec(self, side: str) -> EnvelopeCodec:
        return EnvelopeCodec(self.inputs.keyring)

    def wrap_database(self, database):
        return database

    def make_home(self, database) -> HomeServer:
        inputs = self.inputs
        return HomeServer(
            inputs.workload.app,
            database,
            inputs.spec.registry,
            inputs.policy,
            inputs.keyring,
        )

    def make_home_net(self, home: HomeServer) -> HomeNetServer:
        return HomeNetServer(home)

    def make_node(self, cache_capacity: int | None) -> DsspNode:
        return DsspNode(cache_capacity=cache_capacity)

    def make_dssp_net(self, node: DsspNode, node_id: str) -> DsspNetServer:
        return DsspNetServer(node, node_id=node_id)

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        workload = self.inputs.workload
        home_address = await self.home_net.start()
        for server in self.servers:
            server.register_application(
                workload.app, self.inputs.spec.registry, home_address
            )
            address = await server.start()
            self.clients.append(
                WireClient(
                    *address,
                    pool_size=1,
                    pipeline=OPEN_PIPELINE if workload.open_loop else None,
                )
            )
        # A node flushes its cache when its stream connects: measuring
        # before every subscription is up would race that flush.
        deadline = asyncio.get_running_loop().time() + 10.0
        while not all(server.stream_flushes for server in self.servers):
            if asyncio.get_running_loop().time() > deadline:
                raise RuntimeError("invalidation streams never connected")
            await asyncio.sleep(0.001)

    async def quiesce(self) -> None:
        """Wait until every queued invalidation push has been applied."""
        deadline = asyncio.get_running_loop().time() + 10.0
        while True:
            counter = self.home_net.metrics.counter
            sent = counter("home.pushes_sent").value
            deduped = counter("home.push_dedup_dropped").value
            enqueued = counter("home.pushes_enqueued").value
            applied = sum(s.stream_pushes_applied for s in self.servers)
            if enqueued == sent + deduped and applied == sent:
                return
            if asyncio.get_running_loop().time() > deadline:
                raise RuntimeError(
                    f"pushes never drained: enqueued={enqueued} "
                    f"sent={sent} applied={applied}"
                )
            await asyncio.sleep(0.001)

    async def stop(self) -> None:
        for client in self.clients:
            await client.aclose()
        for server in self.servers:
            await server.stop()
        await self.home_net.stop()
