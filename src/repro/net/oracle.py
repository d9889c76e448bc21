"""End-to-end consistency oracle for the networked DSSP under chaos.

The trusted specification is the in-process engine (:mod:`repro.dssp` +
:mod:`repro.storage`): a reference database that applies every *acked*
update exactly once.  The oracle drives the identical workload trace
through a live 2+-node networked topology wrapped in
:class:`~repro.net.chaos.ChaosProxy` instances, and asserts three
guarantees the paper's correctness argument rests on:

* **No stale reads** — every query answer equals what the reference
  database holds at that point in the trace.  Because the networked
  invalidation path may only *over*-invalidate (synchronous origin
  invalidation, stream pushes, reconnect flushes), any divergence means an
  entry survived that the reference engine would have killed:
  under-invalidation, the one forbidden failure.
* **No lost acked updates** — an acknowledged update is eventually visible
  (its invalidations reach every node, and its effect is in the home's
  master copy at the end).
* **Convergence** — after the trace, the networked home database equals
  the reference database table by table.

The runner is deliberately *sequential* (one operation in flight) and
waits for invalidation convergence after every acked update.  That is
what makes the check exact rather than probabilistic: at each query the
reference state is unambiguous, and — together with the frame-indexed
fault plan — what makes the whole chaos run deterministic.
"""

from __future__ import annotations

import asyncio
import logging
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.exposure import ExposurePolicy
from repro.crypto.envelope import EnvelopeCodec
from repro.crypto.keyring import Keyring
from repro.dssp.homeserver import HomeServer
from repro.dssp.placement import (
    TemplateAffinity,
    policy_allows_blind_queries,
    query_placement_key,
    shards_for_update,
    update_routing_key,
)
from repro.dssp.proxy import DsspNode
from repro.dssp.ring import DEFAULT_VNODES, HashRing
from repro.errors import (
    HomeUnreachableError,
    NetConnectionError,
    NetError,
    NetTimeoutError,
    ServerOverloadedError,
    WireError,
    WorkloadError,
)
from repro.net.chaos import ChaosLog, ChaosProxy, FaultEvent, FaultPlan
from repro.net.client import RetryPolicy, WireClient
from repro.net.dssp_server import DsspNetServer
from repro.net.home_server import HomeNetServer, UpdateDedup
from repro.obs import SpanRecorder, SpanSink
from repro.storage.backends import InMemoryBackend, wrap_database
from repro.storage.database import Database
from repro.storage.rows import sort_key
from repro.templates.registry import TemplateRegistry
from repro.workloads.trace import Trace

__all__ = [
    "ChaosRunner",
    "ChaosTopology",
    "OracleReport",
    "Violation",
    "run_chaos",
]

logger = logging.getLogger(__name__)

#: Failures the runner absorbs by retrying the operation under the same
#: request id.  Anything else (UNKNOWN_APP, INTERNAL, ...) is a harness or
#: workload configuration error and fails the run loudly.
_RETRYABLE = (
    NetConnectionError,
    NetTimeoutError,
    HomeUnreachableError,
    ServerOverloadedError,
    WireError,
)


@dataclass(frozen=True)
class Violation:
    """One observed breach of the oracle's guarantees."""

    kind: str  # stale_read | lost_update | db_divergence | liveness | fatal
    op_index: int
    node: str
    template: str
    detail: str

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "op_index": self.op_index,
            "node": self.node,
            "template": self.template,
            "detail": self.detail,
        }


@dataclass
class OracleReport:
    """Outcome of one chaos run: counts, faults, and any violations."""

    seed: int
    pages: int = 0
    queries: int = 0
    updates: int = 0
    hits: int = 0
    retries: int = 0
    kills: int = 0
    fault_counts: dict = field(default_factory=dict)
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "ok": self.ok,
            "pages": self.pages,
            "queries": self.queries,
            "updates": self.updates,
            "hits": self.hits,
            "retries": self.retries,
            "kills": self.kills,
            "fault_counts": dict(self.fault_counts),
            "violations": [v.to_dict() for v in self.violations],
        }

    def summary(self) -> str:
        faults = sum(self.fault_counts.values())
        verdict = "OK" if self.ok else f"{len(self.violations)} VIOLATIONS"
        return (
            f"seed={self.seed} pages={self.pages} queries={self.queries} "
            f"updates={self.updates} hits={self.hits} retries={self.retries} "
            f"faults={faults} kills={self.kills} -> {verdict}"
        )


class _NodeHandle:
    """One DSSP node's live pieces; the server is replaced on restart."""

    def __init__(self, name: str, node: DsspNode) -> None:
        self.name = name
        self.node = node
        self.server: DsspNetServer | None = None
        self.port: int = 0
        self.home_proxy: ChaosProxy | None = None
        self.client_proxy: ChaosProxy | None = None
        self.client: WireClient | None = None


class ChaosTopology:
    """A live N-node DSSP deployment with chaos proxies on every link.

    Wire paths (faults can strike any frame on any proxied hop)::

        oracle client --[ChaosProxy]--> DsspNetServer --[ChaosProxy]--> HomeNetServer
                                            ^--- invalidation stream ---'

    Kills are whole-server events: :meth:`kill_restart` stops a server,
    rebinds a fresh one on the same port over the surviving durable state
    (the home's database + idempotency log, or the node's warm cache), and
    waits for every invalidation stream to re-establish — so a kill never
    leaves the fault schedule's frame accounting ambiguous.
    """

    def __init__(
        self,
        app_id: str,
        registry: TemplateRegistry,
        database: Database,
        policy: ExposurePolicy,
        *,
        plan: FaultPlan,
        log: ChaosLog,
        nodes: int = 2,
        keyring: Keyring | None = None,
        pipeline: int | None = None,
        batch_invalidations: bool = True,
        shards: bool = False,
        vnodes: int = DEFAULT_VNODES,
        backend: str = "memory",
        db_path=None,
        trace_dir=None,
        trace_sample: float = 1.0,
    ) -> None:
        if nodes < 1:
            raise WorkloadError("chaos topology needs at least one node")
        #: Span tracing: one recorder (and span-log file) per logical node,
        #: reused across kill/restart cycles so a restarted server keeps
        #: appending to the same log.  None = tracing off.
        self.trace_dir = Path(trace_dir) if trace_dir is not None else None
        self.trace_sample = trace_sample
        self._tracers: dict[str, SpanRecorder] = {}
        #: Per-client pipelining window (None = serial pooled transport).
        #: The oracle runner stays sequential either way; a window just
        #: routes its operations through the multiplexed channel, so the
        #: pending-map/reader machinery is what the faults exercise.
        self.pipeline = pipeline
        self.batch_invalidations = batch_invalidations
        self.app_id = app_id
        self.registry = registry
        self.policy = policy
        self.plan = plan
        self.log = log
        self.keyring = keyring or Keyring(app_id)
        self.codec = EnvelopeCodec(self.keyring)
        #: The live system's master copy (the caller's database is cloned,
        #: so the reference model can clone the same pristine state).
        #: ``backend="sqlite"`` puts the master behind a durable
        #: :class:`~repro.storage.backends.SqliteBackend` at ``db_path``;
        #: the reference model then runs on an :class:`InMemoryBackend` so
        #: both sides share the canonical ORDER BY/LIMIT semantics (a raw
        #: Database reference would false-positive on tie order).
        self.backend = backend
        self.db_path = db_path
        if backend == "memory":
            home_database = database.clone()
            self.reference_database = home_database
        else:
            home_database = wrap_database(backend, database, path=db_path)
            self.reference_database = InMemoryBackend(database.clone())
        self.home = HomeServer(
            app_id, home_database, registry, policy, self.keyring
        )
        #: Survives home restarts: models the durable idempotency log.
        self.dedup = UpdateDedup()
        self.home_net: HomeNetServer | None = None
        self.home_port: int = 0
        self.handles = [
            _NodeHandle(f"dssp-{i}", DsspNode()) for i in range(nodes)
        ]
        #: Sharded mode: the nodes form a consistent-hash cluster, each
        #: admitting only keys it owns, and the home narrows invalidation
        #: fan-out to owning shards.  The topology keeps its own copy of
        #: the ring and the home's *conservative* (constraints-off)
        #: affinity so the oracle can predict which nodes a push reaches.
        self.sharded = shards
        self.vnodes = vnodes
        self.ring: HashRing | None = None
        self.affinity: TemplateAffinity | None = None
        self.blind_queries = False
        if shards:
            self.ring = HashRing(
                tuple(handle.name for handle in self.handles), vnodes=vnodes
            )
            self.affinity = TemplateAffinity(
                registry, use_integrity_constraints=False
            )
            self.blind_queries = policy_allows_blind_queries(policy)

    @property
    def clients(self) -> list[WireClient]:
        return [handle.client for handle in self.handles]

    def handle_for(self, name: str) -> _NodeHandle:
        return next(h for h in self.handles if h.name == name)

    # -- lifecycle ---------------------------------------------------------

    def _policy_seed(self, salt: int) -> int:
        return self.plan.seed * 1000 + salt

    def tracer(self, node_id: str) -> SpanRecorder | None:
        """The per-node recorder (shared across restarts), or None."""
        if self.trace_dir is None:
            return None
        recorder = self._tracers.get(node_id)
        if recorder is None:
            recorder = SpanRecorder(
                node_id,
                SpanSink(self.trace_dir / f"{node_id}.spans.jsonl"),
                sample_rate=self.trace_sample,
            )
            self._tracers[node_id] = recorder
        return recorder

    def span_logs(self) -> list[Path]:
        """Paths of every span log this topology wrote (may be empty)."""
        return [
            recorder.sink.path for recorder in self._tracers.values()
        ]

    def _new_home_server(self) -> HomeNetServer:
        return HomeNetServer(
            self.home,
            port=self.home_port,
            update_dedup=self.dedup,
            request_timeout_s=5.0,
            push_timeout_s=2.0,
            tracer=self.tracer("home"),
        )

    def _new_dssp_server(self, index: int) -> DsspNetServer:
        handle = self.handles[index]
        server = DsspNetServer(
            handle.node,
            port=handle.port,
            node_id=handle.name,
            request_timeout_s=5.0,
            home_pool_size=1,
            home_timeout_s=2.0,
            home_retry=RetryPolicy(
                attempts=2,
                backoff_s=0.005,
                max_backoff_s=0.05,
                seed=self._policy_seed(10 + index),
            ),
            subscribe_retry=RetryPolicy(
                attempts=1_000_000,
                backoff_s=0.005,
                max_backoff_s=0.1,
                seed=self._policy_seed(20 + index),
            ),
            batch_invalidations=self.batch_invalidations,
            shards=(
                tuple(h.name for h in self.handles) if self.sharded else None
            ),
            vnodes=self.vnodes,
            tracer=self.tracer(handle.name),
        )
        server.register_application(
            self.app_id, self.registry, handle.home_proxy.address
        )
        return server

    async def start(self) -> None:
        self.home_net = self._new_home_server()
        host, self.home_port = await self.home_net.start()
        for index, handle in enumerate(self.handles):
            handle.home_proxy = ChaosProxy(
                (host, self.home_port),
                self.plan,
                f"{handle.name}->home",
                self.log,
            )
            await handle.home_proxy.start()
            handle.server = self._new_dssp_server(index)
            _, handle.port = await handle.server.start()
            handle.client_proxy = ChaosProxy(
                ("127.0.0.1", handle.port),
                self.plan,
                f"client->{handle.name}",
                self.log,
            )
            proxy_host, proxy_port = await handle.client_proxy.start()
            handle.client = WireClient(
                proxy_host,
                proxy_port,
                pool_size=1,
                request_timeout_s=3.0,
                retry=RetryPolicy(
                    attempts=3,
                    backoff_s=0.005,
                    max_backoff_s=0.05,
                    seed=self._policy_seed(30 + index),
                ),
                pipeline=self.pipeline,
                tracer=self.tracer("client"),
            )
        await self.wait_streams()

    async def stop(self) -> None:
        for handle in self.handles:
            if handle.client is not None:
                await handle.client.aclose()
        for handle in self.handles:
            if handle.server is not None:
                await handle.server.stop()
        if self.home_net is not None:
            await self.home_net.stop()
        for handle in self.handles:
            if handle.client_proxy is not None:
                await handle.client_proxy.stop()
            if handle.home_proxy is not None:
                await handle.home_proxy.stop()
        if self.backend != "memory":
            self.home.database.close()
        for recorder in self._tracers.values():
            recorder.close()

    # -- chaos events ------------------------------------------------------

    async def kill_restart(self, target: str) -> None:
        """Kill and restart one server by name (``home`` or ``dssp-i``).

        Returns only once every affected invalidation stream has fully
        re-established *and re-flushed*.  The barrier is what keeps kills
        deterministic: no operation runs while a subscription (or its
        safety flush) is half-done, so cache contents — and therefore the
        exact frame sequence the fault plan sees — never depend on restart
        timing.
        """
        if target == "home":
            baselines = {
                handle.name: handle.server.stream_flushes
                for handle in self.handles
            }
            await self.home_net.stop()
            if self.backend == "sqlite" and self.db_path is not None:
                # Model a full process death, not just a dropped listener:
                # discard every in-memory structure and resume from what
                # the durable file holds.  Only ``self.dedup`` survives —
                # it stands in for the durable idempotency log.
                old = self.home.database
                old.close()
                reopened = wrap_database(
                    "sqlite", self.reference_database.database,
                    path=self.db_path,
                )
                self.home = HomeServer(
                    self.app_id,
                    reopened,
                    self.registry,
                    self.policy,
                    self.keyring,
                )
            self.home_net = self._new_home_server()
            await self.home_net.start()
            await self.wait_streams(baselines)
            return
        index = next(
            i
            for i, handle in enumerate(self.handles)
            if handle.name == target
        )
        handle = self.handles[index]
        await handle.server.stop()
        # The old subscription must be fully gone from the home before the
        # replacement subscribes, or a lingering half-dead channel could
        # swallow (or leak) a push unpredictably.
        await _eventually(
            lambda: not self.home_net.has_subscriber(handle.name),
            10.0,
            f"{handle.name} old stream teardown",
        )
        handle.server = self._new_dssp_server(index)
        await handle.server.start()
        await self.wait_streams({handle.name: 0})

    async def wait_streams(
        self,
        flush_baselines: dict[str, int] | None = None,
        timeout_s: float = 20.0,
    ) -> None:
        """Block until the named nodes' streams are live and freshly
        flushed (``stream_flushes`` strictly above the given baseline).

        With no baselines given, waits for every node's first flush — the
        start-of-run barrier.
        """
        if flush_baselines is None:
            flush_baselines = {handle.name: 0 for handle in self.handles}
        by_name = {handle.name: handle for handle in self.handles}

        def settled() -> bool:
            if self.home_net is None:
                return False
            return all(
                self.home_net.has_subscriber(name)
                and by_name[name].server.stream_flushes > baseline
                for name, baseline in flush_baselines.items()
            )

        await _eventually(settled, timeout_s, "invalidation streams")

    def home_database(self):
        """The live master copy (a raw :class:`Database` or a backend)."""
        return self.home.database


async def _eventually(
    predicate, timeout_s: float, what: str, poll_s: float = 0.002
) -> None:
    deadline = time.perf_counter() + timeout_s
    while not predicate():
        if time.perf_counter() >= deadline:
            raise TimeoutError(f"timed out waiting for {what}")
        await asyncio.sleep(poll_s)


class _Reference:
    """The trusted sequential model: one database, applied in ack order.

    Takes a raw :class:`Database` or any backend — whatever the topology
    says mirrors the live home's query semantics (`reference_database`).
    """

    def __init__(self, database) -> None:
        self.database = database.clone()

    def execute(self, bound):
        return self.database.execute(bound.select)

    def apply(self, bound) -> int:
        return self.database.apply(bound.statement)


class ChaosRunner:
    """Replay a trace against a chaos topology, checking every answer.

    Client *i* pins to node ``i % nodes`` (the cluster's CDN affinity);
    page *p* is issued by client ``p % clients``.  On a **sharded**
    topology the pin is overridden per operation, exactly as a
    :class:`~repro.net.router.ShardRouter` would: queries go to the shard
    owning their placement key, updates to the shard owning their opaque
    id.  Queries and updates are retried under one request id until they
    succeed — the home's idempotency log is what makes retry-until-ack
    safe — and after each acked update the runner waits until every
    non-origin node *the home will push to* has either applied the
    update's stream push or flushed its cache on a stream reconnect, so
    the next operation observes a converged system.  On a sharded
    topology the expected recipient set is narrowed with the same
    conservative affinity the home's fan-out filter uses; nodes outside
    it cannot hold affected views (they never admit keys they don't own),
    so skipping them is exactly as strong a check.
    """

    def __init__(
        self,
        topology: ChaosTopology,
        trace: Trace,
        *,
        clients: int = 4,
        pages: int | None = None,
        max_attempts: int = 40,
        convergence_timeout_s: float = 20.0,
    ) -> None:
        self.topology = topology
        self.trace = trace.bind(topology.registry)
        self.clients = clients
        self.pages = pages if pages is not None else len(trace)
        self.max_attempts = max_attempts
        self.convergence_timeout_s = convergence_timeout_s
        self.reference = _Reference(topology.reference_database)
        self.report = OracleReport(seed=topology.plan.seed)

    async def run(self) -> OracleReport:
        plan = self.topology.plan
        op_index = 0
        for page_index in range(self.pages):
            target = plan.kill_target(page_index)
            if target is not None:
                logger.info("chaos: killing %s at page %d", target, page_index)
                self.topology.log.append(
                    FaultEvent(
                        link=target,
                        direction="op",
                        frame_type=0,
                        index=page_index,
                        kind="kill",
                    )
                )
                await self.topology.kill_restart(target)
                self.report.kills += 1
            client_id = page_index % self.clients
            node_index = client_id % len(self.topology.handles)
            page = self.trace.sample_page()
            for position, operation in enumerate(page):
                request_id = f"op-{page_index}-{position}"
                try:
                    if operation.is_update:
                        await self._run_update(
                            operation.bound, node_index, request_id, op_index
                        )
                    else:
                        await self._run_query(
                            operation.bound, node_index, request_id, op_index
                        )
                except _Fatal as fatal:
                    self.report.violations.append(fatal.violation)
                    self._finish()
                    return self.report
                op_index += 1
            self.report.pages += 1
        self._check_convergence(op_index)
        self._finish()
        return self.report

    def _finish(self) -> None:
        self.report.fault_counts = self.topology.log.counts()

    # -- operations --------------------------------------------------------

    async def _attempt_until_acked(
        self, send, request_id: str, op_index: int, template: str, node: str
    ):
        """Retry one operation under a pinned request id until it succeeds."""
        last_error: Exception | None = None
        for attempt in range(self.max_attempts):
            if attempt:
                self.report.retries += 1
                await asyncio.sleep(0.002)
            try:
                return await send()
            except _RETRYABLE as error:
                last_error = error
                continue
            except NetError as error:
                raise _Fatal(
                    Violation(
                        kind="fatal",
                        op_index=op_index,
                        node=node,
                        template=template,
                        detail=f"{type(error).__name__}: {error}",
                    )
                ) from error
        raise _Fatal(
            Violation(
                kind="liveness",
                op_index=op_index,
                node=node,
                template=template,
                detail=(
                    f"no ack after {self.max_attempts} attempts; last: "
                    f"{type(last_error).__name__}: {last_error}"
                ),
            )
        )

    async def _run_query(
        self, bound, node_index: int, request_id: str, op_index: int
    ) -> None:
        topology = self.topology
        level = topology.policy.query_level(bound.template.name)
        envelope = topology.codec.seal_query(bound, level)
        if topology.sharded:
            handle = topology.handle_for(
                topology.ring.owner(query_placement_key(envelope))
            )
        else:
            handle = topology.handles[node_index]
        expected = self.reference.execute(bound)
        outcome = await self._attempt_until_acked(
            lambda: handle.client.query(envelope, request_id=request_id),
            request_id,
            op_index,
            bound.template.name,
            handle.name,
        )
        self.report.queries += 1
        if outcome.cache_hit:
            self.report.hits += 1
        served = topology.codec.open_result(outcome.result)
        if not served.equivalent(expected):
            self.report.violations.append(
                Violation(
                    kind="stale_read",
                    op_index=op_index,
                    node=handle.name,
                    template=bound.template.name,
                    detail=(
                        f"served {len(served)} rows != reference "
                        f"{len(expected)} rows "
                        f"(cache_hit={outcome.cache_hit}, rid={request_id})"
                    ),
                )
            )

    async def _run_update(
        self, bound, node_index: int, request_id: str, op_index: int
    ) -> None:
        topology = self.topology
        level = topology.policy.update_level(bound.template.name)
        envelope = topology.codec.seal_update(bound, level)
        if topology.sharded:
            origin = topology.handle_for(
                topology.ring.owner(update_routing_key(envelope))
            )
        else:
            origin = topology.handles[node_index]
        # On a sharded topology the home only pushes to shards owning an
        # affected template bucket (None = push-to-all); waiting on the
        # others would be a guaranteed timeout, and they cannot hold
        # affected views anyway — the no-admit gate kept them clean.
        recipients: frozenset[str] | None = None
        if topology.sharded:
            recipients = shards_for_update(
                envelope,
                topology.ring,
                topology.affinity,
                topology.blind_queries,
            )
        # Convergence baselines for every expected non-origin recipient,
        # captured before the first attempt: if attempt 1 applies but its
        # ack is lost, the fan-out has already happened by the time the
        # retry is deduped.
        baselines = {
            handle.name: (
                handle.server.stream_pushes_applied,
                handle.server.stream_flushes,
            )
            for handle in topology.handles
            if handle.name != origin.name
            and (recipients is None or handle.name in recipients)
        }
        await self._attempt_until_acked(
            lambda: origin.client.update(envelope, request_id=request_id),
            request_id,
            op_index,
            bound.template.name,
            origin.name,
        )
        self.report.updates += 1
        self.reference.apply(bound)
        for handle in topology.handles:
            if handle.name not in baselines:
                continue
            base_pushes, base_flushes = baselines[handle.name]

            def converged(handle=handle, bp=base_pushes, bf=base_flushes):
                # Either the push arrived, or the stream died and the
                # reconnect flush wiped the cache — but a flush only counts
                # once the subscription is live again, or a later update's
                # fan-out could silently miss this node.
                server = handle.server
                if server.stream_pushes_applied > bp:
                    return True
                return (
                    server.stream_flushes > bf
                    and topology.home_net.has_subscriber(handle.name)
                )

            try:
                await _eventually(
                    converged,
                    self.convergence_timeout_s,
                    f"invalidation of {request_id} at {handle.name}",
                )
            except TimeoutError as error:
                raise _Fatal(
                    Violation(
                        kind="lost_update",
                        op_index=op_index,
                        node=handle.name,
                        template=bound.template.name,
                        detail=str(error),
                    )
                ) from error

    def _check_convergence(self, op_index: int) -> None:
        live = self.topology.home_database()
        reference = self.reference.database
        for table in sorted(live.schema.table_names):
            # Total-order value sort, not repr: SQLite's REAL affinity can
            # hand back 3.0 where the reference holds 3 — equal values that
            # repr would order differently, faking a divergence.
            live_rows = sorted(live.rows(table), key=sort_key)
            ref_rows = sorted(reference.rows(table), key=sort_key)
            if live_rows != ref_rows:
                self.report.violations.append(
                    Violation(
                        kind="db_divergence",
                        op_index=op_index,
                        node="home",
                        template=table,
                        detail=(
                            f"table {table!r}: live has {len(live_rows)} "
                            f"rows, reference has {len(ref_rows)}"
                        ),
                    )
                )


class _Fatal(Exception):
    def __init__(self, violation: Violation) -> None:
        super().__init__(violation.detail)
        self.violation = violation


async def run_chaos(
    app_id: str,
    registry: TemplateRegistry,
    database: Database,
    policy: ExposurePolicy,
    trace: Trace,
    plan: FaultPlan,
    *,
    nodes: int = 2,
    clients: int = 4,
    pages: int | None = None,
    keyring: Keyring | None = None,
    pipeline: int | None = None,
    batch_invalidations: bool = True,
    shards: bool = False,
    vnodes: int = DEFAULT_VNODES,
    backend: str = "memory",
    db_path=None,
    trace_dir=None,
    trace_sample: float = 1.0,
) -> tuple[OracleReport, ChaosLog]:
    """Build a chaos topology, replay the trace, and tear everything down.

    Returns the oracle report and the fault log (whose :meth:`canonical`
    ordering is reproducible for a given plan seed).
    """
    log = ChaosLog()
    topology = ChaosTopology(
        app_id,
        registry,
        database,
        policy,
        plan=plan,
        log=log,
        nodes=nodes,
        keyring=keyring,
        pipeline=pipeline,
        batch_invalidations=batch_invalidations,
        shards=shards,
        vnodes=vnodes,
        backend=backend,
        db_path=db_path,
        trace_dir=trace_dir,
        trace_sample=trace_sample,
    )
    await topology.start()
    try:
        runner = ChaosRunner(topology, trace, clients=clients, pages=pages)
        report = await runner.run()
    finally:
        await topology.stop()
    return report, log
