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
from dataclasses import dataclass, field

from repro.analysis.exposure import ExposurePolicy
from repro.crypto.envelope import EnvelopeCodec
from repro.crypto.keyring import Keyring
from repro.dssp.homeserver import HomeServer
from repro.errors import (
    HomeUnreachableError,
    NetConnectionError,
    NetError,
    NetTimeoutError,
    ServerOverloadedError,
    WireError,
)
from repro.net.chaos import ChaosLog, FaultEvent, FaultPlan
from repro.net.deploy import Deployment, eventually
from repro.storage.backends import wrap_database
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


class ChaosTopology(Deployment):
    """A live N-node deployment with chaos proxies on every link, plus the
    oracle's own state: the reference database.  Kills are whole-server
    events (:meth:`Deployment.restart`), so a kill never leaves the fault
    schedule's frame accounting ambiguous.  Keywords beyond the oracle's
    own go to the :class:`Deployment` (``shards``, ``trace_sample``).
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
        backend: str = "memory",
        db_path=None,
        trace_dir=None,
        **options,
    ) -> None:
        self.registry = registry
        self.policy = policy
        keyring = keyring or Keyring(app_id)
        self.codec = EnvelopeCodec(keyring)
        #: The live system's master copy is a copy of the caller's
        #: database (``backend="sqlite"`` puts it in a durable
        #: :class:`~repro.storage.backends.SqliteBackend` at ``db_path``);
        #: the reference model clones the same pristine state.  A raw
        #: Database is the reference for every backend: they all return
        #: the executor's one result order, ties and LIMIT cut-offs included.
        home_database = wrap_database(backend, database.clone(), path=db_path)
        self.reference_database = database
        super().__init__(
            HomeServer(app_id, home_database, registry, policy, keyring),
            nodes=nodes,
            # The oracle runner stays sequential either way; a wider
            # window only lets the faults exercise the pending map with
            # several slots free.
            pipeline=pipeline or 1,
            plan=plan,
            log=log,
            span_dir=trace_dir,
            **options,
        )

    kill_restart = Deployment.restart

    def home_database(self):
        """The live master copy (a raw :class:`Database` or a backend)."""
        return self.homes[0].database


class _Reference:
    """The trusted sequential model: one database, applied in ack order.

    A clone of the topology's pristine raw :class:`Database`
    (`reference_database`), whatever backend the live home runs on.
    """

    def __init__(self, database) -> None:
        self.database = database.clone()

    def execute(self, bound):
        return self.database.execute(bound.select)

    def apply(self, bound) -> int:
        return self.database.apply(bound.statement)


class ChaosRunner:
    """Replay a trace against a chaos topology, checking every answer.

    Page *p* is issued by client ``p % clients``, and every operation
    goes where the topology's placement sends it: client *i*'s node
    ``i % nodes`` (the cluster's CDN affinity), or on a **sharded**
    topology, exactly as a :class:`~repro.net.router.ShardRouter` would,
    the shard owning the query's placement key or the update's opaque id.
    Queries and updates are retried under one request id until they
    succeed — the home's idempotency log is what makes retry-until-ack
    safe — and after each acked update the runner waits until every
    non-origin node *the home will push to* has either applied the
    update's stream push or flushed its cache on a stream reconnect, so
    the next operation observes a converged system.  The placement's
    recipients are the home's (both are constraints-off); on a sharded
    topology, nodes outside them cannot hold affected views (they never
    admit keys they don't own), so skipping them is exactly as strong a
    check.
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
            page = self.trace.sample_page()
            for position, operation in enumerate(page):
                request_id = f"op-{page_index}-{position}"
                try:
                    if operation.is_update:
                        await self._run_update(
                            operation.bound, client_id, request_id, op_index
                        )
                    else:
                        await self._run_query(
                            operation.bound, client_id, request_id, op_index
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
        self, bound, client_id: int, request_id: str, op_index: int
    ) -> None:
        topology = self.topology
        level = topology.policy.query_level(bound.template.name)
        envelope = topology.codec.seal_query(bound, level)
        handle = topology.handle(
            topology.placement.query_node(envelope, client_id)
        )
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
        self, bound, client_id: int, request_id: str, op_index: int
    ) -> None:
        topology = self.topology
        level = topology.policy.update_level(bound.template.name)
        envelope = topology.codec.seal_update(bound, level)
        origin = topology.handle(
            topology.placement.update_node(envelope, client_id)
        )
        # On a sharded topology the home only pushes to shards owning an
        # affected template bucket; waiting on the others would be a
        # guaranteed timeout, and they cannot hold affected views anyway —
        # the no-admit gate kept them clean.
        recipients = topology.placement.recipients(envelope)
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
            if handle.name != origin.name and handle.name in recipients
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
                await eventually(
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
    clients: int = 4,
    pages: int | None = None,
    **topology_options,
) -> tuple[OracleReport, ChaosLog]:
    """Build a chaos topology, replay the trace, and tear everything down.

    ``topology_options`` are :class:`ChaosTopology`'s keywords (``nodes``,
    ``pipeline``, ``shards``, ``backend``, ``trace_dir``, ...).  Returns
    the oracle report and the fault log (whose :meth:`canonical` ordering
    is reproducible for a given plan seed).
    """
    topology = ChaosTopology(
        app_id,
        registry,
        database,
        policy,
        plan=plan,
        log=ChaosLog(),
        **topology_options,
    )
    async with topology:
        runner = ChaosRunner(topology, trace, clients=clients, pages=pages)
        report = await runner.run()
    return report, topology.log
