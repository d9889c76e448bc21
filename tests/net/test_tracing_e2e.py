"""End-to-end tracing over a live sharded cluster.

The PR's acceptance bar: a sharded, pipelined run must produce span logs
that assemble into at least one *complete cross-node* update trace
(client -> dssp -> home -> fan-out -> receiving shard's apply), whose
critical-path decomposition sums to within 10% of the measured
end-to-end latency.  A second test holds the exposure line: nothing in
the span logs or the Prometheus exposition may leak statement text,
bound parameters, or result rows.
"""

from __future__ import annotations

from repro.analysis.exposure import ExposurePolicy
from repro.dssp.invalidation import StrategyClass
from repro.dssp.placement import Placement
from repro.net import ShardRouter, eventually, run_chaos
from repro.net.chaos import FaultPlan
from repro.net.loadgen import TenantWorkload, run_load
from repro.obs import render_prometheus_fleet
from repro.obs.assemble import assemble, critical_path, load_spans
from repro.workloads.trace import Trace
from tests.net.test_end_to_end import Topology


def make_trace() -> Trace:
    return Trace(
        application="toystore",
        pages=[
            [("query", "Q2", [1]), ("query", "Q2", [2])],
            [("query", "Q2", [1]), ("update", "U1", [5]), ("query", "Q2", [5])],
            [("query", "Q1", ["toy3"]), ("query", "Q2", [2])],
            [("update", "U1", [6]), ("query", "Q2", [6])],
            [("query", "Q2", [3]), ("query", "Q2", [2])],
            [("query", "Q2", [4]), ("update", "U1", [7]), ("query", "Q3", [2])],
        ],
    )


#: Content that must never appear in any observability artifact: SQL
#: statement text, bound parameter values, and result-row values from
#: the toystore fixture data.
FORBIDDEN = (
    "SELECT",
    "DELETE",
    "INSERT",
    "WHERE",
    "toy_name",
    "toy3",  # a bound Q1 parameter in the trace
    "alice",  # a customers row value
    # The full dashed value, not the bare "4111" prefix: random hex
    # request ids (secrets.token_hex) occasionally contain any 4-digit
    # run, and ids are *supposed* to appear in span logs.
    "4111-1111",  # a credit_card row value
)


class TracedShardedTopology(Topology):
    """home + 2 routed DSSP nodes, every process tracing at rate 1.0.

    Unfiltered pushes: the nodes declare no shard topology, so the home
    pushes every update to the node that did not forward it.  On a
    declared ring dssp-0 owns U1, Q1 and Q2, every push would be
    filtered, and no cross-node trace could complete.
    """

    def __init__(self, registry, database, tmp_path) -> None:
        super().__init__(registry, database, pipeline=4, span_dir=tmp_path)

    @property
    def span_logs(self):
        return [recorder.sink.path for recorder in self.tracers.values()]

    async def __aenter__(self):
        await super().__aenter__()
        self.router = ShardRouter(
            Placement(self.placement.node_ids, sharded=True), self.clients
        )
        return self


class TestTracingEndToEnd:
    async def test_sharded_pipelined_run_assembles_complete_traces(
        self, simple_toystore, toystore_db, tmp_path
    ):
        top = TracedShardedTopology(
            simple_toystore, toystore_db.clone(), tmp_path
        )
        async with top:
            workload = TenantWorkload(
                "toystore",
                top.codec,
                top.policy,
                make_trace().bind(simple_toystore),
            )
            report = await run_load(
                [top.router],
                workload,
                clients=2,
                pages=6,
                pipeline=4,
            )
            assert report.errors == 0
            assert report.updates >= 3
            # Every update's push must have reached the non-origin shard
            # before the logs are judged, or the apply span is a race.
            applied = lambda: sum(
                server.stream_pushes_applied for server in top.servers
            ) >= report.updates
            await eventually(applied)
            prom_parts = [
                (
                    server.stats_snapshot()["metrics"],
                    {"node": server.server_id},
                )
                for server in [top.home_net, *top.servers]
            ]
            prom_text = render_prometheus_fleet(prom_parts)

        trees = assemble(load_spans(top.span_logs))
        assert trees, "no traces assembled from span logs"
        complete = [
            tree for tree in trees.values() if tree.is_complete_update()
        ]
        assert complete, (
            "no complete cross-node update trace; saw phase sets: "
            f"{[sorted(tree.names) for tree in trees.values()][:5]}"
        )
        # The acceptance bar: the critical-path self-times partition the
        # client-observed latency, so their sum matches it within 10%.
        for tree in complete:
            path = critical_path(tree)
            assert path["total_s"] > 0
            assert abs(path["covered_s"] - path["total_s"]) <= (
                0.10 * path["total_s"]
            ), path

        # A complete trace spans client, origin shard, home, and the
        # receiving shard.
        widest = max(complete, key=lambda tree: len(tree.node_ids))
        assert {"client", "home"} <= widest.node_ids
        assert {"dssp-0", "dssp-1"} & widest.node_ids

        # Exposure safety across every artifact of the run.
        for path in top.span_logs:
            text = path.read_text(encoding="utf-8")
            for token in FORBIDDEN:
                assert token not in text, (token, path)
        for token in FORBIDDEN:
            assert token not in prom_text, token

    async def test_prom_exposition_carries_per_node_series(
        self, simple_toystore, toystore_db, tmp_path
    ):
        top = TracedShardedTopology(
            simple_toystore, toystore_db.clone(), tmp_path
        )
        async with top:
            bound = simple_toystore.query("Q2").bind([1])
            level = top.policy.query_level("Q2")
            await top.router.query(top.codec.seal_query(bound, level))
            parts = [
                (
                    server.stats_snapshot()["metrics"],
                    {"node": server.server_id},
                )
                for server in [top.home_net, *top.servers]
            ]
            text = render_prometheus_fleet(parts)
        assert "# TYPE repro_server_requests_total counter" in text
        assert 'node="home"' in text
        assert 'node="dssp-0"' in text
        assert "repro_server_handle_seconds_bucket" in text


class TestChaosRunStaysExposureSafe:
    async def test_sharded_chaos_span_logs_leak_nothing(
        self, simple_toystore, toystore_db, tmp_path
    ):
        """Satellite 6: a full sharded chaos run (faults, kills, retries)
        writes span logs that carry no statement text, parameters, or
        rows — the artifact a DSSP operator could read is as blind as the
        DSSP itself."""
        policy = ExposurePolicy.uniform(
            simple_toystore, StrategyClass.MTIS.exposure_level
        )
        trace_dir = tmp_path / "chaos-spans"
        report, _ = await run_chaos(
            "toystore",
            simple_toystore,
            toystore_db.clone(),
            policy,
            make_trace(),
            FaultPlan(seed=23, kill_every=4, kill_targets=("dssp-1",)),
            nodes=2,
            clients=2,
            pages=6,
            shards=True,
            trace_dir=trace_dir,
            trace_sample=1.0,
        )
        assert report.ok, report.summary()
        span_files = sorted(trace_dir.glob("*.spans.jsonl"))
        assert span_files, "chaos run wrote no span logs"
        spans = load_spans(span_files)
        assert spans
        for path in span_files:
            text = path.read_text(encoding="utf-8")
            for token in FORBIDDEN:
                assert token not in text, (token, path)
        # The same logs still assemble: tracing survived kills/restarts.
        assert assemble(spans)
