"""From one traced window to the per-layer metrics of ``metrics.PER_LAYER``.

Times come from the spans and the replayed frames; counts come from the
program's public statistics (``node.stats``, ``server.metrics``,
``client.metrics``) as deltas over the window.  README.md defines every
metric; the denominators are spelled out next to each line below.
"""

from __future__ import annotations

from ledger import (
    END,
    NAME,
    NOTE,
    PARENT,
    START,
    Ledger,
    add_forward_spans,
    adopt_orphans,
    build_ledger,
    percentile,
    replay_frames,
    self_times,
)
from metrics import PER_LAYER

__all__ = ["counter_deltas", "counter_snapshot", "per_layer_metrics"]

_HOME_COUNTERS = (
    "server.requests",
    "home.push_frames",
    "home.pushes_sent",
    "home.dedup_hits",
    "home.subscribers_dropped",
)
_DSSP_COUNTERS = ("server.requests", "server.shed")


def counter_snapshot(deployment) -> dict[str, float]:
    """The program's monotonic counters, summed over nodes, right now."""
    home = deployment.home_net.metrics
    counts = {f"home:{name}": home.counter(name).value for name in _HOME_COUNTERS}
    for name in _DSSP_COUNTERS:
        counts[f"dssp:{name}"] = sum(
            server.metrics.counter(name).value for server in deployment.servers
        )
    counts["client.retries"] = sum(
        client.metrics.counter("client.retries").value
        for client in deployment.clients
    )
    counts["pushes_applied"] = sum(
        server.stream_pushes_applied for server in deployment.servers
    )
    return counts


def counter_deltas(deployment, before: dict[str, float]) -> dict[str, float]:
    """What the window added to each counter, plus end-of-window state."""
    after = counter_snapshot(deployment)
    counts = {name: after[name] - before[name] for name in after}
    stats = [server.node.stats for server in deployment.servers]
    for name in (
        "hits",
        "misses",
        "evictions",
        "invalidations",
        "invalidation_checks",
        "index_narrowed",
    ):
        counts[name] = sum(getattr(s, name) for s in stats)
    counts["entries_end"] = sum(len(s.node.cache) for s in deployment.servers)
    counts["total_rows_end"] = deployment.home.database.total_rows()
    return counts


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _mean_us(by_name, name: str, *, self_time: bool = False) -> float:
    count, total, total_self = by_name.get(name, (0, 0.0, 0.0))
    return _ratio((total_self if self_time else total) * 1e6, count)


def _p50_us(durations: list[float]) -> float:
    return percentile(durations, 0.5) * 1e6 if durations else 0.0


def per_layer_metrics(
    *, inputs, untraced, traced, spans, frames, counts, replay
) -> tuple[dict[str, tuple[float, str]], Ledger]:
    parents = adopt_orphans(spans)
    add_forward_spans(spans, parents)
    selfs = self_times(spans, parents)
    costs = replay_frames(frames)
    ledger = build_ledger(spans, parents, selfs, costs)
    by_name = ledger.by_name

    def total_us(name: str) -> float:
        return by_name.get(name, (0, 0.0, 0.0))[1] * 1e6

    def count_of(name: str) -> int:
        return by_name.get(name, (0, 0.0, 0.0))[0]

    ops = ledger.operations
    pages = traced.completed
    updates = count_of("net.client.update")
    queries = count_of("net.client.query")
    misses = count_of("dssp.homeserver.serve_query")
    forwards = count_of("net.dssp_server.forward")

    hit_s, miss_s, update_s, applies, stream_applies, result_rows = [], [], [], [], [], []
    for span in spans:
        name = span[NAME]
        length = span[END] - span[START]
        if name == "net.client.query":
            (hit_s if span[NOTE] else miss_s).append(length)
        elif name == "net.client.update":
            update_s.append(length)
        elif name == "storage.apply":
            applies.append(length)
        elif name == "storage.execute" and span[NOTE] is not None:
            result_rows.append(span[NOTE])
        elif name == "dssp.invalidation" and span[PARENT] == -1:
            # Not inside a request handler: applied from the home's stream.
            stream_applies.append(length)
    decile = len(applies) // 10
    drift = (
        _ratio(sum(applies[-decile:]), sum(applies[:decile])) if decile else 0.0
    )

    requests = [c for c in costs if c.kind == "request"]
    responses = [c for c in costs if c.kind == "response"]
    statements = sum(c.statements for c in costs)

    if inputs.workload.open_loop:
        # The offered rate pins throughput, so compare CPU per page.
        overhead = 1.0 - _ratio(
            untraced.cpu_s / untraced.completed, traced.cpu_s / traced.completed
        )
    else:
        overhead = 1.0 - _ratio(
            traced.completed / traced.elapsed_s,
            untraced.completed / untraced.elapsed_s,
        )
    wire_tax = 0.0
    if replay is not None:
        wire_tax = (ledger.mean_op_s - replay.elapsed_s / replay.operations) * 1e6

    values = {
        # crypto: the four EnvelopeCodec call sites.
        "crypto.client_seal_us_per_op": _ratio(total_us("crypto.client_seal"), ops),
        "crypto.client_open_us_per_query": _ratio(
            total_us("crypto.client_open"), queries
        ),
        "crypto.home_open_us_per_forward": _ratio(
            total_us("crypto.home_open"), count_of("net.home_server.handle")
        ),
        "crypto.home_seal_result_us_per_miss": _ratio(
            total_us("crypto.home_seal_result"), misses
        ),
        # sql + net.wire: replayed offline from the captured frames.
        "sql.parse_us_per_statement": _ratio(
            sum(c.parse_s for c in costs) * 1e6, statements
        ),
        "sql.reparses_per_op": _ratio(statements, ops),
        "net.wire.request_decode_us": _ratio(
            sum(c.decode_s for c in requests) * 1e6, len(requests)
        ),
        "net.wire.response_decode_us": _ratio(
            sum(c.decode_s for c in responses) * 1e6, len(responses)
        ),
        "net.wire.encode_us_per_frame": _ratio(
            sum(c.encode_s for c in costs) * 1e6, len(costs)
        ),
        "net.wire.frames_per_op": _ratio(len(costs), ops),
        "net.wire.bytes_per_op": _ratio(sum(c.size for c in costs), ops),
        # net.client: WireClient.query / WireClient.update as the driver saw them.
        "net.client.hit_p50_us": _p50_us(hit_s),
        "net.client.miss_p50_us": _p50_us(miss_s),
        "net.client.update_p50_us": _p50_us(update_s),
        "net.client.page_p99_ms": percentile(untraced.latencies, 0.99) * 1e3,
        "net.client.retries_per_op": _ratio(counts["client.retries"], ops),
        "net.client.in_flight_mean": _ratio(
            sum(hit_s) + sum(miss_s) + sum(update_s), traced.elapsed_s
        ),
        # net.dssp_server: DsspNetServer.handle and the stream it applies.
        "net.dssp_server.handle_self_us_per_request": _mean_us(
            by_name, "net.dssp_server.handle", self_time=True
        ),
        "net.dssp_server.forward_wait_us_per_miss": _ratio(
            total_us("net.dssp_server.forward"), forwards
        ),
        "net.dssp_server.shed_share": _ratio(
            counts["dssp:server.shed"], counts["dssp:server.requests"]
        ),
        "net.dssp_server.stream_apply_us_per_push": _ratio(
            sum(stream_applies) * 1e6, len(stream_applies)
        ),
        "net.dssp_server.pushes_applied_per_update": _ratio(
            counts["pushes_applied"], updates
        ),
        # dssp.cache: DsspNode.lookup / DsspNode.admit.
        "dssp.cache.lookup_us": _mean_us(by_name, "dssp.cache.lookup"),
        "dssp.cache.admit_us": _mean_us(by_name, "dssp.cache.admit"),
        "dssp.cache.hit_rate": _ratio(
            counts["hits"], counts["hits"] + counts["misses"]
        ),
        "dssp.cache.evictions_per_kop": _ratio(counts["evictions"] * 1000.0, ops),
        "dssp.cache.entries_end": counts["entries_end"],
        # dssp.invalidation: DsspNode.invalidate_for on every node, per
        # client update (so a two-node fleet pays it twice).
        "dssp.invalidation.us_per_update": _ratio(
            total_us("dssp.invalidation"), updates
        ),
        "dssp.invalidation.checks_per_update": _ratio(
            counts["invalidation_checks"], updates
        ),
        "dssp.invalidation.invalidated_per_update": _ratio(
            counts["invalidations"], updates
        ),
        "dssp.invalidation.useful_check_share": _ratio(
            counts["invalidations"], counts["invalidation_checks"]
        ),
        "dssp.invalidation.index_narrowed_per_update": _ratio(
            counts["index_narrowed"], updates
        ),
        # net.home_server: HomeNetServer.handle and its fan-out.
        "net.home_server.requests_per_page": _ratio(
            counts["home:server.requests"], pages
        ),
        "net.home_server.handle_self_us_per_request": _mean_us(
            by_name, "net.home_server.handle", self_time=True
        ),
        "net.home_server.push_frames_per_update": _ratio(
            counts["home:home.push_frames"], updates
        ),
        "net.home_server.pushes_per_frame": _ratio(
            counts["home:home.pushes_sent"], counts["home:home.push_frames"]
        ),
        "net.home_server.dedup_hits": counts["home:home.dedup_hits"],
        "net.home_server.subscribers_dropped": counts[
            "home:home.subscribers_dropped"
        ],
        # dssp.homeserver: HomeServer.serve_query / apply_update less the
        # crypto and storage calls inside them.
        "dssp.homeserver.serve_query_self_us": _mean_us(
            by_name, "dssp.homeserver.serve_query", self_time=True
        ),
        "dssp.homeserver.apply_update_self_us": _mean_us(
            by_name, "dssp.homeserver.apply_update", self_time=True
        ),
        # storage: Database.execute / Database.apply.
        "storage.execute_us_per_query": _mean_us(by_name, "storage.execute"),
        "storage.apply_us_per_update": _mean_us(by_name, "storage.apply"),
        "storage.rows_per_result": _ratio(sum(result_rows), len(result_rows)),
        "storage.total_rows_end": counts["total_rows_end"],
        "storage.apply_us_drift": drift,
        # transport: what no named layer explains.
        "transport.residual_us_per_op": ledger.lines["transport"] * 1e6,
        "transport.named_share": ledger.named_share,
        "transport.wire_tax_us_per_op": wire_tax,
        # loadgen: validity of the run itself.
        "loadgen.sched_lag_p95_ms": (
            percentile(traced.sched_lag, 0.95) * 1e3 if traced.sched_lag else 0.0
        ),
        "loadgen.offered_pages": traced.attempted,
        "loadgen.dropped_pages": traced.dropped,
        "loadgen.failed_share": _ratio(
            traced.failed + traced.dropped, traced.attempted
        ),
        "loadgen.tracing_overhead_share": overhead,
        "loadgen.trace_headroom_pages": inputs.headroom_pages,
    }
    metrics = {
        name: (float(values[name]), unit) for name, unit, _, _ in PER_LAYER
    }
    return metrics, ledger
