"""The benchmark's metric catalogue: names, units, direction, bounds.

``BENCHMARK.json`` lists exactly these (``test_ledger.py`` checks the two
agree); README.md says what each one means and which layer moves it.
"""

from __future__ import annotations

__all__ = ["END_TO_END", "PER_LAYER", "COUNT_METRICS"]

#: (name, unit, better, bound).  README.md says why the time bounds are
#: 0.25 and not the 0.10 the metrics deserve.  ``failed_share`` is not
#: here: it is 0 on every workload and a bounded metric may never be 0, so
#: it is reported as ``loadgen.failed_share`` and through the result
#: line's ``failed``.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("pages_per_s", "pages/s", "higher", 0.25),
    ("page_p50_ms", "ms", "lower", 0.25),
    ("page_p95_ms", "ms", "lower", 0.25),
    ("cpu_ms_per_page", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
)

#: (name, unit, better, is_count).  Counts are read from the program's
#: public statistics and repeat exactly on the one-lane workloads.
PER_LAYER = (
    ("crypto.client_seal_us_per_op", "us", "lower", False),
    ("crypto.client_open_us_per_query", "us", "lower", False),
    ("crypto.home_open_us_per_forward", "us", "lower", False),
    ("crypto.home_seal_result_us_per_miss", "us", "lower", False),
    ("sql.parse_us_per_statement", "us", "lower", False),
    ("sql.reparses_per_op", "count", "lower", True),
    ("net.wire.request_decode_us", "us", "lower", False),
    ("net.wire.response_decode_us", "us", "lower", False),
    ("net.wire.encode_us_per_frame", "us", "lower", False),
    ("net.wire.frames_per_op", "count", "lower", True),
    ("net.wire.bytes_per_op", "bytes", "lower", True),
    ("net.client.hit_p50_us", "us", "lower", False),
    ("net.client.miss_p50_us", "us", "lower", False),
    ("net.client.update_p50_us", "us", "lower", False),
    ("net.client.page_p99_ms", "ms", "lower", False),
    ("net.client.retries_per_op", "count", "lower", True),
    ("net.client.in_flight_mean", "count", "lower", False),
    ("net.dssp_server.handle_self_us_per_request", "us", "lower", False),
    ("net.dssp_server.forward_wait_us_per_miss", "us", "lower", False),
    ("net.dssp_server.shed_share", "ratio", "lower", True),
    ("net.dssp_server.stream_apply_us_per_push", "us", "lower", False),
    ("net.dssp_server.pushes_applied_per_update", "count", "lower", True),
    ("dssp.cache.lookup_us", "us", "lower", False),
    ("dssp.cache.admit_us", "us", "lower", False),
    ("dssp.cache.hit_rate", "ratio", "higher", True),
    ("dssp.cache.evictions_per_kop", "count", "lower", True),
    ("dssp.cache.entries_end", "count", "lower", True),
    ("dssp.invalidation.us_per_update", "us", "lower", False),
    ("dssp.invalidation.checks_per_update", "count", "lower", True),
    ("dssp.invalidation.invalidated_per_update", "count", "lower", True),
    ("dssp.invalidation.useful_check_share", "ratio", "higher", True),
    ("dssp.invalidation.index_narrowed_per_update", "count", "higher", True),
    ("net.home_server.requests_per_page", "count", "lower", True),
    ("net.home_server.handle_self_us_per_request", "us", "lower", False),
    ("net.home_server.push_frames_per_update", "count", "lower", True),
    ("net.home_server.pushes_per_frame", "count", "higher", True),
    ("net.home_server.dedup_hits", "count", "lower", True),
    ("net.home_server.subscribers_dropped", "count", "lower", True),
    ("dssp.homeserver.serve_query_self_us", "us", "lower", False),
    ("dssp.homeserver.apply_update_self_us", "us", "lower", False),
    ("storage.execute_us_per_query", "us", "lower", False),
    ("storage.apply_us_per_update", "us", "lower", False),
    ("storage.rows_per_result", "count", "lower", True),
    ("storage.total_rows_end", "count", "lower", True),
    ("storage.apply_us_drift", "ratio", "lower", False),
    ("transport.residual_us_per_op", "us", "lower", False),
    ("transport.named_share", "ratio", "higher", False),
    ("transport.wire_tax_us_per_op", "us", "lower", False),
    ("loadgen.sched_lag_p95_ms", "ms", "lower", False),
    ("loadgen.offered_pages", "count", "higher", True),
    ("loadgen.dropped_pages", "count", "lower", True),
    ("loadgen.failed_share", "ratio", "lower", True),
    ("loadgen.tracing_overhead_share", "ratio", "lower", False),
    ("loadgen.trace_headroom_pages", "count", "higher", True),
)

COUNT_METRICS = tuple(name for name, _, _, is_count in PER_LAYER if is_count)
