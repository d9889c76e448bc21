"""The benchmark gates, as pure functions over the committed baselines.

Each gated ``benchmarks/bench_<name>.py`` exposes ``gate(fresh, baseline)``:
its absolute bounds always apply, its baseline-relative bounds only when a
baseline is given.  The committed ``BENCH_<name>.json`` must pass against
itself, and every bound must fail — by name — when the one number it
guards is pushed past it.
"""

from __future__ import annotations

import importlib
import json
import pathlib

import pytest

RESULTS = pathlib.Path(__file__).parent.parent / "benchmarks" / "results"
BENCHES = (
    "net_pipeline",
    "tracing_overhead",
    "sharded_cluster",
    "predicate_index",
    "backend_storage",
    "traffic_scenarios",
)


def _module(bench: str):
    return importlib.import_module(f"benchmarks.bench_{bench}")


def _committed(bench: str) -> dict:
    return json.loads((RESULTS / f"BENCH_{bench}.json").read_text())


# (bench, the words the failure must contain, which document is edited,
#  the key path inside it, the new value or a function of the old one,
#  whether the bound is baseline-relative)
MUTATIONS = [
    ("net_pipeline", "errors", "fresh",
     ("modes", "serial", "errors"), 2, False),
    ("net_pipeline", "below the floor", "fresh",
     ("speedup_pipelined_vs_serial",), 1.99, False),
    ("net_pipeline", "regressed", "baseline",
     ("speedup_pipelined_vs_serial",), lambda v: v * 2, True),
    ("net_pipeline", "not exactly one", "fresh",
     ("fanout", "unbatched", "frames_per_invalidation"), 1.5, False),
    ("net_pipeline", "not below unbatched", "fresh",
     ("fanout", "batched", "frames_per_invalidation"), 1.0, False),
    ("net_pipeline", "exceeds the ceiling", "fresh",
     ("fanout", "batched", "frames_per_invalidation"), 0.51, False),
    ("tracing_overhead", "errors", "fresh",
     ("modes", "traced_1pct", "errors"), 1, False),
    ("tracing_overhead", "recorded 0 spans", "fresh",
     ("modes", "traced_1pct", "spans_recorded"), 0, False),
    ("tracing_overhead", "recorded 800 spans", "fresh",
     ("modes", "traced_1pct", "spans_recorded"), 800, False),
    ("tracing_overhead", "exceeds the ceiling", "fresh",
     ("overhead_fraction",), 0.051, False),
    ("tracing_overhead", "regressed", "baseline",
     ("throughput_ratio_traced_vs_untraced",), lambda v: v * 1.1, True),
    ("sharded_cluster", "parity", "fresh",
     ("partitioned", "1", "hit_rate"), lambda v: v + 0.021, False),
    ("sharded_cluster", "not non-decreasing", "fresh",
     ("sharded", "4", "hit_rate"), 0.2, False),
    ("sharded_cluster", "did not grow", "fresh",
     ("sharded", "1", "hit_rate"), 0.41, False),
    ("sharded_cluster", "did not dilute", "fresh",
     ("partitioned", "8", "hit_rate"), 0.172, False),
    ("sharded_cluster", "not above the floor", "fresh",
     ("sharded_gain_at_max",), 0.1, False),
    ("sharded_cluster", "regressed", "baseline",
     ("sharded_gain_at_max",), lambda v: v * 2, True),
    ("predicate_index", "MSIS: hit_rate diverged", "fresh",
     ("strategies", "MSIS", "indexed", "hit_rate"), lambda v: v + 1e-9,
     False),
    ("predicate_index", "MVIS: invalidations_per_update diverged", "fresh",
     ("strategies", "MVIS", "indexed", "invalidations_per_update"),
     lambda v: v + 1e-9, False),
    ("predicate_index", "MSIS: check reduction 1.10x is not above", "fresh",
     ("strategies", "MSIS", "check_reduction"), 1.1, False),
    ("predicate_index", "regressed", "baseline",
     ("strategies", "MVIS", "check_reduction"), lambda v: v * 2, True),
    ("predicate_index", "index_narrowed is zero", "fresh",
     ("strategies", "MSIS", "indexed", "index_narrowed"), 0, False),
    ("predicate_index", "index_postings is zero", "fresh",
     ("strategies", "MVIS", "indexed", "index_postings"), 0, False),
    ("backend_storage", "sqlite@1000000 rows_loaded", "fresh",
     ("tiers", "1000000", "sqlite", "rows_loaded"), 999_999, False),
    ("backend_storage", "memory@10000 updates_per_s is 0", "fresh",
     ("tiers", "10000", "memory", "updates_per_s"), 0, False),
    ("backend_storage", "sqlite@10000 ordered_queries_per_s", "baseline",
     ("tiers", "10000", "sqlite", "ordered_queries_per_s"),
     lambda v: v * 5, True),
    ("backend_storage", "memory point_queries_per_s", "fresh",
     ("tiers", "10000", "memory", "point_queries_per_s"), 30_000.0, False),
    ("traffic_scenarios", "not in the baseline", "baseline",
     ("steady_sweep", "points"), lambda points: points[:-1], True),
    ("traffic_scenarios", "digest drifted", "fresh",
     ("steady_sweep", "points", 0, "arrival", "digest"), "0" * 64, True),
    ("traffic_scenarios", "digests_reproduced_in_run", "fresh",
     ("digests_reproduced_in_run",), False, False),
    ("traffic_scenarios", "accounting identity", "fresh",
     ("steady_sweep", "points", 1, "dropped"), 1, False),
    ("traffic_scenarios", "finished with 1 errors", "fresh",
     ("steady_sweep", "points", 2, "errors"), 1, False),
    ("traffic_scenarios", "no knee", "fresh",
     ("steady_sweep", "knee_rate_s"), None, False),
    ("traffic_scenarios", "regressed", "baseline",
     ("steady_sweep", "knee_rate_s"), lambda v: v * 2.5, True),
    ("traffic_scenarios", "bracket saturation", "fresh",
     ("steady_sweep", "points", -1, "p99_s"), 0.5, False),
    ("traffic_scenarios", "hot arrivals", "fresh",
     ("flash_crowd", "arrival", "hot_count"), 0, False),
    ("traffic_scenarios", "flash crowd finished", "fresh",
     ("flash_crowd", "errors"), 1, False),
    ("traffic_scenarios", "fleet_shed_rate", "fresh",
     ("multi_tenant", "fleet_shed_rate"), 0.0, False),
    ("traffic_scenarios", "starved", "fresh",
     ("multi_tenant", "min_pages_served"), 0, False),
    ("traffic_scenarios", "shed rate gap", "fresh",
     ("multi_tenant", "max_shed_rate_gap"), 0.51, False),
]


def _mutated(bench, target, path, change):
    fresh, baseline = _committed(bench), _committed(bench)
    doc = fresh if target == "fresh" else baseline
    *parents, key = path
    for step in parents:
        doc = doc[step]
    doc[key] = change(doc[key]) if callable(change) else change
    return fresh, baseline


@pytest.mark.parametrize("bench", BENCHES)
def test_committed_baseline_passes_its_own_gate(bench):
    committed = _committed(bench)
    assert _module(bench).gate(committed, committed) == []
    assert _module(bench).gate(committed, None) == []


@pytest.mark.parametrize(
    "bench, names, target, path, change, relative",
    MUTATIONS,
    ids=[f"{m[0]}-{m[1]}-{m[2]}" for m in MUTATIONS],
)
def test_each_bound_fails_by_name(
    bench, names, target, path, change, relative
):
    fresh, baseline = _mutated(bench, target, path, change)
    gate = _module(bench).gate
    failures = gate(fresh, baseline)
    assert any(names in failure for failure in failures), failures
    # Without a baseline only the absolute rules run.
    unanchored = gate(fresh, None)
    assert any(names in failure for failure in unanchored) is not relative, (
        unanchored
    )
