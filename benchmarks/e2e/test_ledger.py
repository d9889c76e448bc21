"""Pure-function tests of the benchmark's own arithmetic.

Not part of tier-1; run explicitly::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import pathlib

import pytest

from ledger import (
    add_forward_spans,
    adopt_orphans,
    build_ledger,
    percentile,
    self_times,
)
from loadgen import poisson_schedule
from metrics import END_TO_END, PER_LAYER
from run import GATED_WORKLOADS, RUN_SECONDS

ROOT = pathlib.Path(__file__).resolve().parents[2]


def span(name, start, end, parent=-1, rid=None, note=None):
    return [name, start, end, parent, rid, note]


# -- percentile ---------------------------------------------------------------


def test_percentile_interpolates_between_closest_ranks():
    samples = [40.0, 10.0, 30.0, 20.0]
    assert percentile(samples, 0.0) == 10.0
    assert percentile(samples, 1.0) == 40.0
    assert percentile(samples, 0.5) == 25.0
    assert percentile(samples, 0.25) == pytest.approx(17.5)
    assert percentile([7.0], 0.95) == 7.0


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 1.5)


# -- span self time -------------------------------------------------------------


def test_self_time_of_nested_spans():
    spans = [
        span("op", 0.0, 10.0),
        span("handle", 2.0, 8.0, parent=0),
        span("lookup", 3.0, 4.0, parent=1),
        span("admit", 6.0, 7.5, parent=1),
    ]
    selfs = self_times(spans, [s[3] for s in spans])
    assert selfs == pytest.approx([4.0, 3.5, 1.0, 1.5])


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        span("parent", 0.0, 10.0),
        span("a", 1.0, 5.0, parent=0),
        span("b", 4.0, 7.0, parent=0),  # overlaps a on [4, 5]
        span("c", 9.0, 12.0, parent=0),  # runs past the parent's end
    ]
    selfs = self_times(spans, [s[3] for s in spans])
    # covered: [1, 7] and [9, 10] -> 7 of 10
    assert selfs[0] == pytest.approx(3.0)


def test_orphans_are_adopted_by_the_tightest_span_with_their_request_id():
    spans = [
        span("op", 0.0, 10.0, rid="r1"),
        span("net.client.query", 1.0, 9.0, parent=0, rid="r1"),
        span("net.dssp_server.handle", 2.0, 8.0, rid="r1"),
        span("net.home_server.handle", 4.0, 6.0, rid="r1"),
        span("net.dssp_server.handle", 3.0, 5.0, rid="r2"),  # another request
        span("dssp.invalidation", 20.0, 21.0),  # stream apply: no id at all
    ]
    parents = adopt_orphans(spans)
    assert parents == [-1, 0, 1, 2, -1, -1]


def test_forward_span_covers_the_gap_between_lookup_and_admit():
    spans = [
        span("op", 0.0, 20.0, rid="r"),
        span("net.client.query", 1.0, 19.0, parent=0, rid="r"),
        span("net.dssp_server.handle", 2.0, 18.0, rid="r"),
        span("dssp.cache.lookup", 3.0, 4.0, parent=2),
        span("net.home_server.handle", 8.0, 11.0, rid="r"),
        span("dssp.cache.admit", 15.0, 16.0, parent=2),
    ]
    parents = adopt_orphans(spans)
    add_forward_spans(spans, parents)
    forward = spans[-1]
    assert forward[:4] == ["net.dssp_server.forward", 4.0, 15.0, 2]
    assert parents[4] == len(spans) - 1
    selfs = self_times(spans, parents)
    # handler: 16 long, minus lookup 1, forward 11, admit 1
    assert selfs[2] == pytest.approx(3.0)
    # forward: 11 long, minus the home's 3
    assert selfs[-1] == pytest.approx(8.0)


def test_ledger_lines_sum_to_the_client_observed_time():
    spans = [
        span("op", 0.0, 20.0, rid="r"),
        span("crypto.client_seal", 0.5, 1.0, parent=0),
        span("net.client.query", 1.0, 19.0, parent=0, rid="r"),
        span("net.dssp_server.handle", 2.0, 18.0, rid="r"),
        span("dssp.cache.lookup", 3.0, 4.0, parent=3),
        span("dssp.invalidation", 30.0, 32.0),  # orphan: in no op's ledger
    ]
    parents = adopt_orphans(spans)
    ledger = build_ledger(spans, parents, self_times(spans, parents), [])
    assert ledger.operations == 1
    assert sum(ledger.lines.values()) == pytest.approx(ledger.mean_op_s)
    assert ledger.lines["crypto"] == pytest.approx(0.5)
    assert ledger.lines["dssp.cache"] == pytest.approx(1.0)
    assert ledger.lines["net.dssp_server"] == pytest.approx(15.0)
    assert ledger.lines["dssp.invalidation"] == 0.0
    assert ledger.lines["transport"] == pytest.approx(3.5)
    assert ledger.named_share == pytest.approx(16.5 / 20.0)


# -- arrival schedule -------------------------------------------------------------


def test_schedule_is_a_pure_function_of_its_seed():
    first = poisson_schedule(120.0, 10.0, seed=7)
    assert first == poisson_schedule(120.0, 10.0, seed=7)
    assert first != poisson_schedule(120.0, 10.0, seed=8)
    assert len(first) == 1200
    assert first == sorted(first)
    assert 0.0 <= first[0] and first[-1] < 10.0


# -- BENCHMARK.json agrees with the code -----------------------------------------


def test_benchmark_json_lists_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["benchmarks/e2e"]
    assert spec["run_seconds"] == RUN_SECONDS
    assert [w["name"] for w in spec["workloads"]] == list(GATED_WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    ] == [tuple(m) for m in END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        m[:3] for m in PER_LAYER
    ]
