"""Tracing overhead: the span recorder must be free when head-sampled.

Replays the same recorded trace over the live localhost topology from
``bench_net_pipeline`` (one home, two DSSP nodes, pipelined clients,
injected per-request service latency so the run is latency-bound like
the paper's deployment) twice:

* **untraced** — no recorder anywhere; the baseline throughput.
* **traced_1pct** — every process (client, both DSSP nodes, home) runs a
  :class:`~repro.obs.trace.SpanRecorder` at 1% head sampling writing
  JSON-lines span logs, the configuration a production fleet would run.

The claim under gate: at 1% sampling the traced run keeps >= 95% of the
untraced throughput.  Head sampling decides per trace id before any span
object exists, so 99% of requests pay one hash and a context-variable
read — the instrumentation must not tax the hot path it observes.

The JSON artifact (``results/BENCH_tracing_overhead.json``) is committed
and checked by this module's :func:`gate`.
"""

from __future__ import annotations

import asyncio
import tempfile
from pathlib import Path

from repro.workloads import get_application
from repro.workloads.trace import record_trace

from benchmarks.bench_net_pipeline import (
    APP,
    CLIENTS,
    NODES,
    PAGES,
    PIPELINE,
    SERVICE_LATENCY_S,
    _measure_mode,
)
from benchmarks.conftest import BENCH_SCALE, once

SAMPLE_RATE = 0.01
#: Interleaved rounds per mode; the best round is kept.  Run-to-run
#: drift on a shared host (several percent, monotone within a process)
#: exceeds the effect under measurement, so a single untraced-then-
#: traced pass would attribute the drift to the recorder.  Alternating
#: the modes and keeping each mode's best round cancels it.
ROUNDS = 2
#: Gate bounds: the <= 5% overhead claim, and the share of the baseline's
#: traced/untraced ratio a run must keep (catches a recorder that got
#: expensive while still under the absolute claim).
OVERHEAD_CEILING = 0.05
RATIO_TOLERANCE = 0.93


async def _measure(spec, trace_json: str, span_dir: Path | None):
    """One full load run; ``span_dir`` None means tracing disabled."""
    report = await _measure_mode(
        spec,
        trace_json,
        PIPELINE,
        batched=True,
        span_dir=span_dir,
        trace_sample=SAMPLE_RATE,
    )
    spans = 0
    if span_dir is not None:
        spans = sum(
            len(path.read_text().splitlines())
            for path in span_dir.glob("*.spans.jsonl")
        )
    return report, spans


def _experiment() -> dict:
    spec = get_application(APP)
    recorder = spec.instantiate(scale=BENCH_SCALE, seed=1)
    trace_json = record_trace(
        recorder.sampler, PAGES, seed=1, application=APP
    ).to_json()

    async def run_rounds():
        untraced_rounds, traced_rounds = [], []
        for _ in range(ROUNDS):
            report, _ = await _measure(spec, trace_json, None)
            untraced_rounds.append(report)
            with tempfile.TemporaryDirectory() as tmp:
                report, counted = await _measure(spec, trace_json, Path(tmp))
            traced_rounds.append((report, counted))
        best_untraced = max(
            untraced_rounds, key=lambda report: report.throughput_pages_s
        )
        best_traced, spans = max(
            traced_rounds,
            key=lambda pair: pair[0].throughput_pages_s,
        )
        return best_untraced, best_traced, spans

    untraced, traced, spans = asyncio.run(run_rounds())
    ratio = traced.throughput_pages_s / untraced.throughput_pages_s
    return {
        "topology": {
            "application": APP,
            "scale": BENCH_SCALE,
            "pages": PAGES,
            "clients": CLIENTS,
            "nodes": NODES,
            "pipeline": PIPELINE,
            "service_latency_ms": SERVICE_LATENCY_S * 1000,
            "sample_rate": SAMPLE_RATE,
        },
        "modes": {
            "untraced": {
                "throughput_pages_s": untraced.throughput_pages_s,
                "p50_ms": untraced.p50_s * 1000,
                "p99_ms": untraced.p99_s * 1000,
                "errors": untraced.errors,
            },
            "traced_1pct": {
                "throughput_pages_s": traced.throughput_pages_s,
                "p50_ms": traced.p50_s * 1000,
                "p99_ms": traced.p99_s * 1000,
                "errors": traced.errors,
                "spans_recorded": spans,
            },
        },
        "throughput_ratio_traced_vs_untraced": ratio,
        "overhead_fraction": 1.0 - ratio,
    }


def _render(result: dict) -> str:
    lines = [
        f"{'mode':<14} {'thr/s':>8} {'p50 ms':>8} {'p99 ms':>8} "
        f"{'errors':>7} {'spans':>7}",
        "-" * 58,
    ]
    for name, mode in result["modes"].items():
        lines.append(
            f"{name:<14} {mode['throughput_pages_s']:>8.1f} "
            f"{mode['p50_ms']:>8.2f} {mode['p99_ms']:>8.2f} "
            f"{mode['errors']:>7} {mode.get('spans_recorded', 0):>7}"
        )
    lines.append("")
    lines.append(
        f"traced/untraced throughput ratio: "
        f"{result['throughput_ratio_traced_vs_untraced']:.3f} "
        f"(overhead {result['overhead_fraction'] * 100:.1f}%)"
    )
    return "\n".join(lines)


def gate(fresh: dict, baseline: dict | None) -> list[str]:
    """Every broken bound of a fresh run; ``baseline`` None skips the
    baseline-relative ones."""
    failures = [
        f"mode {name!r} finished with {mode['errors']} errors"
        for name, mode in fresh["modes"].items()
        if mode["errors"]
    ]
    # 1% sampling really sampled: some spans, far fewer than one per
    # request (a full-rate run records several spans per request).
    spans = fresh["modes"]["traced_1pct"]["spans_recorded"]
    requests = PAGES * CLIENTS
    if not 0 < spans < requests:
        failures.append(
            f"traced run recorded {spans} spans, outside (0, {requests}): "
            "the recorder is off or not head-sampling"
        )
    overhead = fresh["overhead_fraction"]
    if overhead > OVERHEAD_CEILING:
        failures.append(
            f"tracing overhead {overhead:.1%} exceeds the ceiling of "
            f"{OVERHEAD_CEILING:.0%}"
        )
    if baseline is not None:
        ratio = fresh["throughput_ratio_traced_vs_untraced"]
        base = baseline["throughput_ratio_traced_vs_untraced"]
        if ratio < base * RATIO_TOLERANCE:
            failures.append(
                f"throughput ratio {ratio:.3f} regressed below "
                f"{base * RATIO_TOLERANCE:.3f} (baseline {base:.3f} x "
                f"{RATIO_TOLERANCE})"
            )
    return failures


def test_tracing_overhead(benchmark, emit, publish):
    result = once(benchmark, _experiment)
    emit("tracing_overhead", _render(result))
    failures = gate(result, publish("tracing_overhead", result))
    assert not failures, failures
