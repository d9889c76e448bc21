"""Pipelined transport + batched fan-out: the throughput benchmark.

Measures the two halves of the concurrent hot path on a live localhost
topology (one home server, two DSSP nodes, asyncio sockets end to end):

* **Request pipelining** — the same recorded trace replayed serially
  (one request in flight per virtual client) and with ``pipeline=8``.  A
  fixed per-request service latency is injected at the DSSP servers via
  the deterministic fault hook, standing in for the WAN/database round
  trip the paper's deployment pays (Section 7): localhost RTTs are so
  small that raw socket replay is CPU-bound, which would measure the
  interpreter, not the protocol.  Under injected latency the serial
  client pays the stall once per request; the pipelined client overlaps
  up to ``window`` stalls per connection, which is exactly the claim.
* **Invalidation batch coalescing** — a burst of updates with distinct
  target rows fanned out to a subscriber once with batching (coalesce
  dwell enabled) and once with singleton frames, counting frames on the
  wire per delivered invalidation from the home's own push metrics.

The JSON artifact (``results/BENCH_net_pipeline.json``) is committed and
checked by this module's :func:`gate`: the pipelined speedup and the
batched frame ratio are regression-gated against this baseline, so a
transport change that quietly serializes the window or un-batches the
stream turns the build red.
"""

from __future__ import annotations

import asyncio

from repro.analysis.exposure import ExposurePolicy
from repro.crypto import Keyring
from repro.crypto.envelope import EnvelopeCodec
from repro.dssp import HomeServer
from repro.dssp.invalidation import StrategyClass
from repro.net import (
    Deployment,
    TenantWorkload,
    WireClient,
    eventually,
    run_load,
)
from repro.workloads import get_application
from repro.workloads.trace import Trace, record_trace

from benchmarks.conftest import BENCH_SCALE, once

APP = "bookstore"
PAGES = 200  # <= trace length: avoids INSERT-replay collisions on wrap
CLIENTS = 4
NODES = 2
PIPELINE = 8
#: Injected per-request service latency at each DSSP server (seconds).
#: Large against localhost RTT, small against the run: the workload is
#: latency-bound like the paper's, not interpreter-bound.
SERVICE_LATENCY_S = 0.02

#: Gate bounds.  The speedup floor is the pipelining claim itself; the
#: tolerance absorbs shared-runner noise but catches a serialized window.
SPEEDUP_FLOOR = 2.0
SPEEDUP_TOLERANCE = 0.6
#: Most frames per delivered invalidation the batched stream may send.
FANOUT_CEILING = 0.5

#: Fan-out measurement: one burst of updates, each hitting a different
#: item row, so every update produces a distinct invalidation.
FANOUT_BURST = 24
FANOUT_COALESCE_S = 0.05

MODES = (
    # name, pipeline window (None = one page in flight per virtual
    # client), batched fan-out
    ("serial", None, False),
    ("pipelined", PIPELINE, False),
    ("pipelined_batched", PIPELINE, True),
)


class _PushFraming(Deployment):
    """The benchmark's own home setting: how the fan-out is framed."""

    def __init__(self, *args, batched: bool, coalesce_s: float = 0.0, **kw):
        super().__init__(*args, **kw)
        self.batched = batched
        self.coalesce_s = coalesce_s

    def home_server(self, **options):
        return super().home_server(
            batch_pushes=self.batched,
            push_coalesce_s=self.coalesce_s,
            **options,
        )


def _home(spec):
    """A fresh home (the trace's updates mutate the master copy), its
    policy, and the clients' own codec."""
    policy = ExposurePolicy.uniform(
        spec.registry, StrategyClass.MVIS.exposure_level
    )
    instance = spec.instantiate(scale=BENCH_SCALE, seed=1)
    keyring = Keyring(APP, b"b" * 32)
    home = HomeServer(APP, instance.database, spec.registry, policy, keyring)
    return home, policy, EnvelopeCodec(keyring)


async def _measure_mode(spec, trace_json: str, pipeline, batched, **tracing):
    """One load run; ``tracing`` (``span_dir``, ``trace_sample``) goes to
    the deployment (``bench_tracing_overhead`` replays this same run)."""
    home, policy, codec = _home(spec)
    async with _PushFraming(
        home,
        nodes=NODES,
        service_latency_s=SERVICE_LATENCY_S,
        pipeline=pipeline,
        batched=batched,
        **tracing,
    ) as fleet:
        trace = Trace.from_json(trace_json).bind(spec.registry)
        report = await run_load(
            fleet.clients,
            TenantWorkload(APP, codec, policy, trace),
            clients=CLIENTS,
            pages=PAGES,
            pipeline=pipeline or 1,
        )
        return report.with_invalidations(fleet.sum_invalidations())


async def _measure_fanout(spec, *, batched: bool) -> dict:
    """Frames on the wire per delivered invalidation, one subscriber.

    A burst of ``setStock`` updates — each against a different item row —
    lands on the home back to back.  With coalescing the dwell drains the
    burst into few INVALIDATE_BATCH frames; without it every invalidation
    rides its own frame (ratio exactly 1.0).
    """
    home, policy, _ = _home(spec)
    async with _PushFraming(
        home,
        batched=batched,
        coalesce_s=FANOUT_COALESCE_S if batched else 0.0,
    ) as fleet:
        updater = WireClient(*fleet.home_net.address)
        try:
            template = spec.registry.update("setStock")
            for index in range(FANOUT_BURST):
                bound = template.bind([100 + index, index + 1])
                sealed = home.codec.seal_update(
                    bound, policy.update_level("setStock")
                )
                await updater.update(sealed, request_id=f"stock-{index}")
        finally:
            await updater.aclose()
        node_server = fleet.servers[0]
        await eventually(
            lambda: node_server.stream_pushes_applied >= FANOUT_BURST,
            what="the burst's delivery",
        )
        counters = fleet.home_net.metrics.snapshot()["counters"]
        frames = int(counters["home.push_frames"])
        delivered = int(counters["home.pushes_sent"])
        return {
            "invalidations": delivered,
            "frames": frames,
            "frames_per_invalidation": frames / delivered,
        }


def _experiment() -> dict:
    spec = get_application(APP)
    recorder = spec.instantiate(scale=BENCH_SCALE, seed=1)
    trace_json = record_trace(
        recorder.sampler, PAGES, seed=1, application=APP
    ).to_json()

    async def run_all():
        modes = {}
        for name, pipeline, batched in MODES:
            modes[name] = await _measure_mode(
                spec, trace_json, pipeline, batched
            )
        fanout = {
            "batched": await _measure_fanout(spec, batched=True),
            "unbatched": await _measure_fanout(spec, batched=False),
        }
        return modes, fanout

    modes, fanout = asyncio.run(run_all())
    serial = modes["serial"].throughput_pages_s
    return {
        "topology": {
            "application": APP,
            "scale": BENCH_SCALE,
            "pages": PAGES,
            "clients": CLIENTS,
            "nodes": NODES,
            "pipeline": PIPELINE,
            "service_latency_ms": SERVICE_LATENCY_S * 1000,
        },
        "modes": {
            name: {
                "pipeline": report.pipeline,
                "batched": name.endswith("batched"),
                "throughput_pages_s": report.throughput_pages_s,
                "p50_ms": report.p50_s * 1000,
                "p90_ms": report.p90_s * 1000,
                "p99_ms": report.p99_s * 1000,
                "hit_rate": report.hit_rate,
                "errors": report.errors,
                "invalidations": report.invalidations,
            }
            for name, report in modes.items()
        },
        "speedup_pipelined_vs_serial": (
            modes["pipelined"].throughput_pages_s / serial
        ),
        "speedup_batched_vs_serial": (
            modes["pipelined_batched"].throughput_pages_s / serial
        ),
        "fanout": fanout,
    }


def _render(result: dict) -> str:
    lines = [
        f"{'mode':<18} {'pipe':>4} {'thr/s':>8} {'p50 ms':>8} "
        f"{'p90 ms':>8} {'p99 ms':>8} {'hit rate':>9} {'errors':>7}",
        "-" * 76,
    ]
    for name, mode in result["modes"].items():
        lines.append(
            f"{name:<18} {mode['pipeline']:>4} "
            f"{mode['throughput_pages_s']:>8.1f} {mode['p50_ms']:>8.2f} "
            f"{mode['p90_ms']:>8.2f} {mode['p99_ms']:>8.2f} "
            f"{mode['hit_rate']:>9.3f} {mode['errors']:>7}"
        )
    lines.append("")
    lines.append(
        f"speedup pipelined vs serial: "
        f"{result['speedup_pipelined_vs_serial']:.2f}x"
    )
    for kind in ("batched", "unbatched"):
        fan = result["fanout"][kind]
        lines.append(
            f"fan-out {kind:<9}: {fan['frames']} frames / "
            f"{fan['invalidations']} invalidations = "
            f"{fan['frames_per_invalidation']:.3f} frames/invalidation"
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
    speedup = fresh["speedup_pipelined_vs_serial"]
    if speedup < SPEEDUP_FLOOR:
        failures.append(
            f"pipelined speedup {speedup:.2f}x is below the floor of "
            f"{SPEEDUP_FLOOR:.2f}x"
        )
    if baseline is not None:
        allowed = baseline["speedup_pipelined_vs_serial"] * SPEEDUP_TOLERANCE
        if speedup < allowed:
            failures.append(
                f"pipelined speedup {speedup:.2f}x regressed below "
                f"{allowed:.2f}x (baseline "
                f"{baseline['speedup_pipelined_vs_serial']:.2f}x x "
                f"{SPEEDUP_TOLERANCE})"
            )
    batched = fresh["fanout"]["batched"]["frames_per_invalidation"]
    unbatched = fresh["fanout"]["unbatched"]["frames_per_invalidation"]
    if unbatched != 1.0:
        failures.append(
            f"unbatched fan-out sent {unbatched:.3f} frames/invalidation, "
            "not exactly one"
        )
    if not batched < unbatched:
        failures.append(
            f"batched fan-out ({batched:.3f} frames/invalidation) is not "
            f"below unbatched ({unbatched:.3f})"
        )
    if batched > FANOUT_CEILING:
        failures.append(
            f"batched fan-out {batched:.3f} frames/invalidation exceeds "
            f"the ceiling of {FANOUT_CEILING:.3f}"
        )
    return failures


def test_net_pipeline(benchmark, emit, publish):
    result = once(benchmark, _experiment)
    emit("net_pipeline", _render(result))
    failures = gate(result, publish("net_pipeline", result))
    assert not failures, failures
