"""One workload, one fresh interpreter: the measured run or the traced run.

``run.py`` starts this file as a child process, so memo state, heap and
peak RSS never leak between workloads.  The last line of standard output
is one JSON object; everything before it is for people.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import logging
import os
import pathlib
import resource
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from repro.dssp import DsspNode  # noqa: E402

import deploy  # noqa: E402
from audit import replay_in_process, stale_view_audit  # noqa: E402
from layers import counter_deltas, counter_snapshot, per_layer_metrics  # noqa: E402
from ledger import percentile  # noqa: E402
from loadgen import poisson_schedule, run_closed, run_open  # noqa: E402
from spans import SpanLog, TracedDeployment  # noqa: E402


class _DeafNode(DsspNode):
    """Self-test: a node that never invalidates must fail the audit."""

    def invalidate_for(self, envelope):
        return 0


class _DeafDeployment(deploy.Deployment):
    def make_node(self, cache_capacity):
        return _DeafNode(cache_capacity=cache_capacity)


def _window(inputs, share: float = 1.0, schedule=None):
    """(warm pages, measured pages, schedule) for the first ``share`` of
    the measured range."""
    workload = inputs.workload
    warm = inputs.pages[: inputs.warm_pages]
    count = max(1, int(inputs.measured_pages * share))
    if workload.queries_only:
        cycle = inputs.pages
        measured = [cycle[i % len(cycle)] for i in range(count)]
    else:
        measured = inputs.pages[inputs.warm_pages : inputs.warm_pages + count]
    if schedule is not None:
        schedule = schedule[:count]
    return warm, measured, schedule


async def _warm_up(deployment, warm) -> None:
    result = await run_closed(deployment, warm, deployment.inputs.workload.lanes)
    if result.failed:
        raise RuntimeError(f"{result.failed} warm-up pages failed")
    for server in deployment.servers:
        server.node.stats.reset()


async def _drive(deployment, measured, schedule, log=None):
    workload = deployment.inputs.workload
    if workload.open_loop:
        return await run_open(deployment, measured, schedule, log=log)
    return await run_closed(deployment, measured, workload.lanes, log=log)


def _check_headroom(inputs) -> None:
    # A mixed trace that wraps replays its INSERTs, which collide with the
    # rows the first pass created and would be counted as failed pages.
    if inputs.headroom_pages < 0:
        raise SystemExit(
            f"recorded trace is {-inputs.headroom_pages} pages shorter than "
            f"warm + measured; refusing to start {inputs.workload.name}"
        )


async def measured_run(args, inputs, schedule) -> dict:
    """Untraced: set-up time, then the end-to-end metrics of the window."""
    warm, measured, schedule = _window(inputs, schedule=schedule)
    factory = _DeafDeployment if args.break_invalidation else deploy.Deployment
    deployment = factory(inputs)
    await deployment.start()
    try:
        await _warm_up(deployment, warm)
        setup_s = time.time() - args.spawned_at
        if args.setup_only:
            return {"setup_s": setup_s}
        result = await _drive(deployment, measured, schedule)
        problems = await stale_view_audit(deployment)
    finally:
        await deployment.stop()
    milliseconds = [sample * 1e3 for sample in result.latencies]
    metrics = {
        "setup_s": (setup_s, "s"),
        "pages_per_s": (result.completed / result.elapsed_s, "pages/s"),
        "page_p50_ms": (percentile(milliseconds, 0.50), "ms"),
        "page_p95_ms": (percentile(milliseconds, 0.95), "ms"),
        "cpu_ms_per_page": (result.cpu_s * 1e3 / result.completed, "ms"),
    }
    return {
        "metrics": metrics,
        "attempted": result.attempted,
        "failed": result.failed + result.dropped,
        "problems": problems,
        "window_s": result.elapsed_s,
    }


async def traced_run(args, inputs, schedule) -> dict:
    """The first fifth of the window three ways: untraced over the wire,
    traced over the wire, and through an in-process node."""
    workload = inputs.workload
    warm, measured, schedule = _window(inputs, 0.2, schedule)

    plain = deploy.Deployment(inputs)
    await plain.start()
    try:
        await _warm_up(plain, warm)
        untraced = await _drive(plain, measured, schedule)
    finally:
        await plain.stop()

    log = SpanLog()
    deployment = TracedDeployment(inputs, log)
    await deployment.start()
    try:
        await _warm_up(deployment, warm)
        log.reset()
        before = counter_snapshot(deployment)
        traced = await _drive(deployment, measured, schedule, log=log)
        await deployment.quiesce()
        spans = list(log.spans)
        frames = list(log.frames)
        if args.out:
            log.write_jsonl(args.out)
        observed = counter_deltas(deployment, before)
        problems = await stale_view_audit(deployment)
    finally:
        await deployment.stop()

    replay = None
    if workload.nodes == 1:
        replay = replay_in_process(inputs, warm + measured, len(warm))
        if not workload.open_loop:
            wire_counts = tuple(
                observed[name] for name in ("hits", "misses", "invalidations")
            )
            replay_counts = (replay.hits, replay.misses, replay.invalidations)
            if wire_counts != replay_counts:
                problems.append(
                    "hits/misses/invalidations over the wire "
                    f"{wire_counts} differ from the in-process replay "
                    f"{replay_counts}"
                )
    metrics, ledger = per_layer_metrics(
        inputs=inputs,
        untraced=untraced,
        traced=traced,
        spans=spans,
        frames=frames,
        counts=observed,
        replay=replay,
    )
    print(ledger.table())
    return {
        "metrics": metrics,
        "attempted": traced.attempted,
        "failed": traced.failed + traced.dropped + untraced.failed + untraced.dropped,
        "problems": problems,
        "window_s": traced.elapsed_s,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(deploy.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, default=time.time())
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--break-invalidation", action="store_true")
    parser.add_argument("--out", help="write the traced run's spans here (JSON lines)")
    args = parser.parse_args()

    logging.basicConfig(level=logging.ERROR)
    if hasattr(os, "sched_setaffinity"):
        # Client library, DSSP and home share one core (requests/s/core),
        # and a process that never migrates measures more steadily.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workload = deploy.WORKLOADS[args.workload]
    if args.smoke:
        workload = workload.smoke()
    schedule = None
    if workload.open_loop:
        schedule = poisson_schedule(
            workload.pages_per_second, args.seconds, args.seed
        )
    inputs = deploy.make_inputs(
        workload, args.seed, args.seconds, arrivals=len(schedule or ())
    )
    _check_headroom(inputs)
    run = traced_run if args.trace else measured_run
    outcome = asyncio.run(run(args, inputs, schedule))
    if args.setup_only:
        print(json.dumps(outcome))
        return 0
    if not args.trace:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        outcome["metrics"]["peak_rss_mb"] = (rss_kb / 1024.0, "MB")
    for problem in outcome["problems"][:5]:
        print(f"INCORRECT: {problem}", file=sys.stderr)
    if len(outcome["problems"]) > 5:
        print(f"... and {len(outcome['problems']) - 5} more", file=sys.stderr)
    for name, (value, unit) in outcome["metrics"].items():
        print(f"{args.workload:<12} {name:<48} {value:>14.4f} {unit}")
    print(f"{args.workload:<12} window lasted {outcome['window_s']:.2f} s")
    correct = not outcome["problems"]
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome["attempted"],
                "failed": outcome["failed"],
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome["metrics"].items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
