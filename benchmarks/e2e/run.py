"""End-to-end benchmark of the DSSP wire stack: the one command.

Driver protocol (what ``BENCHMARK.json`` names)::

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

prints every metric by name with its unit and, as the last line of
standard output, one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` — the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.

Own modes::

    run.py --smoke                   every workload at a tenth of its pages
    run.py --repeat K --check-counts the whole set K times: spreads, counts
    run.py --self-test               a node that never invalidates must fail

Every workload runs in a fresh child interpreter (``child.py``); children
run one at a time.  See README.md for what is measured and why.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from metrics import COUNT_METRICS, END_TO_END  # noqa: E402

#: The workloads ``BENCHMARK.json`` gates on.
GATED_WORKLOADS = ("hot_reads", "paper_mix", "blind_mix", "inval_heavy")
#: ``open_mix`` runs in every mode but is not gated: an open loop amplifies
#: this box's speed drift beyond the widest bound (README.md has the data).
WORKLOADS = (*GATED_WORKLOADS, "open_mix")
#: Closed loops on one event loop repeat their counts exactly; the open
#: loop's pipelined requests complete in a timing-dependent order.
EXACT_COUNT_WORKLOADS = GATED_WORKLOADS
RUN_SECONDS = 10
#: Set-ups per measured run; ``setup_s`` is their median.
SETUPS = 3
CHILD_TIMEOUT_S = 170


class ChildFailed(RuntimeError):
    pass


def spawn(workload: str, seed: int, seconds: float, trace: int, *extra: str) -> dict:
    """Run ``child.py`` once; returns its result line (parsed)."""
    command = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--spawned-at", repr(time.time()),
        *extra,
    ]
    # A fixed hash seed keeps set and dict iteration order, and with it the
    # program's counts, identical from one child to the next.
    done = subprocess.run(
        command,
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        env={**os.environ, "PYTHONHASHSEED": "0"},
    )
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise ChildFailed(
            f"{workload}: child exited {done.returncode} without a result"
        ) from None
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    result["returncode"] = done.returncode
    return result


def run_workload(
    workload: str, seed: int, seconds: float, trace: int, *extra: str,
    setups: int = SETUPS,
) -> dict:
    """One benchmark run: the contract's result object for one workload."""
    setup_samples = []
    if not trace:
        for _ in range(setups - 1):
            setup_samples.append(
                spawn(workload, seed, seconds, 0, "--setup-only", *extra)["setup_s"]
            )
    result = spawn(workload, seed, seconds, trace, *extra)
    metrics = result["metrics"]
    if not trace:
        setup_samples.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setup_samples)
    return {
        "correct": bool(result["correct"]) and result["returncode"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def self_test(seed: int) -> bool:
    """The audit must catch a node whose ``invalidate_for`` does nothing."""
    result = spawn(
        "paper_mix", seed, RUN_SECONDS / 10, 0, "--smoke", "--break-invalidation"
    )
    caught = not result["correct"] and result["returncode"] != 0
    print(
        "self-test: do-nothing invalidation "
        + ("fails the audit, as it must" if caught else "PASSED THE AUDIT")
    )
    return caught


def _values(runs: list[dict], name: str) -> list[float]:
    return [run["metrics"][name]["value"] for run in runs]


def check_profile(traced: dict[str, dict]) -> list[str]:
    """The layer profile each workload was chosen for (full size only)."""

    def value(workload: str, name: str) -> float:
        return traced[workload]["metrics"][name]["value"]

    wrong = []
    for name in ("sql.reparses_per_op", "dssp.invalidation.checks_per_update"):
        if value("blind_mix", name) != 0:
            wrong.append(f"blind_mix {name} is not 0")
    for name in ("net.home_server.requests_per_page", "dssp.cache.evictions_per_kop"):
        if value("hot_reads", name) != 0:
            wrong.append(f"hot_reads {name} is not 0")
    if not value("paper_mix", "dssp.cache.evictions_per_kop") > 0:
        wrong.append("paper_mix never evicts")
    name = "dssp.invalidation.us_per_update"
    if value("inval_heavy", name) < 3 * value("paper_mix", name):
        wrong.append(f"inval_heavy {name} is under 3x paper_mix's")
    return wrong


def repeat(count: int, seed: int, seconds: float, check_counts: bool, smoke: bool) -> bool:
    """The whole set ``count`` times back to back; True if every check held."""
    extra = ("--smoke",) if smoke else ()
    measured = {name: [] for name in WORKLOADS}
    traced = {name: [] for name in WORKLOADS}
    ok = True
    for index in range(count):
        for name in WORKLOADS:
            for trace, runs in ((0, measured), (1, traced)):
                run = run_workload(
                    name, seed, seconds, trace, *extra, setups=1 if smoke else SETUPS
                )
                runs[name].append(run)
                if not run["correct"] or run["failed"]:
                    print(f"FAIL {name} repeat {index} trace {trace}: "
                          f"correct={run['correct']} failed={run['failed']}")
                    ok = False
    if count > 1:
        print(f"\n{'workload':<12} {'metric':<16} {'median':>10} {'min':>10} "
              f"{'max':>10} {'spread':>8} {'bound':>6}")
        for name in WORKLOADS:
            for metric, _, _, bound in END_TO_END:
                values = _values(measured[name], metric)
                median = statistics.median(values)
                spread = (max(values) - min(values)) / median
                over = spread > bound and not smoke
                gated = name in GATED_WORKLOADS
                verdict = ("  OVER" if gated else "  over (not gated)") if over else ""
                ok = ok and not (over and gated)
                print(f"{name:<12} {metric:<16} {median:>10.4f} {min(values):>10.4f} "
                      f"{max(values):>10.4f} {spread:>8.3f} {bound:>6.2f}{verdict}")
    if check_counts:
        for name in WORKLOADS:
            moved = [
                metric for metric in COUNT_METRICS
                if len(set(_values(traced[name], metric))) > 1
            ]
            if name in EXACT_COUNT_WORKLOADS:
                ok = ok and not moved
                print(f"counts {name}: " + (f"MOVED {moved}" if moved else "identical"))
            else:
                print(f"counts {name} (open loop, not asserted): "
                      f"{moved or 'identical'}")
    if not smoke:
        for problem in check_profile({n: runs[0] for n, runs in traced.items()}):
            print(f"PROFILE: {problem}")
            ok = False
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --trace 1: write spans here as JSON lines")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--repeat", type=int, metavar="K")
    parser.add_argument("--check-counts", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    try:
        if args.self_test:
            return 0 if self_test(args.seed) else 1
        if args.smoke:
            ok = repeat(1, args.seed, RUN_SECONDS / 10, args.check_counts, True)
            ok = self_test(args.seed) and ok
            print("smoke: " + ("ok" if ok else "FAILED"))
            return 0 if ok else 1
        if args.repeat:
            ok = repeat(args.repeat, args.seed, args.seconds, args.check_counts, False)
            print("repeat: " + ("every check held" if ok else "FAILED"))
            return 0 if ok else 1
        if not args.workload:
            parser.error("give --workload, --smoke, --repeat K or --self-test")
        extra = ("--out", args.out) if args.out and args.trace else ()
        result = run_workload(args.workload, args.seed, args.seconds, args.trace, *extra)
    except ChildFailed as failure:
        print(failure, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
