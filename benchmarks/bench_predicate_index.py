"""Extension — predicate-indexed invalidation vs the bucket sweep.

The invalidation engine's stmt/view-exposure cost is per-entry: every
update visits every resident entry of every non-independent template
bucket and runs the decision procedure.  The predicate index keys each
entry by its bound selection values, so an update visits only the
entries its pinned values could touch — O(affected) instead of
O(bucket) — while invalidating the *identical* set (the equivalence the
hypothesis suite proves).

This benchmark measures both arms on the Zipf bookstore workload at
``stmt`` and ``view`` exposure — the sweep arm is a node whose index
declines every lookup, so it runs the engine's real fallback branch:

* per-update decision cost (entries visited per update — the fan-out
  the index shrinks) and wall-clock invalidation time;
* hit rate and invalidations per update, which must *match* between
  arms (the index is a pure cost optimization).

The JSON artifact (``results/BENCH_predicate_index.json``) is committed
and regression-gated by this module's :func:`gate`: the per-update check
reduction and the on/off behavioral equality are what the gate protects.
"""

from __future__ import annotations

from repro.dssp import StrategyClass
from repro.simulation.scalability import measure_cache_behavior

from benchmarks.conftest import BENCH_PAGES, deploy, once
from tests.dssp.index_utils import sweep_reference

STRATEGIES = (StrategyClass.MSIS, StrategyClass.MVIS)
SEED = 5
#: Gate bounds: the least per-update check reduction, and the share of
#: the baseline's reduction a run must keep.
REDUCTION_FLOOR = 1.1
REDUCTION_TOLERANCE = 0.6


def _measure(strategy: StrategyClass, sweep: bool) -> dict:
    node, home, sampler = deploy("bookstore", strategy=strategy)
    if sweep:
        sweep_reference(node)
    behavior = measure_cache_behavior(
        node, home, sampler, pages=BENCH_PAGES, seed=SEED
    )
    stats = node.stats
    updates = stats.updates or 1
    return {
        "hit_rate": behavior.hit_rate,
        "invalidations_per_update": stats.invalidations / updates,
        "checks_per_update": stats.invalidation_checks / updates,
        "invalidation_time_s": stats.invalidation_time_s,
        "index_lookups": stats.index_lookups,
        "index_narrowed": stats.index_narrowed,
        "index_postings": node.cache.index_postings(),
    }


def _experiment() -> dict:
    result: dict = {"pages": BENCH_PAGES, "seed": SEED, "strategies": {}}
    for strategy in STRATEGIES:
        swept = _measure(strategy, sweep=True)
        indexed = _measure(strategy, sweep=False)
        result["strategies"][strategy.name] = {
            "sweep": swept,
            "indexed": indexed,
            "check_reduction": (
                swept["checks_per_update"]
                / max(indexed["checks_per_update"], 1e-9)
            ),
        }
    result["min_check_reduction"] = min(
        entry["check_reduction"] for entry in result["strategies"].values()
    )
    return result


def _render(result) -> str:
    lines = [
        f"{'strategy':>8} {'arm':>8} {'hit rate':>9} {'inval/upd':>10} "
        f"{'checks/upd':>11} {'narrowed':>9}",
        "-" * 62,
    ]
    for name, entry in result["strategies"].items():
        for arm in ("sweep", "indexed"):
            row = entry[arm]
            lines.append(
                f"{name:>8} {arm:>8} {row['hit_rate']:>9.3f} "
                f"{row['invalidations_per_update']:>10.3f} "
                f"{row['checks_per_update']:>11.2f} "
                f"{row['index_narrowed']:>9}"
            )
        lines.append(
            f"{name:>8} check reduction: {entry['check_reduction']:.2f}x"
        )
    return "\n".join(lines)


def gate(fresh: dict, baseline: dict | None) -> list[str]:
    """Every broken bound of a fresh run; ``baseline`` None skips the
    baseline-relative ones."""
    failures = []
    for name, entry in fresh["strategies"].items():
        swept, indexed = entry["sweep"], entry["indexed"]
        # Pure cost optimization: observable behavior must match.
        for metric in ("hit_rate", "invalidations_per_update"):
            if indexed[metric] != swept[metric]:
                failures.append(
                    f"{name}: {metric} diverged (indexed "
                    f"{indexed[metric]:.4f} vs sweep {swept[metric]:.4f}): "
                    "a behavioral bug, not a perf regression"
                )
        # The point of the index: fewer per-entry decisions per update.
        reduction = entry["check_reduction"]
        if not reduction > REDUCTION_FLOOR:
            failures.append(
                f"{name}: check reduction {reduction:.2f}x is not above "
                f"the floor of {REDUCTION_FLOOR:.2f}x"
            )
        if baseline is not None:
            base = baseline["strategies"][name]["check_reduction"]
            if reduction < base * REDUCTION_TOLERANCE:
                failures.append(
                    f"{name}: check reduction {reduction:.2f}x regressed "
                    f"below {base * REDUCTION_TOLERANCE:.2f}x (baseline "
                    f"{base:.2f}x x {REDUCTION_TOLERANCE})"
                )
        for counter in ("index_narrowed", "index_postings"):
            if not indexed[counter] > 0:
                failures.append(f"{name}: the index's {counter} is zero")
    return failures


def test_predicate_index_reduces_invalidation_cost(benchmark, emit, publish):
    result = once(benchmark, _experiment)
    emit("predicate_index", _render(result))
    failures = gate(result, publish("predicate_index", result))
    assert not failures, failures
