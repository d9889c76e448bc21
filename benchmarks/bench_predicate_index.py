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
and regression-gated in CI by ``benchmarks/check_predicate_index.py``:
the per-update check reduction and the on/off behavioral equality are
what the gate protects.
"""

from __future__ import annotations

import json

from repro.dssp import StrategyClass
from repro.simulation.scalability import measure_cache_behavior

from benchmarks.conftest import BENCH_PAGES, deploy, once
from tests.dssp.index_utils import sweep_reference

STRATEGIES = (StrategyClass.MSIS, StrategyClass.MVIS)
SEED = 5


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


def test_predicate_index_reduces_invalidation_cost(
    benchmark, emit, results_dir
):
    result = once(benchmark, _experiment)
    emit("predicate_index", _render(result))
    artifact = results_dir / "BENCH_predicate_index.json"
    artifact.write_text(json.dumps(result, indent=2) + "\n")

    for name, entry in result["strategies"].items():
        swept, indexed = entry["sweep"], entry["indexed"]
        # Pure cost optimization: observable behavior must match.
        assert indexed["hit_rate"] == swept["hit_rate"], name
        assert (
            indexed["invalidations_per_update"]
            == swept["invalidations_per_update"]
        ), name
        # The point of the index: fewer per-entry decisions per update.
        assert entry["check_reduction"] > 1.1, (name, entry)
        assert indexed["index_narrowed"] > 0, name
        assert indexed["index_postings"] > 0, name
