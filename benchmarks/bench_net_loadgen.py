"""Measured scalability of the *networked* DSSP, per strategy class.

Stands up a real localhost topology — one home server, two DSSP nodes,
asyncio sockets end to end — and drives it with the closed-loop load
generator, replaying one shared recorded trace for every strategy class
so the operation streams are identical.

Two things to see in the table:

* the measured hit-rate gradient matches the in-process experiments
  (``MVIS >= MSIS >= MTIS >= MBS``) — the service layer preserves the
  paper's invalidation semantics;
* each measured run's :class:`CacheBehavior` feeds ``predict_p90``, tying
  live socket measurements back to the analytic model of Figure 8.

Localhost latencies are not the paper's WAN latencies, so the analytic
p90 column is in model units — the cross-check is that it *computes* from
measured behavior, not that it equals wall-clock time.
"""

from __future__ import annotations

import asyncio

from repro.analysis.exposure import ExposurePolicy
from repro.crypto import Keyring
from repro.crypto.envelope import EnvelopeCodec
from repro.dssp import HomeServer
from repro.net import Deployment, TenantWorkload, run_load
from repro.simulation.scalability import find_scalability, predict_p90
from repro.workloads import get_application
from repro.workloads.trace import Trace, record_trace

from benchmarks.conftest import BENCH_SCALE, STRATEGY_ORDER, once

APP = "bookstore"
PAGES = 300  # <= trace length: avoids INSERT-replay collisions on wrap
CLIENTS = 8
NODES = 2
USERS_FOR_MODEL = 100


async def _measure_strategy(strategy, spec, trace_json: str):
    level = strategy.exposure_level
    policy = ExposurePolicy.uniform(spec.registry, level)
    keyring = Keyring(APP, b"b" * 32)
    # Fresh data per strategy: the trace's updates mutate the master copy.
    instance = spec.instantiate(scale=BENCH_SCALE, seed=1)
    home = HomeServer(APP, instance.database, spec.registry, policy, keyring)
    async with Deployment(home, nodes=NODES) as fleet:
        trace = Trace.from_json(trace_json).bind(spec.registry)
        workload = TenantWorkload(APP, EnvelopeCodec(keyring), policy, trace)
        report = await run_load(
            fleet.clients, workload, clients=CLIENTS, pages=PAGES
        )
        return report.with_invalidations(fleet.sum_invalidations())


def _sweep():
    spec = get_application(APP)
    recorder = spec.instantiate(scale=BENCH_SCALE, seed=1)
    trace_json = record_trace(
        recorder.sampler, PAGES, seed=1, application=APP
    ).to_json()

    async def run_all():
        results = {}
        for strategy in STRATEGY_ORDER:
            results[strategy] = await _measure_strategy(
                strategy, spec, trace_json
            )
        return results

    return asyncio.run(run_all())


def _render(results, sim_params) -> str:
    lines = [
        f"{'strategy':<6} {'pages':>6} {'thr/s':>8} {'p50 ms':>8} "
        f"{'p90 ms':>8} {'hit rate':>9} {'errors':>7} {'model p90 s':>12} "
        f"{'model users':>12}",
        "-" * 85,
    ]
    for strategy, report in results.items():
        behavior = report.behavior()
        model_p90 = predict_p90(USERS_FOR_MODEL, sim_params, behavior)
        users = find_scalability(sim_params, behavior)
        lines.append(
            f"{strategy.name:<6} {report.pages:>6} "
            f"{report.throughput_pages_s:>8.1f} "
            f"{report.p50_s * 1000:>8.2f} {report.p90_s * 1000:>8.2f} "
            f"{report.hit_rate:>9.3f} {report.errors:>7} "
            f"{model_p90:>12.3f} {users:>12}"
        )
    return "\n".join(lines)


def test_net_loadgen_strategies(benchmark, emit, sim_params):
    results = once(benchmark, _sweep)
    emit("net_loadgen_strategies", _render(results, sim_params))

    for report in results.values():
        assert report.pages > 0
        assert report.queries > 0
        # The page budget never wraps the trace, so every operation must
        # succeed — any error would be a service-layer defect.
        assert report.errors == 0

    # The networked deployment must preserve the paper's headline signal:
    # fine-grained invalidation keeps far more of the cache than blind
    # invalidation.  (Concurrent socket replay makes the *exact* ordering
    # among the three fine strategies noisy, unlike the deterministic
    # in-process sweep of bench_fig8, so only the robust gap is asserted.)
    blind = results[STRATEGY_ORDER[-1]]
    for strategy in STRATEGY_ORDER[:-1]:
        assert results[strategy].hit_rate > 3 * blind.hit_rate, strategy

    # Measured behavior plugs into the analytic model: the "max users in
    # SLA" search must rank fine-grained strategies above blind.
    scalability = {
        s: find_scalability(sim_params, results[s].behavior())
        for s in STRATEGY_ORDER
    }
    for strategy in STRATEGY_ORDER[:-1]:
        assert scalability[strategy] > scalability[STRATEGY_ORDER[-1]], (
            scalability
        )
