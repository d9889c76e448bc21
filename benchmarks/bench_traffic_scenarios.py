"""Traffic scenarios: the knee curve, measured open-loop (ISSUE PR 10).

A closed-loop generator self-throttles: when the service slows down the
clients stop asking, so the measured throughput follows capacity and the
overload region is invisible.  This benchmark drives the live localhost
topology *open-loop* — requests launch on a seeded arrival schedule
whether or not earlier ones finished — so offered load is an independent
variable and the knee (the last offered rate whose p99 still holds the
deadline) is a real, measurable point.

Three measurements land in ``results/BENCH_traffic_scenarios.json``:

* **steady knee sweep** — Poisson arrivals at ascending rates over one
  deployment with an injected per-request service latency; the sweep
  reports p50/p90/p99, offered vs achieved rate, and drop rate per
  point, and the detected knee.
* **flash crowd** — the mid-run spike concentrated on the hottest query
  template; headline books plus the schedule's hot-arrival count.
* **multi-tenant fairness** — one heavy + three light applications on a
  deliberately small DSSP at ~2x capacity; per-app served/shed books
  prove shedding is tenant-blind.

Reproducibility is part of the artifact: every point carries its arrival
schedule's sha256 digest, and the digest is regenerated in-run to prove
the process is a pure function of (kind, rate, seed, duration).  The
committed baseline is gated by this module's :func:`gate`: the digests
must match the baseline *exactly* (same seed ⇒ same schedule, byte for
byte, on any machine), the knee must still be detected, and it must not
regress below tolerance.
"""

from __future__ import annotations

import asyncio

from repro.net.scenarios import (
    deploy_scenario,
    run_scenario,
    scenario_arrivals,
    sweep_scenario,
)
from repro.obs import per_app_counters

from benchmarks.conftest import BENCH_SCALE, once

SEED = 31
#: Ascending offered rates for the steady sweep (pages/s).  Chosen so the
#: low end sits far under capacity and the high end far past it: the knee
#: must land strictly inside the sweep on any plausible runner.
SWEEP_RATES = [20.0, 40.0, 80.0, 160.0, 320.0]
SWEEP_DURATION_S = 1.5
#: Page deadline for knee detection.  The injected service latency puts
#: a sub-capacity page's p99 at 0.16-0.39 s across the grid (the 160/s
#: point queues transiently near capacity), so the deadline clears every
#: sub-capacity point with real headroom while the saturated 320/s point
#: (measured p99 ~0.7 s, a third of arrivals dropped) blows it cleanly.
DEADLINE_S = 0.50
SERVICE_LATENCY_S = 0.02
#: Past this many launched-but-unfinished pages the open loop drops new
#: arrivals (and says so in the books) instead of queueing unboundedly.
MAX_OUTSTANDING = 64

FLASH_RATE = 30.0
FLASH_DURATION_S = 1.5

TENANT_RATE = 220.0
TENANT_DURATION_S = 2.0

#: Gate bounds: the share of the baseline's knee a run must keep (one
#: grid step of runner noise passes, two fail), and the widest gap
#: between any tenant's shed rate and the fleet's.
KNEE_TOLERANCE = 0.45
SHED_GAP_CEILING = 0.5


async def _steady_sweep() -> dict:
    deployment = await deploy_scenario(
        "steady",
        scale=BENCH_SCALE,
        seed=SEED,
        trace_pages=1200,
        service_latency_s=SERVICE_LATENCY_S,
    )
    try:
        return await sweep_scenario(
            deployment,
            rates=SWEEP_RATES,
            duration_s=SWEEP_DURATION_S,
            deadline_s=DEADLINE_S,
            max_outstanding=MAX_OUTSTANDING,
        )
    finally:
        await deployment.stop()


async def _flash_crowd() -> dict:
    deployment = await deploy_scenario(
        "flash_crowd",
        scale=BENCH_SCALE,
        seed=SEED,
        trace_pages=300,
        service_latency_s=SERVICE_LATENCY_S,
    )
    try:
        report = await run_scenario(
            deployment,
            rate=FLASH_RATE,
            duration_s=FLASH_DURATION_S,
            max_outstanding=MAX_OUTSTANDING,
        )
    finally:
        await deployment.stop()
    return report.to_dict()


async def _multi_tenant() -> dict:
    deployment = await deploy_scenario(
        "multi_tenant",
        scale=BENCH_SCALE,
        seed=SEED,
        trace_pages=700,
        service_latency_s=0.01,
        max_in_flight=4,
    )
    try:
        report = await run_scenario(
            deployment,
            rate=TENANT_RATE,
            duration_s=TENANT_DURATION_S,
            max_outstanding=96,
        )
        snapshot = deployment.server_snapshot()
    finally:
        await deployment.stop()
    served = per_app_counters(snapshot, "server.app_requests")
    shed = per_app_counters(snapshot, "server.app_shed")
    total_requests = sum(served.values()) or 1.0
    fleet_shed_rate = sum(shed.values()) / total_requests
    shed_rates = {
        app: shed.get(app, 0.0) / served[app] for app in sorted(served)
    }
    return {
        "report": report.to_dict(),
        "server_requests": {k: int(v) for k, v in sorted(served.items())},
        "server_shed": {k: int(v) for k, v in sorted(shed.items())},
        "fleet_shed_rate": fleet_shed_rate,
        "max_shed_rate_gap": max(
            (abs(rate - fleet_shed_rate) for rate in shed_rates.values()),
            default=0.0,
        ),
        "min_pages_served": min(
            books["pages"] for books in report.per_app.values()
        ),
    }


def _regenerate_digests() -> dict[str, str]:
    """The sweep's schedules, regenerated from scratch.

    Compared against the in-run points here and, by :func:`gate`, against
    the committed baseline: equality proves the arrival process is a pure
    function of (kind, rate, seed, duration), i.e. the schedule is
    reproducible byte for byte.
    """
    return {
        f"{rate:g}": scenario_arrivals("steady", rate, SEED)
        .schedule(SWEEP_DURATION_S)
        .digest()
        for rate in SWEEP_RATES
    }


def _experiment() -> dict:
    async def run_all():
        return (
            await _steady_sweep(),
            await _flash_crowd(),
            await _multi_tenant(),
        )

    sweep, flash, tenants = asyncio.run(run_all())
    digests = _regenerate_digests()
    return {
        "config": {
            "seed": SEED,
            "scale": BENCH_SCALE,
            "rates": SWEEP_RATES,
            "duration_s": SWEEP_DURATION_S,
            "deadline_s": DEADLINE_S,
            "service_latency_ms": SERVICE_LATENCY_S * 1000,
            "max_outstanding": MAX_OUTSTANDING,
        },
        "steady_sweep": sweep,
        "schedule_digests": digests,
        "digests_reproduced_in_run": all(
            point["arrival"]["digest"] == digests[f"{point['rate']:g}"]
            for point in sweep["points"]
        ),
        "flash_crowd": flash,
        "multi_tenant": tenants,
    }


def _render(result: dict) -> str:
    sweep = result["steady_sweep"]
    lines = [
        f"{'rate/s':>7} {'offered/s':>10} {'achieved/s':>11} "
        f"{'drop%':>6} {'p50 ms':>8} {'p90 ms':>8} {'p99 ms':>8}",
        "-" * 64,
    ]
    for point in sweep["points"]:
        lines.append(
            f"{point['rate']:>7.0f} {point['offered_rate_s']:>10.1f} "
            f"{point['achieved_rate_s']:>11.1f} "
            f"{point['drop_rate'] * 100:>6.1f} "
            f"{point['p50_s'] * 1000:>8.1f} {point['p90_s'] * 1000:>8.1f} "
            f"{point['p99_s'] * 1000:>8.1f}"
        )
    lines.append("")
    knee = sweep["knee_rate_s"]
    lines.append(
        f"knee: {knee:.1f}/s offered with p99 <= "
        f"{sweep['deadline_s'] * 1000:.0f} ms"
        if knee is not None
        else "knee: not detected"
    )
    flash = result["flash_crowd"]
    lines.append(
        f"flash crowd: {flash['pages']} pages, "
        f"{flash['arrival']['hot_count']} hot arrivals, "
        f"p99 {flash['p99_s'] * 1000:.1f} ms"
    )
    tenants = result["multi_tenant"]
    lines.append(
        f"multi-tenant: fleet shed rate "
        f"{tenants['fleet_shed_rate']:.3f}, max per-app gap "
        f"{tenants['max_shed_rate_gap']:.3f}, min pages served "
        f"{tenants['min_pages_served']}"
    )
    return "\n".join(lines)


def gate(fresh: dict, baseline: dict | None) -> list[str]:
    """Every broken bound of a fresh run; ``baseline`` None skips the
    baseline-relative ones."""
    failures = []
    sweep = fresh["steady_sweep"]
    if baseline is not None:
        committed = {
            f"{p['rate']:g}": p["arrival"]["digest"]
            for p in baseline["steady_sweep"]["points"]
        }
        for point in sweep["points"]:
            rate = f"{point['rate']:g}"
            if rate not in committed:
                failures.append(f"rate {rate}/s not in the baseline")
            elif point["arrival"]["digest"] != committed[rate]:
                failures.append(
                    f"schedule digest drifted at {rate}/s: the same seed no "
                    "longer reproduces the committed arrival schedule"
                )
    # Same seed ⇒ same schedule, regenerated inside this very run.
    if not fresh["digests_reproduced_in_run"]:
        failures.append(
            "digests_reproduced_in_run is false: in-run regeneration "
            "disagreed with the measured sweep"
        )
    # Open-loop accounting identity, every point: drops are declared.
    for point in sweep["points"]:
        if point["offered"] != point["issued"] + point["dropped"]:
            failures.append(
                f"accounting identity broken at {point['rate']:g}/s: "
                f"offered {point['offered']} != issued {point['issued']} "
                f"+ dropped {point['dropped']}"
            )
        if point["errors"]:
            failures.append(
                f"steady sweep at {point['rate']:g}/s finished with "
                f"{point['errors']} errors"
            )
    # The knee must land strictly inside the sweep: detected (the first
    # rate held the deadline) but not at the top (the last rate blew it)
    # — otherwise the sweep isn't bracketing saturation and the number
    # is an artifact of the rate grid.
    knee = sweep["knee_rate_s"]
    if knee is None:
        failures.append("no knee detected: the first rate blew the deadline")
    elif baseline is not None:
        allowed = baseline["steady_sweep"]["knee_rate_s"] * KNEE_TOLERANCE
        if knee < allowed:
            failures.append(
                f"knee {knee:.1f}/s regressed below {allowed:.1f}/s "
                f"(baseline {baseline['steady_sweep']['knee_rate_s']:.1f}/s "
                f"x {KNEE_TOLERANCE})"
            )
    top = sweep["points"][-1]
    if not top["p99_s"] > sweep["deadline_s"]:
        failures.append(
            f"sweep does not bracket saturation: the top rate "
            f"{top['rate']:g}/s held the deadline (p99 "
            f"{top['p99_s'] * 1000:.1f} ms)"
        )
    flash = fresh["flash_crowd"]
    if not flash["arrival"]["hot_count"] > 0:
        failures.append("flash crowd produced no hot arrivals (hot_count 0)")
    if flash["errors"]:
        failures.append(f"flash crowd finished with {flash['errors']} errors")
    # Shedding sheds (the scenario is sized past capacity) without
    # starving anyone.
    tenants = fresh["multi_tenant"]
    if not tenants["fleet_shed_rate"] > 0:
        failures.append(
            "multi-tenant fleet_shed_rate is zero: the overload never "
            "happened"
        )
    if not tenants["min_pages_served"] > 0:
        failures.append("a tenant was starved (min_pages_served is zero)")
    if tenants["max_shed_rate_gap"] > SHED_GAP_CEILING:
        failures.append(
            f"per-app shed rate gap {tenants['max_shed_rate_gap']:.3f} "
            f"exceeds the ceiling of {SHED_GAP_CEILING}"
        )
    return failures


def test_traffic_scenarios(benchmark, emit, publish):
    result = once(benchmark, _experiment)
    emit("traffic_scenarios", _render(result))
    failures = gate(result, publish("traffic_scenarios", result))
    assert not failures, failures
