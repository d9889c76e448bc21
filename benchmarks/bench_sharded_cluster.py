"""Extension — multi-node DSSP deployments (the Figure 1 architecture).

The paper evaluates a single DSSP node; its architecture diagram shows a
fleet close to the clients.  Both tests here drive one workload through
:class:`~repro.dssp.cluster.DsspCluster` at 1/2/4/8 nodes, in the two
modes of its placement.

``test_extension_cluster_dilution`` partitions the client population
across the nodes (client affinity, invalidation fan-out to every node)
with unbounded caches.  Partitioning *dilutes* each node's working set,
so the home server absorbs more misses as the fleet grows — scalability
is flat-to-decreasing in node count while the home server is the
bottleneck.  This quantifies how much the paper's scalability story
depends on cache *sharing*, not just cache placement.

``test_sharded_cluster_speedup`` adds the other arm: the same workload
over a sharded cluster, where a consistent-hash ring places *view keys*
(template buckets), every client's request for a given view lands on the
one owning shard, and invalidations fan out only to shards holding
affected buckets.  With per-node capacity bounded (the regime where
placement matters), the fleet flips from dilution to speedup: N shards
act as one logical cache of N times the capacity, so the sharded hit
rate is non-decreasing in N while the partitioned hit rate falls.

The speedup's JSON artifact (``results/BENCH_sharded_cluster.json``) is
committed and regression-gated by this module's :func:`gate`: the
sharded-vs-partitioned gain at the largest fleet and the sharded
monotonicity are what the gate protects.
"""

from __future__ import annotations

from repro.dssp import StrategyClass
from repro.dssp.cluster import DsspCluster, measure_cluster_behavior
from repro.simulation import find_scalability
from repro.simulation.sweep import SweepTask, deploy

from benchmarks.conftest import BENCH_PAGES, BENCH_SCALE, once

NODE_COUNTS = (1, 2, 4, 8)
#: Per-node cache capacity (views).  Small enough that one node cannot
#: hold the working set: the regime where total fleet capacity — and
#: therefore placement — decides the hit rate.
CAPACITY = 64
CLIENTS = 48
#: Gate bounds: hit-rate slack for "same machine" and "non-decreasing",
#: the least sharded-vs-partitioned gain at the largest fleet, and the
#: share of the baseline's gain a run must keep.
HIT_RATE_SLACK = 0.02
GAIN_FLOOR = 0.1
GAIN_TOLERANCE = 0.6


def _behavior(sharded: bool, nodes: int, capacity: int | None):
    cluster, home, sampler = deploy(
        SweepTask("bookstore", StrategyClass.MVIS, scale=BENCH_SCALE),
        DsspCluster(nodes=nodes, cache_capacity=capacity, sharded=sharded),
    )
    return measure_cluster_behavior(
        cluster, home, sampler, pages=BENCH_PAGES, clients=CLIENTS, seed=5
    )


def _experiment(sim_params):
    result = {
        "capacity_per_node": CAPACITY,
        "clients": CLIENTS,
        "pages": BENCH_PAGES,
        "scale": BENCH_SCALE,
        "node_counts": list(NODE_COUNTS),
        "partitioned": {},
        "sharded": {},
    }
    for nodes in NODE_COUNTS:
        for key, sharded in (("partitioned", False), ("sharded", True)):
            behavior = _behavior(sharded, nodes, CAPACITY)
            result[key][str(nodes)] = {
                "hit_rate": behavior.hit_rate,
                "scalability_users": find_scalability(
                    sim_params, behavior=behavior
                ),
            }
    last = str(NODE_COUNTS[-1])
    result["sharded_gain_at_max"] = (
        result["sharded"][last]["hit_rate"]
        - result["partitioned"][last]["hit_rate"]
    )
    return result


def _render(result) -> str:
    lines = [
        f"{'nodes':>6} {'partitioned':>12} {'sharded':>9} "
        f"{'part users':>11} {'shard users':>12}",
        "-" * 56,
    ]
    for nodes in result["node_counts"]:
        part = result["partitioned"][str(nodes)]
        shard = result["sharded"][str(nodes)]
        lines.append(
            f"{nodes:>6} {part['hit_rate']:>12.3f} "
            f"{shard['hit_rate']:>9.3f} "
            f"{part['scalability_users']:>11} "
            f"{shard['scalability_users']:>12}"
        )
    lines.append(
        f"sharded gain at {result['node_counts'][-1]} nodes: "
        f"{result['sharded_gain_at_max']:+.3f} hit rate"
    )
    return "\n".join(lines)


def gate(fresh: dict, baseline: dict | None) -> list[str]:
    """Every broken bound of a fresh run; ``baseline`` None skips the
    baseline-relative ones."""
    failures = []
    counts = [str(n) for n in fresh["node_counts"]]
    sharded = [fresh["sharded"][n]["hit_rate"] for n in counts]
    partitioned = [fresh["partitioned"][n]["hit_rate"] for n in counts]

    # One node is one node: both deployments are the same machine, so
    # they must measure (nearly) the same cache.
    if not abs(sharded[0] - partitioned[0]) < HIT_RATE_SLACK:
        failures.append(
            f"single-node parity broken: sharded {sharded[0]:.3f} vs "
            f"partitioned {partitioned[0]:.3f}"
        )
    # The flip: sharding is non-decreasing in N (one logical cache of
    # N x CAPACITY), while partitioning dilutes.
    for fewer, more, nodes in zip(sharded, sharded[1:], counts[1:]):
        if more < fewer - HIT_RATE_SLACK:
            failures.append(
                f"sharded hit rate is not non-decreasing: fell to "
                f"{more:.3f} at {nodes} nodes (was {fewer:.3f})"
            )
    if not sharded[-1] > sharded[0]:
        failures.append(
            f"sharded hit rate did not grow: {sharded[0]:.3f} at "
            f"{counts[0]} nodes, {sharded[-1]:.3f} at {counts[-1]}"
        )
    if not partitioned[-1] < partitioned[0]:
        failures.append(
            f"partitioned hit rate did not dilute: {partitioned[0]:.3f} at "
            f"{counts[0]} nodes, {partitioned[-1]:.3f} at {counts[-1]}"
        )
    gain = fresh["sharded_gain_at_max"]
    if not gain > GAIN_FLOOR:
        failures.append(
            f"sharded gain {gain:.3f} at {counts[-1]} nodes is not above "
            f"the floor of {GAIN_FLOOR:.3f}"
        )
    if baseline is not None:
        allowed = baseline["sharded_gain_at_max"] * GAIN_TOLERANCE
        if gain < allowed:
            failures.append(
                f"sharded gain {gain:.3f} regressed below {allowed:.3f} "
                f"(baseline {baseline['sharded_gain_at_max']:.3f} x "
                f"{GAIN_TOLERANCE})"
            )
    return failures


def test_sharded_cluster_speedup(benchmark, emit, publish, sim_params):
    result = once(benchmark, lambda: _experiment(sim_params))
    emit("sharded_cluster", _render(result))
    failures = gate(result, publish("sharded_cluster", result))
    assert not failures, failures


def test_extension_cluster_dilution(benchmark, emit, sim_params):
    def experiment():
        results = {}
        for nodes in NODE_COUNTS:
            behavior = _behavior(False, nodes, None)
            users = find_scalability(sim_params, behavior=behavior)
            results[nodes] = (behavior.hit_rate, users)
        return results

    results = once(benchmark, experiment)
    lines = [
        f"{'nodes':>6} {'fleet hit rate':>15} {'scalability':>12}",
        "-" * 36,
    ]
    for nodes, (hit_rate, users) in results.items():
        lines.append(f"{nodes:>6} {hit_rate:>15.3f} {users:>12}")
    emit("extension_cluster_dilution", "\n".join(lines))

    hit_rates = [results[n][0] for n in NODE_COUNTS]
    # Dilution: fleet hit rate decreases (weakly) with node count.
    for fewer, more in zip(hit_rates, hit_rates[1:]):
        assert more <= fewer + 0.02
    assert hit_rates[-1] < hit_rates[0]
    # Scalability never improves from partitioning a home-bound system.
    users = [results[n][1] for n in NODE_COUNTS]
    assert users[-1] <= users[0]
