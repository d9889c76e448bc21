"""Extension — sharded DSSP cluster vs client-partitioned fleet.

``bench_extension_cluster`` quantifies the *dilution* story: partitioning
one client population across N independent caches shrinks each node's
effective working set, so fleet hit rate decays with N.  This benchmark
adds the other arm of the experiment: the same workload over a
:class:`~repro.dssp.cluster.ShardedDsspCluster`, where a consistent-hash
ring places *view keys* (template buckets), every client's request for a
given view lands on the one owning shard, and invalidations fan out only
to shards holding affected buckets.

With per-node capacity bounded (the regime where placement matters), the
fleet flips from dilution to speedup: N shards act as one logical cache
of N times the capacity, so the sharded hit rate is non-decreasing in N
while the partitioned hit rate falls.

The JSON artifact (``results/BENCH_sharded_cluster.json``) is committed
and regression-gated in CI by ``benchmarks/check_sharded_cluster.py``:
the sharded-vs-partitioned gain at the largest fleet and the sharded
monotonicity are what the gate protects.
"""

from __future__ import annotations

import json

from repro.dssp import StrategyClass
from repro.dssp.cluster import (
    DsspCluster,
    ShardedDsspCluster,
    measure_cluster_behavior,
)
from repro.simulation import find_scalability
from repro.simulation.sweep import SweepTask, deploy

from benchmarks.conftest import BENCH_PAGES, BENCH_SCALE, once

NODE_COUNTS = (1, 2, 4, 8)
#: Per-node cache capacity (views).  Small enough that one node cannot
#: hold the working set: the regime where total fleet capacity — and
#: therefore placement — decides the hit rate.
CAPACITY = 64
CLIENTS = 48


def _behavior(cluster_cls, nodes: int):
    cluster, home, sampler = deploy(
        SweepTask("bookstore", StrategyClass.MVIS, scale=BENCH_SCALE),
        cluster_cls(nodes=nodes, cache_capacity=CAPACITY),
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
        for key, cluster_cls in (
            ("partitioned", DsspCluster),
            ("sharded", ShardedDsspCluster),
        ):
            behavior = _behavior(cluster_cls, nodes)
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


def test_sharded_cluster_speedup(benchmark, emit, results_dir, sim_params):
    result = once(benchmark, lambda: _experiment(sim_params))
    emit("sharded_cluster", _render(result))
    artifact = results_dir / "BENCH_sharded_cluster.json"
    artifact.write_text(json.dumps(result, indent=2) + "\n")

    counts = [str(n) for n in result["node_counts"]]
    sharded = [result["sharded"][n]["hit_rate"] for n in counts]
    partitioned = [result["partitioned"][n]["hit_rate"] for n in counts]

    # One node is one node: both deployments are the same machine, so
    # they must measure (nearly) the same cache.
    assert abs(sharded[0] - partitioned[0]) < 0.02

    # The flip: sharding is non-decreasing in N (one logical cache of
    # N x CAPACITY), while partitioning dilutes.
    for fewer, more in zip(sharded, sharded[1:]):
        assert more >= fewer - 0.02
    assert sharded[-1] > sharded[0]
    assert partitioned[-1] < partitioned[0]
    assert result["sharded_gain_at_max"] > 0.1
