"""Extension — multi-node DSSP deployments (the Figure 1 architecture).

The paper evaluates a single DSSP node; its architecture diagram shows a
fleet close to the clients.  This benchmark partitions the client
population across 1/2/4/8 nodes (with invalidation fan-out) and measures
the fleet hit rate and home-server-bound scalability.

Expected result: cache partitioning *dilutes* each node's working set, so
the home server absorbs more misses as the fleet grows — scalability is
flat-to-decreasing in node count while the home server is the bottleneck.
This quantifies how much the paper's scalability story depends on cache
*sharing*, not just cache placement.
"""

from repro.dssp import StrategyClass
from repro.dssp.cluster import DsspCluster, measure_cluster_behavior
from repro.simulation import find_scalability
from repro.simulation.sweep import SweepTask, deploy

from benchmarks.conftest import BENCH_PAGES, BENCH_SCALE, once

NODE_COUNTS = (1, 2, 4, 8)


def _run(nodes: int):
    cluster, home, sampler = deploy(
        SweepTask("bookstore", StrategyClass.MVIS, scale=BENCH_SCALE),
        DsspCluster(nodes=nodes),
    )
    return measure_cluster_behavior(
        cluster, home, sampler, pages=BENCH_PAGES, clients=48, seed=5
    )


def test_extension_cluster_dilution(benchmark, emit, sim_params):
    def experiment():
        results = {}
        for nodes in NODE_COUNTS:
            behavior = _run(nodes)
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
