"""Multi-node DSSP deployment (extension of the paper's evaluation).

The paper's architecture (Figure 1) places *many* DSSP nodes near clients —
"a DSSP node (because there are many of them) is close to the clients" —
but its evaluation uses a single node.  :class:`DsspCluster` is that fleet,
in one of the two modes of its :class:`~repro.dssp.placement.Placement`:

* **client affinity** (the default): clients are partitioned across nodes
  by a stable hash (CDN-style), queries are served by the client's node,
  and an update is forwarded to the home once and then observed by every
  node, each running its own invalidation engine over its own cache.
  Partitioning *dilutes* each node's cache, so total home-server load
  rises with node count whenever the home server is the bottleneck —
  sharing one logical cache is what the paper's scalability argument
  actually relies on;
* **sharded** (``sharded=True``): nodes own disjoint regions of the *view
  key space* via a consistent-hash ring, so each query template's views
  live on exactly one node and the fleet is one logical cache of N times
  the per-node capacity.  Invalidations reach only the nodes that can hold
  affected views.

``benchmarks/bench_sharded_cluster.py`` measures both.
"""

from __future__ import annotations

from repro.crypto.envelope import QueryEnvelope, UpdateEnvelope
from repro.dssp.homeserver import HomeServer
from repro.dssp.placement import Placement
from repro.dssp.proxy import DsspNode, QueryOutcome, UpdateOutcome
from repro.dssp.stats import DsspStats
from repro.errors import CacheError

__all__ = ["DsspCluster", "replay_trace_counts"]


class DsspCluster:
    """A fleet of DSSP nodes serving one client population.

    Args:
        nodes: Initial node count (nodes are named ``shard-0``…).
        cache_capacity: Per-node cache capacity (None = unbounded).
        use_integrity_constraints: Passed to every node's engine *and* the
            placement, so recipient sets are exact.
        sharded: Place views by key on a consistent-hash ring instead of
            pinning clients to nodes.
    """

    def __init__(
        self,
        nodes: int = 2,
        cache_capacity: int | None = None,
        use_integrity_constraints: bool = True,
        sharded: bool = False,
    ) -> None:
        if nodes < 1:
            raise CacheError("a cluster needs at least one node")
        self._capacity = cache_capacity
        self._use_constraints = use_integrity_constraints
        self._nodes: dict[str, DsspNode] = {}
        self._homes: dict[str, HomeServer] = {}
        self._next_index = 0
        self.placement = Placement(
            [self._add_node() for _ in range(nodes)], sharded=sharded
        )

    def _add_node(self) -> str:
        node_id = f"shard-{self._next_index}"
        self._next_index += 1
        node = DsspNode(
            cache_capacity=self._capacity,
            use_integrity_constraints=self._use_constraints,
        )
        for home in self._homes.values():
            node.register_application(home)
        self._nodes[node_id] = node
        return node_id

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def node_ids(self) -> tuple[str, ...]:
        """Current membership, in join order."""
        return self.placement.node_ids

    def node(self, node_id: str) -> DsspNode:
        """The node behind one node id."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise CacheError(f"no node {node_id!r} in the cluster") from None

    def node_for(self, client_id: int) -> DsspNode:
        """The node client affinity pins ``client_id`` to."""
        return self._nodes[self.placement.client_node(client_id)]

    # -- tenancy -------------------------------------------------------------

    def register_application(self, home: HomeServer) -> None:
        """Attach an application to every node and to the placement."""
        for node in self._nodes.values():
            node.register_application(home)
        self._homes[home.app_id] = home
        self.placement.register(home, self._use_constraints)

    # -- routing ---------------------------------------------------------------

    def query(self, envelope: QueryEnvelope, client_id: int = 0) -> QueryOutcome:
        """Serve a query at the node the placement picks."""
        node_id = self.placement.query_node(envelope, client_id)
        return self._nodes[node_id].query(envelope)

    def update(
        self, envelope: UpdateEnvelope, client_id: int = 0
    ) -> UpdateOutcome:
        """Apply an update once; invalidate on nodes that may be affected.

        One node forwards to the home server; the completed update is then
        observed by every recipient the placement names whose per-template
        bucket index says it *can* hold an affected view (the paper's
        invalidation stream, minus provably pointless deliveries).  Nodes
        that hold nothing the update could touch would invalidate zero
        entries anyway, so the filter changes no counts — it only avoids
        charging them an invalidation pass.
        """
        origin = self._nodes[self.placement.update_node(envelope, client_id)]
        rows = origin.forward_update(envelope)
        invalidated = 0
        for node_id in self.placement.recipients(envelope):
            node = self._nodes[node_id]
            if self._node_may_hold_affected(node, envelope):
                invalidated += node.invalidate_for(envelope)
        return UpdateOutcome(rows_affected=rows, invalidated=invalidated)

    def _node_may_hold_affected(
        self, node: DsspNode, envelope: UpdateEnvelope
    ) -> bool:
        """Can ``node``'s cache contain a view this update invalidates?

        Conservative by construction: a True is cheap (the node runs its
        engine and may still invalidate nothing); a False is only returned
        when the bucket index *proves* the node holds no affected entry —
        no resident buckets at all, or only template-visible buckets whose
        templates the update is statically independent of.
        """
        bucket_names = node.cache.bucket_names(envelope.app_id)
        if not bucket_names:
            return False
        affected = self.placement.affected(envelope)
        if affected is None:
            return True  # blind update: every resident entry must go
        return any(
            name is None or name in affected for name in bucket_names
        )

    # -- membership ---------------------------------------------------------------

    def join(self) -> str:
        """Add a node; drop entries other nodes no longer own (cold re-fill).

        Consistent hashing moves only the keys the new node now owns; the
        displaced entries are dropped (they refill on demand) rather than
        migrated — a cache can always be rebuilt from the home, and a
        dropped entry is merely a future miss, never a staleness risk.
        Under client affinity every node may hold every view, so nothing
        is dropped; clients re-pin by the new node count.
        """
        node_id = self._add_node()
        self.placement.join(node_id)
        for owner, node in self._nodes.items():
            node.cache.invalidate_many(
                [
                    entry.key
                    for app_id in self._homes
                    for entry in node.cache.entries_for_app(app_id)
                    if not self.placement.owns(owner, entry)
                ]
            )
        return node_id

    def leave(self, node_id: str) -> None:
        """Remove a node; its clients or key range reassign to the
        survivors, which start cold for them (misses refill from the
        home).  Nothing else moves."""
        self.placement.leave(node_id)
        del self._nodes[node_id]

    # -- aggregate bookkeeping ---------------------------------------------------

    def aggregate_stats(self) -> DsspStats:
        """Sum per-node counters into one fleet-wide view."""
        total = DsspStats()
        for node in self._nodes.values():
            total.merge(node.stats)
        return total

    def total_cached_views(self) -> int:
        """Number of views resident across the fleet."""
        return sum(len(node.cache) for node in self._nodes.values())

    def cold_start(self) -> None:
        """Cold-start every node."""
        for node in self._nodes.values():
            node.cold_start()


def _issue(cluster: DsspCluster, home: HomeServer, operation, client_id):
    """Seal one operation at its policy level and run it; True if an update."""
    bound = operation.bound
    name = bound.template.name
    if operation.is_update:
        level = home.policy.update_level(name)
        cluster.update(home.codec.seal_update(bound, level), client_id)
    else:
        level = home.policy.query_level(name)
        cluster.query(home.codec.seal_query(bound, level), client_id)
    return operation.is_update


def replay_trace_counts(
    cluster: DsspCluster,
    home: HomeServer,
    trace,
    *,
    clients: int = 4,
    pages: int | None = None,
) -> dict[str, int]:
    """Replay a recorded trace through an in-process cluster; return counts.

    This is the oracle's *reference replay path*: page ``p`` is issued by
    client ``p % clients`` and routed by the cluster's placement — the
    rule the networked chaos runner asks too — so the resulting
    hit/miss/invalidation counts are directly comparable with a networked
    run over the same trace (the fault-free parity suite asserts equality).
    """
    trace.bind(home.registry)
    total_pages = pages if pages is not None else len(trace)
    queries = updates = 0
    for page_index in range(total_pages):
        for operation in trace.sample_page():
            is_update = _issue(cluster, home, operation, page_index % clients)
            updates += is_update
            queries += not is_update
    stats = cluster.aggregate_stats()
    return {
        "pages": total_pages,
        "queries": queries,
        "updates": updates,
        "hits": stats.hits,
        "misses": stats.misses,
        "invalidations": stats.invalidations,
    }


def measure_cluster_behavior(
    cluster: DsspCluster,
    home: HomeServer,
    sampler,
    pages: int = 1500,
    clients: int = 64,
    seed: int = 0,
):
    """Cluster counterpart of ``measure_cache_behavior``.

    Pages are attributed to ``clients`` distinct client identities (round
    affinity decided per page, as a CDN request router would), so each
    node's cache warms only with its own share of the population.
    Returns a :class:`~repro.simulation.scalability.CacheBehavior` whose
    miss counts aggregate the whole fleet — the home server sees them all.
    """
    import random

    from repro.simulation.scalability import CacheBehavior

    cluster.cold_start()
    rng = random.Random(seed)
    queries = updates = 0
    for _ in range(pages):
        client_id = rng.randrange(clients)
        for operation in sampler.sample_page(rng):
            is_update = _issue(cluster, home, operation, client_id)
            updates += is_update
            queries += not is_update
    stats = cluster.aggregate_stats()
    return CacheBehavior(
        pages=pages,
        queries_per_page=queries / pages,
        hits_per_page=stats.hits / pages,
        misses_per_page=stats.misses / pages,
        updates_per_page=updates / pages,
        invalidations_per_update=(
            stats.invalidations / updates if updates else 0.0
        ),
    )
