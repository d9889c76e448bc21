"""Multi-node DSSP deployment (extension of the paper's evaluation).

The paper's architecture (Figure 1) places *many* DSSP nodes near clients —
"a DSSP node (because there are many of them) is close to the clients" —
but its evaluation uses a single node.  This module implements the
multi-node deployment the architecture implies:

* clients are partitioned across nodes by a stable hash (CDN-style
  affinity), so each node caches only its own clients' working set;
* queries are served by the client's node;
* updates are forwarded to the home server once, then the invalidation
  stream **fans out to every node** — each node runs its own invalidation
  engine over its own cache, exactly as the single-node DSSP does.

The interesting (and measured — see ``bench_extension_cluster.py``)
consequence: partitioning *dilutes* each node's cache, so total home-server
load rises with node count whenever the home server, not the DSSP, is the
bottleneck.  Sharing one logical cache is what the paper's scalability
argument actually relies on.
"""

from __future__ import annotations

from repro.crypto.envelope import QueryEnvelope, UpdateEnvelope
from repro.dssp.homeserver import HomeServer
from repro.dssp.placement import (
    TemplateAffinity,
    entry_placement_key,
    policy_allows_blind_queries,
    query_placement_key,
    shards_for_update,
    update_routing_key,
)
from repro.dssp.proxy import DsspNode, QueryOutcome, UpdateOutcome
from repro.dssp.ring import DEFAULT_VNODES, HashRing
from repro.dssp.stats import DsspStats
from repro.errors import CacheError

__all__ = ["DsspCluster", "ShardedDsspCluster", "replay_trace_counts"]


class DsspCluster:
    """A fleet of DSSP nodes serving one client population.

    Args:
        nodes: Number of DSSP nodes.
        cache_capacity: Per-node cache capacity (None = unbounded).
        use_integrity_constraints: Passed through to every node's engine.
    """

    def __init__(
        self,
        nodes: int = 2,
        cache_capacity: int | None = None,
        use_integrity_constraints: bool = True,
    ) -> None:
        if nodes < 1:
            raise CacheError("a cluster needs at least one node")
        self._use_constraints = use_integrity_constraints
        self.nodes = [
            DsspNode(
                cache_capacity=cache_capacity,
                use_integrity_constraints=use_integrity_constraints,
            )
            for _ in range(nodes)
        ]
        self._affinities: dict[str, TemplateAffinity] = {}

    def __len__(self) -> int:
        return len(self.nodes)

    # -- tenancy -------------------------------------------------------------

    def register_application(self, home: HomeServer) -> None:
        """Attach an application to every node."""
        for node in self.nodes:
            node.register_application(home)
        self._affinities[home.app_id] = TemplateAffinity(
            home.registry, use_integrity_constraints=self._use_constraints
        )

    # -- routing ---------------------------------------------------------------

    def node_for(self, client_id: int) -> DsspNode:
        """The node a client's requests land on (stable affinity)."""
        return self.nodes[client_id % len(self.nodes)]

    def query(self, envelope: QueryEnvelope, client_id: int = 0) -> QueryOutcome:
        """Serve a query at the client's node."""
        return self.node_for(client_id).query(envelope)

    def update(
        self, envelope: UpdateEnvelope, client_id: int = 0
    ) -> UpdateOutcome:
        """Apply an update once; invalidate on nodes that may be affected.

        The client's node forwards to the home server; the completed update
        is then observed by every node whose per-template bucket index says
        it *can* hold an affected view (the paper's invalidation stream,
        minus provably pointless deliveries).  Nodes that hold nothing the
        update could touch would invalidate zero entries anyway, so the
        filter changes no counts — it only avoids charging them an
        invalidation pass.
        """
        origin = self.node_for(client_id)
        rows = origin.forward_update(envelope)
        invalidated = 0
        for node in self.nodes:
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
        if envelope.template_name is None:
            return True  # blind update: every resident entry must go
        affinity = self._affinities.get(envelope.app_id)
        if affinity is None:
            return True
        affected = affinity.affected_queries(envelope.template_name)
        return any(
            name is None or name in affected for name in bucket_names
        )

    # -- aggregate bookkeeping ---------------------------------------------------

    def aggregate_stats(self) -> DsspStats:
        """Sum per-node counters into one fleet-wide view."""
        total = DsspStats()
        for node in self.nodes:
            total.merge(node.stats)
        return total

    def total_cached_views(self) -> int:
        """Number of views resident across the fleet."""
        return sum(len(node.cache) for node in self.nodes)

    def cold_start(self) -> None:
        """Cold-start every node."""
        for node in self.nodes:
            node.cold_start()


class ShardedDsspCluster:
    """A key-sharded DSSP fleet: one logical cache spread across N shards.

    Unlike :class:`DsspCluster` (client affinity, N copies of the hot
    working set), shards own disjoint regions of the *view key space* via
    a consistent-hash ring: each query template's views live on exactly
    one shard, so total capacity — and fleet hit rate under a bounded
    per-node cache — grows with the shard count instead of diluting.

    Updates are forwarded to the home once (by the shard owning the
    update's routing key) and then invalidated only on the shards that
    can hold affected views, computed from the same static template
    analysis the invalidation engines use (:mod:`repro.dssp.placement`).

    Args:
        nodes: Initial shard count (shards are named ``shard-0``…).
        cache_capacity: Per-shard cache capacity (None = unbounded).
        use_integrity_constraints: Passed to every shard's engine *and*
            the affinity analysis, so recipient sets are exact.
        vnodes: Virtual nodes per shard on the placement ring.
    """

    def __init__(
        self,
        nodes: int = 2,
        cache_capacity: int | None = None,
        use_integrity_constraints: bool = True,
        vnodes: int = DEFAULT_VNODES,
    ) -> None:
        if nodes < 1:
            raise CacheError("a cluster needs at least one shard")
        self._capacity = cache_capacity
        self._use_constraints = use_integrity_constraints
        self.ring = HashRing(vnodes=vnodes)
        self._shards: dict[str, DsspNode] = {}
        self._homes: dict[str, HomeServer] = {}
        self._affinities: dict[str, TemplateAffinity] = {}
        self._blind_queries: dict[str, bool] = {}
        self._next_index = 0
        for _ in range(nodes):
            self._add_shard()

    def _add_shard(self) -> str:
        shard_id = f"shard-{self._next_index}"
        self._next_index += 1
        node = DsspNode(
            cache_capacity=self._capacity,
            use_integrity_constraints=self._use_constraints,
        )
        for home in self._homes.values():
            node.register_application(home)
        self._shards[shard_id] = node
        self.ring.add_node(shard_id)
        return shard_id

    def __len__(self) -> int:
        return len(self._shards)

    @property
    def shard_ids(self) -> tuple[str, ...]:
        """Current membership, in join order."""
        return tuple(self._shards)

    def shard(self, shard_id: str) -> DsspNode:
        """The node behind one shard id."""
        try:
            return self._shards[shard_id]
        except KeyError:
            raise CacheError(f"no shard {shard_id!r} in the cluster") from None

    # -- tenancy -------------------------------------------------------------

    def register_application(self, home: HomeServer) -> None:
        """Attach an application to every shard."""
        for node in self._shards.values():
            node.register_application(home)
        self._homes[home.app_id] = home
        self._affinities[home.app_id] = TemplateAffinity(
            home.registry, use_integrity_constraints=self._use_constraints
        )
        self._blind_queries[home.app_id] = policy_allows_blind_queries(
            home.policy
        )

    # -- routing ---------------------------------------------------------------

    def shard_for_query(self, envelope: QueryEnvelope) -> str:
        """The shard owning this query's placement key."""
        return self.ring.owner(query_placement_key(envelope))

    def query(self, envelope: QueryEnvelope, client_id: int = 0) -> QueryOutcome:
        """Serve a query at the owning shard (``client_id`` is ignored:
        placement is by key, not by client)."""
        return self._shards[self.shard_for_query(envelope)].query(envelope)

    def shards_for_update(self, envelope: UpdateEnvelope) -> tuple[str, ...]:
        """Shards whose caches the update's invalidation must visit."""
        affinity = self._affinities.get(envelope.app_id)
        if affinity is None:
            return self.shard_ids
        recipients = shards_for_update(
            envelope,
            self.ring,
            affinity,
            self._blind_queries.get(envelope.app_id, True),
        )
        if recipients is None:
            return self.shard_ids
        return tuple(s for s in self._shards if s in recipients)

    def update(
        self, envelope: UpdateEnvelope, client_id: int = 0
    ) -> UpdateOutcome:
        """Apply an update once; invalidate only where affected views live."""
        origin = self._shards[self.ring.owner(update_routing_key(envelope))]
        rows = origin.forward_update(envelope)
        invalidated = 0
        for shard_id in self.shards_for_update(envelope):
            invalidated += self._shards[shard_id].invalidate_for(envelope)
        return UpdateOutcome(rows_affected=rows, invalidated=invalidated)

    # -- membership ---------------------------------------------------------------

    def join(self) -> str:
        """Add a shard; drop entries other shards no longer own (cold re-fill).

        Consistent hashing moves only the keys the new shard now owns; the
        displaced entries are dropped (they refill on demand) rather than
        migrated — a cache can always be rebuilt from the home, and a
        dropped entry is merely a future miss, never a staleness risk.
        """
        shard_id = self._add_shard()
        self._drop_misplaced()
        return shard_id

    def leave(self, shard_id: str) -> None:
        """Remove a shard; its key range reassigns to the survivors.

        The survivors start cold for the reassigned range (misses refill
        from the home).  Nothing else moves.
        """
        if shard_id not in self._shards:
            raise CacheError(f"no shard {shard_id!r} in the cluster")
        if len(self._shards) == 1:
            raise CacheError("cannot remove the last shard")
        self.ring.remove_node(shard_id)
        del self._shards[shard_id]

    def _drop_misplaced(self) -> None:
        for shard_id, node in self._shards.items():
            victims = [
                entry.key
                for app_id in self._homes
                for entry in node.cache.entries_for_app(app_id)
                if self.ring.owner(entry_placement_key(entry)) != shard_id
            ]
            node.cache.invalidate_many(victims)

    # -- aggregate bookkeeping ---------------------------------------------------

    def aggregate_stats(self) -> DsspStats:
        """Sum per-shard counters into one fleet-wide view."""
        total = DsspStats()
        for node in self._shards.values():
            total.merge(node.stats)
        return total

    def total_cached_views(self) -> int:
        """Number of views resident across the fleet."""
        return sum(len(node.cache) for node in self._shards.values())

    def cold_start(self) -> None:
        """Cold-start every shard."""
        for node in self._shards.values():
            node.cold_start()


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
    client ``p % clients``, which pins to node ``client % nodes`` — the
    identical affinity the networked chaos runner uses — so the resulting
    hit/miss/invalidation counts are directly comparable with a networked
    run over the same trace (the fault-free parity suite asserts equality).
    """
    trace.bind(home.registry)
    total_pages = pages if pages is not None else len(trace)
    queries = updates = 0
    for page_index in range(total_pages):
        client_id = page_index % clients
        for operation in trace.sample_page():
            bound = operation.bound
            if operation.is_update:
                level = home.policy.update_level(bound.template.name)
                cluster.update(home.codec.seal_update(bound, level), client_id)
                updates += 1
            else:
                level = home.policy.query_level(bound.template.name)
                cluster.query(home.codec.seal_query(bound, level), client_id)
                queries += 1
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
            bound = operation.bound
            if operation.is_update:
                level = home.policy.update_level(bound.template.name)
                cluster.update(home.codec.seal_update(bound, level), client_id)
                updates += 1
            else:
                level = home.policy.query_level(bound.template.name)
                cluster.query(home.codec.seal_query(bound, level), client_id)
                queries += 1
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
