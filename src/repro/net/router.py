"""Shard-aware request routing for a sharded DSSP cluster.

A :class:`ShardRouter` fronts one :class:`~repro.net.client.WireClient`
(or any duck-typed endpoint with async ``query``/``update``) per shard and
steers each sealed envelope to the shard that *owns* its placement key on
the cluster's consistent-hash ring:

* queries route by :func:`~repro.dssp.placement.query_placement_key` — the
  template bucket for template-visible envelopes, the derived identity
  for blind ones — so every client's request for a given view lands on
  the one node allowed to admit it, and the cluster behaves as a single
  logical cache of N× the per-node capacity instead of N diluted copies;
* updates route by :func:`~repro.dssp.placement.update_routing_key`
  (the derived identity), spreading write forwarding across shards — any
  shard can forward an update to the home; placement only matters for
  *views*.

The router exposes the same ``query``/``update`` surface as a single
endpoint, so :func:`~repro.net.loadgen.run_load` can drive a sharded
cluster by passing ``endpoints=[router]``.  It deliberately has **no**
failover logic: a dead shard surfaces as its transport error, and the
chaos harness (not the router) decides what recovery means.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.dssp.placement import query_placement_key, update_routing_key
from repro.dssp.ring import DEFAULT_VNODES, HashRing
from repro.errors import NetError

__all__ = ["ShardRouter"]


class ShardRouter:
    """Route sealed envelopes to the owning shard of a DSSP cluster.

    Args:
        endpoints: ``shard_id -> endpoint`` map.  The shard ids must match
            the ``node_id``/``shards`` the DSSP servers were started with,
            or routing and admission will disagree about ownership.
        vnodes: Virtual nodes per shard; must match the servers' setting.
    """

    def __init__(
        self,
        endpoints: Mapping[str, object],
        *,
        vnodes: int = DEFAULT_VNODES,
    ) -> None:
        if not endpoints:
            raise NetError("a ShardRouter needs at least one shard endpoint")
        self._endpoints = dict(endpoints)
        self._ring = HashRing(tuple(self._endpoints), vnodes=vnodes)

    @property
    def shard_ids(self) -> tuple[str, ...]:
        return self._ring.node_ids

    def shard_for_query(self, envelope) -> str:
        """Which shard owns this query's placement key."""
        return self._ring.owner(query_placement_key(envelope))

    def shard_for_update(self, envelope) -> str:
        """Which shard this update is forwarded through."""
        return self._ring.owner(update_routing_key(envelope))

    async def query(self, envelope, **kwargs):
        return await self._endpoints[self.shard_for_query(envelope)].query(
            envelope, **kwargs
        )

    async def update(self, envelope, **kwargs):
        return await self._endpoints[self.shard_for_update(envelope)].update(
            envelope, **kwargs
        )

    async def aclose(self) -> None:
        """Close every underlying endpoint that knows how to close."""
        for endpoint in self._endpoints.values():
            aclose = getattr(endpoint, "aclose", None)
            if aclose is not None:
                await aclose()
