"""Shard-aware request routing for a sharded DSSP cluster.

A :class:`ShardRouter` fronts one :class:`~repro.net.client.WireClient`
(or any duck-typed endpoint with async ``query``/``update``) per shard and
steers each sealed envelope to the node its sharded
:class:`~repro.dssp.placement.Placement` names: a query to the owner of
its placement key, so the cluster behaves as a single logical cache of N×
the per-node capacity instead of N diluted copies; an update to the owner
of its routing key, spreading write forwarding across shards.

The router exposes the same ``query``/``update`` surface as a single
endpoint, so :func:`~repro.net.loadgen.run_load` can drive a sharded
cluster by passing ``endpoints=[router]``.  It deliberately has **no**
failover logic: a dead shard surfaces as its transport error, and the
chaos harness (not the router) decides what recovery means.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.dssp.placement import Placement
from repro.errors import NetError

__all__ = ["ShardRouter"]


class ShardRouter:
    """Route sealed envelopes to the owning shard of a DSSP cluster.

    Args:
        placement: The cluster's sharded placement; its node ids must be
            the ``node_id``/``shards`` the DSSP servers were started with,
            or routing and admission will disagree about ownership.
        endpoints: One endpoint per node id, in ``placement.node_ids``
            order.
    """

    def __init__(
        self, placement: Placement, endpoints: Sequence[object]
    ) -> None:
        if len(endpoints) != len(placement.node_ids):
            raise NetError(
                f"{len(endpoints)} endpoints for "
                f"{len(placement.node_ids)} shards"
            )
        self.placement = placement
        self._endpoints = dict(zip(placement.node_ids, endpoints))

    async def query(self, envelope, **kwargs):
        node_id = self.placement.query_node(envelope)
        return await self._endpoints[node_id].query(envelope, **kwargs)

    async def update(self, envelope, **kwargs):
        node_id = self.placement.update_node(envelope)
        return await self._endpoints[node_id].update(envelope, **kwargs)

    async def aclose(self) -> None:
        """Close every underlying endpoint that knows how to close."""
        for endpoint in self._endpoints.values():
            aclose = getattr(endpoint, "aclose", None)
            if aclose is not None:
                await aclose()
