"""One placement rule for every DSSP tier.

A fleet is sound only if every tier — the in-process cluster, the router,
every DSSP node, the home's fan-out and the chaos oracle — agrees, without
exchanging cache state, on which node holds a view and which nodes must
hear an update that could change it.  :class:`Placement` is that
agreement, in one of two modes:

* **Unsharded (client affinity).**  Client ``c`` pins to node ``c % n``;
  every node may hold every view and hears every update.
* **Sharded.**  Views live on a consistent-hash ring by template bucket
  (``bucket_key(app_id, template_name)``), so every cached instance of a
  query template lives on one node, and an update to template ``U`` need
  only reach the owners of the query templates ``U`` can affect.  A blind
  query envelope exposes no template, so its identity is its placement
  key: blind entries scatter, and a policy permitting blind queries forces
  pushes to every node.

The affected templates are those outside the A_ij = 0 set the engine
compiles into its ``SKIP`` plans (:func:`~repro.analysis.ipm.zero_pairs`),
so recipient sets are *conservative with respect to the engine*.
Registering with integrity constraints off while the engines use them only
enlarges the sets — extra pushes, never missed ones.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.analysis.exposure import ExposureLevel
from repro.analysis.ipm import zero_pairs
from repro.crypto.envelope import QueryEnvelope, UpdateEnvelope
from repro.dssp.ring import HashRing
from repro.errors import CacheError
from repro.templates.registry import TemplateRegistry

__all__ = [
    "Placement",
    "affected_queries",
    "bucket_key",
    "query_placement_key",
    "update_routing_key",
]


def bucket_key(app_id: str, template_name: str) -> str:
    """Placement key of one application's query-template bucket."""
    return f"{app_id}|{template_name}"


def query_placement_key(envelope: QueryEnvelope) -> str:
    """The key a query envelope — or the cache entry admitted for it — is
    placed by on the ring.

    Template-visible envelopes collapse to their bucket key so a whole
    template's views share a node; blind envelopes use their identity,
    whose ``repr`` (a tuple of text and bytes) is the same string in
    every process.
    """
    if envelope.template_name is not None:
        return bucket_key(envelope.app_id, envelope.template_name)
    return repr(envelope.identity)


def update_routing_key(envelope: UpdateEnvelope) -> str:
    """The key that picks which node forwards an update to the home.

    Any deterministic spread works — the update is applied at the home
    either way — so the envelope's identity doubles as a load-spreading
    key.
    """
    return repr(envelope.identity)


def affected_queries(
    registry: TemplateRegistry, use_integrity_constraints: bool = True
) -> dict[str, frozenset[str]]:
    """Update template -> the query templates the engine would visit for
    it: every pair it does not compile to ``SKIP``.

    ``use_integrity_constraints`` must not be *stronger* than the engines'
    setting; equal gives exact recipient sets, weaker over-approximates.
    """
    skip = zero_pairs(registry, use_integrity_constraints)
    return {
        update.name: frozenset(
            query.name
            for query in registry.queries
            if (update.name, query.name) not in skip
        )
        for update in registry.updates
    }


class Placement:
    """Where a view lives and which nodes hear an update, for one fleet.

    Args:
        node_ids: The fleet's node ids, in order (the order is the client
            affinity's ``client_id % n`` index).
        sharded: Place views on a consistent-hash ring instead of by
            client affinity.

    Raises:
        CacheError: for an empty or duplicated membership.
    """

    def __init__(
        self, node_ids: Iterable[str], *, sharded: bool = False
    ) -> None:
        self.node_ids: tuple[str, ...] = ()
        self._ring = HashRing() if sharded else None
        #: app id -> (affected queries per update, blind queries possible).
        self._apps: dict[str, tuple[dict[str, frozenset[str]], bool]] = {}
        for node_id in node_ids:
            self.join(node_id)
        if not self.node_ids:
            raise CacheError("a placement needs at least one node")

    @property
    def sharded(self) -> bool:
        return self._ring is not None

    def register(self, home, use_integrity_constraints: bool = True) -> None:
        """Teach the placement one application's templates and policy
        (``home`` is anything with ``app_id``, ``registry``, ``policy``)."""
        blind = ExposureLevel.BLIND in home.policy.query_levels.values()
        affected = affected_queries(home.registry, use_integrity_constraints)
        self._apps[home.app_id] = (affected, blind)

    # -- the four questions ------------------------------------------------

    def client_node(self, client_id: int) -> str:
        """The node client affinity pins ``client_id`` to."""
        return self.node_ids[client_id % len(self.node_ids)]

    def query_node(self, envelope: QueryEnvelope, client_id: int = 0) -> str:
        """The node a query is served at."""
        if self._ring is None:
            return self.client_node(client_id)
        return self._ring.owner(query_placement_key(envelope))

    def update_node(self, envelope: UpdateEnvelope, client_id: int = 0) -> str:
        """The node that forwards an update to the home."""
        if self._ring is None:
            return self.client_node(client_id)
        return self._ring.owner(update_routing_key(envelope))

    def recipients(self, envelope: UpdateEnvelope) -> tuple[str, ...]:
        """Nodes that may hold views ``envelope`` affects, in node order.

        Every node when unsharded, or when the set cannot be narrowed: a
        blind update exposes no template, an unregistered application has
        no affected set, and blind *query* entries are placed by opaque
        identity so they may live anywhere.
        """
        if self._ring is None:
            return self.node_ids
        affected = self.affected(envelope)
        if affected is None or self._apps[envelope.app_id][1]:
            return self.node_ids
        owners = {
            self._ring.owner(bucket_key(envelope.app_id, name))
            for name in affected
        }
        return tuple(n for n in self.node_ids if n in owners)

    def owns(self, node_id: str, envelope) -> bool:
        """May ``node_id`` admit (and so hold) this view?  Always when
        unsharded; only the ring owner of its placement key when sharded."""
        if self._ring is None:
            return True
        return self._ring.owner(query_placement_key(envelope)) == node_id

    def affected(self, envelope: UpdateEnvelope) -> frozenset[str] | None:
        """Query templates ``envelope`` can invalidate; None when unknown
        (a blind update, or an application never registered)."""
        app = self._apps.get(envelope.app_id)
        if app is None or envelope.template_name is None:
            return None
        return app[0][envelope.template_name]

    # -- membership --------------------------------------------------------

    def join(self, node_id: str) -> None:
        """Add a node; on a ring, it takes over the keys it now owns."""
        if node_id in self.node_ids:
            raise CacheError(f"node {node_id!r} is already placed")
        if self._ring is not None:
            self._ring.add_node(node_id)
        self.node_ids += (node_id,)

    def leave(self, node_id: str) -> None:
        """Remove a node; on a ring, its keys reassign to the survivors."""
        if node_id not in self.node_ids:
            raise CacheError(f"no node {node_id!r} in the placement")
        if len(self.node_ids) == 1:
            raise CacheError("cannot remove the last node")
        if self._ring is not None:
            self._ring.remove_node(node_id)
        self.node_ids = tuple(n for n in self.node_ids if n != node_id)
