"""Shard placement and invalidation affinity for the sharded DSSP tier.

A key-sharded fleet only works if everyone — the router in front of the
clients, every DSSP node, and the home server's fan-out — agrees on where
a view lives *without exchanging cache state*.  This module is that
agreement, built on two choices:

* **Placement is by template bucket, not by individual view.**  A
  template-visible query envelope is placed by
  ``bucket_key(app_id, template_name)``, so every cached instance of one
  query template lives on one shard.  The home server can then compute the
  exact recipient set of an invalidation push from static template
  analysis alone: an update to template ``U`` can only affect views on the
  shards owning the query templates ``U`` invalidates at template level.
* **Blind entries fall back to their identity.**  A blind query envelope
  exposes no template, so its derived identity (application + encrypted
  statement) is the placement key.  Blind entries therefore scatter
  across shards — and because nobody can say where, any application whose
  exposure policy permits blind queries forces pushes to all shards
  (:func:`shards_for_update` returns None).

:class:`TemplateAffinity` reads the same A_ij = 0 set the invalidation
engine compiles into its ``SKIP`` plans
(:func:`~repro.analysis.ipm.zero_pairs`): a query template is in an
update's affinity set unless the pair is ``SKIP``, so the
recipient-set computation is *conservative with respect to the engine*:
any bucket the engine would visit is in the affinity set.  Disabling
integrity constraints here while the engine uses them only enlarges the
set — extra pushes, never missed ones.
"""

from __future__ import annotations

from repro.analysis.exposure import ExposureLevel, ExposurePolicy
from repro.analysis.ipm import zero_pairs
from repro.crypto.envelope import QueryEnvelope, UpdateEnvelope
from repro.dssp.cache import CacheEntry
from repro.dssp.ring import HashRing
from repro.templates.registry import TemplateRegistry

__all__ = [
    "TemplateAffinity",
    "bucket_key",
    "entry_placement_key",
    "policy_allows_blind_queries",
    "query_placement_key",
    "shards_for_update",
    "update_routing_key",
]


def bucket_key(app_id: str, template_name: str) -> str:
    """Placement key of one application's query-template bucket."""
    return f"{app_id}|{template_name}"


def query_placement_key(envelope: QueryEnvelope) -> str:
    """The key a query envelope is placed by on the ring.

    Template-visible envelopes collapse to their bucket key so a whole
    template's views share a shard; blind envelopes use their identity,
    whose ``repr`` (a tuple of text and bytes) is the same string in
    every process.
    """
    if envelope.template_name is not None:
        return bucket_key(envelope.app_id, envelope.template_name)
    return repr(envelope.identity)


def entry_placement_key(entry: CacheEntry) -> str:
    """The key a resident cache entry is placed by (for re-sharding)."""
    if entry.template_name is not None:
        return bucket_key(entry.app_id, entry.template_name)
    return repr(entry.key)


def update_routing_key(envelope: UpdateEnvelope) -> str:
    """The key that picks which shard forwards an update to the home.

    Any deterministic spread works — the update is applied at the home
    either way — so the envelope's identity doubles as a load-spreading
    key.
    """
    return repr(envelope.identity)


def policy_allows_blind_queries(policy: ExposurePolicy) -> bool:
    """True if any query template is blind (its views scatter by identity)."""
    return any(
        level is ExposureLevel.BLIND for level in policy.query_levels.values()
    )


class TemplateAffinity:
    """Which query templates an update template can invalidate.

    The answer is every query template outside the update's A_ij = 0
    set — the pairs the engine does not compile to ``SKIP``.

    Args:
        registry: The application's public template registry.
        use_integrity_constraints: Must not be *stronger* than the engines
            it filters for; equal (the default on both sides) gives exact
            recipient sets, weaker merely over-approximates.
    """

    def __init__(
        self,
        registry: TemplateRegistry,
        use_integrity_constraints: bool = True,
    ) -> None:
        skip = zero_pairs(registry, use_integrity_constraints)
        self._affected = {
            update.name: frozenset(
                query.name
                for query in registry.queries
                if (update.name, query.name) not in skip
            )
            for update in registry.updates
        }

    def affected_queries(self, update_name: str) -> frozenset[str]:
        """Query templates the engine would visit for ``update_name``, an
        update template of the registry."""
        return self._affected[update_name]


def shards_for_update(
    envelope: UpdateEnvelope,
    ring: HashRing,
    affinity: TemplateAffinity,
    blind_queries_possible: bool,
) -> frozenset[str] | None:
    """Shards that may hold views affected by ``envelope``.

    Returns None when the set cannot be narrowed — a blind update exposes
    no template, and blind *query* entries are placed by opaque identity
    so they may live anywhere — meaning "push to every shard".
    """
    if envelope.template_name is None or blind_queries_possible:
        return None
    affected = affinity.affected_queries(envelope.template_name)
    return frozenset(
        ring.owner(bucket_key(envelope.app_id, name)) for name in affected
    )
