"""The Database Scalability Service Provider runtime (paper Figure 2).

* :class:`~repro.dssp.cache.ViewCache` — the DSSP's store of (possibly
  encrypted) cached query results, keyed exactly as footnote 3 prescribes.
* :mod:`~repro.dssp.invalidation` — the four minimal invalidation strategy
  classes (MBS, MTIS, MSIS, MVIS) and the mixed-strategy engine that
  dispatches per update/query pair on the information actually visible.
* :class:`~repro.dssp.homeserver.HomeServer` — the application's home
  organization: master database, update application, miss service.
* :class:`~repro.dssp.proxy.DsspNode` — ties cache + invalidation + home
  forwarding together behind the client-facing API.
"""

from repro.dssp.cache import CacheEntry, ViewCache
from repro.dssp.homeserver import HomeServer
from repro.dssp.invalidation import (
    InvalidationEngine,
    StrategyClass,
)
from repro.dssp.cluster import DsspCluster
from repro.dssp.ring import HashRing
from repro.dssp.correctness import (
    CorrectnessReport,
    verify_invalidation_correctness,
)
from repro.dssp.predicate_index import PredicateIndexer
from repro.dssp.proxy import DsspNode
from repro.dssp.stats import DsspStats
from repro.dssp.strategies import (
    BlindStrategy,
    Decision,
    InvalidationInput,
    StatementInspectionStrategy,
    TemplateInspectionStrategy,
    ViewInspectionStrategy,
)

__all__ = [
    "BlindStrategy",
    "CacheEntry",
    "CorrectnessReport",
    "Decision",
    "DsspCluster",
    "DsspNode",
    "DsspStats",
    "HashRing",
    "HomeServer",
    "InvalidationEngine",
    "InvalidationInput",
    "PredicateIndexer",
    "StatementInspectionStrategy",
    "StrategyClass",
    "TemplateInspectionStrategy",
    "ViewCache",
    "ViewInspectionStrategy",
    "verify_invalidation_correctness",
]
