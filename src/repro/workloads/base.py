"""Common workload interfaces.

An :class:`AppSpec` is the static description of a benchmark application:
schema, template registry, and a recipe for synthetic data + page mix.
``instantiate`` produces an :class:`AppInstance`: a populated master
database plus a :class:`PageSampler` that emits page requests — sequences
of :class:`Operation` (bound queries/updates) — mimicking the benchmark's
interaction mix.

Samplers are stateful: they track live primary keys so deletes/inserts stay
constraint-consistent, exactly as a real client population would.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from repro.errors import WorkloadError
from repro.storage.database import Database
from repro.templates.registry import TemplateRegistry
from repro.templates.template import BoundQuery, BoundUpdate

__all__ = ["AppInstance", "AppSpec", "Operation", "PageClass", "PageSampler"]


@dataclass(frozen=True)
class Operation:
    """One database operation inside a page request."""

    bound: BoundQuery | BoundUpdate

    @property
    def is_update(self) -> bool:
        """True for updates, False for queries."""
        return isinstance(self.bound, BoundUpdate)

    @classmethod
    def query(cls, bound: BoundQuery) -> "Operation":
        """Wrap a bound query."""
        return cls(bound=bound)

    @classmethod
    def update(cls, bound: BoundUpdate) -> "Operation":
        """Wrap a bound update."""
        return cls(bound=bound)


@dataclass(frozen=True)
class PageClass:
    """One interaction class of the benchmark's page mix.

    ``build(sampler, rng)`` returns the page's operations; ``weight`` is
    its relative frequency in the mix.
    """

    name: str
    weight: float
    build: Callable[["PageSampler", random.Random], list[Operation]]


class PageSampler:
    """Draws page requests according to a weighted page mix.

    Subclasses (one per application) add id-pool state and helper methods;
    the page-class builders call back into those helpers.
    """

    def __init__(self, registry: TemplateRegistry, pages: Sequence[PageClass]):
        if not pages:
            raise WorkloadError("page mix cannot be empty")
        self.registry = registry
        self._pages = list(pages)
        self._weights = [p.weight for p in pages]

    def sample_page(self, rng: random.Random) -> list[Operation]:
        """Draw one page request (a list of operations)."""
        page = rng.choices(self._pages, weights=self._weights, k=1)[0]
        return page.build(self, rng)

    # -- binding helpers ------------------------------------------------------

    def query(self, name: str, *params) -> Operation:
        """Bind a query template into an operation."""
        return Operation.query(self.registry.query(name).bind(list(params)))

    def update(self, name: str, *params) -> Operation:
        """Bind an update template into an operation."""
        return Operation.update(self.registry.update(name).bind(list(params)))


@dataclass
class AppInstance:
    """A populated application ready to deploy behind a DSSP."""

    spec: "AppSpec"
    database: Database
    sampler: PageSampler


@dataclass(frozen=True)
class AppSpec:
    """Static description of one benchmark application."""

    name: str
    registry: TemplateRegistry
    #: (registry, database, scale, rng) -> PageSampler; also loads the data.
    _factory: Callable[[TemplateRegistry, Database, float, random.Random], PageSampler] = field(
        repr=False
    )

    def instantiate(self, scale: float = 1.0, seed: int = 0) -> AppInstance:
        """Generate synthetic data at ``scale`` and build the page sampler.

        ``scale=1.0`` targets a few hundred rows per major relation —
        small enough for fast simulation, large enough for meaningful
        selectivities.  Scale multiplies row counts.
        """
        if scale <= 0:
            raise WorkloadError("scale must be positive")
        database = Database(self.registry.schema)
        rng = random.Random(seed)
        sampler = self._factory(self.registry, database, scale, rng)
        return AppInstance(spec=self, database=database, sampler=sampler)
