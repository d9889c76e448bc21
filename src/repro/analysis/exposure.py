"""Exposure levels and the exposure → IPM-entry mapping.

The administrator chooses an exposure level per template (paper Section
2.3): ``E(U_T) ∈ {blind, template, stmt}`` for update templates and
``E(Q_T) ∈ {blind, template, stmt, view}`` for query templates.  Each level
exposes strictly more to the DSSP (Figure 5's security gradient); whatever
is not exposed travels encrypted.

The pair of exposure levels selects which IPM entry governs invalidation of
the pair (Figure 6):

===========  =======  ==========  ======  ======
U \\ Q        blind    template    stmt    view
===========  =======  ==========  ======  ======
blind        1        1           1       1
template     1        A           A       A
stmt         1        A           B       C
===========  =======  ==========  ======  ======
"""

from __future__ import annotations

import enum
from collections.abc import Mapping

from repro.errors import AnalysisError
from repro.templates.registry import TemplateRegistry

__all__ = ["ExposureLevel", "ExposurePolicy", "IpmEntryKind", "ipm_entry_kind"]


class ExposureLevel(enum.IntEnum):
    """How much of a template's information the DSSP may see.

    Ordering is meaningful: lower value = less exposure = more encryption.
    ``VIEW`` applies only to query templates (it exposes the query statement
    *and* its cached result).
    """

    BLIND = 0
    TEMPLATE = 1
    STMT = 2
    VIEW = 3

    @property
    def label(self) -> str:
        """The paper's lowercase name for the level."""
        return self.name.lower()


class IpmEntryKind(enum.Enum):
    """Which symbolic IPM entry governs a pair at given exposure levels."""

    ONE = "1"
    A = "A"
    B = "B"
    C = "C"


def ipm_entry_kind(
    update_level: ExposureLevel, query_level: ExposureLevel
) -> IpmEntryKind:
    """Map a (U exposure, Q exposure) pair to its IPM entry (Figure 6).

    Raises:
        AnalysisError: if the update level is ``VIEW`` (updates have no
            cached result to expose).
    """
    if update_level is ExposureLevel.VIEW:
        raise AnalysisError("update templates have no 'view' exposure level")
    if update_level is ExposureLevel.BLIND or query_level is ExposureLevel.BLIND:
        return IpmEntryKind.ONE
    if (
        update_level is ExposureLevel.TEMPLATE
        or query_level is ExposureLevel.TEMPLATE
    ):
        return IpmEntryKind.A
    if query_level is ExposureLevel.STMT:
        return IpmEntryKind.B
    return IpmEntryKind.C


class ExposurePolicy:
    """An assignment of exposure levels to every template of an application.

    Immutable-ish mapping with convenience constructors; the methodology
    produces these and the DSSP consumes them (to pick per-pair strategies
    and to decide what to encrypt).
    """

    def __init__(
        self,
        queries: Mapping[str, ExposureLevel],
        updates: Mapping[str, ExposureLevel],
    ) -> None:
        for name, level in updates.items():
            if level is ExposureLevel.VIEW:
                raise AnalysisError(
                    f"update template {name!r} cannot have 'view' exposure"
                )
        self._queries = dict(queries)
        self._updates = dict(updates)

    # -- constructors -----------------------------------------------------------

    @classmethod
    def maximum_exposure(cls, registry: TemplateRegistry) -> "ExposurePolicy":
        """Everything exposed: queries at ``view``, updates at ``stmt``.

        This is the methodology's starting point (Step 1 input) and also
        the "No Encryption" end of the tradeoff (Figure 3's left point).
        """
        return cls(
            queries={q.name: ExposureLevel.VIEW for q in registry.queries},
            updates={u.name: ExposureLevel.STMT for u in registry.updates},
        )

    @classmethod
    def full_encryption(cls, registry: TemplateRegistry) -> "ExposurePolicy":
        """Everything hidden: all templates at ``blind`` (Figure 3's right)."""
        return cls(
            queries={q.name: ExposureLevel.BLIND for q in registry.queries},
            updates={u.name: ExposureLevel.BLIND for u in registry.updates},
        )

    @classmethod
    def uniform(
        cls, registry: TemplateRegistry, level: ExposureLevel
    ) -> "ExposurePolicy":
        """All queries at ``level``; updates at ``min(level, stmt)``.

        Used for the coarse-grain comparison of Figure 8, where one
        invalidation-strategy class serves every pair.
        """
        update_level = min(level, ExposureLevel.STMT)
        return cls(
            queries={q.name: level for q in registry.queries},
            updates={u.name: ExposureLevel(update_level) for u in registry.updates},
        )

    # -- access -------------------------------------------------------------------

    def query_level(self, name: str) -> ExposureLevel:
        """Exposure level of query template ``name``."""
        try:
            return self._queries[name]
        except KeyError:
            raise AnalysisError(f"no exposure set for query {name!r}") from None

    def update_level(self, name: str) -> ExposureLevel:
        """Exposure level of update template ``name``."""
        try:
            return self._updates[name]
        except KeyError:
            raise AnalysisError(f"no exposure set for update {name!r}") from None

    @property
    def query_levels(self) -> dict[str, ExposureLevel]:
        """Copy of the query-template exposure assignment."""
        return dict(self._queries)

    @property
    def update_levels(self) -> dict[str, ExposureLevel]:
        """Copy of the update-template exposure assignment."""
        return dict(self._updates)

    # -- mutation-by-copy -----------------------------------------------------------

    def with_query_level(self, name: str, level: ExposureLevel) -> "ExposurePolicy":
        """Return a copy with one query template's level replaced."""
        self.query_level(name)  # validate existence
        queries = dict(self._queries)
        queries[name] = level
        return ExposurePolicy(queries, self._updates)

    def with_update_level(self, name: str, level: ExposureLevel) -> "ExposurePolicy":
        """Return a copy with one update template's level replaced."""
        self.update_level(name)
        updates = dict(self._updates)
        updates[name] = level
        return ExposurePolicy(self._queries, updates)

    # -- metrics ----------------------------------------------------------------------

    def encrypted_result_count(self) -> int:
        """Number of query templates whose *results* are encrypted.

        This is the simple security metric of Figure 3's x-axis: a query
        result is encrypted whenever the query's exposure level is below
        ``view``.
        """
        return sum(
            1 for level in self._queries.values() if level < ExposureLevel.VIEW
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExposurePolicy):
            return NotImplemented
        return (
            self._queries == other._queries and self._updates == other._updates
        )

    def __repr__(self) -> str:
        return (
            f"ExposurePolicy(queries={len(self._queries)}, "
            f"updates={len(self._updates)})"
        )
