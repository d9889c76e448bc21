"""Named query/update templates and their bound instances.

Templates carry a short name (``Q1``, ``U2``, or descriptive names like
``getBestSellers``), the parsed AST, and an optional *sensitivity* label
used by the security methodology (Step 1 decides compulsory encryption from
sensitivity; Section 5.4 discusses moderately-sensitive data).
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.errors import TemplateError
from repro.obs.memo import BoundedMemo
from repro.sql.ast import Delete, Insert, Scalar, Select, Update
from repro.sql.formatter import to_sql
from repro.sql.parser import parse
from repro.templates.binding import bind, count_parameters

__all__ = [
    "BoundQuery",
    "BoundUpdate",
    "QueryTemplate",
    "Sensitivity",
    "UpdateTemplate",
]


# Binding is pure — (template, params) fully determines the bound
# instance, and every layer above treats it as immutable — while the Zipf
# workloads bind the same popular pairs constantly.  Keyed by template
# identity (templates are long-lived registry members; hashing one hashes
# its whole AST), pinned against a recycled id().
_bind_memo = BoundedMemo("templates.bind", 8192)


class Sensitivity(enum.Enum):
    """Data-sensitivity bands used by the design methodology (Section 1.2)."""

    HIGH = "high"  # e.g. credit-card data: compulsory encryption (Step 1)
    MODERATE = "moderate"  # e.g. inventory, bid history: encrypt if free
    LOW = "low"  # e.g. best-seller list: public anyway


@dataclass(frozen=True)
class QueryTemplate:
    """A named query template ``Q_T``.

    Attributes:
        name: Stable identifier within the application.
        select: Parsed SELECT AST with ``?`` parameters.
        sensitivity: How sensitive the query's result data is.
    """

    name: str
    select: Select
    sensitivity: Sensitivity = Sensitivity.LOW

    @classmethod
    def from_sql(
        cls, name: str, sql: str, sensitivity: Sensitivity = Sensitivity.LOW
    ) -> "QueryTemplate":
        """Parse SQL text into a query template.

        Raises:
            TemplateError: if the SQL is not a SELECT.
        """
        statement = parse(sql)
        if not isinstance(statement, Select):
            raise TemplateError(f"template {name!r} is not a query: {sql!r}")
        return cls(name=name, select=statement, sensitivity=sensitivity)

    @property
    def parameter_count(self) -> int:
        """Number of ``?`` parameters."""
        return count_parameters(self.select)

    @property
    def sql(self) -> str:
        """Canonical SQL text of the template."""
        return to_sql(self.select)

    def bind(self, params: Sequence[Scalar]) -> "BoundQuery":
        """Attach parameters, producing an executable query instance."""
        params = tuple(params)
        return _bind_memo.get_pinned(
            (id(self), params), self, self._bind, params
        )

    def _bind(self, params: tuple) -> "BoundQuery":
        bound = bind(self.select, params)
        assert isinstance(bound, Select)
        return BoundQuery(template=self, params=params, select=bound)


@dataclass(frozen=True)
class UpdateTemplate:
    """A named update template ``U_T`` (insertion, deletion or modification)."""

    name: str
    statement: Insert | Delete | Update
    sensitivity: Sensitivity = Sensitivity.LOW

    @classmethod
    def from_sql(
        cls, name: str, sql: str, sensitivity: Sensitivity = Sensitivity.LOW
    ) -> "UpdateTemplate":
        """Parse SQL text into an update template.

        Raises:
            TemplateError: if the SQL is a SELECT.
        """
        statement = parse(sql)
        if isinstance(statement, Select):
            raise TemplateError(f"template {name!r} is not an update: {sql!r}")
        return cls(name=name, statement=statement, sensitivity=sensitivity)

    @property
    def parameter_count(self) -> int:
        """Number of ``?`` parameters."""
        return count_parameters(self.statement)

    @property
    def sql(self) -> str:
        """Canonical SQL text of the template."""
        return to_sql(self.statement)

    def bind(self, params: Sequence[Scalar]) -> "BoundUpdate":
        """Attach parameters, producing an applicable update instance."""
        params = tuple(params)
        return _bind_memo.get_pinned(
            (id(self), params), self, self._bind, params
        )

    def _bind(self, params: tuple) -> "BoundUpdate":
        bound = bind(self.statement, params)
        assert not isinstance(bound, Select)
        return BoundUpdate(template=self, params=params, statement=bound)


@dataclass(frozen=True)
class BoundQuery:
    """A query instance ``Q = Q_T(Q_P)``.

    Hashable — the DSSP cache keys on bound statements.
    """

    template: QueryTemplate
    params: tuple[Scalar, ...]
    #: Derived from (template, params); excluded from equality.
    select: Select = field(compare=False)

    @property
    def sql(self) -> str:
        """Canonical SQL text of the bound statement."""
        return to_sql(self.select)

    def __hash__(self) -> int:
        return hash((self.template.name, self.params))


@dataclass(frozen=True)
class BoundUpdate:
    """An update instance ``U = U_T(U_P)``."""

    template: UpdateTemplate
    params: tuple[Scalar, ...]
    statement: Insert | Delete | Update = field(compare=False)

    @property
    def sql(self) -> str:
        """Canonical SQL text of the bound statement."""
        return to_sql(self.statement)

    def __hash__(self) -> int:
        return hash((self.template.name, self.params))
