"""The in-memory backend: the existing Python engine behind the seam.

Thin adapter around :class:`~repro.storage.database.Database` that adds the
shared canonical ORDER BY/LIMIT semantics (see
:mod:`repro.storage.backends.base`).  Everything else — execution,
constraints, indexing — is the wrapped engine, unchanged.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.obs.trace import span as trace_span
from repro.schema.schema import Schema
from repro.sql.ast import Select, Statement
from repro.storage.backends.base import CanonicalOrderer
from repro.storage.database import Database
from repro.storage.rows import ResultSet, Row

__all__ = ["InMemoryBackend"]


class InMemoryBackend:
    """Pure-Python multiset engine, adapted to the :class:`Backend` protocol."""

    name = "memory"

    def __init__(self, database: Database) -> None:
        self.database = database
        self._orderer = CanonicalOrderer()

    @classmethod
    def create(
        cls,
        schema: Schema,
        *,
        enforce_foreign_keys: bool = True,
        strict_model: bool = True,
    ) -> "InMemoryBackend":
        return cls(
            Database(
                schema,
                enforce_foreign_keys=enforce_foreign_keys,
                strict_model=strict_model,
            )
        )

    # -- protocol surface ----------------------------------------------------

    @property
    def schema(self) -> Schema:
        return self.database.schema

    @property
    def enforce_foreign_keys(self) -> bool:
        return self.database.enforce_foreign_keys

    @property
    def strict_model(self) -> bool:
        return self.database.strict_model

    @property
    def version(self) -> int:
        return self.database.version

    def execute(self, select: Select) -> ResultSet:
        with trace_span("storage.execute", backend=self.name):
            return self._orderer.execute(select, self.database.execute)

    def apply(self, statement: Statement) -> int:
        return self.database.apply(statement)

    def load(self, table: str, rows: Iterable[Row]) -> None:
        self.database.load(table, rows)

    def rows(self, table: str) -> tuple[Row, ...]:
        return self.database.rows(table)

    def row_count(self, table: str) -> int:
        return self.database.row_count(table)

    def total_rows(self) -> int:
        return self.database.total_rows()

    def clone(self) -> "InMemoryBackend":
        return InMemoryBackend(self.database.clone())

    def snapshot(self) -> dict[str, tuple[Row, ...]]:
        return self.database.snapshot()

    def restore(self, snapshot: dict[str, tuple[Row, ...]]) -> None:
        self.database.restore(snapshot)

    def close(self) -> None:  # nothing to release
        return None
