"""The storage-backend seam: what the home needs from a master database.

A :class:`Backend` is exactly what the home server needs from its master
database (duck-type compatible with :class:`~repro.storage.database.Database`,
which *is* the ``memory`` backend): execute a bound SELECT to a
:class:`~repro.storage.rows.ResultSet`, apply a bound update statement,
bulk-load trusted rows, snapshot/clone for the oracle, and expose a
monotone version stamp.

Every backend returns ordered results in the one order the executor
documents (:mod:`repro.storage.executor`, "Result order"); SQLite gets it
by compiling ORDER BY and LIMIT (:mod:`repro.sql.dialect`).
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Protocol, runtime_checkable

from repro.schema.schema import Schema
from repro.sql.ast import Select, Statement
from repro.storage.rows import ResultSet, Row

__all__ = ["Backend"]


@runtime_checkable
class Backend(Protocol):
    """What the home (and the oracle) needs from a master database."""

    #: Registry name of the backend kind ("memory", "sqlite", ...).
    name: str
    schema: Schema

    @property
    def version(self) -> int:
        """Monotone counter, incremented by every effective update."""
        ...

    def execute(self, select: Select) -> ResultSet: ...

    def apply(self, statement: Statement) -> int: ...

    def load(self, table: str, rows: Iterable[Row]) -> None: ...

    def rows(self, table: str) -> tuple[Row, ...]: ...

    def row_count(self, table: str) -> int: ...

    def total_rows(self) -> int: ...

    def clone(self) -> "Backend": ...

    def snapshot(self) -> dict[str, tuple[Row, ...]]: ...

    def close(self) -> None: ...
