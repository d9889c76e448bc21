"""The in-memory database: schema + data + execution facade.

A :class:`Database` is used in two roles:

* as the **master copy** inside the home server (queries on cache miss,
  updates applied directly — paper Figure 2);
* as a disposable **oracle** in tests and in the view-inspection strategy's
  correctness proofs: ``clone()`` then ``apply()`` lets callers compare
  ``Q[D]`` against ``Q[D + U]`` exactly as the paper's correctness
  definition requires.
"""

from __future__ import annotations

import copy
from collections.abc import Iterable

from repro.errors import ExecutionError
from repro.schema.schema import Schema
from repro.sql.ast import Delete, Insert, Select, Statement, Update
from repro.storage.dml import apply_delete, apply_insert, apply_update
from repro.storage.executor import QueryExecutor
from repro.storage.indexes import DatabaseIndexes
from repro.storage.rows import ResultSet, Row

__all__ = ["Database"]


class Database:
    """Mutable in-memory database over an immutable :class:`Schema`.

    Args:
        schema: The relational schema.
        enforce_foreign_keys: Check FK existence on INSERT (and restrict
            parent deletes when True).  The benchmark generators build
            FK-consistent data, so this defaults to True.
        strict_model: Enforce the paper's modification model (equality on
            the full primary key, non-key assignments only).
    """

    def __init__(
        self,
        schema: Schema,
        enforce_foreign_keys: bool = True,
        strict_model: bool = True,
    ) -> None:
        self.schema = schema
        self.enforce_foreign_keys = enforce_foreign_keys
        self.strict_model = strict_model
        self._indexes = DatabaseIndexes(schema)
        self._executor = QueryExecutor(schema)
        self._version = 0

    # -- introspection --------------------------------------------------------

    @property
    def version(self) -> int:
        """Monotone counter, incremented by every effective update."""
        return self._version

    def rows(self, table: str) -> tuple[Row, ...]:
        """Return a snapshot of the rows currently stored in ``table``."""
        self.schema.table(table)  # validate name
        return tuple(self._indexes.tables[table].values())

    def row_count(self, table: str) -> int:
        """Return the number of rows in ``table``."""
        self.schema.table(table)
        return len(self._indexes.tables[table])

    def total_rows(self) -> int:
        """Return the total number of rows across all tables."""
        return sum(len(rows) for rows in self._indexes.tables.values())

    # -- loading ----------------------------------------------------------------

    def load(self, table: str, rows: Iterable[Row]) -> None:
        """Bulk-load pre-validated rows (used by data generators).

        Rows are trusted but for their width and their primary key — a
        second row under a key would replace the first.  Use :meth:`apply`
        / INSERT statements for checked writes.

        Raises:
            PrimaryKeyViolation: if a row's primary key is already stored.
        """
        width = len(self.schema.table(table).columns)
        for row in rows:
            if len(row) != width:
                raise ExecutionError(
                    f"row width {len(row)} does not match table {table!r} "
                    f"width {width}"
                )
            self._indexes.add(table, tuple(row))

    # -- queries ----------------------------------------------------------------

    def execute(self, select: Select) -> ResultSet:
        """Execute a fully-bound query and return its result."""
        return self._executor.execute(select, self._indexes)

    # -- updates ----------------------------------------------------------------

    def apply(self, statement: Statement) -> int:
        """Apply a fully-bound update; returns the number of affected rows.

        Raises:
            ExecutionError: if given a SELECT.
        """
        if isinstance(statement, Insert):
            affected = apply_insert(
                self.schema, self._indexes, statement, self.enforce_foreign_keys
            )
        elif isinstance(statement, Delete):
            affected = apply_delete(
                self.schema, self._indexes, statement, self.enforce_foreign_keys
            )
        elif isinstance(statement, Update):
            affected = apply_update(
                self.schema, self._indexes, statement, self.strict_model
            )
        else:
            raise ExecutionError("apply() takes an update statement, not a query")
        if affected:
            self._version += 1
        return affected

    # -- cloning ------------------------------------------------------------------

    def clone(self) -> "Database":
        """Deep-copy the data into an independent database (same schema).

        Rows are immutable tuples, so the tables and the index containers
        are shallow-copied (``DatabaseIndexes.clone``) rather than rebuilt,
        and the clone shares the executor — compiled plans belong to the
        schema, not to the contents — because clone() is
        per-checked-update in the oracle's proofs.
        """
        other = copy.copy(self)
        other._indexes = self._indexes.clone()
        return other

    def snapshot(self) -> dict[str, tuple[Row, ...]]:
        """Return an immutable copy of all table contents."""
        return {
            name: tuple(rows.values())
            for name, rows in self._indexes.tables.items()
        }

    def restore(self, snapshot: dict[str, tuple[Row, ...]]) -> None:
        """Replace all table contents with a snapshot taken earlier.

        Raises:
            PrimaryKeyViolation: if the snapshot repeats a primary key; the
                current contents are then left as they were.
        """
        indexes = DatabaseIndexes(self.schema)
        for table, rows in snapshot.items():
            for row in rows:
                indexes.add(table, row)
        self._indexes = indexes
        self._version += 1

    def __deepcopy__(self, memo) -> "Database":
        clone = self.clone()
        memo[id(self)] = clone
        return clone
