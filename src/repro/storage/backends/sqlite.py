"""The SQLite backend: durable master databases on the stdlib engine.

Implements the :class:`~repro.storage.backends.base.Backend` protocol over
:mod:`sqlite3`, driven by the :class:`~repro.sql.dialect.SqliteDialect`
compiler.  The design goal is *observational equivalence* with the
in-memory engine — same results, same affected-row counts, same exception
types in the same order — which the differential parity suite enforces.
Three decisions follow from it:

* **Constraints are checked in Python, before SQLite runs the statement.**
  NOT NULL / type / statement-shape checks reuse the exact validators of
  :mod:`repro.storage.dml`; primary-key and foreign-key existence are O(1)
  indexed point SELECTs.  SQLite's own FK enforcement stays off
  (``PRAGMA foreign_keys = OFF``) because its semantics differ from the
  paper's model — e.g. modifications are never FK-checked there.
* **Ordering is canonicalized in Python** via the shared
  :class:`~repro.storage.backends.base.CanonicalOrderer`, so ORDER BY tie
  order and LIMIT cutoffs cannot depend on SQLite scan order.
* **Modifications carry an effective-change guard** (``AND NOT (col IS ?
  ...)``) so ``rowcount`` counts only rows the update actually changed,
  like the in-memory engine — the invalidation layer keys off that count.

Durability: with a file path, the connection runs in autocommit with WAL
journaling, so every acked update is on disk when ``apply`` returns; a
process that dies and reopens the same path resumes from the last acked
state (the chaos oracle's home-kill scenario proves this end to end).
"""

from __future__ import annotations

import sqlite3
from collections.abc import Iterable
from pathlib import Path

from repro.errors import (
    ExecutionError,
    ForeignKeyViolation,
    PrimaryKeyViolation,
)
from repro.obs.memo import BoundedMemo
from repro.obs.trace import span as trace_span
from repro.schema.schema import Schema
from repro.schema.table import TableSchema
from repro.sql.ast import Delete, Insert, Select, Statement, Update
from repro.sql.dialect import SqliteDialect
from repro.storage.backends.base import CanonicalOrderer
from repro.storage.database import Database
from repro.storage.dml import (
    _check_modification_model,
    validate_insert_row,
    validate_update_assignments,
)
from repro.storage.rows import ResultSet, Row

__all__ = ["SqliteBackend"]


class SqliteBackend:
    """A master database persisted in SQLite (stdlib, zero new deps).

    Args:
        schema: The relational schema (DDL is derived from it).
        path: Database file; None keeps everything in ``:memory:``.
            Reopening an existing file resumes its durable contents.
        enforce_foreign_keys: FK existence on INSERT / restrict on parent
            DELETE, enforced Python-side (see module docstring).
        strict_model: Enforce the paper's modification model.
    """

    name = "sqlite"

    def __init__(
        self,
        schema: Schema,
        path: str | Path | None = None,
        enforce_foreign_keys: bool = True,
        strict_model: bool = True,
    ) -> None:
        self.schema = schema
        self.enforce_foreign_keys = enforce_foreign_keys
        self.strict_model = strict_model
        self.path = Path(path) if path is not None else None
        self._dialect = SqliteDialect(schema)
        self._orderer = CanonicalOrderer()
        self._connection = sqlite3.connect(
            str(self.path) if self.path is not None else ":memory:",
            isolation_level=None,  # autocommit: each DML is durable on return
        )
        self._connection.execute("PRAGMA foreign_keys = OFF")
        if self.path is not None:
            self._connection.execute("PRAGMA journal_mode = WAL")
            self._connection.execute("PRAGMA synchronous = NORMAL")
        for ddl in self._dialect.create_schema():
            self._connection.execute(ddl)
        self._version = 0
        # Compiled SQL per core-select identity; cores are themselves
        # memoized by the orderer's plans, so popular statements compile once.
        self._compiled = BoundedMemo("storage.sqlite_compiled", 2048)

    @classmethod
    def from_database(
        cls, database: Database, path: str | Path | None = None
    ) -> "SqliteBackend":
        """Open a backend at ``path`` and seed it from ``database`` if empty.

        A non-empty existing file wins: its durable contents are resumed
        and the generator state is ignored (the restart-survival path).
        """
        backend = cls(
            database.schema,
            path=path,
            enforce_foreign_keys=database.enforce_foreign_keys,
            strict_model=database.strict_model,
        )
        if backend.total_rows() == 0:
            backend.populate_from(database)
        return backend

    def populate_from(self, database: Database) -> None:
        """Bulk-copy every table of an in-memory database (trusted rows)."""
        for table in self.schema.table_names:
            rows = database.rows(table)
            if rows:
                self.load(table, rows)
        self._version = database.version

    # -- introspection -------------------------------------------------------

    @property
    def version(self) -> int:
        """Monotone counter, incremented by every effective update."""
        return self._version

    def rows(self, table: str) -> tuple[Row, ...]:
        """Return a snapshot of the rows currently stored in ``table``."""
        table_schema = self.schema.table(table)
        names = ", ".join(f'"{c.name}"' for c in table_schema.columns)
        cursor = self._connection.execute(
            f'SELECT {names} FROM "{table_schema.name}"'
        )
        return tuple(cursor.fetchall())

    def row_count(self, table: str) -> int:
        table_schema = self.schema.table(table)
        cursor = self._connection.execute(
            f'SELECT COUNT(*) FROM "{table_schema.name}"'
        )
        return cursor.fetchone()[0]

    def total_rows(self) -> int:
        return sum(self.row_count(name) for name in self.schema.table_names)

    # -- loading -------------------------------------------------------------

    def load(self, table: str, rows: Iterable[Row]) -> None:
        """Bulk-load pre-validated rows inside one transaction.

        Raises:
            PrimaryKeyViolation: if a row's primary key is already stored
                (as the memory engine does); the transaction keeps
                nothing of the batch.
        """
        table_schema = self.schema.table(table)
        width = len(table_schema.columns)
        checked = []
        for row in rows:
            if len(row) != width:
                raise ExecutionError(
                    f"row width {len(row)} does not match table {table!r} "
                    f"width {width}"
                )
            checked.append(tuple(row))
        self._connection.execute("BEGIN")
        try:
            self._insert_rows(table_schema, checked)
        except BaseException:
            self._connection.execute("ROLLBACK")
            raise
        self._connection.execute("COMMIT")

    def _insert_rows(self, table: TableSchema, rows: Iterable[Row]) -> None:
        try:
            self._connection.executemany(
                self._dialect.compile_insert_row(table), rows
            )
        except sqlite3.IntegrityError as error:
            if error.sqlite_errorname != "SQLITE_CONSTRAINT_PRIMARYKEY":
                raise
            raise PrimaryKeyViolation(
                f"duplicate primary key in table {table.name!r}"
            ) from error

    # -- queries -------------------------------------------------------------

    def execute(self, select: Select) -> ResultSet:
        """Execute a fully-bound query and return its result."""
        with trace_span("storage.execute", backend=self.name):
            return self._orderer.execute(select, self._run_core)

    def _run_core(self, core: Select) -> ResultSet:
        compiled = self._compiled.get_pinned(
            id(core), core, self._dialect.compile_select, core
        )
        cursor = self._connection.execute(compiled.sql, compiled.params)
        return ResultSet(
            columns=compiled.columns,
            rows=tuple(cursor.fetchall()),
            ordered=False,
        )

    # -- updates -------------------------------------------------------------

    def apply(self, statement: Statement) -> int:
        """Apply a fully-bound update; returns the number of affected rows."""
        if isinstance(statement, Insert):
            affected = self._apply_insert(statement)
        elif isinstance(statement, Delete):
            affected = self._apply_delete(statement)
        elif isinstance(statement, Update):
            affected = self._apply_update(statement)
        else:
            raise ExecutionError("apply() takes an update statement, not a query")
        if affected:
            self._version += 1
        return affected

    def _apply_insert(self, insert: Insert) -> int:
        table, row = validate_insert_row(self.schema, insert)
        if table.primary_key:
            key = tuple(
                row[table.position(column)] for column in table.primary_key
            )
            if self._pk_exists(table, key):
                raise PrimaryKeyViolation(
                    f"duplicate primary key {key!r} in table {table.name!r}"
                )
        if self.enforce_foreign_keys:
            for foreign_key in table.foreign_keys:
                value = row[table.position(foreign_key.column)]
                if value is None:
                    continue  # NULL FK is permitted
                if not self._value_exists(
                    foreign_key.ref_table, foreign_key.ref_column, value
                ):
                    raise ForeignKeyViolation(
                        f"{foreign_key.describe(table.name)}: no parent row "
                        f"with {foreign_key.ref_column} = {value!r}"
                    )
        self._connection.execute(
            self._dialect.compile_insert_row(table), row
        )
        return 1

    def _apply_delete(self, delete: Delete) -> int:
        table = self.schema.table(delete.table)
        if self.enforce_foreign_keys:
            incoming = self.schema.foreign_keys_into(table.name)
            for owner_name, foreign_key in incoming:
                sql, params = self._dialect.compile_select_column(
                    table, foreign_key.ref_column, delete.where
                )
                values = [
                    value
                    for (value,) in self._connection.execute(sql, params)
                ]
                for value in values:
                    if self._value_exists(
                        owner_name, foreign_key.column, value
                    ):
                        raise ForeignKeyViolation(
                            f"cannot delete {table.name} row: still "
                            f"referenced via {foreign_key.describe(owner_name)}"
                        )
        sql, params = self._dialect.compile_delete(table, delete.where)
        cursor = self._connection.execute(sql, params)
        return cursor.rowcount

    def _apply_update(self, update: Update) -> int:
        table = self.schema.table(update.table)
        if self.strict_model:
            _check_modification_model(table, update)
        assignments = validate_update_assignments(table, update)
        sql, params = self._dialect.compile_update(
            table, assignments, update.where
        )
        cursor = self._connection.execute(sql, params)
        return cursor.rowcount

    def _pk_exists(self, table: TableSchema, key: tuple) -> bool:
        where = " AND ".join(f'"{name}" = ?' for name in table.primary_key)
        cursor = self._connection.execute(
            f'SELECT 1 FROM "{table.name}" WHERE {where} LIMIT 1', key
        )
        return cursor.fetchone() is not None

    def _value_exists(self, table: str, column: str, value) -> bool:
        cursor = self._connection.execute(
            f'SELECT 1 FROM "{table}" WHERE "{column}" = ? LIMIT 1', (value,)
        )
        return cursor.fetchone() is not None

    # -- cloning / snapshots -------------------------------------------------

    def clone(self) -> "SqliteBackend":
        """Copy into an independent in-memory backend (same schema)."""
        other = SqliteBackend(
            self.schema,
            path=None,
            enforce_foreign_keys=self.enforce_foreign_keys,
            strict_model=self.strict_model,
        )
        self._connection.backup(other._connection)
        other._version = self._version
        return other

    def snapshot(self) -> dict[str, tuple[Row, ...]]:
        """Return an immutable copy of all table contents."""
        return {name: self.rows(name) for name in self.schema.table_names}

    def restore(self, snapshot: dict[str, tuple[Row, ...]]) -> None:
        """Replace all table contents with a snapshot taken earlier."""
        self._connection.execute("BEGIN")
        try:
            for name, rows in snapshot.items():
                table = self.schema.table(name)
                self._connection.execute(f'DELETE FROM "{table.name}"')
                self._insert_rows(table, rows)
        except BaseException:
            self._connection.execute("ROLLBACK")
            raise
        self._connection.execute("COMMIT")
        self._version += 1

    def close(self) -> None:
        """Release the connection (safe to call more than once)."""
        self._connection.close()

    def __deepcopy__(self, memo) -> "SqliteBackend":
        clone = self.clone()
        memo[id(self)] = clone
        return clone
