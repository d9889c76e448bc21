"""Dialect compiler: the paper's SQL AST → parameterized SQLite SQL.

This is the seam the pluggable-backend subsystem rests on (the pytrilogy
``Executor`` pattern: one interface, per-engine generators behind it).  The
compiler turns fully-bound :mod:`repro.sql.ast` statements into SQL text
plus a flat parameter list — every literal travels as a ``?`` bind, never
as inline text — and derives DDL from a :class:`~repro.schema.Schema`.

Semantics are the in-memory engine's, not stock SQLite's, so three rules
shape the output:

* **One result order.**  ORDER BY and LIMIT compile to the executor's
  documented order (:mod:`repro.storage.executor`, "Result order"): each
  key ``ASC NULLS LAST`` or ``DESC NULLS FIRST``, ties broken by each FROM
  binding's primary key (all its columns when it has none), aggregate
  output by its select positions — :func:`~repro.storage.rows.sort_key`
  order, which SQLite matches once NULLS LAST is spelled out (3.30+).
* **Validation mirrors the executor.**  Unknown tables/columns, ambiguous
  bare columns, duplicate FROM bindings, aggregate/GROUP BY shape errors
  and unbound parameters raise the same exception types the in-memory
  executor raises, at compile time, before SQLite ever sees the text.
* **Constraints stay in Python.**  The generated DDL declares PRIMARY KEY
  and FOREIGN KEY clauses for documentation and tooling, but the backend
  enforces them Python-side (pre-checks mirroring :mod:`repro.storage.dml`)
  so that error ordering, error types, and the update model's semantics —
  e.g. modifications never FK-checked, exactly like the in-memory engine —
  are identical across backends.

Known divergence (documented, not worked around): SQLite applies column
*type affinity* inside comparisons, so ``text_column = 5`` can hold where
the Python engine's ``'5' == 5`` is False.  The workloads bind
type-correct parameters, so the divergence is unreachable through the
template layer; the differential fuzzer generates only type-correct
comparisons for the same reason.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import (
    ExecutionError,
    SchemaError,
    UnknownColumnError,
    UnknownTableError,
    UnsupportedSqlError,
)
from repro.schema.column import ColumnType
from repro.schema.schema import Schema
from repro.schema.table import TableSchema
from repro.sql.ast import (
    Aggregate,
    ColumnRef,
    Comparison,
    Literal,
    Parameter,
    Scalar,
    Select,
    Star,
    Value,
)

__all__ = ["CompiledSelect", "SqliteDialect"]

_TYPE_MAP = {
    ColumnType.INTEGER: "INTEGER",
    ColumnType.FLOAT: "REAL",
    ColumnType.TEXT: "TEXT",
}


def _quote(identifier: str) -> str:
    return '"' + identifier.replace('"', '""') + '"'


@dataclass(frozen=True, slots=True)
class CompiledSelect:
    """One compiled SELECT: text, bind parameters, and output column names.

    ``columns`` uses exactly the in-memory executor's naming (qualified
    display names; ``*`` expanded per binding) so a
    :class:`~repro.storage.rows.ResultSet` built from the fetched rows is
    column-for-column comparable with the in-memory engine's.
    """

    sql: str
    params: tuple[Scalar, ...]
    columns: tuple[str, ...]


class _Scope:
    """Name resolution for one SELECT, mirroring the executor's scope."""

    def __init__(self, schema: Schema, select: Select) -> None:
        self.schema = schema
        self.bindings: list[str] = []
        self.tables: list[str] = []
        seen: set[str] = set()
        for table_ref in select.tables:
            if table_ref.name not in schema:
                raise UnknownTableError(table_ref.name)
            binding = table_ref.binding
            if binding in seen:
                raise SchemaError(f"duplicate binding {binding!r} in FROM clause")
            seen.add(binding)
            self.bindings.append(binding)
            self.tables.append(table_ref.name)

    def resolve(self, ref: ColumnRef) -> tuple[int, str]:
        """Resolve a column ref to (binding index, column name)."""
        if ref.table is not None:
            for index, binding in enumerate(self.bindings):
                if binding == ref.table:
                    self.schema.table(self.tables[index]).position(ref.column)
                    return index, ref.column
            raise UnknownTableError(ref.table)
        matches = []
        for index, table_name in enumerate(self.tables):
            table = self.schema.table(table_name)
            if table.has_column(ref.column):
                matches.append((index, ref.column))
        if not matches:
            raise UnknownColumnError(ref.column)
        if len(matches) > 1:
            raise SchemaError(f"ambiguous column {ref.column!r}")
        return matches[0]

    def sql_of(self, ref: ColumnRef) -> str:
        index, column = self.resolve(ref)
        return f"{_quote(self.bindings[index])}.{_quote(column)}"


class SqliteDialect:
    """Compiles the paper's dialect to SQLite SQL for one schema."""

    def __init__(self, schema: Schema) -> None:
        self.schema = schema

    # -- DDL -----------------------------------------------------------------

    def create_table(self, table: TableSchema) -> str:
        """``CREATE TABLE IF NOT EXISTS`` text for one relation."""
        pieces: list[str] = []
        for column in table.columns:
            not_null = (
                " NOT NULL"
                if not column.nullable or table.is_key_column(column.name)
                else ""
            )
            pieces.append(
                f"{_quote(column.name)} {_TYPE_MAP[column.type]}{not_null}"
            )
        if table.primary_key:
            keys = ", ".join(_quote(name) for name in table.primary_key)
            pieces.append(f"PRIMARY KEY ({keys})")
        for foreign_key in table.foreign_keys:
            pieces.append(
                f"FOREIGN KEY ({_quote(foreign_key.column)}) REFERENCES "
                f"{_quote(foreign_key.ref_table)} "
                f"({_quote(foreign_key.ref_column)})"
            )
        body = ", ".join(pieces)
        return f"CREATE TABLE IF NOT EXISTS {_quote(table.name)} ({body})"

    def create_schema(self) -> list[str]:
        """DDL statements for every table, in schema declaration order."""
        return [self.create_table(table) for table in self.schema]

    # -- SELECT --------------------------------------------------------------

    def compile_select(self, select: Select) -> CompiledSelect:
        """Compile a SELECT, its ORDER BY and LIMIT included.

        Raises the same exception types the in-memory executor would for a
        malformed statement.
        """
        if isinstance(select.limit, Parameter):
            raise ExecutionError("unbound parameter in LIMIT")
        scope = _Scope(self.schema, select)
        params: list[Scalar] = []
        aggregate = select.has_aggregate() or bool(select.group_by)
        if aggregate:
            item_sql, columns = self._aggregate_items(scope, select)
        else:
            item_sql, columns = self._plain_items(scope, select)
        from_sql = ", ".join(
            f"{_quote(name)} AS {_quote(binding)}"
            if name != binding
            else _quote(name)
            for name, binding in zip(scope.tables, scope.bindings)
        )
        sql = f"SELECT {', '.join(item_sql)} FROM {from_sql}"
        where_sql = self._compile_where(scope, select.where, params)
        if where_sql:
            sql += f" WHERE {where_sql}"
        if select.group_by:
            sql += " GROUP BY " + ", ".join(
                scope.sql_of(ref) for ref in select.group_by
            )
        if select.order_by or select.limit is not None:
            if aggregate:
                order = self._aggregate_order(select, columns)
            else:
                order = self._plain_order(scope, select)
            sql += " ORDER BY " + ", ".join(order)
        if select.limit is not None:
            sql += " LIMIT ?"
            params.append(select.limit)
        return CompiledSelect(sql, tuple(params), tuple(columns))

    def _plain_order(self, scope: _Scope, select: Select) -> list[str]:
        """The ORDER BY keys, then each binding's key (whole row if keyless)."""
        order = [
            scope.sql_of(item.column)
            + (" DESC NULLS FIRST" if item.descending else " NULLS LAST")
            for item in select.order_by
        ]
        for binding, table_name in zip(scope.bindings, scope.tables):
            table = self.schema.table(table_name)
            for name in table.primary_key or table.column_names:
                order.append(f"{_quote(binding)}.{_quote(name)} NULLS LAST")
        return order

    @staticmethod
    def _aggregate_order(select: Select, columns: list[str]) -> list[str]:
        """The ORDER BY keys by output position, then the whole output row."""
        order = []
        for item in select.order_by:
            name = item.column.qualified()
            if name not in columns:
                raise ExecutionError(
                    f"ORDER BY column {name!r} must appear in the "
                    "aggregate select list"
                )
            position = columns.index(name) + 1
            order.append(
                f"{position} DESC NULLS FIRST"
                if item.descending
                else f"{position} NULLS LAST"
            )
        order.extend(
            f"{index} NULLS LAST" for index in range(1, len(columns) + 1)
        )
        return order

    def _plain_items(
        self, scope: _Scope, select: Select
    ) -> tuple[list[str], list[str]]:
        item_sql: list[str] = []
        columns: list[str] = []
        multi = len(scope.bindings) > 1
        for item in select.items:
            if isinstance(item, Star):
                for index, table_name in enumerate(scope.tables):
                    table = self.schema.table(table_name)
                    for column in table.columns:
                        binding = scope.bindings[index]
                        item_sql.append(
                            f"{_quote(binding)}.{_quote(column.name)}"
                        )
                        columns.append(
                            f"{binding}.{column.name}" if multi else column.name
                        )
            elif isinstance(item, ColumnRef):
                item_sql.append(scope.sql_of(item))
                columns.append(item.qualified())
            else:
                raise ExecutionError(
                    "aggregate in non-aggregate projection path"
                )  # pragma: no cover - aggregate selects take the other branch
        return item_sql, columns

    def _aggregate_items(
        self, scope: _Scope, select: Select
    ) -> tuple[list[str], list[str]]:
        group_slots = [scope.resolve(ref) for ref in select.group_by]
        item_sql: list[str] = []
        columns: list[str] = []
        for item in select.items:
            if isinstance(item, Star):
                raise ExecutionError("SELECT * cannot mix with aggregation")
            if isinstance(item, ColumnRef):
                if scope.resolve(item) not in group_slots:
                    raise ExecutionError(
                        f"non-aggregate column {item.qualified()!r} must "
                        "appear in GROUP BY"
                    )
                item_sql.append(scope.sql_of(item))
                columns.append(item.qualified())
                continue
            assert isinstance(item, Aggregate)
            if isinstance(item.argument, Star):
                arg_sql, arg_name = "*", "*"
            else:
                arg_sql = scope.sql_of(item.argument)
                arg_name = item.argument.qualified()
            if item.distinct:
                arg_sql = f"DISTINCT {arg_sql}"
                arg_name = f"DISTINCT {arg_name}"
            func = item.func.value.upper()
            item_sql.append(f"{func}({arg_sql})")
            columns.append(f"{func}({arg_name})")
        return item_sql, columns

    def _compile_where(
        self,
        scope: _Scope,
        where: tuple[Comparison, ...],
        params: list[Scalar],
    ) -> str:
        conjuncts = []
        for comparison in where:
            left = self._side(scope, comparison.left, params)
            right = self._side(scope, comparison.right, params)
            # NULL never satisfies a comparison in the dialect; SQLite's
            # three-valued logic agrees (NULL op x is not true), so a plain
            # comparison matches the engine's ``holds`` exactly.
            conjuncts.append(f"{left} {comparison.op.value} {right}")
        return " AND ".join(conjuncts)

    def _side(self, scope: _Scope, value: Value, params: list[Scalar]) -> str:
        if isinstance(value, Literal):
            params.append(value.value)
            return "?"
        if isinstance(value, Parameter):
            raise ExecutionError(
                "unbound parameter in WHERE clause; bind the template first"
            )
        return scope.sql_of(value)

    # -- DML -----------------------------------------------------------------

    def compile_insert_row(self, table: TableSchema) -> str:
        """``INSERT`` text for one full row of ``table``, in column order."""
        names = ", ".join(_quote(c.name) for c in table.columns)
        binds = ", ".join("?" for _ in table.columns)
        return f"INSERT INTO {_quote(table.name)} ({names}) VALUES ({binds})"

    def compile_delete(
        self, table: TableSchema, where: tuple[Comparison, ...]
    ) -> tuple[str, tuple[Scalar, ...]]:
        params: list[Scalar] = []
        sql = f"DELETE FROM {_quote(table.name)}"
        where_sql = self._single_table_where(table, where, params)
        if where_sql:
            sql += f" WHERE {where_sql}"
        return sql, tuple(params)

    def compile_select_column(
        self, table: TableSchema, column: str, where: tuple[Comparison, ...]
    ) -> tuple[str, tuple[Scalar, ...]]:
        """``SELECT column FROM table WHERE ...`` for backend pre-checks."""
        params: list[Scalar] = []
        sql = f"SELECT {_quote(column)} FROM {_quote(table.name)}"
        where_sql = self._single_table_where(table, where, params)
        if where_sql:
            sql += f" WHERE {where_sql}"
        return sql, tuple(params)

    def compile_update(
        self,
        table: TableSchema,
        assignments: tuple[tuple[str, Scalar], ...],
        where: tuple[Comparison, ...],
    ) -> tuple[str, tuple[Scalar, ...]]:
        """Compile a modification whose assignment values are pre-coerced.

        The WHERE clause gains an effective-change guard — ``AND NOT
        (col1 IS ? AND col2 IS ?)`` over the assigned columns — so the
        statement's rows-affected count matches the in-memory engine,
        which counts only rows a modification actually changed.
        """
        params: list[Scalar] = []
        set_sql = []
        for column, scalar in assignments:
            set_sql.append(f"{_quote(column)} = ?")
            params.append(scalar)
        sql = f"UPDATE {_quote(table.name)} SET {', '.join(set_sql)}"
        conjuncts: list[str] = []
        where_sql = self._single_table_where(table, where, params)
        if where_sql:
            conjuncts.append(where_sql)
        guard = " AND ".join(
            f"{_quote(column)} IS ?" for column, _ in assignments
        )
        for _, scalar in assignments:
            params.append(scalar)
        conjuncts.append(f"NOT ({guard})")
        return sql + " WHERE " + " AND ".join(conjuncts), tuple(params)

    def _single_table_where(
        self,
        table: TableSchema,
        where: tuple[Comparison, ...],
        params: list[Scalar],
    ) -> str:
        def side(value: Value) -> str:
            if isinstance(value, Literal):
                params.append(value.value)
                return "?"
            if isinstance(value, Parameter):
                raise ExecutionError("unbound parameter in update predicate")
            if value.table is not None and value.table != table.name:
                raise UnsupportedSqlError(
                    f"update predicate references foreign table {value.table!r}"
                )
            table.position(value.column)  # raises UnknownColumnError
            return _quote(value.column)

        return " AND ".join(
            f"{side(c.left)} {c.op.value} {side(c.right)}" for c in where
        )
