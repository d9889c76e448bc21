"""Application of update statements (INSERT / DELETE / UPDATE) to table data.

Enforces the paper's update model (Section 2.1):

* insertions fully specify a row;
* deletions select rows by an arithmetic predicate over one relation;
* modifications change only **non-key** attributes of the row selected by an
  **equality predicate over the full primary key** (strict mode).

Integrity constraints enforced: primary-key uniqueness, NOT NULL (and
implicit NOT NULL of key columns), and foreign-key existence on insert and
on parent delete (restrict semantics, optional).

Rows are reached through :class:`~repro.storage.indexes.DatabaseIndexes`:
no step of a primary-key-addressed statement is proportional to the table.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable

from repro.errors import (
    ExecutionError,
    ForeignKeyViolation,
    NotNullViolation,
    UnsupportedSqlError,
)
from repro.schema.schema import Schema
from repro.schema.table import TableSchema
from repro.sql.ast import (
    ColumnRef,
    Comparison,
    ComparisonOp,
    Delete,
    Insert,
    Literal,
    Parameter,
    Scalar,
    Update,
)
from repro.storage.indexes import DatabaseIndexes
from repro.storage.rows import Row

__all__ = [
    "apply_insert",
    "apply_delete",
    "apply_update",
    "validate_insert_row",
    "validate_update_assignments",
]


def _literal_value(value: Literal | Parameter, context: str) -> Scalar:
    if isinstance(value, Parameter):
        raise ExecutionError(f"unbound parameter in {context}")
    return value.value


def validate_insert_row(schema: Schema, insert: Insert) -> tuple[TableSchema, Row]:
    """Validate an INSERT's shape and values; return the coerced row.

    Shared by every backend so that the column-coverage, NOT NULL, and type
    checks — and the order they fire in — are engine-independent.

    Raises:
        UnsupportedSqlError: unknown or missing columns.
        NotNullViolation: NULL in a NOT NULL or key column.
        TypeMismatchError: value not storable in the column's type.
    """
    table = schema.table(insert.table)
    provided = dict(zip(insert.columns, insert.values))
    unknown = set(insert.columns) - set(table.column_names)
    if unknown:
        raise UnsupportedSqlError(
            f"INSERT into {table.name!r} names unknown columns {sorted(unknown)}"
        )
    missing = set(table.column_names) - set(insert.columns)
    if missing:
        raise UnsupportedSqlError(
            f"INSERT must fully specify a row; missing columns {sorted(missing)} "
            f"of table {table.name!r}"
        )

    row_values: list[Scalar] = []
    for column in table.columns:
        value = _literal_value(provided[column.name], "INSERT VALUES")
        if value is None:
            if not column.nullable or table.is_key_column(column.name):
                raise NotNullViolation(
                    f"column {table.name}.{column.name} cannot be NULL"
                )
            row_values.append(None)
        else:
            row_values.append(column.type.coerce(value))
    return table, tuple(row_values)


def apply_insert(
    schema: Schema,
    indexes: DatabaseIndexes,
    insert: Insert,
    enforce_foreign_keys: bool = True,
) -> int:
    """Insert one fully-specified row; returns 1 (rows affected).

    Duplicate-key and parent-existence checks are one lookup each in
    ``indexes``, which also stores the row.

    Raises:
        PrimaryKeyViolation: duplicate key.
        ForeignKeyViolation: referenced parent row missing.
        NotNullViolation: NULL in a NOT NULL or key column.
    """
    table, row = validate_insert_row(schema, insert)
    if enforce_foreign_keys and table.foreign_keys:
        # A duplicate key is reported before a missing parent.
        indexes.primary.new_key(table.name, row)
        for foreign_key in table.foreign_keys:
            value = row[table.position(foreign_key.column)]
            # NULL FK is permitted; FKs reference single-column primary
            # keys (schema-validated).
            if value is not None and not indexes.primary.contains_value(
                foreign_key.ref_table, foreign_key.ref_column, value
            ):
                raise ForeignKeyViolation(
                    f"{foreign_key.describe(table.name)}: no parent row with "
                    f"{foreign_key.ref_column} = {value!r}"
                )
    indexes.add(table.name, row)
    return 1


def _candidates(
    table: TableSchema, where: tuple[Comparison, ...], indexes: DatabaseIndexes
) -> Iterable[tuple[Hashable, Row]]:
    """``(key, row)`` of every row that can satisfy ``where``.

    One primary-key lookup when equalities to constants pin the full key,
    else the bucket of the first pinned column, else the whole table.  The
    caller re-applies the predicate, so this only narrows the search.
    """
    pinned: dict[str, Scalar] = {}
    for comparison in where:
        if comparison.op is ComparisonOp.EQ:
            left, right = comparison.left, comparison.right
            if isinstance(left, ColumnRef) and isinstance(right, Literal):
                pinned.setdefault(left.column, right.value)
            elif isinstance(right, ColumnRef) and isinstance(left, Literal):
                pinned.setdefault(right.column, left.value)
    rows = indexes.tables[table.name]
    if table.primary_key and all(column in pinned for column in table.primary_key):
        key = tuple(pinned[column] for column in table.primary_key)
        row = rows.get(key)
        return () if row is None else ((key, row),)
    if pinned:
        column, value = next(iter(pinned.items()))
        return indexes.bucket(table.name, table.position(column), value).items()
    return rows.items()


def apply_delete(
    schema: Schema,
    indexes: DatabaseIndexes,
    delete: Delete,
    enforce_foreign_keys: bool = False,
) -> int:
    """Delete rows matching the predicate; returns the number removed.

    With ``enforce_foreign_keys`` (restrict semantics), refuses to remove a
    row that is still referenced by a child table.
    """
    table = schema.table(delete.table)
    check = _compile_predicate(table, delete.where)
    removed = [
        (key, row)
        for key, row in _candidates(table, delete.where, indexes)
        if check(row)
    ]
    if enforce_foreign_keys:
        for owner_name, foreign_key in schema.foreign_keys_into(table.name):
            child = schema.table(owner_name).position(foreign_key.column)
            parent = table.position(foreign_key.ref_column)
            for _, row in removed:
                if indexes.bucket(owner_name, child, row[parent]):
                    raise ForeignKeyViolation(
                        f"cannot delete {table.name} row: still referenced via "
                        f"{foreign_key.describe(owner_name)}"
                    )
    for key, _ in removed:
        indexes.remove(table.name, key)
    return len(removed)


def apply_update(
    schema: Schema,
    indexes: DatabaseIndexes,
    update: Update,
    strict_model: bool = True,
) -> int:
    """Apply a modification; returns the number of rows changed.

    In strict mode (the paper's model), requires the WHERE clause to be an
    equality over the full primary key and forbids assignments to key
    columns.
    """
    table = schema.table(update.table)
    if strict_model:
        _check_modification_model(table, update)
    elif any(table.is_key_column(name) for name, _ in update.assignments):
        # A row is stored under its key for life, in either model.
        raise ExecutionError("primary key mutation through a modification")

    assignments = [
        (table.position(column_name), scalar)
        for column_name, scalar in validate_update_assignments(table, update)
    ]

    check = _compile_predicate(table, update.where)
    changes = []
    for key, row in _candidates(table, update.where, indexes):
        if not check(row):
            continue
        new_row = list(row)
        for position, scalar in assignments:
            new_row[position] = scalar
        replacement = tuple(new_row)
        if replacement != row:
            changes.append((key, replacement))
    for key, replacement in changes:
        indexes.replace(table.name, key, replacement)
    return len(changes)


def validate_update_assignments(
    table: TableSchema, update: Update
) -> tuple[tuple[str, Scalar], ...]:
    """Validate SET values (NOT NULL, type); return coerced (column, value).

    Shared by every backend, like :func:`validate_insert_row`.
    """
    assignments: list[tuple[str, Scalar]] = []
    for column_name, value in update.assignments:
        column = table.column(column_name)
        scalar = _literal_value(value, "SET clause")
        if scalar is None:
            if not column.nullable or table.is_key_column(column_name):
                raise NotNullViolation(
                    f"column {table.name}.{column_name} cannot be NULL"
                )
        else:
            scalar = column.type.coerce(scalar)
        assignments.append((column_name, scalar))
    return tuple(assignments)


def _check_modification_model(table: TableSchema, update: Update) -> None:
    """Enforce: equality predicate over the full primary key, non-key SETs."""
    for column_name, _ in update.assignments:
        if table.is_key_column(column_name):
            raise UnsupportedSqlError(
                f"modification of key column {table.name}.{column_name} is "
                "outside the paper's update model"
            )
    matched: set[str] = set()
    for comparison in update.where:
        if comparison.op is not ComparisonOp.EQ or comparison.is_join():
            raise UnsupportedSqlError(
                "modifications must select rows via equality on the primary key"
            )
        for ref in comparison.column_refs():
            matched.add(ref.column)
    if set(table.primary_key) - matched:
        raise UnsupportedSqlError(
            f"modification WHERE clause must cover the full primary key "
            f"{table.primary_key} of {table.name!r}"
        )


def _compile_predicate(table: TableSchema, where: tuple[Comparison, ...]):
    """Compile a single-table predicate into a row → bool callable."""

    def side(value):
        if isinstance(value, Literal):
            constant = value.value
            return lambda row: constant
        if isinstance(value, Parameter):
            raise ExecutionError("unbound parameter in update predicate")
        if isinstance(value, ColumnRef):
            if value.table is not None and value.table != table.name:
                raise UnsupportedSqlError(
                    f"update predicate references foreign table {value.table!r}"
                )
            position = table.position(value.column)
            return lambda row: row[position]
        raise ExecutionError(f"bad predicate operand {value!r}")

    compiled = [(c.op, side(c.left), side(c.right)) for c in where]

    def check(row: Row) -> bool:
        return all(op.holds(l(row), r(row)) for op, l, r in compiled)

    return check
