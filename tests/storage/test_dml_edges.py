"""DML edge cases, table-driven over BOTH storage backends.

One case list, two engines: each case states the statement stream, the
expected outcome of the final statement (affected count or exception
type), and optionally the expected final contents of a table.  Running
the identical cases against ``memory`` and ``sqlite`` is what pins the
edge semantics — NULL comparisons, FK restrict on parent deletes, the
strict modification model — to one shared behavior.
"""

from __future__ import annotations

import pytest

from repro.errors import (
    ForeignKeyViolation,
    NotNullViolation,
    PrimaryKeyViolation,
    UnsupportedSqlError,
)
from repro.schema import Column, ColumnType, ForeignKey, Schema, TableSchema
from repro.sql.parser import parse
from repro.storage.backends import SqliteBackend
from repro.storage.database import Database
from repro.storage.rows import sort_key


def make_schema() -> Schema:
    parents = TableSchema(
        "parents",
        (
            Column("pid", ColumnType.INTEGER),
            Column("label", ColumnType.TEXT, nullable=False),
        ),
        primary_key=("pid",),
    )
    children = TableSchema(
        "children",
        (
            Column("cid", ColumnType.INTEGER),
            Column("pid", ColumnType.INTEGER, nullable=True),
            Column("score", ColumnType.INTEGER, nullable=True),
        ),
        primary_key=("cid",),
        foreign_keys=(ForeignKey("pid", "parents", "pid"),),
    )
    return Schema([parents, children])


def make_backend(kind: str):
    schema = make_schema()
    database = Database(schema)
    database.load("parents", [(1, "a"), (2, "b"), (3, "c")])
    database.load(
        "children", [(10, 1, 5), (11, 1, None), (12, 2, 7), (13, None, 9)]
    )
    if kind == "memory":
        return database
    return SqliteBackend.from_database(database)


# Each case: (name, setup statements, final statement,
#             expected count or exception class, optional table check).
EDGE_CASES = [
    # -- NULL comparison semantics: a comparison with NULL never holds ----
    (
        "delete_where_null_column_matches_nothing",
        [],
        "DELETE FROM children WHERE score < 100",
        3,  # the score=None row survives every comparison with its NULL
        ("children", {(11, 1, None)}),
    ),
    (
        "update_where_on_null_pk_value_matches_nothing",
        [],
        "UPDATE children SET score = 0 WHERE cid = 999",
        0,
        None,
    ),
    # -- NULL in inserts -------------------------------------------------
    (
        "insert_null_fk_is_permitted",
        [],
        "INSERT INTO children (cid, pid, score) VALUES (20, NULL, 1)",
        1,
        None,
    ),
    (
        "insert_null_into_key_column_rejected",
        [],
        "INSERT INTO parents (pid, label) VALUES (NULL, 'x')",
        NotNullViolation,
        None,
    ),
    (
        "insert_null_into_not_null_column_rejected",
        [],
        "INSERT INTO parents (pid, label) VALUES (9, NULL)",
        NotNullViolation,
        None,
    ),
    # -- primary-key and foreign-key enforcement --------------------------
    (
        "insert_duplicate_pk_rejected",
        [],
        "INSERT INTO parents (pid, label) VALUES (1, 'dup')",
        PrimaryKeyViolation,
        None,
    ),
    (
        "insert_dangling_fk_rejected",
        [],
        "INSERT INTO children (cid, pid, score) VALUES (21, 99, 1)",
        ForeignKeyViolation,
        None,
    ),
    (
        "delete_referenced_parent_restricted",
        [],
        "DELETE FROM parents WHERE pid = 1",
        ForeignKeyViolation,
        ("parents", {(1, "a"), (2, "b"), (3, "c")}),
    ),
    (
        "delete_unreferenced_parent_allowed",
        [],
        "DELETE FROM parents WHERE pid = 3",
        1,
        ("parents", {(1, "a"), (2, "b")}),
    ),
    (
        "delete_parent_after_child_gone_allowed",
        ["DELETE FROM children WHERE cid = 12"],
        "DELETE FROM parents WHERE pid = 2",
        1,
        None,
    ),
    # -- the strict modification model ------------------------------------
    (
        "update_touching_pk_rejected",
        [],
        "UPDATE parents SET pid = 9 WHERE pid = 1",
        UnsupportedSqlError,
        ("parents", {(1, "a"), (2, "b"), (3, "c")}),
    ),
    (
        "update_without_full_pk_equality_rejected",
        [],
        "UPDATE children SET score = 0 WHERE score > 1",
        UnsupportedSqlError,
        None,
    ),
    (
        "ineffective_update_counts_zero",
        [],
        "UPDATE children SET score = 5 WHERE cid = 10",
        0,  # same value: not an effective change, no invalidation
        None,
    ),
    (
        "effective_update_counts_one",
        [],
        "UPDATE children SET score = 6 WHERE cid = 10",
        1,
        ("children", {(10, 1, 6), (11, 1, None), (12, 2, 7), (13, None, 9)}),
    ),
    (
        "update_null_assignment_to_nullable_allowed",
        [],
        "UPDATE children SET score = NULL WHERE cid = 12",
        1,
        None,
    ),
    (
        "update_null_assignment_to_not_null_rejected",
        [],
        "UPDATE parents SET label = NULL WHERE pid = 1",
        NotNullViolation,
        None,
    ),
]


@pytest.mark.parametrize("kind", ["memory", "sqlite"])
@pytest.mark.parametrize(
    "name,setup,final,expected,table_check",
    EDGE_CASES,
    ids=[case[0] for case in EDGE_CASES],
)
def test_dml_edge(kind, name, setup, final, expected, table_check):
    backend = make_backend(kind)
    try:
        for sql in setup:
            backend.apply(parse(sql))
        statement = parse(final)
        if isinstance(expected, int):
            assert backend.apply(statement) == expected
        else:
            before = backend.snapshot()
            with pytest.raises(expected):
                backend.apply(statement)
            # A rejected statement must leave the store untouched.
            assert backend.snapshot() == before
        if table_check is not None:
            table, rows = table_check
            assert set(backend.rows(table)) == rows
    finally:
        backend.close()


@pytest.mark.parametrize("kind", ["memory", "sqlite"])
def test_version_advances_only_on_effective_change(kind):
    backend = make_backend(kind)
    try:
        v0 = backend.version
        assert backend.apply(parse(
            "UPDATE children SET score = 5 WHERE cid = 10"
        )) == 0
        assert backend.version == v0  # no-op: no version bump
        assert backend.apply(parse(
            "UPDATE children SET score = 8 WHERE cid = 10"
        )) == 1
        assert backend.version == v0 + 1
    finally:
        backend.close()


def test_edge_cases_agree_across_backends():
    """Belt and braces: replay every case on both engines side by side."""
    for name, setup, final, expected, _ in EDGE_CASES:
        memory_backend = make_backend("memory")
        sqlite_backend = make_backend("sqlite")
        try:
            for sql in setup:
                memory_backend.apply(parse(sql))
                sqlite_backend.apply(parse(sql))
            outcomes = []
            for backend in (memory_backend, sqlite_backend):
                try:
                    outcomes.append(("ok", backend.apply(parse(final))))
                except Exception as error:  # noqa: BLE001 - type compared
                    outcomes.append(("error", type(error).__name__))
            assert outcomes[0] == outcomes[1], f"{name}: {outcomes}"
            for table in memory_backend.schema.table_names:
                assert sorted(memory_backend.rows(table), key=sort_key) == sorted(
                    sqlite_backend.rows(table), key=sort_key
                ), name
        finally:
            sqlite_backend.close()
