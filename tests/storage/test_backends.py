"""Unit tests for the storage-backend subsystem itself.

Covers the registry, durable reopen, clone/snapshot isolation, version
stamps, and the one ORDER BY/LIMIT order both engines return: the
executor's, ties broken by FROM-order primary key (whole row if keyless).
"""

from __future__ import annotations

import pytest

from repro.errors import ExecutionError, PrimaryKeyViolation, WorkloadError
from repro.schema import Column, ColumnType, Schema, TableSchema
from repro.sql.parser import parse
from repro.storage.backends import (
    BACKENDS,
    SqliteBackend,
    create_backend,
    wrap_database,
)
from repro.storage.database import Database

from tests.storage import test_dml_edges
from tests.storage.backend_utils import assert_results_match


def make_schema() -> Schema:
    return Schema(
        [
            TableSchema(
                "items",
                (
                    Column("item_id", ColumnType.INTEGER),
                    Column("grp", ColumnType.TEXT),
                    Column("rank", ColumnType.INTEGER, nullable=True),
                ),
                primary_key=("item_id",),
            ),
            TableSchema(  # keyless: ties break by the whole stored row
                "visits",
                (
                    Column("page", ColumnType.TEXT),
                    Column("hits", ColumnType.INTEGER, nullable=True),
                    Column("ms", ColumnType.INTEGER),
                ),
            ),
        ]
    )


ROWS = [
    (1, "a", 3),
    (2, "a", 1),
    (3, "b", 1),
    (4, "b", 2),
    (5, "a", None),
    (6, "c", 2),
]

#: Ties on ``page`` whose ``hits`` order is the reverse of their ``ms``
#: order, so a tie-break by the projected row would cut LIMIT elsewhere.
VISITS = [
    ("home", 1, 9),
    ("home", 2, 5),
    ("cart", None, 4),
    ("cart", 1, 7),
    ("cart", 1, 7),
]


def make_backend(kind, tmp_path=None):
    path = None
    if kind == "sqlite" and tmp_path is not None:
        path = tmp_path / "items.db"
    backend = create_backend(kind, make_schema(), path=path)
    backend.load("items", ROWS)
    backend.load("visits", VISITS)
    return backend


# -- registry ----------------------------------------------------------------


def test_registry_kinds():
    assert BACKENDS == ("memory", "sqlite")
    assert isinstance(create_backend("memory", make_schema()), Database)
    assert isinstance(create_backend("sqlite", make_schema()), SqliteBackend)
    with pytest.raises(WorkloadError):
        create_backend("postgres", make_schema())
    with pytest.raises(WorkloadError):
        wrap_database("postgres", Database(make_schema()))


def test_wrap_database_memory_is_in_place():
    database = Database(make_schema())
    assert wrap_database("memory", database) is database
    database.close()  # the protocol's close: nothing to release


def test_wrap_database_sqlite_copies(tmp_path):
    database = Database(make_schema())
    database.load("items", ROWS)
    backend = wrap_database("sqlite", database, path=tmp_path / "w.db")
    try:
        assert backend.total_rows() == len(ROWS)
        backend.apply(parse("DELETE FROM items WHERE item_id = 1"))
        assert database.row_count("items") == len(ROWS)  # source untouched
    finally:
        backend.close()


# -- durability ---------------------------------------------------------------


def test_sqlite_file_survives_reopen(tmp_path):
    path = tmp_path / "durable.db"
    backend = create_backend("sqlite", make_schema(), path=path)
    backend.load("items", ROWS)
    backend.apply(parse("UPDATE items SET rank = 9 WHERE item_id = 1"))
    backend.apply(parse("DELETE FROM items WHERE item_id = 6"))
    expected = backend.snapshot()
    backend.close()

    reopened = create_backend("sqlite", make_schema(), path=path)
    try:
        assert reopened.snapshot() == expected
        assert reopened.row_count("items") == len(ROWS) - 1
    finally:
        reopened.close()


def test_wrap_database_resumes_nonempty_file(tmp_path):
    """Restart semantics: a populated file beats the freshly generated data."""
    path = tmp_path / "resume.db"
    first = wrap_database("sqlite", _database_with(ROWS), path=path)
    first.apply(parse("DELETE FROM items WHERE item_id = 2"))
    first.close()

    # A second boot regenerates a pristine instance; the file must win.
    second = wrap_database("sqlite", _database_with(ROWS), path=path)
    try:
        assert second.row_count("items") == len(ROWS) - 1
    finally:
        second.close()


def _database_with(rows):
    database = Database(make_schema())
    database.load("items", rows)
    return database


# -- clone / snapshot isolation ----------------------------------------------


@pytest.mark.parametrize("kind", BACKENDS)
def test_clone_is_isolated(kind, tmp_path):
    backend = make_backend(kind, tmp_path)
    clone = backend.clone()
    try:
        clone.apply(parse("DELETE FROM items WHERE item_id = 1"))
        assert backend.row_count("items") == len(ROWS)
        assert clone.row_count("items") == len(ROWS) - 1
        backend.apply(parse("UPDATE items SET rank = 7 WHERE item_id = 2"))
        assert (2, "a", 1) in clone.rows("items")
    finally:
        clone.close()
        backend.close()


@pytest.mark.parametrize("kind", BACKENDS)
def test_snapshot_restore_round_trip(kind, tmp_path):
    backend = make_backend(kind, tmp_path)
    try:
        before = backend.snapshot()
        version = backend.version
        backend.apply(parse("DELETE FROM items WHERE item_id = 3"))
        backend.apply(parse("UPDATE items SET rank = 0 WHERE item_id = 4"))
        assert backend.snapshot() != before
        backend.restore(before)
        assert backend.snapshot() == before
        assert backend.version > version  # restore is a change
    finally:
        backend.close()


# -- result order -------------------------------------------------------------


@pytest.mark.parametrize("kind", BACKENDS)
def test_order_by_ties_and_limit_are_deterministic(kind, tmp_path):
    """Ties under ORDER BY rank break identically on both engines."""
    backend = make_backend(kind, tmp_path)
    try:
        result = backend.execute(
            parse("SELECT grp FROM items WHERE rank > 0 ORDER BY rank LIMIT 3")
        )
        assert result.ordered
        # rank=1 ties ('a' id2, 'b' id3) break by primary key, then
        # rank=2 ties ('b' id4, 'c' id6) — cut at 3 rows.
        assert result.rows == (("a",), ("b",), ("b",))
    finally:
        backend.close()


def test_backends_agree_on_order_by_edge_cases():
    """The raw Database and SQLite agree row for row, order included."""

    def items(kind):
        database = _database_with(ROWS)
        database.load("visits", VISITS)
        if kind == "memory":
            return database
        return SqliteBackend.from_database(database)

    children = test_dml_edges.make_backend
    cases = [
        (items, "SELECT grp FROM items ORDER BY rank DESC"),
        (items, "SELECT grp FROM items ORDER BY rank, grp DESC LIMIT 4"),
        (items, "SELECT * FROM items ORDER BY grp DESC, rank LIMIT 5"),
        (items, "SELECT grp, COUNT(*) FROM items GROUP BY grp ORDER BY grp DESC"),
        (items, "SELECT rank, COUNT(*) FROM items GROUP BY rank ORDER BY rank"),
        (items, "SELECT rank, COUNT(*) FROM items GROUP BY rank LIMIT 2"),
        (items, "SELECT item_id FROM items LIMIT 0"),
        (items, "SELECT item_id FROM items WHERE rank = 99 ORDER BY item_id"),
        # Ties the primary key breaks against the projected row's order.
        (items, "SELECT rank FROM items ORDER BY grp LIMIT 1"),
        (items, "SELECT rank FROM items ORDER BY grp DESC LIMIT 2"),
        (items, "SELECT grp FROM items LIMIT 3"),
        # A keyless table: ties break by the whole stored row.
        (items, "SELECT ms FROM visits ORDER BY page DESC LIMIT 1"),
        (items, "SELECT ms FROM visits ORDER BY page LIMIT 2"),
        (items, "SELECT page FROM visits ORDER BY hits DESC LIMIT 3"),
        (items, "SELECT ms FROM visits LIMIT 4"),
        (items, "SELECT v.ms, i.item_id FROM visits v, items i "
                "WHERE v.hits = i.rank ORDER BY i.grp LIMIT 3"),
        # NULL-bearing keys, ascending (NULLs last) and descending (first).
        (children, "SELECT cid FROM children ORDER BY score"),
        (children, "SELECT cid FROM children ORDER BY score DESC LIMIT 2"),
        (children, "SELECT cid, score FROM children ORDER BY pid LIMIT 3"),
        (children, "SELECT cid FROM children ORDER BY pid DESC, score"),
        (children, "SELECT pid, COUNT(*) FROM children GROUP BY pid "
                   "ORDER BY pid DESC"),
    ]
    for make, sql in cases:
        memory_backend, sqlite_backend = make("memory"), make("sqlite")
        try:
            select = parse(sql)
            memory_result = memory_backend.execute(select)
            assert_results_match(
                memory_result, sqlite_backend.execute(select), sql
            )
            assert memory_result.ordered
        finally:
            sqlite_backend.close()


@pytest.mark.parametrize("kind", BACKENDS)
def test_order_by_column_missing_from_aggregate_output(kind, tmp_path):
    backend = make_backend(kind, tmp_path)
    try:
        select = parse(
            "SELECT COUNT(*) FROM items GROUP BY grp ORDER BY rank"
        )
        with pytest.raises(ExecutionError):
            backend.execute(select)
    finally:
        backend.close()


@pytest.mark.parametrize("kind", BACKENDS)
def test_unbound_limit_parameter_rejected(kind, tmp_path):
    backend = make_backend(kind, tmp_path)
    try:
        select = parse("SELECT item_id FROM items LIMIT ?")
        with pytest.raises(ExecutionError):
            backend.execute(select)
    finally:
        backend.close()


@pytest.mark.parametrize("kind", BACKENDS)
def test_load_rejects_width_mismatch(kind, tmp_path):
    backend = make_backend(kind, tmp_path)
    try:
        with pytest.raises(ExecutionError):
            backend.load("items", [(1, "a")])
    finally:
        backend.close()


@pytest.mark.parametrize("kind", BACKENDS)
def test_load_rejects_duplicate_primary_key(kind, tmp_path):
    """Trusted rows are still keyed rows: a second row under a key is refused."""
    backend = make_backend(kind, tmp_path)
    try:
        with pytest.raises(PrimaryKeyViolation):
            backend.load("items", [(2, "dup", 9)])
        with pytest.raises(PrimaryKeyViolation):
            backend.load("items", [(7, "new", 1), (7, "dup", 2)])
        point = backend.execute(parse("SELECT grp FROM items WHERE item_id = 2"))
        ranged = backend.execute(
            parse("SELECT grp FROM items WHERE item_id <= 2 AND item_id >= 2")
        )
        assert point.rows == ranged.rows == (("a",),)
    finally:
        backend.close()


@pytest.mark.parametrize("kind", BACKENDS)
def test_restore_rejects_duplicate_primary_key(kind, tmp_path):
    backend = make_backend(kind, tmp_path)
    try:
        before = backend.snapshot()
        with pytest.raises(PrimaryKeyViolation):
            backend.restore({"items": ((1, "x", 1), (1, "y", 2))})
        assert backend.snapshot() == before  # refused whole
    finally:
        backend.close()
