"""Tests for the table indexes: consistency with and speed over scans."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import PrimaryKeyViolation
from repro.schema import Column, ColumnType, Schema, TableSchema
from repro.sql.parser import parse
from repro.storage import Database
from repro.storage.indexes import DatabaseIndexes
from repro.templates.binding import bind


def rebuilt(schema, tables) -> DatabaseIndexes:
    """Fresh indexes loaded from ``tables`` (table -> rows), in order."""
    indexes = DatabaseIndexes(schema)
    for table, rows in tables.items():
        for row in rows:
            indexes.add(table, row)
    return indexes


class TestDatabaseIndexes:
    def test_add_lookup_remove(self, toystore_schema):
        index = DatabaseIndexes(toystore_schema)
        row = (1, "toy1", 5)
        key = index.add("toys", row)
        assert key == (1,)
        assert index.tables["toys"][key] == row
        assert index.bucket("toys", 1, "toy1") == {key: row}
        index.remove("toys", key)
        assert key not in index.tables["toys"]
        assert index.bucket("toys", 1, "toy1") == {}

    def test_duplicate_key_raises(self, toystore_schema):
        index = DatabaseIndexes(toystore_schema)
        index.add("toys", (1, "toy1", 5))
        with pytest.raises(PrimaryKeyViolation, match="duplicate primary key"):
            index.add("toys", (1, "other", 7))
        assert index.tables["toys"] == {(1,): (1, "toy1", 5)}

    def test_keyless_rows_get_serials(self):
        schema = Schema(
            [
                TableSchema(
                    "log",
                    (
                        Column("event", ColumnType.TEXT),
                        Column("n", ColumnType.INTEGER),
                    ),
                )
            ]
        )
        index = DatabaseIndexes(schema)
        first = index.add("log", ("a", 1))
        second = index.add("log", ("a", 1))  # identical rows both stored
        assert first != second
        assert list(index.tables["log"].values()) == [("a", 1), ("a", 1)]
        assert index.bucket("log", 0, "a") == {first: ("a", 1), second: ("a", 1)}
        index.remove("log", first)
        assert index.tables["log"] == {second: ("a", 1)}

    def test_replace_keeps_key_and_position(self, toystore_schema):
        index = DatabaseIndexes(toystore_schema)
        for toy_id in (1, 2, 3):
            index.add("toys", (toy_id, f"toy{toy_id}", 5))
        index.replace("toys", (2,), (2, "toy2", 9))
        assert list(index.tables["toys"]) == [(1,), (2,), (3,)]
        assert index.tables["toys"][(2,)] == (2, "toy2", 9)
        assert (2,) not in index.bucket("toys", 2, 5)
        assert index.bucket("toys", 2, 9) == {(2,): (2, "toy2", 9)}

    def test_contains_value_single_column(self, toystore_schema):
        index = DatabaseIndexes(toystore_schema)
        index.add("customers", (4, "dora"))
        assert index.contains_value("customers", "cust_id", 4)
        assert not index.contains_value("customers", "cust_id", 5)


class TestIndexMaintainedThroughDml:
    """The index always mirrors a from-scratch rebuild of the data."""

    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        operations=st.lists(
            st.tuples(
                st.sampled_from(["insert", "delete", "modify"]),
                st.integers(min_value=1, max_value=15),
                st.integers(min_value=0, max_value=20),
            ),
            max_size=25,
        )
    )
    def test_index_matches_rebuild(self, toystore_schema, operations):
        db = Database(toystore_schema)
        db.load("toys", [(i, f"toy{i}", i) for i in range(1, 6)])
        for kind, key, value in operations:
            try:
                if kind == "insert":
                    db.apply(
                        bind(
                            parse(
                                "INSERT INTO toys (toy_id, toy_name, qty) "
                                "VALUES (?, ?, ?)"
                            ),
                            [key, f"toy{key}", value],
                        )
                    )
                elif kind == "delete":
                    db.apply(
                        bind(parse("DELETE FROM toys WHERE toy_id = ?"), [key])
                    )
                else:
                    db.apply(
                        bind(
                            parse("UPDATE toys SET qty = ? WHERE toy_id = ?"),
                            [value, key],
                        )
                    )
            except PrimaryKeyViolation:
                pass
            fresh = rebuilt(toystore_schema, {"toys": db.rows("toys")})
            maintained = db._indexes
            assert maintained.tables == fresh.tables
            assert maintained.buckets == fresh.buckets
            for row in db.rows("toys"):
                assert maintained.tables["toys"][(row[0],)] == row

    def test_clone_rebuilds_index(self, toystore_db):
        clone = toystore_db.clone()
        clone.apply(parse("DELETE FROM toys WHERE toy_id = 1"))
        # Original index unaffected; clone index consistent.
        assert toystore_db.execute(
            parse("SELECT qty FROM toys WHERE toy_id = 1")
        ).rows == ((2,),)
        assert clone.execute(
            parse("SELECT qty FROM toys WHERE toy_id = 1")
        ).rows == ()


class TestFastPathEquivalence:
    """Point queries via the index return exactly what a scan returns."""

    def test_point_query_hit(self, toystore_db):
        result = toystore_db.execute(
            parse("SELECT toy_name FROM toys WHERE toy_id = 4")
        )
        assert result.rows == (("toy4",),)

    def test_point_query_miss(self, toystore_db):
        assert toystore_db.execute(
            parse("SELECT toy_name FROM toys WHERE toy_id = 999")
        ).rows == ()

    def test_pk_equality_plus_extra_predicate(self, toystore_db):
        result = toystore_db.execute(
            parse("SELECT toy_name FROM toys WHERE toy_id = 4 AND qty > 100")
        )
        assert result.rows == ()  # extra predicate still applied

    def test_conflicting_pk_equalities(self, toystore_db):
        result = toystore_db.execute(
            parse("SELECT toy_name FROM toys WHERE toy_id = 4 AND toy_id = 5")
        )
        assert result.rows == ()

    def test_pk_join_still_correct(self, toystore_db):
        result = toystore_db.execute(
            parse(
                "SELECT cust_name FROM customers, credit_card "
                "WHERE cust_id = cid AND cid = 1"
            )
        )
        assert result.rows == (("alice",),)

    def test_null_pk_literal(self, toystore_db):
        assert toystore_db.execute(
            parse("SELECT toy_name FROM toys WHERE toy_id = NULL")
        ).rows == ()

    def test_float_int_key_equivalence(self, toystore_db):
        # int 4 and float 4.0 hash identically; both locate the row, and
        # the re-applied predicate agrees.
        result = toystore_db.execute(
            parse("SELECT toy_name FROM toys WHERE toy_id = 4.0")
        )
        assert result.rows == (("toy4",),)
