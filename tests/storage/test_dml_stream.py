"""Hypothesis statement streams: the engine against two independent references.

INSERT / UPDATE / DELETE streams — strict and lenient modification model,
foreign-key restrict on and off, no-op assignments, a composite key and a
table without a key — interleaved with queries.  After every step:

* the affected count or exception type equals :class:`SqliteBackend`'s;
* ``version`` moved exactly when the count was non-zero;
* :class:`DatabaseIndexes` equals one rebuilt from the table contents;
* a query's answer equals the brute-force ``oracle_execute`` over the
  rows SQLite holds, tie order included.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExecutionError
from repro.schema import Column, ColumnType, ForeignKey, Schema, TableSchema
from repro.sql.ast import Select
from repro.sql.parser import parse
from repro.storage.backends import SqliteBackend
from repro.storage.database import Database
from repro.storage.indexes import DatabaseIndexes
from repro.storage.rows import sort_key

from tests.storage.backend_utils import assert_states_match
from tests.storage.test_executor_oracle import oracle_execute

_INT, _TXT = ColumnType.INTEGER, ColumnType.TEXT


def make_schema() -> Schema:
    return Schema(
        [
            TableSchema(
                "parents",
                (Column("pid", _INT), Column("label", _TXT, nullable=False)),
                primary_key=("pid",),
            ),
            TableSchema(
                "children",
                (Column("cid", _INT), Column("pid", _INT), Column("score", _INT)),
                primary_key=("cid",),
                foreign_keys=(ForeignKey("pid", "parents", "pid"),),
            ),
            TableSchema(
                "pairs",
                (Column("a", _INT), Column("b", _INT), Column("v", _INT)),
                primary_key=("a", "b"),
            ),
            TableSchema("log", (Column("who", _INT), Column("what", _TXT))),
        ]
    )


def seeded(schema: Schema, enforce_foreign_keys: bool, strict_model: bool) -> Database:
    database = Database(
        schema, enforce_foreign_keys=enforce_foreign_keys, strict_model=strict_model
    )
    database.load("parents", [(3, "c"), (1, "a"), (2, "b")])  # not in key order
    database.load("children", [(12, 2, 1), (10, 1, 2), (11, 1, None), (13, None, 2)])
    database.load("pairs", [(1, 1, 0), (0, 1, 5), (1, 0, 5)])
    database.load("log", [(1, "x"), (1, "x"), (0, "y")])
    return database


# Small value pools on purpose: collisions are where duplicate keys, FK
# restrict, shared buckets and no-op assignments actually happen.
small = st.integers(min_value=0, max_value=3)
keys = st.integers(min_value=9, max_value=15)
nullable = st.one_of(st.none(), small).map(lambda v: "NULL" if v is None else v)
labels = st.sampled_from(["'a'", "'b'", "'x'", "NULL"])
ops = st.sampled_from(["<", "<=", ">", ">=", "="])


def statements(strict_model: bool):
    built = [
        st.builds("INSERT INTO parents (pid, label) VALUES ({}, {})".format, small, labels),
        st.builds(
            "INSERT INTO children (cid, pid, score) VALUES ({}, {}, {})".format,
            keys, nullable, nullable,
        ),
        st.builds("INSERT INTO pairs (a, b, v) VALUES ({}, {}, {})".format, small, small, small),
        st.builds("INSERT INTO log (who, what) VALUES ({}, {})".format, small, labels),
        st.builds("UPDATE parents SET label = {} WHERE pid = {}".format, labels, small),
        st.builds("UPDATE children SET score = {} WHERE cid = {}".format, nullable, keys),
        st.builds("UPDATE children SET pid = {}, score = {} WHERE cid = {}".format, small, small, keys),
        st.builds("UPDATE pairs SET v = {} WHERE a = {} AND b = {}".format, small, small, small),
        st.builds("UPDATE pairs SET v = {} WHERE a = {}".format, small, small),
        st.builds("UPDATE log SET what = {} WHERE who = {}".format, labels, small),
        st.builds("DELETE FROM parents WHERE pid = {}".format, small),
        st.builds("DELETE FROM parents WHERE pid {} {}".format, ops, small),
        st.builds("DELETE FROM children WHERE cid = {}".format, keys),
        st.builds("DELETE FROM children WHERE pid = {} AND score {} {}".format, small, ops, small),
        st.builds("DELETE FROM pairs WHERE a = {} AND b = {}".format, small, small),
        st.builds("DELETE FROM pairs WHERE v = {}".format, small),
        st.builds("DELETE FROM log WHERE who = {}".format, small),
        st.builds(
            "SELECT cid, score FROM children WHERE pid = {} ORDER BY score DESC LIMIT 2".format,
            small,
        ),
        st.builds(
            "SELECT label, cid FROM parents, children "
            "WHERE parents.pid = children.pid AND score {} {} ORDER BY label".format,
            ops, small,
        ),
        st.builds(
            "SELECT a, b, label FROM pairs, parents WHERE a = pid AND v = {} LIMIT 3".format,
            small,
        ),
        st.builds("SELECT who, what FROM log WHERE who = {} LIMIT 2".format, small),
        st.just("SELECT what, COUNT(*) FROM log GROUP BY what ORDER BY what DESC"),
        st.just("SELECT v, COUNT(*), SUM(b) FROM pairs GROUP BY v"),
    ]
    if not strict_model:  # predicates off the key: many rows per statement
        built += [
            st.builds("UPDATE children SET score = {} WHERE pid = {}".format, nullable, small),
            st.builds("UPDATE children SET score = {} WHERE score {} {}".format, small, ops, small),
            st.builds("UPDATE log SET who = {} WHERE what = {}".format, small, labels),
        ]
    return st.one_of(built)


def assert_indexes_consistent(database: Database) -> None:
    """The indexes hold what rebuilding them from the rows would."""
    live = database._indexes
    fresh = DatabaseIndexes(database.schema)
    for table in database.schema.table_names:
        for row in database.rows(table):
            fresh.add(table, row)
    for table in database.schema.table_names:
        if database.schema.table(table).primary_key:  # same keys, same order
            assert list(live.tables[table].items()) == list(fresh.tables[table].items())
        for live_map, fresh_map in zip(live.buckets[table], fresh.buckets[table]):
            if fresh_map is None:
                assert live_map is None
                continue
            assert live_map.keys() == fresh_map.keys(), table
            for value, bucket in fresh_map.items():
                # A modified row joins its new bucket at the end, so bucket
                # order is history; membership is what an index promises.
                assert sorted(live_map[value].values(), key=sort_key) == sorted(
                    bucket.values(), key=sort_key
                ), (table, value)
                keyed = live.tables[table]
                assert all(keyed[k] is row for k, row in live_map[value].items())


@settings(max_examples=120, deadline=None)
@given(data=st.data(), enforce_foreign_keys=st.booleans(), strict_model=st.booleans())
def test_statement_stream(data, enforce_foreign_keys, strict_model):
    schema = make_schema()
    database = seeded(schema, enforce_foreign_keys, strict_model)
    reference = SqliteBackend.from_database(database)
    try:
        stream = data.draw(st.lists(statements(strict_model), min_size=1, max_size=20))
        for index, sql in enumerate(stream):
            context = f"statement {index}: {sql}"
            statement = parse(sql)
            if isinstance(statement, Select):
                expected = oracle_execute(schema, reference.snapshot(), statement)
                result = database.execute(statement)
                assert result.columns == expected.columns, context
                assert result.ordered == expected.ordered, context
                assert result.signature() == expected.signature(), context
                continue
            before = database.version
            outcomes = []
            for engine in (database, reference):
                try:
                    outcomes.append(("ok", engine.apply(statement)))
                except Exception as error:  # noqa: BLE001 - type compared
                    outcomes.append(("error", type(error).__name__))
            assert outcomes[0] == outcomes[1], f"{context}: {outcomes}"
            effective = outcomes[0][0] == "ok" and outcomes[0][1] > 0
            assert database.version == before + effective, context
            assert_indexes_consistent(database)
        assert_states_match(database, reference)
    finally:
        reference.close()


def test_lenient_model_refuses_key_assignment_untouched():
    """Rows live under their key: no model lets a modification move one."""
    database = seeded(make_schema(), enforce_foreign_keys=True, strict_model=False)
    before = database.snapshot()
    with pytest.raises(ExecutionError, match="primary key mutation"):
        database.apply(parse("UPDATE pairs SET b = 2 WHERE v = 5"))
    assert database.snapshot() == before
    assert_indexes_consistent(database)
