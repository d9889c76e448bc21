"""Hypothesis fuzzer: random statement streams agree across backends.

Generates type-correct statement sequences over the toystore schema —
inserts with colliding keys, FK-violating and FK-restricted deletes,
strict-model updates, SPJ/ORDER BY/LIMIT/aggregate queries — and drives
them through the raw Database and SQLite in lockstep, ordered results
compared row for row.  Values stay type-correct for
their columns: SQLite's type affinity makes cross-type comparisons
engine-defined, which the dialect deliberately does not paper over.
"""

from __future__ import annotations

import string

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.schema import Column, ColumnType, ForeignKey, Schema, TableSchema
from repro.sql.ast import Select
from repro.sql.parser import parse
from repro.storage.backends import SqliteBackend
from repro.storage.database import Database

from tests.storage.backend_utils import assert_results_match, assert_states_match


def make_schema() -> Schema:
    return Schema(
        [
            TableSchema(
                "toys",
                (
                    Column("toy_id", ColumnType.INTEGER),
                    Column("toy_name", ColumnType.TEXT),
                    Column("qty", ColumnType.INTEGER),
                ),
                primary_key=("toy_id",),
            ),
            TableSchema(
                "customers",
                (
                    Column("cust_id", ColumnType.INTEGER),
                    Column("cust_name", ColumnType.TEXT),
                ),
                primary_key=("cust_id",),
            ),
            TableSchema(
                "credit_card",
                (
                    Column("cid", ColumnType.INTEGER),
                    Column("number", ColumnType.TEXT),
                    Column("zip_code", ColumnType.TEXT),
                ),
                primary_key=("cid",),
                foreign_keys=(ForeignKey("cid", "customers", "cust_id"),),
            ),
        ]
    )


def seeded_database(schema: Schema) -> Database:
    database = Database(schema)
    database.load(
        "toys", [(i, f"toy{i % 4}", (i * 7) % 23) for i in range(12)]
    )
    database.load("customers", [(i, f"cust{i}") for i in range(6)])
    database.load(
        "credit_card", [(i, f"4111-000{i}", f"152{i:02d}") for i in range(4)]
    )
    return database


# Small value pools on purpose: collisions are where the constraint
# machinery (PK duplicates, FK restrict) actually fires.
ids = st.integers(min_value=0, max_value=14)
qtys = st.integers(min_value=-5, max_value=40)
names = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6)
compare_ops = st.sampled_from(["<", "<=", ">", ">=", "="])


def statements():
    insert_toy = st.builds(
        "INSERT INTO toys (toy_id, toy_name, qty) VALUES ({}, '{}', {})".format,
        ids, names, qtys,
    )
    insert_customer = st.builds(
        "INSERT INTO customers (cust_id, cust_name) VALUES ({}, '{}')".format,
        ids, names,
    )
    insert_card = st.builds(
        "INSERT INTO credit_card (cid, number, zip_code) "
        "VALUES ({}, '{}', '{}')".format,
        ids, names, names,
    )
    delete_toy = st.builds(
        "DELETE FROM toys WHERE toy_id = {}".format, ids
    )
    delete_toys_range = st.builds(
        "DELETE FROM toys WHERE qty {} {}".format, compare_ops, qtys
    )
    delete_customer = st.builds(  # FK-restricted while cards reference it
        "DELETE FROM customers WHERE cust_id = {}".format, ids
    )
    delete_card = st.builds(
        "DELETE FROM credit_card WHERE cid = {}".format, ids
    )
    update_qty = st.builds(
        "UPDATE toys SET qty = {} WHERE toy_id = {}".format, qtys, ids
    )
    update_name = st.builds(
        "UPDATE toys SET toy_name = '{}' WHERE toy_id = {}".format, names, ids
    )
    query_filter = st.builds(
        "SELECT * FROM toys WHERE qty {} {}".format, compare_ops, qtys
    )
    query_ordered = st.builds(
        "SELECT toy_name, qty FROM toys WHERE qty {} {} "
        "ORDER BY toy_name{} LIMIT {}".format,
        compare_ops,
        qtys,
        st.sampled_from(["", " DESC"]),
        st.integers(min_value=0, max_value=8),
    )
    # ORDER BY keys that repeat across the LIMIT cut-off (the seed's 12
    # toys share 4 names and a few quantities), projected without the
    # key that breaks their ties.
    query_tied = st.builds(
        "SELECT {} FROM toys ORDER BY {} LIMIT {}".format,
        st.sampled_from(["toy_name", "qty", "toy_name, qty", "*"]),
        st.sampled_from([
            "toy_name", "toy_name DESC", "qty", "qty DESC",
            "toy_name DESC, qty", "qty, toy_name DESC",
        ]),
        st.integers(min_value=0, max_value=13),
    )
    query_join = st.builds(
        "SELECT cust_name, number FROM customers, credit_card "
        "WHERE cust_id = cid ORDER BY cust_name{}{}".format,
        st.sampled_from(["", " DESC"]),
        st.sampled_from(["", " LIMIT 1", " LIMIT 2"]),
    )
    query_aggregate = st.builds(
        "SELECT {}(qty) FROM toys WHERE qty {} {}".format,
        st.sampled_from(["COUNT", "SUM", "MIN", "MAX", "AVG"]),
        compare_ops,
        qtys,
    )
    query_group = st.builds(
        "SELECT toy_name, COUNT(*) FROM toys GROUP BY toy_name{}".format,
        st.sampled_from(["", " ORDER BY toy_name DESC LIMIT 2", " LIMIT 3"]),
    )
    return st.one_of(
        insert_toy, insert_customer, insert_card,
        delete_toy, delete_toys_range, delete_customer, delete_card,
        update_qty, update_name,
        query_filter, query_ordered, query_tied, query_join,
        query_aggregate, query_group,
    )


@settings(max_examples=60, deadline=None)
@given(st.lists(statements(), min_size=1, max_size=25))
# A tie on toy_name the primary key breaks one way and the projected row
# the other: ('toy3', 21) by the executor's rule, ('toy3', 3) by the row.
@example(["SELECT toy_name, qty FROM toys WHERE qty > 0 "
          "ORDER BY toy_name DESC LIMIT 1"])
def test_statement_streams_agree(sql_statements):
    schema = make_schema()
    database = seeded_database(schema)
    memory_backend = database.clone()
    sqlite_backend = SqliteBackend.from_database(database)
    try:
        for index, sql in enumerate(sql_statements):
            statement = parse(sql)
            if isinstance(statement, Select):
                assert_results_match(
                    memory_backend.execute(statement),
                    sqlite_backend.execute(statement),
                    f"statement {index}: {sql}",
                )
                continue
            outcomes = []
            for backend in (memory_backend, sqlite_backend):
                try:
                    outcomes.append(("ok", backend.apply(statement)))
                except Exception as error:  # noqa: BLE001 - type compared
                    outcomes.append(("error", type(error).__name__))
            assert outcomes[0] == outcomes[1], (
                f"statement {index}: {sql}: "
                f"memory={outcomes[0]} sqlite={outcomes[1]}"
            )
        assert memory_backend.version == sqlite_backend.version
        assert_states_match(memory_backend, sqlite_backend)
    finally:
        sqlite_backend.close()
