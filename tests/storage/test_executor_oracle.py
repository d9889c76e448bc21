"""Differential testing: the engine vs. an independent brute-force oracle.

The oracle implements the dialect's semantics the slow, obvious way —
full Cartesian product, per-row predicate evaluation, naive aggregation —
with none of the engine's plans, access paths, or join ordering.
Hypothesis generates random data and random queries; both
implementations must agree exactly, ties included: an ordered result is
the stable ORDER BY sort of the joined rows taken in FROM-order
primary-key order (the executor's result-order contract), so it cannot
depend on how either implementation walks its rows.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sql.ast import (
    Aggregate,
    AggregateFunc,
    ColumnRef,
    Comparison,
    Literal,
    Select,
    Star,
)
from repro.sql.parser import parse
from repro.storage import Database
from repro.storage.rows import ResultSet, sort_key

# -- the oracle -----------------------------------------------------------------------


def _oracle_value(side, env):
    if isinstance(side, Literal):
        return side.value
    assert isinstance(side, ColumnRef)
    if side.table is not None:
        return env[(side.table, side.column)]
    matches = [v for (b, c), v in env.items() if c == side.column]
    candidates = {(b, c) for (b, c) in env if c == side.column}
    assert len(candidates) == 1, "oracle queries must be unambiguous"
    return matches[0]


def _key_order(schema, table, rows):
    """A table's rows in primary-key order (whole-row order when keyless)."""
    positions = [
        schema.table(table).position(column)
        for column in schema.table(table).primary_key
    ]
    if not positions:
        return sorted(rows, key=sort_key)
    return sorted(rows, key=lambda row: sort_key(tuple(row[p] for p in positions)))


def oracle_execute(schema, data, select: Select) -> ResultSet:
    bindings = [(ref.binding, ref.name) for ref in select.tables]
    env_rows = []
    # Key-ordered pools make the product FROM-order primary-key ordered,
    # whatever order ``data`` lists the rows in.
    pools = [
        [
            {
                (binding, column.name): row[index]
                for index, column in enumerate(schema.table(table).columns)
            }
            for row in _key_order(schema, table, data.get(table, []))
        ]
        for binding, table in bindings
    ]
    for combo in itertools.product(*pools):
        env = {}
        for piece in combo:
            env.update(piece)
        if all(
            comparison.op.holds(
                _oracle_value(comparison.left, env),
                _oracle_value(comparison.right, env),
            )
            for comparison in select.where
        ):
            env_rows.append(env)

    if select.has_aggregate() or select.group_by:
        return _oracle_aggregate(select, env_rows)

    if select.order_by:
        for item in reversed(select.order_by):
            env_rows.sort(
                key=lambda env, item=item: sort_key(
                    (_oracle_value(item.column, env),)
                ),
                reverse=item.descending,
            )

    columns, rows = [], []
    for item in select.items:
        assert not isinstance(item, Star), "oracle uses explicit columns"
        columns.append(item.qualified())
    for env in env_rows:
        rows.append(tuple(_oracle_value(item, env) for item in select.items))
    ordered = bool(select.order_by) or select.limit is not None
    if select.limit is not None:
        rows = rows[: select.limit]
    return ResultSet(tuple(columns), tuple(rows), ordered=ordered)


def _oracle_aggregate(select: Select, env_rows) -> ResultSet:
    groups: dict[tuple, list] = {}
    for env in env_rows:
        key = tuple(_oracle_value(c, env) for c in select.group_by)
        groups.setdefault(key, []).append(env)

    columns, rows = [], []
    for item in select.items:
        if isinstance(item, Aggregate):
            arg = "*" if isinstance(item.argument, Star) else item.argument.qualified()
            if item.distinct:
                arg = f"DISTINCT {arg}"
            columns.append(f"{item.func.value.upper()}({arg})")
        else:
            columns.append(item.qualified())

    if select.group_by:
        keys = list(groups)  # empty input -> no groups -> no rows
    else:
        keys = [()]  # global aggregation always yields one row
        groups.setdefault((), list(env_rows))

    for key in keys:
        members = groups[key]
        row = []
        for item in select.items:
            if isinstance(item, ColumnRef):
                row.append(key[list(select.group_by).index(item)])
            else:
                row.append(_oracle_agg_value(item, members))
        rows.append(tuple(row))
    out_rows = sorted(rows, key=sort_key) if select.group_by else rows
    for item in reversed(select.order_by):
        position = columns.index(item.column.qualified())
        out_rows.sort(
            key=lambda row, position=position: sort_key((row[position],)),
            reverse=item.descending,
        )
    ordered = bool(select.order_by) or select.limit is not None
    if select.limit is not None:
        out_rows = out_rows[: select.limit]
    return ResultSet(tuple(columns), tuple(out_rows), ordered=ordered)


def _oracle_agg_value(item: Aggregate, members):
    if isinstance(item.argument, Star):
        return len(members)
    values = [
        _oracle_value(item.argument, env)
        for env in members
        if _oracle_value(item.argument, env) is not None
    ]
    if item.distinct:
        values = list(dict.fromkeys(values))
    func = item.func
    if func is AggregateFunc.COUNT:
        return len(values)
    if not values:
        return None
    if func is AggregateFunc.MIN:
        return min(values)
    if func is AggregateFunc.MAX:
        return max(values)
    if func is AggregateFunc.SUM:
        return sum(values)
    return sum(values) / len(values)


# -- generators -------------------------------------------------------------------------


def _toys(draw):
    n = draw(st.integers(min_value=0, max_value=12))
    rows = []
    for i in range(n):
        qty = draw(
            st.one_of(st.integers(min_value=0, max_value=9), st.none())
        )
        rows.append((i + 1, f"toy{draw(st.integers(0, 4))}", qty))
    return rows


_QUERY_POOL = [
    "SELECT toy_id, qty FROM toys",
    "SELECT toy_id FROM toys WHERE qty > 3",
    "SELECT toy_id FROM toys WHERE qty >= 2 AND qty < 8",
    "SELECT toy_name, qty FROM toys WHERE toy_name = 'toy1'",
    "SELECT toy_id FROM toys WHERE qty = 4",
    "SELECT toy_id, qty FROM toys ORDER BY qty",
    "SELECT toy_id, qty FROM toys ORDER BY qty DESC, toy_id",
    "SELECT toy_id FROM toys ORDER BY toy_name LIMIT 3",
    "SELECT toy_id, qty FROM toys WHERE qty > 1 ORDER BY qty DESC LIMIT 2",
    "SELECT MAX(qty) FROM toys",
    "SELECT MIN(qty) FROM toys WHERE toy_name = 'toy2'",
    "SELECT COUNT(*) FROM toys WHERE qty > 2",
    "SELECT COUNT(qty) FROM toys",
    "SELECT SUM(qty) FROM toys WHERE qty < 7",
    "SELECT AVG(qty) FROM toys",
    "SELECT COUNT(DISTINCT toy_name) FROM toys",
    "SELECT toy_name, COUNT(*) FROM toys GROUP BY toy_name",
    "SELECT toy_name, SUM(qty) FROM toys GROUP BY toy_name",
    "SELECT t1.toy_id, t2.toy_id FROM toys AS t1, toys AS t2 "
    "WHERE t1.qty = t2.qty",
    "SELECT t1.toy_id, t2.toy_id FROM toys AS t1, toys AS t2 "
    "WHERE t1.qty < t2.qty",
    "SELECT t1.toy_id FROM toys AS t1, toys AS t2 "
    "WHERE t1.qty = t2.qty AND t2.toy_name = 'toy0'",
    "SELECT c.cust_name, t.toy_id FROM customers AS c, toys AS t "
    "WHERE c.cust_id = t.toy_id",
    "SELECT c.cust_name FROM customers AS c, toys AS t "
    "WHERE c.cust_id = t.toy_id AND t.qty > 3",
    # -- constant conjuncts and NULL literals ---------------------------------
    "SELECT toy_id FROM toys WHERE 1 = 2",
    "SELECT COUNT(*) FROM toys WHERE 1 = 2 AND qty > 0",
    "SELECT toy_id FROM toys WHERE 1 = 1 AND 3 < qty ORDER BY qty LIMIT 3",
    "SELECT toy_id FROM toys WHERE qty = NULL",
    "SELECT toy_id FROM toys LIMIT 4",
    # -- aggregates with ORDER BY / LIMIT (NULL group keys, tied sort keys) ----
    "SELECT toy_name, COUNT(*) FROM toys GROUP BY toy_name "
    "ORDER BY toy_name DESC LIMIT 2",
    "SELECT qty, COUNT(*) FROM toys GROUP BY qty ORDER BY qty DESC",
    "SELECT toy_name, qty, COUNT(*) FROM toys GROUP BY toy_name, qty "
    "ORDER BY toy_name LIMIT 5",
    "SELECT MAX(qty) FROM toys LIMIT 0",
    # -- ordered joins: qty is nullable, so NULLs meet the join and the sort --
    "SELECT c.cust_name, t.toy_id FROM customers AS c, toys AS t "
    "WHERE c.cust_id = t.qty ORDER BY t.toy_name LIMIT 4",
    "SELECT t.toy_id, c.cust_name FROM toys AS t, customers AS c "
    "WHERE t.qty = c.cust_id AND c.cust_id >= 2 ORDER BY c.cust_name DESC",
    "SELECT t.toy_id, k.zip_code FROM toys AS t, credit_card AS k "
    "WHERE t.qty >= k.cid ORDER BY k.zip_code DESC, t.qty LIMIT 7",
    "SELECT t.toy_id, c.cust_name, k.zip_code "
    "FROM toys AS t, customers AS c, credit_card AS k "
    "WHERE t.qty = c.cust_id AND k.cid = c.cust_id "
    "ORDER BY k.zip_code, t.qty DESC LIMIT 5",
    "SELECT k.number, t.toy_name FROM credit_card AS k, toys AS t, customers AS c "
    "WHERE c.cust_id = k.cid AND t.qty = c.cust_id AND c.cust_name = 'bob' LIMIT 3",
    "SELECT t1.toy_id, t2.toy_id FROM toys AS t1, toys AS t2 "
    "WHERE t1.toy_name = t2.toy_name AND t1.qty < t2.qty "
    "ORDER BY t1.toy_name DESC LIMIT 6",
]

#: Statements completed with one drawn literal: every draw shares the plan
#: its shape compiled to, so these run literals through reused plans.
_LITERAL_POOL = [
    "SELECT toy_id FROM toys WHERE toy_id = {}",
    "SELECT toy_id, qty FROM toys WHERE qty = {} ORDER BY toy_name DESC LIMIT 2",
    "SELECT t.toy_id, c.cust_name FROM toys AS t, customers AS c "
    "WHERE t.qty = c.cust_id AND t.toy_id <= {} ORDER BY c.cust_name LIMIT 3",
    "SELECT c.cust_name, t.toy_name FROM customers AS c, toys AS t "
    "WHERE c.cust_id = {} AND t.qty > c.cust_id ORDER BY t.toy_name",
    "SELECT t.toy_id, k.number FROM toys AS t, customers AS c, credit_card AS k "
    "WHERE c.cust_id = k.cid AND t.qty = k.cid AND t.qty < {} "
    "ORDER BY t.qty DESC, k.number LIMIT 4",
    "SELECT toy_name, SUM(qty) FROM toys WHERE qty >= {} GROUP BY toy_name "
    "ORDER BY toy_name LIMIT 3",
]

_CUSTOMERS = [(1, "alice"), (2, "bob"), (3, "carol")]


def _statement(draw) -> str:
    sql = draw(st.sampled_from(_QUERY_POOL + _LITERAL_POOL))
    return sql.format(draw(st.integers(min_value=0, max_value=9)))


def _cards(draw):
    return [
        (cid, f"4111-{cid}", draw(st.sampled_from(["15213", "15217", None])))
        for cid in draw(st.sets(st.sampled_from([1, 2, 3])))
    ]


def _load(schema, toys, cards) -> Database:
    db = Database(schema)
    db.load("toys", toys)
    db.load("customers", _CUSTOMERS)
    db.load("credit_card", cards)
    return db


_SETTINGS = settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


class TestEngineAgainstOracle:
    @_SETTINGS
    @given(data=st.data())
    def test_engine_matches_oracle(self, toystore_schema, data):
        toys = data.draw(_toys_strategy())
        cards = _cards(data.draw)
        sql = _statement(data.draw)
        select = parse(sql)
        engine_result = _load(toystore_schema, toys, cards).execute(select)
        oracle_result = oracle_execute(
            toystore_schema,
            {"toys": toys, "customers": _CUSTOMERS, "credit_card": cards},
            select,
        )
        assert engine_result.columns == oracle_result.columns, sql
        assert engine_result.ordered == oracle_result.ordered, sql
        # signature() is the row sequence itself for an ordered result:
        # even tie-breaking must agree exactly.
        assert engine_result.signature() == oracle_result.signature(), sql

    @_SETTINGS
    @given(data=st.data())
    def test_result_ignores_physical_row_order(self, toystore_schema, data):
        """The same rows, loaded in another order, give the same answer."""
        toys = data.draw(_toys_strategy())
        cards = _cards(data.draw)
        select = parse(_statement(data.draw))
        shuffled = _load(
            toystore_schema,
            data.draw(st.permutations(toys)),
            data.draw(st.permutations(cards)),
        )
        straight = _load(toystore_schema, toys, cards)
        assert shuffled.execute(select).signature() == (
            straight.execute(select).signature()
        )


@st.composite
def _toys_strategy(draw):
    return _toys(draw)
