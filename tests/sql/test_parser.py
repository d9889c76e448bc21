"""Unit tests for the SQL parser."""

import pytest

from repro.errors import ParseError, UnsupportedSqlError
from repro.sql.ast import (
    Aggregate,
    AggregateFunc,
    ColumnRef,
    Comparison,
    ComparisonOp,
    Delete,
    Insert,
    Literal,
    OrderByItem,
    Parameter,
    Select,
    Star,
    TableRef,
    Update,
)
from repro.sql.parser import parse, parse_query, parse_update


class TestSelect:
    def test_minimal_select(self):
        statement = parse("SELECT toy_id FROM toys")
        assert statement == Select(
            items=(ColumnRef("toy_id"),), tables=(TableRef("toys"),)
        )

    def test_star(self):
        statement = parse("SELECT * FROM toys")
        assert statement.items == (Star(),)

    def test_qualified_columns(self):
        statement = parse("SELECT toys.toy_id FROM toys")
        assert statement.items == (ColumnRef("toy_id", table="toys"),)

    def test_multiple_items(self):
        statement = parse("SELECT a, b, c FROM t")
        assert [i.column for i in statement.items] == ["a", "b", "c"]

    def test_alias_with_as(self):
        statement = parse("SELECT t1.a FROM toys AS t1")
        assert statement.tables == (TableRef("toys", alias="t1"),)

    def test_alias_without_as(self):
        statement = parse("SELECT t1.a FROM toys t1")
        assert statement.tables == (TableRef("toys", alias="t1"),)

    def test_multiple_tables(self):
        statement = parse("SELECT a FROM t1, t2, t3")
        assert [t.name for t in statement.tables] == ["t1", "t2", "t3"]

    def test_where_single_predicate(self):
        statement = parse("SELECT a FROM t WHERE a = 5")
        assert statement.where == (
            Comparison(ColumnRef("a"), ComparisonOp.EQ, Literal(5)),
        )

    def test_where_conjunction(self):
        statement = parse("SELECT a FROM t WHERE a = 5 AND b < 3 AND c >= 'x'")
        assert len(statement.where) == 3
        assert statement.where[1].op is ComparisonOp.LT
        assert statement.where[2].right == Literal("x")

    def test_join_predicate(self):
        statement = parse("SELECT a FROM t1, t2 WHERE t1.x = t2.y")
        assert statement.where[0].is_join()

    def test_parameters_numbered_left_to_right(self):
        statement = parse("SELECT a FROM t WHERE x = ? AND y = ?")
        assert statement.where[0].right == Parameter(0)
        assert statement.where[1].right == Parameter(1)

    def test_parameter_on_left_side(self):
        statement = parse("SELECT a FROM t WHERE ? = x")
        assert statement.where[0].left == Parameter(0)

    def test_null_literal(self):
        statement = parse("SELECT a FROM t WHERE x = NULL")
        assert statement.where[0].right == Literal(None)

    def test_float_literal(self):
        statement = parse("SELECT a FROM t WHERE x > 1.5")
        assert statement.where[0].right == Literal(1.5)

    def test_negative_literal(self):
        statement = parse("SELECT a FROM t WHERE x > -5")
        assert statement.where[0].right == Literal(-5)

    def test_order_by_default_ascending(self):
        statement = parse("SELECT a FROM t ORDER BY a")
        assert statement.order_by == (OrderByItem(ColumnRef("a")),)

    def test_order_by_desc(self):
        statement = parse("SELECT a FROM t ORDER BY a DESC")
        assert statement.order_by[0].descending

    def test_order_by_explicit_asc(self):
        statement = parse("SELECT a FROM t ORDER BY a ASC")
        assert not statement.order_by[0].descending

    def test_order_by_multiple_keys(self):
        statement = parse("SELECT a FROM t ORDER BY a DESC, b")
        assert len(statement.order_by) == 2
        assert statement.order_by[0].descending
        assert not statement.order_by[1].descending

    def test_limit_constant(self):
        statement = parse("SELECT a FROM t LIMIT 10")
        assert statement.limit == 10
        assert statement.has_top_k()

    def test_limit_parameter(self):
        statement = parse("SELECT a FROM t WHERE x = ? LIMIT ?")
        assert statement.limit == Parameter(1)

    def test_no_limit(self):
        assert not parse("SELECT a FROM t").has_top_k()

    def test_distinct_rejected(self):
        with pytest.raises(UnsupportedSqlError):
            parse("SELECT DISTINCT a FROM t")


class TestAggregates:
    @pytest.mark.parametrize(
        "func,expected",
        [
            ("MIN", AggregateFunc.MIN),
            ("MAX", AggregateFunc.MAX),
            ("COUNT", AggregateFunc.COUNT),
            ("SUM", AggregateFunc.SUM),
            ("AVG", AggregateFunc.AVG),
        ],
    )
    def test_aggregate_functions(self, func, expected):
        statement = parse(f"SELECT {func}(qty) FROM toys")
        assert statement.items == (Aggregate(expected, ColumnRef("qty")),)
        assert statement.has_aggregate()

    def test_count_star(self):
        statement = parse("SELECT COUNT(*) FROM toys")
        assert statement.items == (Aggregate(AggregateFunc.COUNT, Star()),)

    def test_star_argument_only_for_count(self):
        with pytest.raises(ParseError):
            parse("SELECT MAX(*) FROM toys")

    def test_count_distinct(self):
        statement = parse("SELECT COUNT(DISTINCT a) FROM t")
        assert statement.items[0].distinct

    def test_group_by(self):
        statement = parse("SELECT a, COUNT(*) FROM t GROUP BY a")
        assert statement.group_by == (ColumnRef("a"),)

    def test_group_by_multiple(self):
        statement = parse("SELECT a, b, SUM(c) FROM t GROUP BY a, b")
        assert len(statement.group_by) == 2


class TestInsert:
    def test_basic_insert(self):
        statement = parse("INSERT INTO toys (toy_id, toy_name) VALUES (1, 'x')")
        assert statement == Insert(
            table="toys",
            columns=("toy_id", "toy_name"),
            values=(Literal(1), Literal("x")),
        )

    def test_insert_with_parameters(self):
        statement = parse("INSERT INTO t (a, b, c) VALUES (?, ?, ?)")
        assert statement.values == (Parameter(0), Parameter(1), Parameter(2))

    def test_insert_null(self):
        statement = parse("INSERT INTO t (a) VALUES (NULL)")
        assert statement.values == (Literal(None),)

    def test_column_value_count_mismatch(self):
        with pytest.raises(ParseError, match="columns but"):
            parse("INSERT INTO t (a, b) VALUES (1)")

    def test_column_ref_value_rejected(self):
        with pytest.raises(ParseError, match="fully specifies"):
            parse("INSERT INTO t (a) VALUES (b)")


class TestDelete:
    def test_delete_with_predicate(self):
        statement = parse("DELETE FROM toys WHERE toy_id = ?")
        assert statement == Delete(
            table="toys",
            where=(Comparison(ColumnRef("toy_id"), ComparisonOp.EQ, Parameter(0)),),
        )

    def test_delete_without_predicate(self):
        statement = parse("DELETE FROM toys")
        assert statement.where == ()

    def test_delete_range_predicate(self):
        statement = parse("DELETE FROM t WHERE a >= 5 AND a < 10")
        assert len(statement.where) == 2


class TestUpdate:
    def test_basic_update(self):
        statement = parse("UPDATE toys SET qty = ? WHERE toy_id = ?")
        assert statement == Update(
            table="toys",
            assignments=(("qty", Parameter(0)),),
            where=(Comparison(ColumnRef("toy_id"), ComparisonOp.EQ, Parameter(1)),),
        )

    def test_multiple_assignments(self):
        statement = parse("UPDATE t SET a = 1, b = 'x' WHERE id = 3")
        assert statement.assignments == (
            ("a", Literal(1)),
            ("b", Literal("x")),
        )

    def test_parameter_numbering_spans_set_and_where(self):
        statement = parse("UPDATE t SET a = ?, b = ? WHERE id = ?")
        assert statement.assignments[0][1] == Parameter(0)
        assert statement.assignments[1][1] == Parameter(1)
        assert statement.where[0].right == Parameter(2)

    def test_column_rhs_rejected(self):
        with pytest.raises(UnsupportedSqlError):
            parse("UPDATE t SET a = b WHERE id = 1")


class TestErrors:
    def test_unknown_statement_kind(self):
        with pytest.raises(ParseError):
            parse("DROP TABLE toys")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError, match="trailing"):
            parse("SELECT a FROM t extra stuff ok")

    def test_missing_from(self):
        with pytest.raises(ParseError):
            parse("SELECT a WHERE x = 1")

    def test_parse_query_rejects_update(self):
        with pytest.raises(ParseError):
            parse_query("DELETE FROM t")

    def test_parse_update_rejects_query(self):
        with pytest.raises(ParseError):
            parse_update("SELECT a FROM t")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse("")

    def test_bad_limit(self):
        with pytest.raises(ParseError):
            parse("SELECT a FROM t LIMIT 'x'")

    def test_negative_limit(self):
        # The executor would slice rows[:-1] and SQLite read it as "no
        # limit": the dialect has no meaning for it, so it never parses.
        with pytest.raises(ParseError, match="negative"):
            parse("SELECT toy_id FROM toys LIMIT -1")
        assert parse("SELECT toy_id FROM toys LIMIT 0").limit == 0

    def test_missing_operand(self):
        with pytest.raises(ParseError):
            parse("SELECT a FROM t WHERE x =")
