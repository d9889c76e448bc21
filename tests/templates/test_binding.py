"""Unit tests for parameter binding."""

import pytest

from repro.errors import BindingError
from repro.sql.ast import Literal
from repro.sql.formatter import to_sql
from repro.sql.parser import parse
from repro.templates.binding import bind, count_parameters


class TestCountParameters:
    @pytest.mark.parametrize(
        "sql,count",
        [
            ("SELECT a FROM t", 0),
            ("SELECT a FROM t WHERE x = ?", 1),
            ("SELECT a FROM t WHERE x = ? AND y = ?", 2),
            ("SELECT a FROM t WHERE x = ? LIMIT ?", 2),
            ("INSERT INTO t (a, b) VALUES (?, ?)", 2),
            ("INSERT INTO t (a, b) VALUES (?, 5)", 1),
            ("DELETE FROM t WHERE a = ? AND b > ?", 2),
            ("UPDATE t SET a = ?, b = ? WHERE id = ?", 3),
        ],
    )
    def test_counts(self, sql, count):
        assert count_parameters(parse(sql)) == count


class TestBind:
    def test_bind_select(self):
        bound = bind(parse("SELECT a FROM t WHERE x = ?"), ["hello"])
        assert to_sql(bound) == "SELECT a FROM t WHERE x = 'hello'"

    def test_bind_preserves_order(self):
        bound = bind(parse("SELECT a FROM t WHERE x = ? AND y = ?"), [1, 2])
        assert bound.where[0].right == Literal(1)
        assert bound.where[1].right == Literal(2)

    def test_bind_limit(self):
        bound = bind(parse("SELECT a FROM t WHERE x = ? LIMIT ?"), [5, 10])
        assert bound.limit == 10

    def test_bind_limit_requires_int(self):
        with pytest.raises(BindingError, match="int"):
            bind(parse("SELECT a FROM t LIMIT ?"), ["ten"])

    def test_bind_limit_rejects_negative(self):
        with pytest.raises(BindingError, match="non-negative"):
            bind(parse("SELECT a FROM t LIMIT ?"), [-1])
        assert bind(parse("SELECT a FROM t LIMIT ?"), [0]).limit == 0

    def test_bind_insert(self):
        bound = bind(parse("INSERT INTO t (a, b) VALUES (?, ?)"), [1, "x"])
        assert to_sql(bound) == "INSERT INTO t (a, b) VALUES (1, 'x')"

    def test_bind_delete(self):
        bound = bind(parse("DELETE FROM t WHERE a = ?"), [3])
        assert to_sql(bound) == "DELETE FROM t WHERE a = 3"

    def test_bind_update(self):
        bound = bind(parse("UPDATE t SET a = ? WHERE id = ?"), [9, 1])
        assert to_sql(bound) == "UPDATE t SET a = 9 WHERE id = 1"

    def test_bind_null_value(self):
        bound = bind(parse("UPDATE t SET a = ? WHERE id = ?"), [None, 1])
        assert to_sql(bound) == "UPDATE t SET a = NULL WHERE id = 1"

    def test_arity_mismatch_too_few(self):
        with pytest.raises(BindingError, match="1 parameter"):
            bind(parse("SELECT a FROM t WHERE x = ?"), [])

    def test_arity_mismatch_too_many(self):
        with pytest.raises(BindingError):
            bind(parse("SELECT a FROM t WHERE x = ?"), [1, 2])

    def test_binding_does_not_mutate_template(self):
        template = parse("SELECT a FROM t WHERE x = ?")
        bind(template, [1])
        assert count_parameters(template) == 1
