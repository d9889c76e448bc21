"""The parser's intern table: one AST object per distinct source text.

Count- and identity-based only.  The table is process-wide, so every test
asserts on deltas of its gauges, never on absolute values.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SqlError
from repro.obs import MetricsRegistry, memo
from repro.sql import parser
from repro.sql.formatter import to_sql
from repro.sql.parser import parse
from tests.sql.test_roundtrip_property import (
    deletes,
    inserts,
    selects,
    updates,
)


@pytest.fixture
def gauges():
    registry = MetricsRegistry()
    memo.register_metrics(registry)
    prefix = "sql.parse_intern."
    return lambda: {
        name.removeprefix(prefix): value
        for name, value in registry.snapshot()["gauges"].items()
        if name.startswith(prefix)
    }


def test_same_text_yields_the_identical_object(gauges):
    text = "SELECT toy_id FROM toys WHERE toy_name = 'intern-identity'"
    before = gauges()
    first = parse(text)
    assert parse(text) is first
    assert parse(str(text.encode().decode())) is first  # equal, not same, str
    after = gauges()
    assert after["misses"] - before["misses"] == 1
    assert after["hits"] - before["hits"] == 2
    assert after["size"] - before["size"] == 1


def test_distinct_texts_of_one_statement_are_not_aliased():
    lower = parse("select qty from toys where toy_id = 7")
    upper = parse("SELECT qty FROM toys WHERE toy_id = 7")
    assert lower == upper  # the same statement ...
    assert lower is not upper  # ... but the table is keyed by text


@pytest.mark.parametrize(
    "junk",
    [
        "SELEC qty FROM toys",
        "SELECT DISTINCT qty FROM toys",  # UnsupportedSqlError
        "SELECT qty FROM toys WHERE",
        "",
    ],
)
def test_failures_raise_on_every_attempt_and_are_never_stored(junk, gauges):
    before = gauges()
    for _ in range(3):
        with pytest.raises(SqlError):
            parse(junk)
    after = gauges()
    assert after["size"] == before["size"]
    assert after["hits"] == before["hits"]
    assert after["misses"] - before["misses"] == 3


def test_size_never_exceeds_the_bound(monkeypatch, gauges):
    monkeypatch.setattr(parser._interned, "limit", 8)
    first = parse("SELECT qty FROM toys WHERE toy_id = 0")
    for n in range(1, 50):
        parse(f"SELECT qty FROM toys WHERE toy_id = {n}")
        assert 1 <= gauges()["size"] <= 8
    # Dropped along the way: parsed afresh, to an equal statement.
    again = parse("SELECT qty FROM toys WHERE toy_id = 0")
    assert again == first and again is not first


@given(statement=st.one_of(selects(), inserts(), deletes(), updates()))
@settings(max_examples=100, deadline=None)
def test_round_trip_holds_on_the_miss_and_on_the_hit(statement):
    text = to_sql(statement)
    first = parse(text)
    assert first == statement
    assert parse(text) is first
