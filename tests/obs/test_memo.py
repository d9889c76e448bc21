"""Properties of the one memo primitive, for any sequence of lookups."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs import MetricsRegistry, memo
from repro.obs.memo import BoundedMemo


class _Boom(Exception):
    pass


def _build(key, fail):
    if fail:
        raise _Boom(key)
    return ("built", key)


#: (key, builder raises) — few distinct keys, so sequences hit and overflow.
lookups = st.lists(st.tuples(st.integers(0, 12), st.booleans()), max_size=200)


@given(limit=st.integers(1, 8), sequence=lookups)
def test_bounded_counted_and_failures_never_stored(limit, sequence):
    table = BoundedMemo("test.value_keyed", limit)
    stored = set()
    for count, (key, fail) in enumerate(sequence, start=1):
        size_before, hit_expected = len(table), key in stored
        try:
            assert table.get(key, _build, key, fail) == ("built", key)
        except _Boom:
            assert not hit_expected  # a hit never runs the builder
            assert len(table) == size_before  # the failed miss stored nothing
        else:
            if not hit_expected and size_before >= limit:
                stored.clear()  # dropped whole, then the new entry
            stored.add(key)
        assert len(table) == len(stored) <= limit
        assert table.hits + table.misses == count
    assert table.clears <= table.misses


class _Node:
    """Stands in for an AST node: identity is what the memo must respect."""


@given(limit=st.integers(1, 4), sequence=st.lists(st.integers(0, 3), max_size=60))
def test_pinned_form_never_answers_for_another_object(limit, sequence):
    # Four distinct objects presented under ONE explicit key: the collision
    # a recycled id() would cause, without trying to provoke one.
    table = BoundedMemo("test.pinned", limit)
    nodes = [_Node() for _ in range(4)]
    for count, index in enumerate(sequence, start=1):
        node = nodes[index]
        value = table.get_pinned("colliding-key", node, lambda n=node: ("for", n))
        assert value == ("for", node)
        assert len(table) <= limit
        assert table.hits + table.misses == count
    repeats = sum(a == b for a, b in zip(sequence, sequence[1:]))
    assert table.hits == repeats  # only an immediate repeat of the same object


def test_pinned_entry_keeps_its_object_alive():
    table = BoundedMemo("test.pinned_alive", 4)
    node = _Node()
    table.get_pinned(id(node), node, lambda: "first")
    assert table.get_pinned(id(node), node, lambda: "never built") == "first"
    assert (table.hits, table.misses) == (1, 1)


def test_limit_must_be_positive():
    with pytest.raises(ValueError):
        BoundedMemo("test.bad", 0)


def test_instances_sharing_a_name_are_summed_and_dead_ones_drop_out():
    first, second = BoundedMemo("test.shared", 4), BoundedMemo("test.shared", 4)
    first.get("a", str, 1)
    second.get("a", str, 2)
    second.get("a", str, 2)
    registry = MetricsRegistry()
    memo.register_metrics(registry)

    def gauges():
        return {
            name.removeprefix("test.shared."): value
            for name, value in registry.snapshot()["gauges"].items()
            if name.startswith("test.shared.")
        }

    assert gauges() == {"hits": 1, "misses": 2, "clears": 0, "size": 2, "limit": 8}
    del second
    assert gauges() == {"hits": 0, "misses": 1, "clears": 0, "size": 1, "limit": 4}


def test_lru_caches_are_exported_from_cache_info():
    from repro.analysis.independence import _single_table_constraints

    registry = MetricsRegistry()
    memo.register_metrics(registry)
    gauges = registry.snapshot()["gauges"]
    info = _single_table_constraints.cache_info()
    assert gauges["analysis.update_constraints.limit"] == info.maxsize
    assert gauges["analysis.update_constraints.size"] == info.currsize
    assert gauges["analysis.update_constraints.hits"] == info.hits
