"""Unit tests for ResultSet semantics (the paper's notion of a view)."""

from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.envelope import deserialize_result, serialize_result
from repro.storage import rows as rows_module
from repro.storage.rows import ResultSet, column_key, sort_key


class TestEquivalence:
    def test_unordered_results_compare_as_multisets(self):
        a = ResultSet(("x",), ((1,), (2,), (2,)))
        b = ResultSet(("x",), ((2,), (1,), (2,)))
        assert a.equivalent(b)

    def test_multiset_multiplicity_matters(self):
        a = ResultSet(("x",), ((1,), (2,)))
        b = ResultSet(("x",), ((1,), (2,), (2,)))
        assert not a.equivalent(b)

    def test_ordered_results_compare_as_sequences(self):
        a = ResultSet(("x",), ((1,), (2,)), ordered=True)
        b = ResultSet(("x",), ((2,), (1,)), ordered=True)
        assert not a.equivalent(b)
        assert a.equivalent(ResultSet(("x",), ((1,), (2,)), ordered=True))

    def test_ordered_flag_mismatch_not_equivalent(self):
        a = ResultSet(("x",), ((1,),), ordered=True)
        b = ResultSet(("x",), ((1,),), ordered=False)
        assert not a.equivalent(b)

    def test_different_columns_never_equivalent(self):
        a = ResultSet(("x",), ((1,),))
        b = ResultSet(("y",), ((1,),))
        assert not a.equivalent(b)

    def test_mixed_types_sort_without_error(self):
        rows = ((1,), ("a",), (None,), (2.5,))
        result = ResultSet(("x",), rows)
        assert len(result.signature()) == 4

    def test_empty(self):
        result = ResultSet(("x",), ())
        assert result.empty
        assert len(result) == 0


class TestLazySignature:
    """Only ``equivalent`` reads the signature, so only it pays for one."""

    def test_construction_does_not_sort(self, monkeypatch):
        calls = []

        def counting(row):
            calls.append(row)
            return sort_key(row)

        monkeypatch.setattr(rows_module, "sort_key", counting)
        result = ResultSet(("x",), ((2,), (1,), (None,)))
        opened = deserialize_result(serialize_result(result))
        assert (len(result), opened.rows, calls) == (3, result.rows, [])
        assert opened.signature() == ((1,), (2,), (None,))
        assert len(calls) == 3
        assert opened.signature() is opened.signature()  # computed once
        assert len(calls) == 3
        assert opened.equivalent(result)

    def test_ordered_signature_is_the_rows(self):
        result = ResultSet(("x",), ((2,), (1,)), ordered=True)
        assert result.signature() is result.rows

    def test_signature_is_not_part_of_the_value(self):
        a = ResultSet(("x",), ((2,), (1,)))
        b = ResultSet(("x",), ((2,), (1,)))
        a.signature()
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)


class TestSortKeyProperties:
    @given(
        st.lists(
            st.tuples(st.one_of(st.integers(), st.floats(allow_nan=False),
                                st.text(max_size=5), st.none())),
            max_size=20,
        )
    )
    def test_column_key_orders_like_sort_key(self, rows):
        assert sorted(rows, key=column_key(0)) == sorted(rows, key=sort_key)

    @given(
        st.lists(
            st.tuples(
                st.one_of(st.integers(), st.text(max_size=5), st.none()),
                st.one_of(st.integers(), st.text(max_size=5), st.none()),
            ),
            max_size=20,
        )
    )
    def test_sort_key_total_order(self, rows):
        ordered = sorted(rows, key=sort_key)
        # Total order: sorting twice is stable and idempotent.
        assert sorted(ordered, key=sort_key) == ordered

    @given(
        st.lists(
            st.tuples(st.one_of(st.integers(), st.text(max_size=5), st.none())),
            max_size=15,
        ),
        st.randoms(),
    )
    def test_equivalence_is_permutation_invariant(self, rows, rng):
        shuffled = list(rows)
        rng.shuffle(shuffled)
        a = ResultSet(("x",), tuple(rows))
        b = ResultSet(("x",), tuple(shuffled))
        assert a.equivalent(b)
