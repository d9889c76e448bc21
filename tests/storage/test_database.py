"""Unit tests for the Database facade (cloning, snapshots, loading)."""

import pytest

from repro.errors import ExecutionError, UnknownTableError
from repro.sql.parser import parse
from repro.storage import Database


class TestLoading:
    def test_load_bulk_rows(self, toystore_schema):
        db = Database(toystore_schema)
        db.load("toys", [(1, "a", 1), (2, "b", 2)])
        assert db.row_count("toys") == 2

    def test_load_validates_width(self, toystore_schema):
        db = Database(toystore_schema)
        with pytest.raises(ExecutionError, match="width"):
            db.load("toys", [(1, "a")])

    def test_rows_of_unknown_table(self, toystore_db):
        with pytest.raises(UnknownTableError):
            toystore_db.rows("ghost")

    def test_total_rows(self, toystore_db):
        assert toystore_db.total_rows() == 8 + 3 + 2


class TestCloning:
    def test_clone_is_independent(self, toystore_db):
        clone = toystore_db.clone()
        clone.apply(parse("DELETE FROM toys WHERE toy_id = 1"))
        assert toystore_db.row_count("toys") == 8
        assert clone.row_count("toys") == 7

    def test_clone_preserves_version(self, toystore_db):
        toystore_db.apply(parse("DELETE FROM toys WHERE toy_id = 1"))
        clone = toystore_db.clone()
        assert clone.version == toystore_db.version

    def test_q_of_d_plus_u_semantics(self, toystore_db):
        """The paper's correctness definition compares Q[D] with Q[D+U]."""
        query = parse("SELECT COUNT(*) FROM toys")
        before = toystore_db.execute(query)
        after_db = toystore_db.clone()
        after_db.apply(parse("DELETE FROM toys WHERE toy_id = 1"))
        after = after_db.execute(query)
        assert before.rows == ((8,),)
        assert after.rows == ((7,),)
        assert not before.equivalent(after)


class TestSnapshots:
    def test_snapshot_is_immutable_copy(self, toystore_db):
        snapshot = toystore_db.snapshot()
        toystore_db.apply(parse("DELETE FROM toys"))
        assert len(snapshot["toys"]) == 8
