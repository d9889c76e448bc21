"""The plan memo: one compile per statement shape, whatever the literals."""

import pytest

from repro.errors import ExecutionError, UnknownColumnError
from repro.sql.parser import parse
from repro.templates.binding import bind


def plans(db):
    return db._executor._plans


class TestOnePlanPerShape:
    def test_one_template_many_parameters_compiles_once(self, toystore_db):
        template = parse(
            "SELECT toy_name FROM toys WHERE toy_id = ? AND qty >= ? "
            "ORDER BY toy_name LIMIT 3"
        )
        for toy in range(1, 9):
            result = toystore_db.execute(bind(template, [toy, toy]))
            assert result.rows == ((f"toy{toy}",),)
        assert (plans(toystore_db).misses, plans(toystore_db).hits) == (1, 7)
        assert len(plans(toystore_db)) == 1

    def test_separately_parsed_statements_share_a_plan(self, toystore_db):
        first = toystore_db.execute(parse("SELECT qty FROM toys WHERE toy_id = 3"))
        second = toystore_db.execute(parse("SELECT qty FROM toys WHERE toy_id = 5"))
        assert (first.rows, second.rows) == (((6,),), ((10,),))
        assert (plans(toystore_db).misses, plans(toystore_db).hits) == (1, 1)

    def test_limit_is_a_run_time_argument(self, toystore_db):
        for limit in (1, 4, 0):
            result = toystore_db.execute(
                parse(f"SELECT toy_id FROM toys ORDER BY qty DESC LIMIT {limit}")
            )
            assert result.rows == tuple((toy,) for toy in range(8, 8 - limit, -1))
        assert plans(toystore_db).misses == 1

    def test_a_different_shape_is_a_different_plan(self, toystore_db):
        toystore_db.execute(parse("SELECT qty FROM toys WHERE toy_id = 3"))
        toystore_db.execute(parse("SELECT qty FROM toys WHERE toy_id >= 3"))
        toystore_db.execute(parse("SELECT qty FROM toys WHERE 3 = toy_id"))
        toystore_db.execute(parse("SELECT qty FROM toys WHERE toy_id = 3 LIMIT 1"))
        assert plans(toystore_db).misses == 4

    def test_a_clone_runs_on_its_source_plans(self, toystore_db):
        select = parse("SELECT qty FROM toys WHERE toy_id = 3")
        toystore_db.execute(select)
        clone = toystore_db.clone()
        clone.apply(parse("UPDATE toys SET qty = 0 WHERE toy_id = 3"))
        assert clone.execute(select).rows == ((0,),)
        assert toystore_db.execute(select).rows == ((6,),)
        assert plans(clone) is plans(toystore_db)
        assert plans(toystore_db).misses == 1


class TestLiteralTypesUnderASharedPlan:
    """A plan is compiled for a shape, not for the types it first saw."""

    def test_equality_across_types(self, toystore_db):
        sql = "SELECT toy_name FROM toys WHERE toy_id = {}"
        assert toystore_db.execute(parse(sql.format(4))).rows == (("toy4",),)
        assert toystore_db.execute(parse(sql.format("'4'"))).rows == ()
        assert toystore_db.execute(parse(sql.format(4.0))).rows == (("toy4",),)
        assert toystore_db.execute(parse(sql.format("NULL"))).rows == ()
        assert plans(toystore_db).misses == 1

    def test_ordering_across_types_is_the_interpreters_type_error(self, toystore_db):
        sql = "SELECT toy_id FROM toys WHERE qty < {}"
        assert toystore_db.execute(parse(sql.format(5))).rows == ((1,), (2,))
        with pytest.raises(TypeError):
            toystore_db.execute(parse(sql.format("'five'")))
        # The failed run spoiled nothing: the plan still answers.
        assert toystore_db.execute(parse(sql.format(3))).rows == ((1,),)
        assert plans(toystore_db).misses == 1


class TestFailedCompileStoresNothing:
    @pytest.mark.parametrize(
        "sql,error",
        [
            ("SELECT nosuch FROM toys WHERE toy_id = 1", UnknownColumnError),
            ("SELECT toy_id FROM toys ORDER BY nosuch", UnknownColumnError),
            ("SELECT toy_id FROM toys WHERE qty = ?", ExecutionError),
            ("SELECT toy_id FROM toys LIMIT ?", ExecutionError),
            ("SELECT toy_id, COUNT(*) FROM toys", ExecutionError),
        ],
    )
    def test_same_error_every_call(self, toystore_db, sql, error):
        select = parse(sql)
        messages = []
        for _ in range(3):
            with pytest.raises(error) as caught:
                toystore_db.execute(select)
            messages.append(str(caught.value))
        assert len(set(messages)) == 1
        assert len(plans(toystore_db)) == 0
        assert plans(toystore_db).misses == 3

    def test_unbound_limit_does_not_alias_a_bound_one(self, toystore_db):
        bound = parse("SELECT toy_id FROM toys WHERE qty > 2 LIMIT 2")
        assert toystore_db.execute(bound).rows == ((2,), (3,))
        with pytest.raises(ExecutionError, match="LIMIT"):
            toystore_db.execute(parse("SELECT toy_id FROM toys WHERE qty > 2 LIMIT ?"))
        assert toystore_db.execute(bound).rows == ((2,), (3,))
