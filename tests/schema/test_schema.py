"""Unit tests for schema definitions and validation."""

import pytest

from repro.errors import (
    SchemaError,
    TypeMismatchError,
    UnknownColumnError,
    UnknownTableError,
)
from repro.schema import (
    Attribute,
    Column,
    ColumnType,
    ForeignKey,
    Schema,
    TableSchema,
)


def make_table(name="toys", pk=("toy_id",), fks=()):
    return TableSchema(
        name,
        (
            Column("toy_id", ColumnType.INTEGER),
            Column("toy_name", ColumnType.TEXT),
            Column("qty", ColumnType.INTEGER),
        ),
        primary_key=pk,
        foreign_keys=fks,
    )


class TestColumnType:
    def test_integer_accepts_int(self):
        assert ColumnType.INTEGER.accepts(5)

    def test_integer_rejects_bool(self):
        assert not ColumnType.INTEGER.accepts(True)

    def test_integer_rejects_float(self):
        assert not ColumnType.INTEGER.accepts(1.5)

    def test_float_accepts_int_and_float(self):
        assert ColumnType.FLOAT.accepts(1)
        assert ColumnType.FLOAT.accepts(1.5)

    def test_float_coerces_int_to_float(self):
        assert ColumnType.FLOAT.coerce(3) == 3.0
        assert isinstance(ColumnType.FLOAT.coerce(3), float)

    def test_text_accepts_str_only(self):
        assert ColumnType.TEXT.accepts("x")
        assert not ColumnType.TEXT.accepts(5)

    def test_coerce_raises_on_mismatch(self):
        with pytest.raises(TypeMismatchError):
            ColumnType.INTEGER.coerce("five")


class TestTableSchema:
    def test_column_lookup(self):
        table = make_table()
        assert table.column("qty").type is ColumnType.INTEGER
        assert table.position("toy_name") == 1

    def test_column_names_ordered(self):
        assert make_table().column_names == ("toy_id", "toy_name", "qty")

    def test_unknown_column_raises(self):
        with pytest.raises(UnknownColumnError):
            make_table().column("nope")

    def test_duplicate_column_rejected(self):
        with pytest.raises(SchemaError, match="twice"):
            TableSchema(
                "t",
                (Column("a", ColumnType.INTEGER), Column("a", ColumnType.TEXT)),
            )

    def test_primary_key_must_exist(self):
        with pytest.raises(SchemaError, match="primary key"):
            make_table(pk=("missing",))

    def test_foreign_key_column_must_exist(self):
        with pytest.raises(SchemaError, match="foreign key"):
            make_table(fks=(ForeignKey("missing", "other", "id"),))

    def test_attributes(self):
        attrs = make_table().attributes()
        assert Attribute("toys", "qty") in attrs
        assert len(attrs) == 3

    def test_is_key_column(self):
        table = make_table()
        assert table.is_key_column("toy_id")
        assert not table.is_key_column("qty")


class TestSchema:
    def test_table_lookup(self):
        schema = Schema([make_table()])
        assert schema.table("toys").name == "toys"
        assert "toys" in schema
        assert len(schema) == 1

    def test_unknown_table_raises(self):
        with pytest.raises(UnknownTableError):
            Schema([]).table("ghost")

    def test_duplicate_table_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            Schema([make_table(), make_table()])

    def test_foreign_key_target_table_validated(self):
        bad = TableSchema(
            "orders",
            (Column("toy_id", ColumnType.INTEGER),),
            foreign_keys=(ForeignKey("toy_id", "ghost", "toy_id"),),
        )
        with pytest.raises(SchemaError, match="unknown table"):
            Schema([bad])

    def test_foreign_key_must_hit_primary_key(self):
        parent = make_table()
        child = TableSchema(
            "orders",
            (Column("qty_ref", ColumnType.INTEGER),),
            foreign_keys=(ForeignKey("qty_ref", "toys", "qty"),),
        )
        with pytest.raises(SchemaError, match="primary key"):
            Schema([parent, child])

    def test_valid_foreign_key_accepted(self):
        parent = make_table()
        child = TableSchema(
            "orders",
            (Column("oid", ColumnType.INTEGER), Column("toy", ColumnType.INTEGER)),
            primary_key=("oid",),
            foreign_keys=(ForeignKey("toy", "toys", "toy_id"),),
        )
        schema = Schema([parent, child])
        assert schema.foreign_keys_into("toys") == (
            ("orders", ForeignKey("toy", "toys", "toy_id")),
        )

    def test_attribute_ordering_and_str(self):
        a = Attribute("toys", "qty")
        b = Attribute("toys", "toy_id")
        assert str(a) == "toys.qty"
        assert sorted([b, a]) == [a, b]  # 'qty' < 'toy_id' lexicographically
