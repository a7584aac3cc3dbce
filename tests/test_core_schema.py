"""Unit tests for schemas, fields, data types and Money."""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import DataType, Field, Money, Schema, SchemaError, TransformError


def make_schema():
    return Schema(
        "parts",
        (
            Field("part_id", DataType.STRING, nullable=False),
            Field("part_name", DataType.STRING),
            Field("price", DataType.MONEY),
            Field("qty", DataType.INTEGER),
        ),
    )


class TestDataType:
    @pytest.mark.parametrize(
        "dtype,good,bad",
        [
            (DataType.STRING, "abc", 7),
            (DataType.TEXT, "prose", 1.5),
            (DataType.INTEGER, 3, "3"),
            (DataType.FLOAT, 2.5, "x"),
            (DataType.BOOLEAN, True, 1),
            (DataType.MONEY, Money(1.0, "USD"), 1.0),
            (DataType.TIMESTAMP, 12.0, "noon"),
        ],
    )
    def test_validate_accepts_and_rejects(self, dtype, good, bad):
        assert dtype.validate(good)
        assert not dtype.validate(bad)

    def test_none_always_validates(self):
        assert all(dtype.validate(None) for dtype in DataType)

    def test_bool_is_not_integer(self):
        assert not DataType.INTEGER.validate(True)


class TestField:
    def test_invalid_name_rejected(self):
        with pytest.raises(SchemaError):
            Field("bad name", DataType.STRING)

    def test_renamed_preserves_type(self):
        field = Field("a", DataType.FLOAT, nullable=False, description="d")
        renamed = field.renamed("b")
        assert renamed.name == "b"
        assert renamed.dtype is DataType.FLOAT
        assert not renamed.nullable
        assert renamed.description == "d"


class TestSchema:
    def test_duplicate_field_rejected(self):
        with pytest.raises(SchemaError):
            Schema("s", (Field("x", DataType.STRING), Field("x", DataType.INTEGER)))

    def test_lookup(self):
        schema = make_schema()
        assert schema.field_names == ("part_id", "part_name", "price", "qty")
        assert schema.index_of("price") == 2
        assert schema.has_field("qty")
        assert not schema.has_field("missing")
        assert schema.field_named("qty").dtype is DataType.INTEGER

    def test_missing_field_raises(self):
        with pytest.raises(SchemaError):
            make_schema().field_named("nope")
        with pytest.raises(SchemaError):
            make_schema().index_of("nope")

    def test_lookups_are_computed_once(self):
        schema = make_schema()
        assert schema.field_names is schema.field_names
        assert [schema.index_of(n) for n in schema.field_names] == [0, 1, 2, 3]

    def test_lookup_caches_stay_out_of_identity(self):
        schema = make_schema()
        assert [f.name for f in dataclasses.fields(Schema)] == ["name", "fields"]
        assert schema == make_schema()
        assert hash(schema) == hash(make_schema())
        assert repr(schema) == f"Schema(name='parts', fields={schema.fields!r})"
        replaced = dataclasses.replace(schema, fields=schema.fields[:2])
        assert replaced.field_names == ("part_id", "part_name")
        assert not replaced.has_field("qty")

    def test_project_reorders(self):
        projected = make_schema().project(["qty", "part_id"])
        assert projected.field_names == ("qty", "part_id")

    def test_rename_fields(self):
        renamed = make_schema().rename_fields({"part_name": "name"})
        assert renamed.field_names == ("part_id", "name", "price", "qty")

    def test_rename_missing_rejected(self):
        with pytest.raises(SchemaError):
            make_schema().rename_fields({"ghost": "g"})

    def test_extend_and_drop(self):
        extended = make_schema().extend([Field("supplier", DataType.STRING)])
        assert extended.has_field("supplier")
        dropped = extended.drop(["qty", "supplier"])
        assert dropped.field_names == ("part_id", "part_name", "price")

    def test_drop_missing_rejected(self):
        with pytest.raises(SchemaError):
            make_schema().drop(["ghost"])

    def test_prefixed(self):
        prefixed = make_schema().prefixed("p_")
        assert prefixed.field_names[0] == "p_part_id"

    def test_union_compatibility(self):
        schema = make_schema()
        assert schema.union_compatible(make_schema())
        assert not schema.union_compatible(schema.project(["part_id"]))

    def test_validate_row_happy_path(self):
        make_schema().validate_row(("p1", "bolt", Money(1.0, "USD"), 5))

    def test_validate_row_wrong_arity(self):
        with pytest.raises(SchemaError):
            make_schema().validate_row(("p1",))

    def test_validate_row_type_mismatch(self):
        with pytest.raises(SchemaError):
            make_schema().validate_row(("p1", "bolt", 1.0, 5))

    def test_validate_row_null_in_non_nullable(self):
        with pytest.raises(SchemaError):
            make_schema().validate_row((None, "bolt", Money(1.0, "USD"), 5))

    def test_iteration_and_len(self):
        schema = make_schema()
        assert len(schema) == 4
        assert [f.name for f in schema] == list(schema.field_names)


class TestMoney:
    def test_same_currency_arithmetic(self):
        total = Money(10.0, "USD") + Money(2.5, "usd")
        assert total == Money(12.5, "USD")
        assert Money(10.0, "USD") - Money(4.0, "USD") == Money(6.0, "USD")
        assert 2 * Money(3.0, "EUR") == Money(6.0, "EUR")

    def test_currency_normalized_to_upper(self):
        assert Money(1.0, "frf").currency == "FRF"

    def test_cross_currency_operations_rejected(self):
        with pytest.raises(TransformError):
            Money(1.0, "USD") + Money(1.0, "FRF")
        with pytest.raises(TransformError):
            Money(1.0, "USD") < Money(1.0, "FRF")

    def test_invalid_currency_rejected(self):
        with pytest.raises(TransformError):
            Money(1.0, "12")
        with pytest.raises(TransformError):
            Money(1.0, "")

    def test_convert_uses_explicit_rate(self):
        converted = Money(100.0, "FRF").convert("USD", 0.14)
        assert converted.currency == "USD"
        assert converted.amount == pytest.approx(14.0)

    def test_convert_rejects_bad_rate(self):
        with pytest.raises(TransformError):
            Money(1.0, "USD").convert("EUR", 0.0)

    def test_comparison_within_currency(self):
        assert Money(1.0, "USD") < Money(2.0, "USD")
        assert Money(2.0, "USD") >= Money(2.0, "USD")

    def test_rounded(self):
        assert Money(1.005, "USD").rounded() == Money(1.0, "USD")
        assert str(Money(3.14159, "USD")) == "3.14 USD"

    @given(
        st.floats(min_value=-1e9, max_value=1e9),
        st.floats(min_value=-1e9, max_value=1e9),
    )
    def test_addition_commutes(self, a, b):
        left = Money(a, "USD") + Money(b, "USD")
        right = Money(b, "USD") + Money(a, "USD")
        assert left == right
