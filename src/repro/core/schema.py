"""Typed relational schemas.

Characteristic 3 requires a content integrator to support "a multitude of
schemas" rather than one rigid master schema, so schemas here are cheap,
first-class values: they can be projected, renamed, extended and compared,
and every :class:`~repro.core.records.Table` carries one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from repro.core.errors import SchemaError
from repro.core.values import Money


class DataType(enum.Enum):
    """Logical column types understood across the whole system."""

    STRING = "string"
    TEXT = "text"  # unstructured prose; eligible for IR indexing
    INTEGER = "integer"
    FLOAT = "float"
    BOOLEAN = "boolean"
    MONEY = "money"
    TIMESTAMP = "timestamp"  # simulated seconds (float)

    def validate(self, value: Any) -> bool:
        """Return True if ``value`` conforms to this type (None always does)."""
        if value is None:
            return True
        if self in (DataType.STRING, DataType.TEXT):
            return isinstance(value, str)
        if self is DataType.INTEGER:
            return isinstance(value, int) and not isinstance(value, bool)
        if self in (DataType.FLOAT, DataType.TIMESTAMP):
            return isinstance(value, (int, float)) and not isinstance(value, bool)
        if self is DataType.BOOLEAN:
            return isinstance(value, bool)
        if self is DataType.MONEY:
            return isinstance(value, Money)
        raise AssertionError(f"unhandled data type {self!r}")


@dataclass(frozen=True)
class Field:
    """One named, typed column of a schema."""

    name: str
    dtype: DataType
    nullable: bool = True
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").isalnum():
            raise SchemaError(f"invalid field name {self.name!r}")

    def renamed(self, new_name: str) -> "Field":
        """Return a copy of this field with a different name."""
        return Field(new_name, self.dtype, self.nullable, self.description)


@dataclass(frozen=True)
class Schema:
    """An ordered collection of uniquely named fields.

    Schemas are immutable; all mutating-looking operations return new
    schemas.  Field order matters: it defines the positional layout of rows
    in :class:`~repro.core.records.Table`.
    """

    name: str
    fields: tuple[Field, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "fields", tuple(self.fields))
        positions: dict[str, int] = {}
        for i, f in enumerate(self.fields):
            if f.name in positions:
                raise SchemaError(f"duplicate field {f.name!r} in schema {self.name!r}")
            positions[f.name] = i
        # Lookup caches: plain attributes, not dataclass fields, so equality,
        # hashing and repr still see only ``name`` and ``fields``.
        object.__setattr__(self, "_names", tuple(positions))
        object.__setattr__(self, "_positions", positions)

    # -- lookup ----------------------------------------------------------

    @property
    def field_names(self) -> tuple[str, ...]:
        return self._names

    def has_field(self, name: str) -> bool:
        return name in self._positions

    def field_named(self, name: str) -> Field:
        return self.fields[self.index_of(name)]

    def index_of(self, name: str) -> int:
        try:
            return self._positions[name]
        except KeyError:
            raise SchemaError(f"schema {self.name!r} has no field {name!r}") from None

    def __len__(self) -> int:
        return len(self.fields)

    def __iter__(self):
        return iter(self.fields)

    # -- algebra ----------------------------------------------------------

    def project(self, names: Sequence[str], new_name: str | None = None) -> "Schema":
        """Return a schema keeping only ``names``, in the given order."""
        return Schema(
            new_name or self.name,
            tuple(self.field_named(n) for n in names),
        )

    def rename_fields(self, mapping: dict[str, str]) -> "Schema":
        """Return a schema with fields renamed per ``mapping`` (old -> new)."""
        missing = set(mapping) - set(self.field_names)
        if missing:
            raise SchemaError(f"cannot rename missing fields {sorted(missing)!r}")
        return Schema(
            self.name,
            tuple(f.renamed(mapping.get(f.name, f.name)) for f in self.fields),
        )

    def extend(self, new_fields: Iterable[Field], new_name: str | None = None) -> "Schema":
        """Return a schema with ``new_fields`` appended."""
        return Schema(new_name or self.name, self.fields + tuple(new_fields))

    def drop(self, names: Sequence[str]) -> "Schema":
        """Return a schema without the fields in ``names``."""
        drop_set = set(names)
        missing = drop_set - set(self.field_names)
        if missing:
            raise SchemaError(f"cannot drop missing fields {sorted(missing)!r}")
        return Schema(self.name, tuple(f for f in self.fields if f.name not in drop_set))

    def prefixed(self, prefix: str) -> "Schema":
        """Return a schema with every field name prefixed (for joins)."""
        return Schema(
            self.name,
            tuple(f.renamed(f"{prefix}{f.name}") for f in self.fields),
        )

    def union_compatible(self, other: "Schema") -> bool:
        """True when the two schemas have the same field names and types."""
        return self.field_names == other.field_names and tuple(
            f.dtype for f in self.fields
        ) == tuple(f.dtype for f in other.fields)

    # -- validation --------------------------------------------------------

    def validate_row(self, row: Sequence[Any]) -> None:
        """Raise :class:`SchemaError` unless ``row`` conforms to this schema."""
        if len(row) != len(self.fields):
            raise SchemaError(
                f"row has {len(row)} values, schema {self.name!r} "
                f"has {len(self.fields)} fields"
            )
        for f, value in zip(self.fields, row):
            if value is None and not f.nullable:
                raise SchemaError(f"field {f.name!r} is not nullable")
            if not f.dtype.validate(value):
                raise SchemaError(
                    f"value {value!r} does not conform to "
                    f"{f.dtype.value} field {f.name!r}"
                )
