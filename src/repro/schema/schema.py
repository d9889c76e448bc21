"""Whole-database schema with cross-table validation and name resolution."""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.errors import SchemaError, UnknownTableError
from repro.schema.attribute import Attribute
from repro.schema.constraints import ForeignKey
from repro.schema.table import TableSchema

__all__ = ["Schema"]


class Schema:
    """An immutable collection of table schemas.

    Validates on construction that foreign keys point at existing tables and
    columns, and (as the paper's Section 4.5 analysis assumes) that every
    foreign key references the target table's primary key.
    """

    def __init__(self, tables: Iterable[TableSchema]) -> None:
        self._tables: dict[str, TableSchema] = {}
        for table in tables:
            if table.name in self._tables:
                raise SchemaError(f"duplicate table {table.name!r}")
            self._tables[table.name] = table
        self._validate_foreign_keys()

    def _validate_foreign_keys(self) -> None:
        for table in self._tables.values():
            for foreign_key in table.foreign_keys:
                target = self._tables.get(foreign_key.ref_table)
                if target is None:
                    raise SchemaError(
                        f"foreign key {foreign_key.describe(table.name)} "
                        "references an unknown table"
                    )
                if not target.has_column(foreign_key.ref_column):
                    raise SchemaError(
                        f"foreign key {foreign_key.describe(table.name)} "
                        "references an unknown column"
                    )
                if target.primary_key != (foreign_key.ref_column,):
                    raise SchemaError(
                        f"foreign key {foreign_key.describe(table.name)} must "
                        "reference the target's (single-column) primary key"
                    )

    # -- lookup ----------------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def __iter__(self) -> Iterator[TableSchema]:
        return iter(self._tables.values())

    def __len__(self) -> int:
        return len(self._tables)

    @property
    def table_names(self) -> tuple[str, ...]:
        """Names of all tables, in declaration order."""
        return tuple(self._tables)

    def table(self, name: str) -> TableSchema:
        """Return the schema for table ``name``.

        Raises:
            UnknownTableError: if no such table exists.
        """
        try:
            return self._tables[name]
        except KeyError:
            raise UnknownTableError(name) from None

    def attribute(self, table: str, column: str) -> Attribute:
        """Resolve ``table.column`` to an :class:`Attribute`, validating both."""
        return self.table(table).attribute(column)

    # -- constraint views --------------------------------------------------------

    def foreign_keys_into(self, table: str) -> tuple[tuple[str, ForeignKey], ...]:
        """Return ``(owning_table, fk)`` pairs referencing ``table``."""
        incoming = []
        for owner in self._tables.values():
            for foreign_key in owner.foreign_keys:
                if foreign_key.ref_table == table:
                    incoming.append((owner.name, foreign_key))
        return tuple(incoming)
