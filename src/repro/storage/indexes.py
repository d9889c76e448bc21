"""The tables and their hash indexes.

The benchmark workloads are dominated by equality lookups — ``WHERE pk =
?`` point reads, and ``WHERE fk = ?`` / ``WHERE attribute = ?`` selections
(comments of a story, items of a subject).  Two structures cover them:

* :class:`PrimaryKeyIndex` — per table one insertion-ordered ``key → row``
  dict that *is* the table: iterating it is the scan (replace-in-place
  keeps a row's position, delete removes it, insert appends), looking a
  key up is the point read, the duplicate-key check and the foreign-key
  parent check.  The key is the primary-key tuple; a table without a
  primary key gets a serial number per row instead, so every row of every
  table is addressed the same way.
* :class:`DatabaseIndexes` — the facade a
  :class:`~repro.storage.database.Database` owns: the tables plus
  per-``(table, column)`` equality buckets (``value → {key: row}``) over
  every column, which the executor and the DML probe instead of scanning.
  A bucket is keyed like its table, so a row is replaced in or removed
  from it by key, never by searching for it.

Rows are immutable tuples; modifications never touch key columns (the
paper's update model), so a row keeps its key for life.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable

from repro.errors import PrimaryKeyViolation
from repro.schema.schema import Schema
from repro.storage.rows import Row

__all__ = ["DatabaseIndexes", "PrimaryKeyIndex"]

_NO_ROWS: dict[Hashable, Row] = {}


class PrimaryKeyIndex:
    """Per-table ``key → row`` dicts: the stored rows of one database."""

    def __init__(self, schema: Schema) -> None:
        self._positions: dict[str, tuple[int, ...]] = {
            table.name: tuple(
                table.position(column) for column in table.primary_key
            )
            for table in schema
        }
        self.tables: dict[str, dict[Hashable, Row]] = {
            name: {} for name in self._positions
        }
        self._serial = 0  # last surrogate key handed to a keyless table's row

    def key_of(self, table: str, row: Row) -> tuple:
        """Extract the primary-key tuple of a row."""
        return tuple(row[position] for position in self._positions[table])

    def new_key(self, table: str, row: Row) -> Hashable:
        """The key ``row`` will be stored under.

        Raises:
            PrimaryKeyViolation: if a row with that primary key exists.
        """
        if not self._positions[table]:
            self._serial += 1
            return self._serial
        key = self.key_of(table, row)
        if key in self.tables[table]:
            raise PrimaryKeyViolation(
                f"duplicate primary key {key!r} in table {table!r}"
            )
        return key

    # -- maintenance --------------------------------------------------------

    def add(self, table: str, row: Row) -> Hashable:
        """Append a row to its table; returns its key."""
        key = self.new_key(table, row)
        self.tables[table][key] = row
        return key

    def remove(self, table: str, row: Row) -> None:
        """Forget the row stored under ``row``'s primary key."""
        self.tables[table].pop(self.key_of(table, row), None)

    def replace(self, table: str, old: Row, new: Row) -> None:
        """Swap a row in place (keys never change in the paper's model)."""
        self.tables[table][self.key_of(table, old)] = new

    def rebuild(self, table: str, rows: Iterable[Row]) -> None:
        """Replace the table's contents (bulk load / restore)."""
        self.tables[table] = {}
        for row in rows:
            self.add(table, row)

    def rebuild_all(self, data: dict[str, Iterable[Row]]) -> None:
        """Replace every table's contents; a table not in ``data`` empties."""
        for table in self.tables:
            self.rebuild(table, data.get(table, ()))

    def clone(self) -> "PrimaryKeyIndex":
        """Copy the tables; rows are immutable tuples shared with the source.

        ``dict(mapping)`` is a C-level copy that keeps insertion order.
        """
        other = PrimaryKeyIndex.__new__(PrimaryKeyIndex)
        other._positions = self._positions  # immutable after construction
        other.tables = {
            table: dict(mapping) for table, mapping in self.tables.items()
        }
        other._serial = self._serial
        return other

    # -- queries --------------------------------------------------------------

    def contains(self, table: str, key: tuple) -> bool:
        """O(1): does a row with this key exist?"""
        return key in self.tables[table]

    def lookup(self, table: str, key: tuple) -> Row | None:
        """O(1): the row with this key, or None."""
        return self.tables[table].get(key)

    def contains_value(self, table: str, column: str, value) -> bool:
        """Existence check for a single-column key value."""
        return (value,) in self.tables[table]


class DatabaseIndexes:
    """The tables + equality buckets over every column of every table.

    This is the object a :class:`Database` owns and threads through DML
    (for maintenance and constraint checks) and the executor (for access
    paths).  ``bucket(table, position, value)`` answers single-column
    equality predicates in O(matching rows).
    """

    def __init__(self, schema: Schema) -> None:
        self.primary = PrimaryKeyIndex(schema)
        self.tables = self.primary.tables
        # table -> per column position: value -> {key: row}.  NULLs are not
        # indexed: a comparison with NULL never holds, so no probe wants them.
        # A single-column primary key has no map (None): the table is it.
        self.buckets: dict[str, tuple[dict | None, ...]] = {
            table.name: tuple(
                None if table.primary_key == (column.name,) else {}
                for column in table.columns
            )
            for table in schema
        }

    # -- maintenance ---------------------------------------------------------

    def add(self, table: str, row: Row) -> None:
        """Store a freshly inserted/loaded row everywhere.

        Raises:
            PrimaryKeyViolation: if its primary key is taken.
        """
        key = self.primary.add(table, row)
        for bucket_map, value in zip(self.buckets[table], row):
            if value is not None and bucket_map is not None:
                bucket = bucket_map.get(value)
                if bucket is None:
                    bucket_map[value] = {key: row}
                else:
                    bucket[key] = row

    def remove(self, table: str, key: Hashable) -> None:
        """Delete the row stored under ``key`` everywhere."""
        row = self.tables[table].pop(key)
        for bucket_map, value in zip(self.buckets[table], row):
            if value is not None and bucket_map is not None:
                bucket = bucket_map[value]
                del bucket[key]
                if not bucket:
                    del bucket_map[value]

    def replace(self, table: str, key: Hashable, new: Row) -> None:
        """Track a modification: re-bucket only the changed columns."""
        rows = self.tables[table]
        old = rows[key]
        rows[key] = new
        for bucket_map, old_value, new_value in zip(self.buckets[table], old, new):
            if bucket_map is None:
                continue
            if old_value == new_value:
                if new_value is not None:
                    bucket_map[new_value][key] = new  # same place in the bucket
                continue
            if old_value is not None:
                bucket = bucket_map[old_value]
                del bucket[key]
                if not bucket:
                    del bucket_map[old_value]
            if new_value is not None:
                bucket_map.setdefault(new_value, {})[key] = new

    def clone(self) -> "DatabaseIndexes":
        """Copy every index without re-deriving it from table contents.

        ``Database.clone()`` is on the oracle's hot path (one clone per
        checked update in the view-inspection proofs), and rebuilding
        buckets walks every column of every row in Python.  Cloning
        instead copies the finished containers with C-level ``dict``
        copies, sharing the immutable row tuples.
        """
        other = DatabaseIndexes.__new__(DatabaseIndexes)
        other.primary = self.primary.clone()
        other.tables = other.primary.tables
        other.buckets = {
            table: tuple(
                None
                if bucket_map is None
                else {value: dict(rows) for value, rows in bucket_map.items()}
                for bucket_map in bucket_maps
            )
            for table, bucket_maps in self.buckets.items()
        }
        return other

    # -- probes ---------------------------------------------------------------

    def bucket(self, table: str, position: int, value) -> dict[Hashable, Row]:
        """``key → row`` of the rows whose column at ``position`` equals ``value``.

        Empty for NULL — NULL never satisfies an equality.
        """
        bucket_map = self.buckets[table][position]
        if bucket_map is None:
            row = self.tables[table].get((value,))
            return _NO_ROWS if row is None else {(value,): row}
        return bucket_map.get(value, _NO_ROWS)
