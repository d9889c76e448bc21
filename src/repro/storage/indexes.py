"""The tables and their hash indexes.

The benchmark workloads are dominated by equality lookups — ``WHERE pk =
?`` point reads, and ``WHERE fk = ?`` / ``WHERE attribute = ?`` selections
(comments of a story, items of a subject).  :class:`DatabaseIndexes`, the
one index object a :class:`~repro.storage.database.Database` owns, covers
both with two kinds of dict:

* per table one insertion-ordered ``key → row`` dict that *is* the table
  (:attr:`DatabaseIndexes.tables`): iterating it is the scan
  (replace-in-place keeps a row's position, delete removes it, insert
  appends), looking a key up is the point read, the duplicate-key check
  and the foreign-key parent check.  The key is the primary-key tuple; a
  table without a primary key gets a serial number per row instead, so
  every row of every table is addressed the same way.
* per ``(table, column)`` equality buckets (``value → {key: row}``) over
  every column, which the executor and the DML probe instead of scanning.
  A bucket is keyed like its table, so a row is replaced in or removed
  from it by key, never by searching for it.

Rows are immutable tuples; modifications never touch key columns (the
paper's update model), so a row keeps its key for life.
"""

from __future__ import annotations

from collections.abc import Hashable

from repro.errors import PrimaryKeyViolation
from repro.schema.schema import Schema
from repro.storage.rows import Row

__all__ = ["DatabaseIndexes"]

_NO_ROWS: dict[Hashable, Row] = {}


class DatabaseIndexes:
    """The tables + equality buckets over every column of every table.

    This is the object a :class:`Database` owns and threads through DML
    (for maintenance and constraint checks) and the executor (for access
    paths).  Rows are addressed by key: :meth:`add` hands one out,
    :meth:`remove` and :meth:`replace` take it.  ``bucket(table, position,
    value)`` answers single-column equality predicates in O(matching rows).
    """

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

    def new_key(self, table: str, row: Row) -> Hashable:
        """The key ``row`` will be stored under.

        Raises:
            PrimaryKeyViolation: if a row with that primary key exists.
        """
        positions = self._positions[table]
        if not positions:
            self._serial += 1
            return self._serial
        key = tuple(row[position] for position in positions)
        if key in self.tables[table]:
            raise PrimaryKeyViolation(
                f"duplicate primary key {key!r} in table {table!r}"
            )
        return key

    # -- maintenance ---------------------------------------------------------

    def add(self, table: str, row: Row) -> Hashable:
        """Store a freshly inserted/loaded row everywhere; returns its key.

        Raises:
            PrimaryKeyViolation: if its primary key is taken.
        """
        key = self.new_key(table, row)
        self.tables[table][key] = row
        for bucket_map, value in zip(self.buckets[table], row):
            if value is not None and bucket_map is not None:
                bucket = bucket_map.get(value)
                if bucket is None:
                    bucket_map[value] = {key: row}
                else:
                    bucket[key] = row
        return key

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
        copies (which keep insertion order), sharing the immutable row
        tuples.
        """
        other = DatabaseIndexes.__new__(DatabaseIndexes)
        other._positions = self._positions  # immutable after construction
        other.tables = {
            table: dict(rows) for table, rows in self.tables.items()
        }
        other._serial = self._serial
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

    def contains_value(self, table: str, column: str, value) -> bool:
        """Existence check for a single-column key value."""
        return (value,) in self.tables[table]

    def bucket(self, table: str, position: int, value) -> dict[Hashable, Row]:
        """``key → row`` of the rows whose column at ``position`` equals ``value``.

        Empty for NULL — NULL never satisfies an equality.
        """
        bucket_map = self.buckets[table][position]
        if bucket_map is None:
            row = self.tables[table].get((value,))
            return _NO_ROWS if row is None else {(value,): row}
        return bucket_map.get(value, _NO_ROWS)
