"""Rows and query results.

A stored row is a plain tuple of scalars, positionally aligned with its
table's column order.  A :class:`ResultSet` is what query execution returns
and what the DSSP caches: a column header plus row tuples, with multiset
semantics (paper Section 2.1 — projection does not eliminate duplicates).

Two result sets are *equivalent* when they contain the same rows; order is
significant only if the producing query had an ORDER BY (the ``ordered``
flag).  This is exactly the notion of "the view changed" that invalidation
correctness (paper Section 2.2) is defined against.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.sql.ast import Scalar

__all__ = ["ResultSet", "Row", "column_key", "sort_key"]

#: A stored or result row.
Row = tuple[Scalar, ...]


def sort_key(row: Row) -> tuple:
    """Total-order key over heterogeneous rows (NULLs sort last).

    Used both to canonicalize unordered results for comparison and by the
    executor's ORDER BY (ascending form).
    """
    key = []
    for value in row:
        if value is None:
            key.append((2, 0, ""))
        elif isinstance(value, str):
            key.append((1, 0, value))
        else:
            key.append((0, value, ""))
    return tuple(key)


def column_key(position: int) -> Callable[[Row], tuple]:
    """:func:`sort_key` order on one column: ``row → key`` in a single call."""

    def key(row: Row) -> tuple:
        value = row[position]
        if value is None:
            return (2, 0, "")
        if isinstance(value, str):
            return (1, 0, value)
        return (0, value, "")

    return key


@dataclass(frozen=True)
class ResultSet:
    """An immutable query result.

    Attributes:
        columns: Display names of the output columns.
        rows: Result rows, in execution order.
        ordered: True if the producing query had an ORDER BY (or top-k),
            making row order part of the result's identity.
    """

    columns: tuple[str, ...]
    rows: tuple[Row, ...]
    ordered: bool = False
    #: Computed on first use: only :meth:`equivalent` reads it, and sorting
    #: every result at construction taxed each execute and each open.
    _signature: tuple[Row, ...] | None = field(
        default=None, init=False, repr=False, compare=False, hash=False
    )

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    @property
    def empty(self) -> bool:
        """True if the result has no rows."""
        return not self.rows

    def signature(self) -> tuple[Row, ...]:
        """Canonical row sequence: sorted when unordered, as-is when ordered."""
        if self.ordered:
            return self.rows
        if self._signature is None:
            object.__setattr__(
                self, "_signature", tuple(sorted(self.rows, key=sort_key))
            )
        return self._signature

    def equivalent(self, other: "ResultSet") -> bool:
        """True if this result denotes the same view contents as ``other``.

        Multiset comparison for unordered results, sequence comparison for
        ordered ones.  Column headers must match — results of different
        queries are never equivalent.
        """
        return (
            self.columns == other.columns
            and self.ordered == other.ordered
            and self.signature() == other.signature()
        )
