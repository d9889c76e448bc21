"""The storage-backend seam: protocol + canonical ORDER BY/LIMIT semantics.

A :class:`Backend` is exactly what the home server needs from its master
database (duck-type compatible with :class:`~repro.storage.database.Database`):
execute a bound SELECT to a :class:`~repro.storage.rows.ResultSet`, apply a
bound update statement, bulk-load trusted rows, snapshot/clone for the
oracle, and expose a monotone version stamp.

**Canonical ordering.**  The one place engines legitimately disagree is tie
order under ORDER BY (and therefore *which* rows a LIMIT keeps when ties
straddle the cutoff): the in-memory engine breaks ties by FROM-order
primary key, SQLite — which cannot see base keys through a projection —
by whatever its scan produces.  Backends therefore execute the
order/limit-free *core* of an ordered query and apply one shared,
deterministic canonicalization in Python:

1. sort all rows by the full projected row's :func:`sort_key` (ascending,
   the global tie-break);
2. stable-sort per ORDER BY key, last key first, descending keys reversed;
3. slice LIMIT.

Both backends run the identical step 1–3 code, so their ordered results
are row-for-row identical — the property the differential parity suite
asserts.  The raw :class:`~repro.storage.database.Database` keeps its
own contract (:mod:`repro.storage.executor`, "Result order");
canonicalization lives only at the backend seam.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, replace
from typing import Protocol, runtime_checkable

from repro.errors import ExecutionError
from repro.obs.memo import BoundedMemo
from repro.schema.schema import Schema
from repro.sql.ast import Parameter, Select, Statement
from repro.storage.rows import ResultSet, Row, sort_key

__all__ = ["Backend", "CanonicalOrderer"]


@runtime_checkable
class Backend(Protocol):
    """What the home (and the oracle) needs from a master database."""

    #: Registry name of the backend kind ("memory", "sqlite", ...).
    name: str
    schema: Schema

    @property
    def version(self) -> int:
        """Monotone counter, incremented by every effective update."""
        ...

    def execute(self, select: Select) -> ResultSet: ...

    def apply(self, statement: Statement) -> int: ...

    def load(self, table: str, rows: Iterable[Row]) -> None: ...

    def rows(self, table: str) -> tuple[Row, ...]: ...

    def row_count(self, table: str) -> int: ...

    def total_rows(self) -> int: ...

    def clone(self) -> "Backend": ...

    def snapshot(self) -> dict[str, tuple[Row, ...]]: ...

    def restore(self, snapshot: dict[str, tuple[Row, ...]]) -> None: ...

    def close(self) -> None: ...


@dataclass(frozen=True, slots=True)
class _Plan:
    """How to canonicalize one ordered select.

    ``core`` is the order/limit-free statement actually executed; ``strip``
    how many sort-only columns were appended to its projection (removed
    again after sorting); ``positions`` where each ORDER BY key lives in
    the core result (None = resolve against the result's columns at run
    time, the aggregate case, where keys must already be projected).
    """

    core: Select
    strip: int
    positions: tuple[int, ...] | None


class CanonicalOrderer:
    """Shared ORDER BY/LIMIT canonicalization for all backends.

    Plans are memoized per statement identity (bound statements are shared
    objects — template binding is memoized), so the popular statements that
    dominate a workload compile their core select once.
    """

    def __init__(self) -> None:
        self._plans = BoundedMemo("storage.order_plan", 2048)

    def execute(
        self, select: Select, run_core: Callable[[Select], ResultSet]
    ) -> ResultSet:
        """Execute ``select`` through ``run_core`` with canonical ordering.

        Unordered, unlimited selects pass through untouched.
        """
        if not select.order_by and select.limit is None:
            return run_core(select)
        if isinstance(select.limit, Parameter):
            raise ExecutionError("unbound parameter in LIMIT")
        plan = self._plans.get_pinned(id(select), select, self._plan, select)
        result = run_core(plan.core)
        width = len(result.columns) - plan.strip
        if plan.positions is not None:
            positions = plan.positions
        else:
            # Aggregate path: ORDER BY keys must be output columns, same
            # rule (and error) as the in-memory executor.
            positions = tuple(
                self._output_position(result.columns, item.column.qualified())
                for item in select.order_by
            )
        rows = sorted(result.rows, key=sort_key)
        for item, position in reversed(list(zip(select.order_by, positions))):
            rows.sort(
                key=lambda row, p=position: sort_key((row[p],)),
                reverse=item.descending,
            )
        if select.limit is not None:
            rows = rows[: select.limit]
        if plan.strip:
            final_rows = tuple(row[:width] for row in rows)
        else:
            final_rows = tuple(rows)
        return ResultSet(
            columns=result.columns[:width],
            rows=final_rows,
            ordered=True,
        )

    # -- planning ------------------------------------------------------------

    @staticmethod
    def _plan(select: Select) -> _Plan:
        if select.has_aggregate() or select.group_by:
            return _Plan(
                core=replace(select, order_by=(), limit=None),
                strip=0,
                positions=None,
            )
        # Append the ORDER BY columns to the projection so the sort can
        # read them, then strip that tail after sorting.  Appending even
        # already-projected keys keeps the positions static regardless
        # of how ``*`` expands.
        extra = tuple(item.column for item in select.order_by)
        return _Plan(
            core=replace(
                select,
                items=select.items + extra,
                order_by=(),
                limit=None,
            ),
            strip=len(extra),
            positions=tuple(range(-len(extra), 0)) if extra else (),
        )

    @staticmethod
    def _output_position(columns: tuple[str, ...], name: str) -> int:
        try:
            return columns.index(name)
        except ValueError:
            raise ExecutionError(
                f"ORDER BY column {name!r} must appear in the "
                "aggregate select list"
            ) from None
