"""Query executor for the paper's dialect: shape → plan → run.

An application is a fixed set of templates (paper Section 2.1), so the
statements a database sees differ almost only in their literals.  A
fully-bound :class:`~repro.sql.ast.Select` is therefore split into its
*shape* — the statement with its WHERE literals blanked — and its literal
vector.  The shape is compiled once into a :class:`_Plan` (held, by value,
in the ``storage.plan`` memo) and the plan is run with the literals:

1. **compile** — resolve names (aliases → base tables, bare columns →
   unique binding); classify WHERE conjuncts into constants, per-binding
   filters and joins; pick each binding's access path (primary-key lookup
   when equalities cover the key, else the equality bucket of a pinned or
   joined column, else a scan) and, from those, the join order; resolve
   projection, grouping and sort keys to offsets in the joined row.
2. **run** — index nested loops: each binding extends the partial rows
   through its access path, every predicate is re-applied to what an index
   returned (an index only narrows the search), then sort (ORDER BY),
   aggregate / group, top-k (LIMIT) and project.

A joined row is the concatenation of its base rows, so a single-table row
is used as it is stored.  Multiset semantics throughout: projection never
deduplicates.  NULL never satisfies a comparison.

**Result order.**  An unordered result is a multiset
(:meth:`ResultSet.equivalent` compares it sorted).  An ordered result
(ORDER BY and/or LIMIT) is the stable ORDER BY sort of the joined rows
taken in FROM-order primary-key order (whole-row :func:`sort_key` order for
a table without a key); aggregate output rows are sorted by
:func:`sort_key` before the ORDER BY sorts.  A result is thus a function
of the statement and the table *contents* — never of the access path, the
join order or the physical row order.
"""

from __future__ import annotations

import heapq
import operator
from collections import defaultdict
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter

from repro.errors import (
    ExecutionError,
    SchemaError,
    UnknownColumnError,
    UnknownTableError,
)
from repro.obs.memo import BoundedMemo
from repro.schema.schema import Schema
from repro.sql.ast import (
    Aggregate,
    AggregateFunc,
    ColumnRef,
    ComparisonOp,
    Literal,
    Parameter,
    Scalar,
    Select,
    Star,
)
from repro.storage.indexes import DatabaseIndexes
from repro.storage.rows import ResultSet, Row, column_key, sort_key

__all__ = ["QueryExecutor"]

_OPERATORS = {
    ComparisonOp.EQ: operator.eq,
    ComparisonOp.LT: operator.lt,
    ComparisonOp.LE: operator.le,
    ComparisonOp.GT: operator.gt,
    ComparisonOp.GE: operator.ge,
}


@dataclass(frozen=True, slots=True)
class _Slot:
    """Resolved location of a column: binding index and in-row position."""

    binding: int
    position: int


#: One side of a compiled conjunct: a column, or an index into the literals.
_Side = _Slot | int
_Predicate = tuple[_Side, ComparisonOp, _Side]


class _Scope:
    """Name-resolution context for one SELECT statement."""

    def __init__(self, schema: Schema, select: Select) -> None:
        self.schema = schema
        self.bindings: list[str] = []  # binding names, in FROM order
        self.tables: list[str] = []  # base-table names, aligned
        seen: set[str] = set()
        for table_ref in select.tables:
            if table_ref.name not in schema:
                raise UnknownTableError(table_ref.name)
            binding = table_ref.binding
            if binding in seen:
                raise SchemaError(f"duplicate binding {binding!r} in FROM clause")
            seen.add(binding)
            self.bindings.append(binding)
            self.tables.append(table_ref.name)

    def resolve(self, ref: ColumnRef) -> _Slot:
        """Resolve a column reference to a (binding, position) slot."""
        if ref.table is not None:
            for index, binding in enumerate(self.bindings):
                if binding == ref.table:
                    table = self.schema.table(self.tables[index])
                    return _Slot(index, table.position(ref.column))
            raise UnknownTableError(ref.table)
        matches = []
        for index, table_name in enumerate(self.tables):
            table = self.schema.table(table_name)
            if table.has_column(ref.column):
                matches.append(_Slot(index, table.position(ref.column)))
        if not matches:
            raise UnknownColumnError(ref.column)
        if len(matches) > 1:
            raise SchemaError(f"ambiguous column {ref.column!r}")
        return matches[0]


def _shape(select: Select) -> tuple[tuple, list[Scalar]]:
    """Split a statement into its plan key and its WHERE literals.

    The key is by value, so statements that differ only in literals share
    a plan whether they were bound from one template or parsed apart.
    """
    literals: list[Scalar] = []
    where = []
    for comparison in select.where:
        left, right = comparison.left, comparison.right
        if type(left) is Literal:
            literals.append(left.value)
            left = None
        if type(right) is Literal:
            literals.append(right.value)
            right = None
        where.append((left, comparison.op, right))
    key = (
        select.items,
        select.tables,
        tuple(where),
        select.group_by,
        select.order_by,
        type(select.limit),
    )
    return key, literals


def _filter(
    predicates: Sequence[_Predicate],
    offsets: Sequence[int],
    literals: list[Scalar],
    rows: Iterable[Row],
) -> list[Row]:
    """The ``rows`` every one of ``predicates`` holds on: one pass each.

    ``offsets[binding]`` is where that binding's columns start in a row.
    Literals are on the right (compile put them there) and are not NULL
    (a NULL literal empties the result before any row is looked at).
    """
    for left, op, right in predicates:
        holds = _OPERATORS[op]
        first = offsets[left.binding] + left.position
        if isinstance(right, int):
            value = literals[right]
            rows = [
                row
                for row, cell in zip(rows, map(itemgetter(first), rows))
                if cell is not None and holds(cell, value)
            ]
        else:
            second = offsets[right.binding] + right.position
            rows = [
                row
                for row, (cell, other) in zip(rows, map(itemgetter(first, second), rows))
                if cell is not None and other is not None and holds(cell, other)
            ]
    return rows if isinstance(rows, list) else list(rows)


def _order_key(columns: Sequence[tuple[int, bool]]) -> Callable[[Row], object]:
    """Sort key over the row values at ``columns`` = ``(offset, plain)``.

    Raw values where the schema rules NULL out of every column (``plain``),
    :func:`sort_key` order otherwise — the same order, without a 3-tuple
    per value.
    """
    get = itemgetter(*(offset for offset, _ in columns))
    if all(plain for _, plain in columns):
        return get
    if len(columns) == 1:
        return column_key(columns[0][0])
    return lambda row: sort_key(get(row))


def _tuples(offsets: Sequence[int], rows: Sequence[Row]) -> list[Row]:
    """``rows`` projected onto ``offsets`` (at least one), at C speed."""
    if len(offsets) == 1:
        return [(value,) for value in map(itemgetter(offsets[0]), rows)]
    return list(map(itemgetter(*offsets), rows))


def _sorted(
    rows: list[Row], keys: Sequence[tuple[Callable, bool]], limit: int | None
) -> list[Row]:
    """``rows`` stably sorted by ``keys`` = ``(key, descending)``, cut to ``limit``."""
    if len(keys) == 1 and limit is not None and 0 <= limit < len(rows):
        # Documented equivalent of ``sorted(...)[:limit]``, ties included.
        key, descending = keys[0]
        return (heapq.nlargest if descending else heapq.nsmallest)(limit, rows, key)
    for key, descending in reversed(keys):
        rows.sort(key=key, reverse=descending)
    return rows if limit is None else rows[:limit]


@dataclass(frozen=True, slots=True)
class _Level:
    """How one binding's rows are reached and joined onto the partial rows.

    ``lookup`` (primary-key parts) or ``probe`` (a bucket's column position
    and its value) name the access path, each value an ``(is_literal,
    index)`` into the literals or the partial row; neither means a scan.
    A path that reads the partial row is taken once per partial row, and
    ``checks`` then holds ``local`` as well as the joins decidable at this
    level; one that does not yields the binding's own rows, filtered by
    ``local`` once per run.  ``offsets[binding]`` is where a placed
    binding's columns start in the joined row.
    """

    table: str
    lookup: tuple[tuple[bool, int], ...] | None
    probe: tuple[int, tuple[bool, int]] | None
    per_partial: bool
    local: tuple[_Predicate, ...]
    checks: tuple[_Predicate, ...]
    offsets: tuple[int, ...]

    def own_rows(self, literals: list[Scalar], indexes: DatabaseIndexes) -> list[Row]:
        """The binding's rows that pass its local predicates."""
        if self.lookup is not None:
            key = tuple(literals[index] for _, index in self.lookup)
            row = indexes.tables[self.table].get(key)
            rows = () if row is None else (row,)
        elif self.probe is not None:
            position, (_, index) = self.probe
            rows = indexes.bucket(self.table, position, literals[index]).values()
        else:
            rows = indexes.tables[self.table].values()
        return _filter(self.local, (0,) * len(self.offsets), literals, rows)

    def extend(
        self, partials: list[Row], literals: list[Scalar], indexes: DatabaseIndexes
    ) -> list[Row]:
        """Join this binding onto ``partials``."""
        if not self.per_partial:
            own = self.own_rows(literals, indexes)
            joined = [partial + row for partial in partials for row in own]
        elif self.lookup is not None:
            keys = zip(
                *(
                    repeat(literals[index])
                    if is_literal
                    else map(itemgetter(index), partials)
                    for is_literal, index in self.lookup
                )
            )
            found = map(indexes.tables[self.table].get, keys)
            joined = [
                partial + row
                for partial, row in zip(partials, found)
                if row is not None
            ]
        else:
            position, (_, offset) = self.probe
            buckets = map(
                indexes.buckets[self.table][position].get,
                map(itemgetter(offset), partials),
            )
            joined = [
                partial + row
                for partial, bucket in zip(partials, buckets)
                if bucket is not None  # NULLs are not indexed either
                for row in bucket.values()
            ]
        return _filter(self.checks, self.offsets, literals, joined)


@dataclass(frozen=True, slots=True)
class _Plan:
    """A compiled statement shape; :meth:`run` executes it with literals."""

    columns: tuple[str, ...]
    ordered: bool
    constants: tuple[tuple[int, ComparisonOp, int], ...]
    levels: tuple[_Level, ...]
    #: The order ties are broken in, then the ORDER BY keys: over joined
    #: rows (FROM-order primary keys), or over aggregate output (sort_key).
    canonical: Callable[[Row], object]
    order: tuple[tuple[Callable, bool], ...]
    project: tuple[int, ...]
    #: Aggregate plans only: group-key offsets and one ``(key, members) →
    #: value`` per select item; ``values`` is None for a plain projection.
    group: tuple[int, ...]
    values: tuple[Callable, ...] | None

    def run(
        self, literals: list[Scalar], limit: int | None, indexes: DatabaseIndexes
    ) -> ResultSet:
        rows: list[Row] = []
        if None not in literals and all(
            op.holds(literals[left], literals[right])
            for left, op, right in self.constants
        ):
            rows = self.levels[0].own_rows(literals, indexes)
            for level in self.levels[1:]:
                if not rows:
                    break
                rows = level.extend(rows, literals, indexes)
        if self.values is not None:
            rows = self._aggregate(rows)
        if self.ordered or self.group:
            rows.sort(key=self.canonical)
            rows = _sorted(rows, self.order, limit)
        if self.values is None:
            rows = _tuples(self.project, rows)
        return ResultSet(self.columns, tuple(rows), self.ordered)

    def _aggregate(self, rows: list[Row]) -> list[Row]:
        if self.group:  # keyed by the value itself when grouping on one column
            groups: dict[object, list[Row]] = defaultdict(list)
            for key, row in zip(map(itemgetter(*self.group), rows), rows):
                groups[key].append(row)
        else:
            groups = {(): rows}  # global aggregation always yields one row
        return [
            tuple([value(key, members) for value in self.values])
            for key, members in groups.items()
        ]


def _aggregate_value(item: Aggregate, offset: int | None) -> Callable:
    """Compile one aggregate select item into ``(key, members) → value``."""
    if offset is None:  # COUNT(*)
        return lambda key, members: len(members)
    func, distinct = item.func, item.distinct

    def value(key: object, members: list[Row]) -> Scalar:
        values = [v for v in map(itemgetter(offset), members) if v is not None]
        if distinct:
            values = list(dict.fromkeys(values))
        if func is AggregateFunc.COUNT:
            return len(values)
        if not values:
            return None
        if func is AggregateFunc.MIN:
            return min(values)
        if func is AggregateFunc.MAX:
            return max(values)
        if func is AggregateFunc.SUM:
            return sum(values)
        return sum(values) / len(values)  # AVG

    return value


def _aggregate_column_name(item) -> str:
    if isinstance(item, ColumnRef):
        return item.qualified()
    arg = "*" if isinstance(item.argument, Star) else item.argument.qualified()
    if item.distinct:
        arg = f"DISTINCT {arg}"
    return f"{item.func.value.upper()}({arg})"


class QueryExecutor:
    """Executes SELECT statements against indexed in-memory tables.

    Plans depend on the schema only, so one executor (and its memo) serves
    a database and every clone of it.
    """

    def __init__(self, schema: Schema) -> None:
        self._schema = schema
        self._plans = BoundedMemo("storage.plan", 2048)

    def execute(self, select: Select, indexes: DatabaseIndexes) -> ResultSet:
        """Run ``select`` over the tables of ``indexes`` and return rows.

        Raises:
            ExecutionError: if the statement still contains ``?`` parameters.
        """
        key, literals = _shape(select)
        plan = self._plans.get(key, self._compile, select)
        return plan.run(literals, select.limit, indexes)

    # -- compilation ---------------------------------------------------------

    def _compile(self, select: Select) -> _Plan:
        if isinstance(select.limit, Parameter):
            raise ExecutionError("unbound parameter in LIMIT")
        scope = _Scope(self._schema, select)
        tables = [self._schema.table(name) for name in scope.tables]
        local, joins, constants = self._classify(scope, select)
        levels, offsets = self._levels(tables, local, joins)

        def offset(ref: ColumnRef) -> int:
            slot = scope.resolve(ref)
            return offsets[slot.binding] + slot.position

        def plain(slot: _Slot) -> bool:
            table = tables[slot.binding]
            column = table.columns[slot.position]
            return not column.nullable or table.is_key_column(column.name)

        ordered = bool(select.order_by) or select.limit is not None
        shared = dict(
            ordered=ordered, constants=tuple(constants), levels=tuple(levels)
        )
        if select.has_aggregate() or select.group_by:
            return self._aggregate_plan(scope, select, offset, shared)

        canonical = []  # FROM-order primary keys; whole rows where keyless
        for binding, table in enumerate(tables):
            names = table.primary_key or table.column_names
            for name in names:
                canonical.append(
                    (offsets[binding] + table.position(name), bool(table.primary_key))
                )
        order = []
        for item in select.order_by:
            slot = scope.resolve(item.column)
            key = _order_key([(offsets[slot.binding] + slot.position, plain(slot))])
            order.append((key, item.descending))
        columns: list[str] = []
        project: list[int] = []
        for item in select.items:
            if isinstance(item, Star):
                for binding, table in enumerate(tables):
                    for position, column in enumerate(table.columns):
                        columns.append(
                            f"{scope.bindings[binding]}.{column.name}"
                            if len(tables) > 1
                            else column.name
                        )
                        project.append(offsets[binding] + position)
            else:
                columns.append(item.qualified())
                project.append(offset(item))
        return _Plan(
            columns=tuple(columns),
            canonical=_order_key(canonical),
            order=tuple(order),
            project=tuple(project),
            group=(),
            values=None,
            **shared,
        )

    @staticmethod
    def _classify(scope: _Scope, select: Select):
        """Split WHERE into per-binding filters, joins and constants.

        Literals are numbered in statement order (as :func:`_shape` lists
        them) and moved to the right-hand side of their conjunct.
        """
        local: list[list[_Predicate]] = [[] for _ in scope.tables]
        joins: list[_Predicate] = []
        constants = []
        literal_count = 0
        for comparison in select.where:
            sides = [
                scope.resolve(side) if isinstance(side, ColumnRef) else side
                for side in (comparison.left, comparison.right)
            ]
            for index, side in enumerate(sides):
                if isinstance(side, Parameter):
                    raise ExecutionError(
                        "unbound parameter in WHERE clause; bind the template first"
                    )
                if isinstance(side, Literal):
                    sides[index] = literal_count
                    literal_count += 1
            left, right = sides
            op = comparison.op
            if isinstance(left, int):
                if isinstance(right, int):
                    constants.append((left, op, right))
                    continue
                left, op, right = right, op.flip(), left
            if isinstance(right, int) or right.binding == left.binding:
                local[left.binding].append((left, op, right))
            else:
                joins.append((left, op, right))
        return local, joins, constants

    @staticmethod
    def _levels(tables, local, joins) -> tuple[list[_Level], list[int]]:
        """Pick access paths and the join order; lay out the joined row.

        Greedy: the outer binding is the one with the best own access
        path, each next one the cheapest to reach from those placed —
        primary-key lookup (0), bucket probe on an equality join (1), own
        bucket (2), scan (3) — ties in FROM order.
        """
        offsets = [0] * len(tables)
        placed: list[int] = []
        levels: list[_Level] = []
        width = 0

        def access(binding: int):
            table = tables[binding]
            # position → (is_literal, index): equalities to a literal first,
            # then equality joins to a placed binding.
            sources: dict[int, tuple[bool, int]] = {}
            for left, op, right in local[binding]:
                if op is ComparisonOp.EQ and isinstance(right, int):
                    sources.setdefault(left.position, (True, right))
            pinned = len(sources)
            for left, op, right in joins:
                if op is not ComparisonOp.EQ:
                    continue
                if right.binding == binding:
                    left, right = right, left
                if left.binding == binding and right.binding in placed:
                    sources.setdefault(
                        left.position, (False, offsets[right.binding] + right.position)
                    )
            key = [table.position(name) for name in table.primary_key]
            if key and all(position in sources for position in key):
                return 0, tuple(sources[position] for position in key), None
            linked = list(sources.items())[pinned:]
            if linked:
                return 1, None, linked[0]
            if sources:
                return 2, None, next(iter(sources.items()))
            return 3, None, None

        pending = list(range(len(tables)))
        while pending:
            paths = {candidate: access(candidate) for candidate in pending}
            binding = min(pending, key=lambda candidate: paths[candidate][0])
            _, lookup, probe = paths[binding]
            pending.remove(binding)
            offsets[binding] = width
            width += len(tables[binding].columns)
            placed.append(binding)
            path = lookup if lookup is not None else (probe[1],) if probe else ()
            per_partial = any(not is_literal for is_literal, _ in path)
            decidable = tuple(
                join
                for join in joins
                if binding in (join[0].binding, join[2].binding)
                and join[0].binding in placed
                and join[2].binding in placed
            )
            levels.append(
                _Level(
                    table=tables[binding].name,
                    lookup=lookup,
                    probe=probe,
                    per_partial=per_partial,
                    local=tuple(local[binding]),
                    checks=decidable + tuple(local[binding] if per_partial else ()),
                    offsets=tuple(offsets),
                )
            )
        return levels, offsets

    def _aggregate_plan(self, scope, select, offset, shared) -> _Plan:
        group_slots = [scope.resolve(column) for column in select.group_by]
        values = []
        for item in select.items:
            if isinstance(item, Star):
                raise ExecutionError("SELECT * cannot mix with aggregation")
            if isinstance(item, ColumnRef):
                slot = scope.resolve(item)
                if slot not in group_slots:
                    raise ExecutionError(
                        f"non-aggregate column {item.qualified()!r} must "
                        "appear in GROUP BY"
                    )
                if len(group_slots) == 1:
                    values.append(lambda key, members: key)
                else:
                    index = group_slots.index(slot)
                    values.append(lambda key, members, index=index: key[index])
            else:
                star = isinstance(item.argument, Star)
                values.append(
                    _aggregate_value(item, None if star else offset(item.argument))
                )
        columns = tuple(_aggregate_column_name(item) for item in select.items)
        order = []
        for item in select.order_by:
            name = item.column.qualified()
            if name not in columns:
                raise ExecutionError(
                    f"ORDER BY column {name!r} must appear in the "
                    "aggregate select list"
                )
            order.append(
                (_order_key([(columns.index(name), False)]), item.descending)
            )
        return _Plan(
            columns=columns,
            canonical=sort_key,
            order=tuple(order),
            project=(),
            group=tuple(offset(column) for column in select.group_by),
            values=tuple(values),
            **shared,
        )
