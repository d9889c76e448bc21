"""Statement-level query/update independence (runtime core of MSIS).

Given a *bound* update and a *bound* query (parameters visible — exposure
level ``stmt``), decide soundly whether the update provably cannot change
the query's result.  This is the Levy–Sagiv style reasoning the paper cites
for implementing statement-inspection strategies: the general problem is
undecidable, so the checks are conservative — ``False`` ("cannot rule out")
is always a safe answer.

The reasoning is interval satisfiability over the conjunctive predicates:

* **Insertion** — the new row is fully known; if it fails the query's
  single-binding predicates for every occurrence of the table, it can never
  enter the query pipeline.
* **Deletion** — deleted rows satisfy the deletion predicate; if that
  predicate is jointly unsatisfiable with the query's binding predicates,
  no deleted row ever participated in the result.
* **Modification** — the touched row is pinned by its key; the *old* row
  may have participated unless the key value contradicts the query's key
  predicates; the *new* row additionally has known values for the modified
  columns.  Only if both are ruled out is the pair independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.obs.memo import BoundedMemo, export_lru_cache
from repro.schema.schema import Schema
from repro.sql.ast import (
    ColumnRef,
    Comparison,
    ComparisonOp,
    Delete,
    Insert,
    Literal,
    Scalar,
    Select,
    Update,
)

__all__ = ["statement_independent"]


# -- interval/value constraint domain ------------------------------------------------


@dataclass
class _Constraint:
    """Conjunction of comparisons against constants for one column.

    Tracks a numeric/string interval plus required/forbidden equalities.
    ``empty`` means the conjunction is unsatisfiable.
    """

    lower: Scalar = None  # bound value
    lower_strict: bool = False
    upper: Scalar = None
    upper_strict: bool = False
    equal: Scalar | None = None
    has_equal: bool = False
    empty: bool = False

    def add(self, op: ComparisonOp, value: Scalar) -> None:
        """Add ``column op value``; NULL constants make the predicate false."""
        if self.empty:
            return
        if value is None:
            self.empty = True  # comparisons with NULL never hold
            return
        if op is ComparisonOp.EQ:
            if self.has_equal and self.equal != value:
                self.empty = True
                return
            self.equal = value
            self.has_equal = True
        elif op in (ComparisonOp.GT, ComparisonOp.GE):
            strict = op is ComparisonOp.GT
            if self.lower is None or _gt(value, self.lower) or (
                value == self.lower and strict and not self.lower_strict
            ):
                self.lower = value
                self.lower_strict = strict
        else:  # LT / LE
            strict = op is ComparisonOp.LT
            if self.upper is None or _lt(value, self.upper) or (
                value == self.upper and strict and not self.upper_strict
            ):
                self.upper = value
                self.upper_strict = strict
        self._normalize()

    def _normalize(self) -> None:
        if self.has_equal:
            value = self.equal
            if self.lower is not None and not _cmp_ok(
                value, self.lower, self.lower_strict, is_lower=True
            ):
                self.empty = True
            if self.upper is not None and not _cmp_ok(
                value, self.upper, self.upper_strict, is_lower=False
            ):
                self.empty = True
            return
        if self.lower is not None and self.upper is not None:
            if not _comparable(self.lower, self.upper):
                self.empty = True
            elif _gt(self.lower, self.upper):
                self.empty = True
            elif self.lower == self.upper and (
                self.lower_strict or self.upper_strict
            ):
                self.empty = True

    def satisfiable(self) -> bool:
        """True if some value satisfies the accumulated conjunction."""
        return not self.empty

    def allows(self, value: Scalar) -> bool:
        """True if the concrete ``value`` satisfies the conjunction."""
        if self.empty:
            return False
        if value is None:
            # A NULL value fails every comparison predicate; it satisfies
            # the conjunction only if there are no predicates at all.
            return (
                not self.has_equal and self.lower is None and self.upper is None
            )
        if self.has_equal and value != self.equal:
            return False
        if self.lower is not None and not _cmp_ok(
            value, self.lower, self.lower_strict, is_lower=True
        ):
            return False
        if self.upper is not None and not _cmp_ok(
            value, self.upper, self.upper_strict, is_lower=False
        ):
            return False
        return True


def _comparable(a: Scalar, b: Scalar) -> bool:
    if isinstance(a, str) != isinstance(b, str):
        return False
    return True


def _gt(a: Scalar, b: Scalar) -> bool:
    if not _comparable(a, b):
        return False
    return a > b  # type: ignore[operator]


def _lt(a: Scalar, b: Scalar) -> bool:
    if not _comparable(a, b):
        return False
    return a < b  # type: ignore[operator]


def _cmp_ok(value: Scalar, bound: Scalar, strict: bool, is_lower: bool) -> bool:
    if not _comparable(value, bound):
        return False
    if is_lower:
        return value > bound if strict else value >= bound  # type: ignore[operator]
    return value < bound if strict else value <= bound  # type: ignore[operator]


# -- predicate collection -------------------------------------------------------------


@lru_cache(maxsize=4096)
def _single_table_constraints(
    where: tuple[Comparison, ...]
) -> dict[str, _Constraint] | None:
    """Column → constraint map from attribute-vs-constant conjuncts.

    Returns None if a constant-vs-constant conjunct is False (predicate
    unsatisfiable outright).

    Memoized: an invalidation pass rebuilds the update side of the check
    once per cached entry in the bucket, from the same WHERE tuple every
    time.  Callers must treat the returned map (and its constraints) as
    read-only.
    """
    constraints: dict[str, _Constraint] = {}
    for comparison in where:
        if comparison.is_join():
            continue  # cross-column: handled conservatively by callers
        left, op, right = comparison.left, comparison.op, comparison.right
        if isinstance(left, Literal) and isinstance(right, Literal):
            if not op.holds(left.value, right.value):
                return None
            continue
        if isinstance(left, ColumnRef) and isinstance(right, Literal):
            column, value = left.column, right.value
        elif isinstance(right, ColumnRef) and isinstance(left, Literal):
            column, value, op = right.column, left.value, op.flip()
        else:  # pragma: no cover - parameters must be bound by now
            continue
        constraints.setdefault(column, _Constraint()).add(op, value)
    return constraints


export_lru_cache("analysis.update_constraints", _single_table_constraints)

#: Keyed on ``id(query)`` (pinned) and the schema itself, which hashes by
#: identity and is kept alive by the key.
_binding_memo = BoundedMemo("analysis.binding_constraints", 8192)


def _binding_constraints(
    query: Select, binding: str, table_name: str, schema: Schema
) -> dict[str, _Constraint] | None:
    """Constraints the query places on one binding's columns, memoized.

    Cached entries are long-lived and their statements are shared objects
    (template binding is memoized upstream), so every update that scans a
    bucket re-derives the same query-side maps; keying by object identity
    avoids hashing whole ASTs on the invalidation hot path.  Callers must
    treat the returned map (and its constraints) as read-only.
    """
    return _binding_memo.get_pinned(
        (id(query), binding, table_name, schema),
        query,
        _compute_binding_constraints,
        query,
        binding,
        table_name,
        schema,
    )


def _compute_binding_constraints(
    query: Select, binding: str, table_name: str, schema: Schema
) -> dict[str, _Constraint] | None:
    scope = {ref.binding: ref.name for ref in query.tables}
    constraints: dict[str, _Constraint] = {}
    for comparison in query.where:
        if comparison.is_join():
            continue
        column_side = None
        literal_side = None
        op = comparison.op
        if isinstance(comparison.left, ColumnRef) and isinstance(
            comparison.right, Literal
        ):
            column_side, literal_side = comparison.left, comparison.right
        elif isinstance(comparison.right, ColumnRef) and isinstance(
            comparison.left, Literal
        ):
            column_side, literal_side = comparison.right, comparison.left
            op = op.flip()
        elif isinstance(comparison.left, Literal) and isinstance(
            comparison.right, Literal
        ):
            if not op.holds(comparison.left.value, comparison.right.value):
                return None
            continue
        else:
            continue
        if not _ref_binds_to(column_side, binding, table_name, scope, schema):
            continue
        constraints.setdefault(column_side.column, _Constraint()).add(
            op, literal_side.value
        )
    return constraints


def _ref_binds_to(
    ref: ColumnRef,
    binding: str,
    table_name: str,
    scope: dict[str, str],
    schema: Schema,
) -> bool:
    if ref.table is not None:
        return ref.table == binding
    # Unqualified and unambiguous (validated at registration): it belongs
    # to whichever in-scope table owns the column.
    return schema.table(table_name).has_column(ref.column)


def _merge_satisfiable(
    a: dict[str, _Constraint], b: dict[str, _Constraint]
) -> bool:
    """Is the conjunction of two constraint maps satisfiable?"""
    for column, constraint in a.items():
        if not constraint.satisfiable():
            return False
    merged: dict[str, _Constraint] = {}
    for source in (a, b):
        for column, constraint in source.items():
            target = merged.setdefault(column, _Constraint())
            if constraint.has_equal:
                target.add(ComparisonOp.EQ, constraint.equal)
            if constraint.lower is not None:
                target.add(
                    ComparisonOp.GT if constraint.lower_strict else ComparisonOp.GE,
                    constraint.lower,
                )
            if constraint.upper is not None:
                target.add(
                    ComparisonOp.LT if constraint.upper_strict else ComparisonOp.LE,
                    constraint.upper,
                )
            if constraint.empty:
                return False
    return all(c.satisfiable() for c in merged.values())


_strip_memo = BoundedMemo("analysis.strip_range", 8192)


def _strip_range_predicates(statement):
    """Drop non-equality attribute-vs-constant conjuncts (weaker knowledge).

    Removing conjuncts only *widens* the set of rows an update/query may
    touch, so the resulting independence verdicts stay sound — they are
    just more conservative.  Memoized by statement identity so the stripped
    variants are themselves shared objects and downstream identity-keyed
    caches keep working in ``equality_only`` mode.
    """
    return _strip_memo.get_pinned(
        id(statement), statement, _compute_strip_range_predicates, statement
    )


def _compute_strip_range_predicates(statement):
    if isinstance(statement, Insert):
        return statement

    def keep(comparison: Comparison) -> bool:
        return comparison.op is ComparisonOp.EQ or comparison.is_join()

    where = tuple(c for c in statement.where if keep(c))
    if isinstance(statement, Select):
        return Select(
            items=statement.items,
            tables=statement.tables,
            where=where,
            group_by=statement.group_by,
            order_by=statement.order_by,
            limit=statement.limit,
        )
    if isinstance(statement, Delete):
        return Delete(table=statement.table, where=where)
    return Update(
        table=statement.table, assignments=statement.assignments, where=where
    )


# -- the three update-class checks -----------------------------------------------------


def statement_independent(
    schema: Schema,
    update: Insert | Delete | Update,
    query: Select,
    equality_only: bool = False,
) -> bool:
    """True if the bound update provably cannot change the bound query's result.

    Both statements must be fully bound (no parameters).  Conservative:
    returns False whenever the analysis cannot rule out interaction.

    ``equality_only`` restricts the reasoning to equality-predicate
    mismatches (the minimum a statement-inspection strategy needs for the
    paper's Table 2 example), disabling the interval reasoning over range
    predicates — used by the MSIS ablation benchmark.
    """
    if equality_only:
        update = _strip_range_predicates(update)
        query = _strip_range_predicates(query)
    if isinstance(update, Insert):
        misses_binding = _insert_misses_binding
    elif isinstance(update, Delete):
        misses_binding = _delete_misses_binding
    else:
        misses_binding = _modification_misses_binding
    table = update.table
    for ref in query.tables:
        if ref.name == table:
            if not misses_binding(schema, update, query, ref.binding):
                return False
    # Every binding of the updated table is provably missed — or the query
    # never reads that table at all.
    return True


_row_memo = BoundedMemo("analysis.insert_row", 4096)


def _insert_row(update: Insert) -> dict[str, Scalar]:
    """The inserted row as a column → value map, memoized by identity.

    One insert is checked against every entry in its bucket; the row map
    is the same each time.
    """
    return _row_memo.get_pinned(id(update), update, _compute_insert_row, update)


def _compute_insert_row(update: Insert) -> dict[str, Scalar]:
    return dict(zip(update.columns, (v.value for v in update.values)))  # type: ignore[union-attr]


def _insert_misses_binding(
    schema: Schema, update: Insert, query: Select, binding: str
) -> bool:
    """The fully-known inserted row fails the binding's local predicates."""
    row = _insert_row(update)
    constraints = _binding_constraints(query, binding, update.table, schema)
    if constraints is None:
        return True  # query predicate is constant-false
    for column, constraint in constraints.items():
        if column not in row:
            continue  # defensive; inserts fully specify rows
        if not constraint.allows(row[column]):
            return True
    return False


def _delete_misses_binding(
    schema: Schema, update: Delete, query: Select, binding: str
) -> bool:
    """No row can satisfy both the delete predicate and the query's filters."""
    delete_constraints = _single_table_constraints(update.where)
    if delete_constraints is None:
        return True  # delete predicate constant-false: deletes nothing
    query_constraints = _binding_constraints(query, binding, update.table, schema)
    if query_constraints is None:
        return True
    return not _merge_satisfiable(delete_constraints, query_constraints)


def _modification_misses_binding(
    schema: Schema, update: Update, query: Select, binding: str
) -> bool:
    """Neither the old nor the new version of the touched row can matter.

    The old row is known only through the update's key predicate; the new
    row additionally has concrete values in the modified columns.
    """
    key_constraints = _single_table_constraints(update.where)
    if key_constraints is None:
        return True  # key predicate constant-false: touches nothing
    query_constraints = _binding_constraints(query, binding, update.table, schema)
    if query_constraints is None:
        return True

    # Old row: could it have participated?  Unknown values satisfy any
    # predicate, so only the key columns can create a contradiction.
    old_possible = _merge_satisfiable(key_constraints, query_constraints)

    # New row: modified columns take SET values; the *unmodified* key
    # columns still carry the WHERE pins.  Computed independently of the
    # old row: a SET can move a row the query excluded into its range
    # (e.g. ``SET a = 7 WHERE pk = 1 AND a = 5`` vs ``WHERE a = 7``).
    modified = {column for column, _ in update.assignments}
    new_possible = True
    for column, value in update.assignments:
        constraint = query_constraints.get(column)
        if constraint is not None and not constraint.allows(
            value.value  # type: ignore[union-attr]
        ):
            new_possible = False
            break
    if new_possible:
        unmodified_key = {
            column: constraint
            for column, constraint in key_constraints.items()
            if column not in modified
        }
        new_possible = _merge_satisfiable(unmodified_key, query_constraints)

    return not old_possible and not new_possible
