"""Predicate indexing of cached views by bound selection-attribute values.

The IPM decides *whether* a U/Q template pair can interact; within a pair
at ``stmt``/``view`` exposure the engine still runs its per-entry decision
procedure over the whole template bucket.  Łopuszański's single-table
invalidation algorithm (arXiv 2310.15360) shows the upgrade: key each
cached view by the *values* its statement pins on the shared selection
attributes, so an update with ``author = 'X'`` only visits the views whose
parameter matched ``'X'`` — O(affected) instead of O(bucket).

This module is the analysis half of that index:

* :class:`PredicateIndexer` decides, per query template, which attributes
  are *indexable* — (table, column) pairs that **every** binding of the
  table pins with an equality against a constant — and extracts the bound
  values from a statement at cache-insert time;
* :func:`update_pinned_values` extracts the values an update statement
  pins on its table's columns, the lookup key at invalidation time.

Soundness rests on the engine's own decision procedure
(:func:`~repro.analysis.independence.statement_independent`): a bucket
entry whose bound value differs from every pinned value of the update has,
for each binding of the update's table, an equality predicate the update
provably cannot satisfy —

* **Insert**: the inserted row's value for the column differs from the
  entry's pin, so the row fails the binding's predicate;
* **Delete**: the delete's equality pin contradicts the entry's pin, so
  their conjunction is unsatisfiable;
* **Update**: the old row is excluded by the WHERE pin, and the new row
  either keeps the old (contradicting) value or takes a SET value — which
  is why :func:`update_pinned_values` includes SET values for columns the
  WHERE clause also pins.

In every case ``statement_independent`` returns True, so the entry would
survive the full bucket sweep anyway: checking only index candidates
invalidates *exactly* the same set (the equivalence the hypothesis suite
proves).  Templates the argument does not cover — aggregation/group-by
(refused wholesale), NULL-valued bound attributes, entries whose statement
is hidden — fall back to always-candidate status or to the bucket sweep.
"""

from __future__ import annotations

from repro.sql.ast import (
    ColumnRef,
    ComparisonOp,
    Delete,
    Insert,
    Literal,
    Scalar,
    Select,
    Update,
)
from repro.templates.registry import TemplateRegistry

__all__ = ["PredicateIndexer", "update_pinned_values"]

#: An indexed attribute: (base table name, column name).
Attr = tuple[str, str]


def _equality_columns(select: Select, schema) -> dict[str, set[str]] | None:
    """Per *binding*, the columns pinned by an equality against a constant.

    Constants are literals or (template-level) parameters.  Unqualified
    column references count for every binding of their owning table —
    the same resolution rule the independence procedure applies, so an
    attribute declared indexable here is exactly one the procedure can
    turn into a contradiction.  Returns None for aggregation/group-by
    templates (refused: the conservative bucket sweep stays in charge).
    """
    if select.has_aggregate() or select.group_by:
        return None
    scope = {ref.binding: ref.name for ref in select.tables}
    pinned: dict[str, set[str]] = {binding: set() for binding in scope}
    for comparison in select.where:
        if comparison.is_join() or comparison.op is not ComparisonOp.EQ:
            continue
        ref = None
        if isinstance(comparison.left, ColumnRef) and not isinstance(
            comparison.right, ColumnRef
        ):
            ref = comparison.left
        elif isinstance(comparison.right, ColumnRef) and not isinstance(
            comparison.left, ColumnRef
        ):
            ref = comparison.right
        if ref is None:
            continue
        for binding, table in scope.items():
            if ref.table is not None:
                if ref.table == binding:
                    pinned[binding].add(ref.column)
            elif schema.table(table).has_column(ref.column):
                pinned[binding].add(ref.column)
    return pinned


def _indexable_attributes(select: Select, schema) -> frozenset[Attr] | None:
    """Attributes usable as index keys for one query template.

    ``(T, c)`` qualifies only if *every* binding of ``T`` pins ``c`` with
    an equality — a self-join binding without the pin could interact with
    an update regardless of the other binding's value.
    """
    pinned = _equality_columns(select, schema)
    if pinned is None:
        return None
    scope = {ref.binding: ref.name for ref in select.tables}
    attrs: set[Attr] = set()
    for table in set(scope.values()):
        bindings = [b for b, t in scope.items() if t == table]
        shared = set.intersection(*(pinned[b] for b in bindings))
        attrs.update((table, column) for column in shared)
    return frozenset(attrs)


class PredicateIndexer:
    """Per-application analysis behind the cache's predicate index.

    Args:
        registry: The application's public template registry — the same
            artifact :class:`~repro.dssp.placement.TemplateAffinity` works
            from, so the index never sees more than the DSSP already may.
    """

    def __init__(self, registry: TemplateRegistry) -> None:
        self._registry = registry
        self._schema = registry.schema
        self._attrs: dict[str, frozenset[Attr] | None] = {}

    def query_attributes(self, template_name: str) -> frozenset[Attr] | None:
        """Indexable attributes of one query template; None = refused.

        Refusals (unknown template, aggregation, group-by, no attribute
        pinned across all bindings) keep the bucket on the sweep path.
        """
        if template_name in self._attrs:
            return self._attrs[template_name]
        try:
            select = self._registry.query(template_name).select
        except Exception:
            attrs: frozenset[Attr] | None = None
        else:
            attrs = _indexable_attributes(select, self._schema)
            if attrs is not None and not attrs:
                attrs = None
        self._attrs[template_name] = attrs
        return attrs

    def entry_values(
        self, template_name: str, statement: Select
    ) -> dict[Attr, frozenset[Scalar]] | None:
        """Bound values of the template's indexable attributes.

        Self-joins contribute one value per binding (the entry matches a
        pinned update value if *any* binding does).  Returns None when the
        template is refused or the statement does not carry a literal for
        every indexable attribute on every binding — the entry then stays
        an always-candidate.
        """
        attrs = self.query_attributes(template_name)
        if attrs is None:
            return None
        scope = {ref.binding: ref.name for ref in statement.tables}
        per_binding: dict[tuple[str, str], set[Scalar]] = {}
        for comparison in statement.where:
            if comparison.is_join() or comparison.op is not ComparisonOp.EQ:
                continue
            if isinstance(comparison.left, ColumnRef) and isinstance(
                comparison.right, Literal
            ):
                ref, literal = comparison.left, comparison.right
            elif isinstance(comparison.right, ColumnRef) and isinstance(
                comparison.left, Literal
            ):
                ref, literal = comparison.right, comparison.left
            else:
                continue
            for binding, table in scope.items():
                if (table, ref.column) not in attrs:
                    continue
                if ref.table is not None and ref.table != binding:
                    continue
                per_binding.setdefault((binding, ref.column), set()).add(
                    literal.value
                )
        values: dict[Attr, frozenset[Scalar]] = {}
        for table, column in attrs:
            bindings = [b for b, t in scope.items() if t == table]
            collected: set[Scalar] = set()
            for binding in bindings:
                bound = per_binding.get((binding, column))
                if not bound:
                    return None  # a binding without its pin: refuse entry
                collected |= bound
            values[(table, column)] = frozenset(collected)
        return values


def update_pinned_values(
    statement: Insert | Delete | Update,
) -> dict[Attr, frozenset[Scalar]]:
    """Values a bound update pins on its table's columns (index lookup key).

    * **Insert** — the fully-known row: one value per column.
    * **Delete** — equality constants of the WHERE clause.
    * **Update** — equality constants of the WHERE clause, plus, for a
      column the update also SETs, the SET value: the modified row leaves
      the old pin *and arrives at* the new value, and both locations must
      be visited for the candidate set to stay sound.

    Columns without an equality pin are absent — an update unconstrained
    on an indexed attribute makes that attribute unusable for narrowing.
    """
    table = statement.table
    if isinstance(statement, Insert):
        return {
            (table, column): frozenset((value.value,))
            for column, value in zip(statement.columns, statement.values)
        }
    collected: dict[str, set[Scalar]] = {}
    for comparison in statement.where:
        if comparison.is_join() or comparison.op is not ComparisonOp.EQ:
            continue
        if isinstance(comparison.left, ColumnRef) and isinstance(
            comparison.right, Literal
        ):
            collected.setdefault(comparison.left.column, set()).add(
                comparison.right.value
            )
        elif isinstance(comparison.right, ColumnRef) and isinstance(
            comparison.left, Literal
        ):
            collected.setdefault(comparison.right.column, set()).add(
                comparison.left.value
            )
    if isinstance(statement, Update):
        for column, value in statement.assignments:
            if column in collected:
                collected[column].add(value.value)
    return {
        (table, column): frozenset(values)
        for column, values in collected.items()
    }
