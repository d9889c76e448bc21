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
  table pins with an equality against a constant — and reads an entry's
  bound values from its parameters at cache-insert time, through the
  positions those pins take, compiled once per template;
* :func:`update_pinned_columns` names the columns an update *template*
  pins, which the invalidation plans intersect with a query's indexable
  attributes once, at registration
  (:func:`~repro.dssp.invalidation.compile_plans`);
* :func:`update_pinned_values` extracts the values a bound update pins on
  those columns, the lookup key at invalidation time.

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
proves).  The procedure reads only each binding's WHERE pins, never the
select list, so aggregation and GROUP BY templates index their pins like
any other.  What the argument does not cover stays conservative:
NULL-valued bound attributes and entries whose statement is hidden are
always-candidates, and a template pinning no attribute is never indexed.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.sql.ast import (
    ColumnRef,
    Comparison,
    ComparisonOp,
    Delete,
    Insert,
    Literal,
    Parameter,
    Scalar,
    Select,
    Update,
)
from repro.templates.registry import TemplateRegistry

__all__ = [
    "PredicateIndexer",
    "indexable_attributes",
    "update_pinned_columns",
    "update_pinned_values",
]

#: An indexed attribute: (base table name, column name).
Attr = tuple[str, str]


def _equality_pins(
    where: tuple[Comparison, ...],
) -> Iterator[tuple[ColumnRef, Literal | Parameter]]:
    """(column ref, constant operand) of each ``column = constant`` conjunct.

    Constants are literals or (template-level) parameters.
    """
    for comparison in where:
        if comparison.is_join() or comparison.op is not ComparisonOp.EQ:
            continue
        if isinstance(comparison.left, ColumnRef):
            yield comparison.left, comparison.right
        elif isinstance(comparison.right, ColumnRef):
            yield comparison.right, comparison.left


def _equality_columns(select: Select, schema) -> dict[str, set[str]]:
    """Per *binding*, the columns pinned by an equality against a constant.

    Unqualified column references count for every binding of their owning
    table — the same resolution rule the independence procedure applies,
    so an attribute declared indexable here is exactly one the procedure
    can turn into a contradiction.
    """
    scope = {ref.binding: ref.name for ref in select.tables}
    pinned: dict[str, set[str]] = {binding: set() for binding in scope}
    for ref, _ in _equality_pins(select.where):
        for binding, table in scope.items():
            if ref.table is not None:
                if ref.table == binding:
                    pinned[binding].add(ref.column)
            elif schema.table(table).has_column(ref.column):
                pinned[binding].add(ref.column)
    return pinned


def indexable_attributes(select: Select, schema) -> frozenset[Attr]:
    """Attributes usable as index keys for one query template.

    ``(T, c)`` qualifies only if *every* binding of ``T`` pins ``c`` with
    an equality — a self-join binding without the pin could interact with
    an update regardless of the other binding's value.
    """
    pinned = _equality_columns(select, schema)
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
            artifact :func:`~repro.dssp.placement.affected_queries` works
            from, so the index never sees more than the DSSP already may.
    """

    def __init__(self, registry: TemplateRegistry) -> None:
        self._attrs: dict[str, frozenset[Attr]] = {}
        #: template -> per indexable attribute: (attr, the constants its
        #: pins name in the template, the positions of the parameters
        #: they name), compiled once so an admission reads parameters.
        self._positions: dict[str, tuple] = {}
        for query in registry.queries:
            attrs = indexable_attributes(query.select, registry.schema)
            if attrs:
                self._attrs[query.name] = attrs
                self._positions[query.name] = _pin_positions(
                    query.select, attrs
                )

    def query_attributes(self, template_name: str) -> frozenset[Attr] | None:
        """Indexable attributes of one query template; None = not indexed.

        An unknown template, or one pinning no attribute across all its
        bindings, keeps its bucket on the sweep path.
        """
        return self._attrs.get(template_name)

    def entry_values(
        self, template_name: str, params: tuple[Scalar, ...]
    ) -> dict[Attr, frozenset[Scalar]] | None:
        """Bound values of the template's indexable attributes, for the
        instance bound with ``params``; None when the template is not
        indexed.

        Self-joins contribute one value per binding (the entry matches a
        pinned update value if *any* binding does).  Every binding of an
        indexed attribute's table pins it (:func:`indexable_attributes`),
        so every instance carries a value for each.
        """
        positions = self._positions.get(template_name)
        if positions is None:
            return None
        values: dict[Attr, frozenset[Scalar]] = {}
        for attr, constants, indices in positions:
            values[attr] = constants.union(map(params.__getitem__, indices))
        return values


def _pin_positions(select: Select, attrs: frozenset[Attr]) -> tuple:
    """Per attribute of ``attrs``: ``(attr, constants, indices)`` — the
    literals and the parameter positions its equality pins name, over every
    binding of its table (the operands a bound instance carries as
    literals)."""
    scope = {ref.binding: ref.name for ref in select.tables}
    constants: dict[Attr, set[Scalar]] = {attr: set() for attr in attrs}
    indices: dict[Attr, set[int]] = {attr: set() for attr in attrs}
    for ref, constant in _equality_pins(select.where):
        for binding, table in scope.items():
            attr = (table, ref.column)
            if attr not in attrs:
                continue
            if ref.table is not None and ref.table != binding:
                continue
            if isinstance(constant, Parameter):
                indices[attr].add(constant.index)
            else:
                constants[attr].add(constant.value)
    return tuple(
        (attr, frozenset(constants[attr]), tuple(sorted(indices[attr])))
        for attr in sorted(attrs)
    )


def update_pinned_columns(
    statement: Insert | Delete | Update,
) -> frozenset[Attr]:
    """Columns an update template pins: the keys of every bound instance's
    :func:`update_pinned_values`.

    An INSERT pins every column of its row; a DELETE or UPDATE pins the
    columns its WHERE clause compares by equality with a constant.
    """
    table = statement.table
    if isinstance(statement, Insert):
        return frozenset((table, column) for column in statement.columns)
    return frozenset(
        (table, ref.column) for ref, _ in _equality_pins(statement.where)
    )


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
    for ref, constant in _equality_pins(statement.where):
        if isinstance(constant, Literal):
            collected.setdefault(ref.column, set()).add(constant.value)
    if isinstance(statement, Update):
        for column, value in statement.assignments:
            if column in collected:
                collected[column].add(value.value)
    return {
        (table, column): frozenset(values)
        for column, values in collected.items()
    }
