"""Invalidation Probability Matrix (IPM) characterization — paper Section 4.

For every update/query template pair ``(U_i, Q_j)`` the IPM has symbolic
entries (Figure 6)::

    1     when either exposure level is blind             (Property 1)
    A_ij  when the lowest non-blind level is 'template'   (Property 2)
    B_ij  at stmt/stmt
    C_ij  at stmt/view

with the gradient ``1 >= A_ij >= B_ij >= C_ij >= 0`` (Property 3).  The
static analysis determines three relationships:

* **A_ij ∈ {0, 1}**, and A_ij = 0 iff U_i is *ignorable* w.r.t. Q_j
  (Lemma 1) or an integrity-constraint rule applies (Section 4.5);
* **B_ij = A_ij** — when parameter knowledge provably cannot reduce
  invalidations (Section 4.3);
* **C_ij = B_ij** — when view contents provably cannot reduce
  invalidations, by update class (Section 4.4).

Pairs violating the analysis assumptions (Section 2.1.1) — embedded
constants in predicates, same-relation attribute comparisons, Cartesian
products — are treated conservatively: no equality is claimed beyond what
ignorability alone supports, so encryption is never recommended where it
could impact scalability.  Aggregation / GROUP BY queries (7–11% of the
benchmark templates) get the paper's manual-equivalent conservative
handling, encoded in :func:`_c_equals_b`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.constraints import constraint_implies_no_effect
from repro.analysis.exposure import ExposureLevel, IpmEntryKind, ipm_entry_kind
from repro.schema.attribute import Attribute
from repro.schema.schema import Schema
from repro.sql.ast import Comparison, Insert, Literal, Select
from repro.templates.classify import (
    UpdateKind,
    is_ignorable,
    is_result_unhelpful,
    query_has_no_top_k,
    query_is_equality_join_only,
    update_kind,
)
from repro.templates.attributes import (
    modified_attributes,
    preserved_attributes,
    resolve_query_column,
    selection_attributes,
)
from repro.templates.registry import TemplateRegistry
from repro.templates.template import QueryTemplate, UpdateTemplate

__all__ = [
    "IpmCharacterization",
    "PairCharacterization",
    "characterize_application",
    "characterize_pair",
    "zero_pairs",
]


@dataclass(frozen=True)
class PairCharacterization:
    """Static IPM relationships for one update/query template pair.

    Attributes:
        update_name: Name of ``U_i``.
        query_name: Name of ``Q_j``.
        a_is_zero: A_ij = 0 (the pair never invalidates at template level).
        b_equals_a: Statement inspection provably no better than template
            inspection for this pair.
        c_equals_b: View inspection provably no better than statement
            inspection for this pair.
        assumptions_hold: Whether the Section 2.1.1 assumptions held; when
            False only ignorability-derived claims are made.
        reason: Short human-readable justification of the claims.
    """

    update_name: str
    query_name: str
    a_is_zero: bool
    b_equals_a: bool
    c_equals_b: bool
    assumptions_hold: bool
    reason: str

    @property
    def a_value(self) -> int:
        """The concrete value of A_ij (always 0 or 1 — Section 4.2)."""
        return 0 if self.a_is_zero else 1

    def symbolic_value(
        self, update_level: ExposureLevel, query_level: ExposureLevel
    ) -> str:
        """Collapse the IPM entry at given exposure levels to a comparable token.

        Two exposure assignments provably yield the same invalidation
        probability for this pair iff their tokens are equal.  Tokens are
        ``"0"``, ``"1"``, or the symbolic ``"B:<pair>"`` / ``"C:<pair>"``.
        """
        kind = ipm_entry_kind(update_level, query_level)
        if kind is IpmEntryKind.ONE:
            return "1"
        if self.a_is_zero:
            return "0"  # gradient: A = 0 forces B = C = 0
        if kind is IpmEntryKind.A:
            return "1"  # A_ij > 0 implies A_ij = 1
        if kind is IpmEntryKind.B:
            if self.b_equals_a:
                return "1"
            return f"B:{self.update_name}/{self.query_name}"
        # kind C
        if self.c_equals_b:
            if self.b_equals_a:
                return "1"
            return f"B:{self.update_name}/{self.query_name}"
        return f"C:{self.update_name}/{self.query_name}"


def characterize_pair(
    schema: Schema,
    update: UpdateTemplate,
    query: QueryTemplate,
    use_integrity_constraints: bool = True,
) -> PairCharacterization:
    """Run the Section 4 static analysis on one template pair."""
    u_stmt = update.statement
    q_select = query.select
    assumptions = _assumptions_hold(schema, u_stmt, q_select)

    zero_reason = _a_zero_reason(
        schema,
        u_stmt,
        q_select,
        modified_attributes(schema, u_stmt),
        _used_attributes(schema, q_select),
        use_integrity_constraints,
    )
    if zero_reason is not None:
        return PairCharacterization(
            update_name=update.name,
            query_name=query.name,
            a_is_zero=True,
            b_equals_a=True,
            c_equals_b=True,
            assumptions_hold=assumptions,
            reason=zero_reason,
        )

    if not assumptions:
        return PairCharacterization(
            update_name=update.name,
            query_name=query.name,
            a_is_zero=False,
            b_equals_a=False,
            c_equals_b=False,
            assumptions_hold=False,
            reason="assumptions violated: conservative (no equalities claimed)",
        )

    reason_parts = []
    b_equals_a = _b_equals_a(schema, u_stmt, q_select)
    if b_equals_a:
        reason_parts.append("S(U) disjoint from S(Q): B = A = 1 (Sec 4.3)")
    c_equals_b, c_reason = _c_equals_b(schema, u_stmt, q_select)
    if c_equals_b:
        reason_parts.append(c_reason)
    return PairCharacterization(
        update_name=update.name,
        query_name=query.name,
        a_is_zero=False,
        b_equals_a=b_equals_a,
        c_equals_b=c_equals_b,
        assumptions_hold=True,
        reason="; ".join(reason_parts) or "no equalities provable",
    )


def zero_pairs(
    registry: TemplateRegistry, use_integrity_constraints: bool = True
) -> dict[tuple[str, str], str]:
    """The A_ij = 0 cells of the IPM, each mapped to its reason.

    The decision :func:`characterize_pair` makes for every pair of
    ``registry``, with M(U) and P(Q) ∪ S(Q) computed once per template
    instead of once per pair.
    """
    schema = registry.schema
    modified = {
        update.name: modified_attributes(schema, update.statement)
        for update in registry.updates
    }
    used = {
        query.name: _used_attributes(schema, query.select)
        for query in registry.queries
    }
    zero: dict[tuple[str, str], str] = {}
    for update, query in registry.pairs():
        reason = _a_zero_reason(
            schema,
            update.statement,
            query.select,
            modified[update.name],
            used[query.name],
            use_integrity_constraints,
        )
        if reason is not None:
            zero[(update.name, query.name)] = reason
    return zero


# -- the individual Section 4 tests ------------------------------------------------


def _used_attributes(schema: Schema, query: Select) -> frozenset[Attribute]:
    """P(Q) ∪ S(Q): the attributes Lemma 1 compares with M(U)."""
    return preserved_attributes(schema, query) | selection_attributes(
        schema, query
    )


def _a_zero_reason(
    schema: Schema,
    update,
    query: Select,
    modified: frozenset[Attribute],
    used: frozenset[Attribute],
    use_integrity_constraints: bool,
) -> str | None:
    """Section 4.2/4.5: why A_ij = 0 for this pair, or None when A_ij = 1.

    ``modified`` is M(U) and ``used`` is P(Q) ∪ S(Q) of the pair.
    """
    if not (modified & used):
        # Lemma 1: the pair is ignorable (relation G).
        return "ignorable (Lemma 1): M(U) disjoint from P(Q)+S(Q)"
    if use_integrity_constraints and constraint_implies_no_effect(
        schema, update, query
    ):
        return "integrity constraint rule (Sec 4.5) forces A=0"
    return None


def _b_equals_a(schema: Schema, update, query: Select) -> bool:
    """Section 4.3 sufficient condition for B = A = 1.

    Statement inspection can only refine invalidation decisions by
    comparing *known values* of the update against the query's selection
    predicates.  The values an update statement reveals are:

    * insertion — the entire inserted row (every column of the table);
    * deletion — the selection-predicate parameters, i.e. S(U) (the other
      attribute values of the deleted rows stay unknown);
    * modification — S(U).  The SET values are visible too, but cannot rule
      out invalidation: whether the modified row satisfied the query
      *before* depends on its unknown old values, so a change can never be
      excluded on SET values alone.

    If those known-value attributes are disjoint from S(Q), parameters
    cannot rule out overlap, so statement inspection cannot beat template
    inspection: B = A.  (This matches the paper's Table 4, where the
    credit-card insertion U2 has B < A against Q3 precisely because the
    inserted ``zip_code`` is comparable to Q3's ``zip_code`` parameter.)
    """
    if isinstance(update, Insert):
        known = schema.table(update.table).attributes()
    else:
        known = selection_attributes(schema, update)
    return not (known & selection_attributes(schema, query))


def _c_equals_b(schema: Schema, update, query: Select) -> tuple[bool, str]:
    """Section 4.4 sufficient conditions for C = B, by update class."""
    kind = update_kind(update)
    aggregated = query.has_aggregate() or bool(query.group_by)
    if kind is UpdateKind.INSERTION:
        if aggregated:
            # MAX(qty) counter-example (Sec 4.4): view may beat statement.
            return False, ""
        if query_is_equality_join_only(query) and query_has_no_top_k(query):
            return True, "insertion vs E∩N query: C = B (Sec 4.4)"
        return False, ""
    if kind is UpdateKind.DELETION:
        if is_result_unhelpful(schema, update, query):
            return True, "deletion with result-unhelpful query (H): C = B"
        return False, ""
    # modification
    if is_ignorable(schema, update, query) or is_result_unhelpful(
        schema, update, query
    ):
        return True, "modification with pair in G∪H: C = B"
    return False, ""


def _assumptions_hold(schema: Schema, update, query: Select) -> bool:
    """Check the Section 2.1.1 template assumptions for one pair.

    1. Selection predicates compare an attribute with a constant/parameter
       or attributes of two *different* relations.
    2. No constants embedded in WHERE clauses (they could aid invalidation
       reasoning beyond what the template level admits).
    3. The query computes no Cartesian product (non-empty selection
       predicate linking its tables).
    """
    if not _predicates_conform(schema, query, query.where):
        return False
    update_where = getattr(update, "where", ())
    for comparison in update_where:
        if comparison.is_join():
            return False  # update predicates are single-relation
        if _has_embedded_constant(comparison):
            return False
    if len(query.tables) > 1 and not query.join_conditions():
        # Assumption 3: no Cartesian products.  (A single-table scan with
        # an empty WHERE clause is harmless: its selection-attribute set is
        # empty, which only weakens the claims the other tests can make.)
        return False
    return True


def _predicates_conform(
    schema: Schema,
    query: Select,
    where: tuple[Comparison, ...],
) -> bool:
    for comparison in where:
        if comparison.is_join():
            left = resolve_query_column(schema, query, comparison.left)
            right = resolve_query_column(schema, query, comparison.right)
            if left.table == right.table:
                return False  # same-relation attribute comparison
        elif _has_embedded_constant(comparison):
            return False
    return True


def _has_embedded_constant(comparison: Comparison) -> bool:
    return isinstance(comparison.left, Literal) or isinstance(
        comparison.right, Literal
    )


class IpmCharacterization:
    """The full matrix of pair characterizations for one application."""

    def __init__(
        self,
        registry: TemplateRegistry,
        pairs: dict[tuple[str, str], PairCharacterization],
    ) -> None:
        self.registry = registry
        self._pairs = pairs

    def pair(self, update_name: str, query_name: str) -> PairCharacterization:
        """Return the characterization for one (update, query) pair."""
        return self._pairs[(update_name, query_name)]

    def __iter__(self):
        return iter(self._pairs.values())

    def __len__(self) -> int:
        return len(self._pairs)

    def pairs_for_query(self, query_name: str) -> list[PairCharacterization]:
        """All pair characterizations involving the given query template."""
        return [p for p in self._pairs.values() if p.query_name == query_name]

    def pairs_for_update(self, update_name: str) -> list[PairCharacterization]:
        """All pair characterizations involving the given update template."""
        return [p for p in self._pairs.values() if p.update_name == update_name]


def characterize_application(
    registry: TemplateRegistry, use_integrity_constraints: bool = True
) -> IpmCharacterization:
    """Characterize every update/query template pair of an application.

    This is Step 2a of the methodology (Section 3.1).
    """
    pairs: dict[tuple[str, str], PairCharacterization] = {}
    for update, query in registry.pairs():
        pairs[(update.name, query.name)] = characterize_pair(
            registry.schema, update, query, use_integrity_constraints
        )
    return IpmCharacterization(registry, pairs)
