"""Parameter binding: template AST + parameter values → bound statement AST.

Binding replaces every :class:`~repro.sql.ast.Parameter` node with a
:class:`~repro.sql.ast.Literal` carrying the positionally-matching value.
The result is executable by the storage engine.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import BindingError
from repro.sql.ast import (
    Comparison,
    Delete,
    Insert,
    Literal,
    Parameter,
    Scalar,
    Select,
    Statement,
    Update,
    Value,
)

__all__ = ["bind", "count_parameters"]


def count_parameters(statement: Statement) -> int:
    """Return the number of ``?`` parameters in a statement."""
    count = 0
    for value in _iter_values(statement):
        if isinstance(value, Parameter):
            count += 1
    if isinstance(statement, Select) and isinstance(statement.limit, Parameter):
        count += 1
    return count


def _iter_values(statement: Statement):
    """Yield every Value position of a statement (except LIMIT)."""
    if isinstance(statement, Select):
        for comparison in statement.where:
            yield comparison.left
            yield comparison.right
    elif isinstance(statement, Insert):
        yield from statement.values
    elif isinstance(statement, Delete):
        for comparison in statement.where:
            yield comparison.left
            yield comparison.right
    elif isinstance(statement, Update):
        for _, value in statement.assignments:
            yield value
        for comparison in statement.where:
            yield comparison.left
            yield comparison.right


def bind(statement: Statement, params: Sequence[Scalar]) -> Statement:
    """Substitute parameter values into a statement.

    Args:
        statement: Template AST, with parameters numbered 0..n-1.
        params: One value per parameter, positionally.

    Raises:
        BindingError: if the number of values does not match the number of
            parameters.
    """
    expected = count_parameters(statement)
    if len(params) != expected:
        raise BindingError(
            f"statement has {expected} parameter(s) but {len(params)} "
            "value(s) were supplied"
        )

    def subst(value: Value) -> Value:
        if isinstance(value, Parameter):
            return Literal(params[value.index])
        return value

    def subst_where(where: tuple[Comparison, ...]) -> tuple[Comparison, ...]:
        return tuple(
            Comparison(subst(c.left), c.op, subst(c.right)) for c in where
        )

    if isinstance(statement, Select):
        limit = statement.limit
        if isinstance(limit, Parameter):
            bound_limit = params[limit.index]
            if not isinstance(bound_limit, int) or bound_limit < 0:
                raise BindingError(
                    "LIMIT parameter must bind to a non-negative int, "
                    f"got {bound_limit!r}"
                )
            limit = bound_limit
        return Select(
            items=statement.items,
            tables=statement.tables,
            where=subst_where(statement.where),
            group_by=statement.group_by,
            order_by=statement.order_by,
            limit=limit,
        )
    if isinstance(statement, Insert):
        return Insert(
            table=statement.table,
            columns=statement.columns,
            values=tuple(subst(v) for v in statement.values),  # type: ignore[misc]
        )
    if isinstance(statement, Delete):
        return Delete(table=statement.table, where=subst_where(statement.where))
    if isinstance(statement, Update):
        return Update(
            table=statement.table,
            assignments=tuple(
                (column, subst(value))  # type: ignore[misc]
                for column, value in statement.assignments
            ),
            where=subst_where(statement.where),
        )
    raise BindingError(f"cannot bind {type(statement).__name__}")
