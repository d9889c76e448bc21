"""Recursive-descent parser for the paper's SQL dialect.

Grammar (keywords case-insensitive)::

    statement   := select | insert | delete | update
    select      := SELECT [DISTINCT] select_list FROM table_list
                   [WHERE conjunction] [GROUP BY column_list]
                   [ORDER BY order_list] [LIMIT (int | ?)]
    select_list := '*' | select_item (',' select_item)*
    select_item := column | agg '(' ('*' | [DISTINCT] column) ')'
    table_list  := table_ref (',' table_ref)*
    table_ref   := name [AS alias | alias]
    conjunction := comparison (AND comparison)*
    comparison  := operand op operand           -- op in < <= > >= =
    operand     := column | literal | '?'
    insert      := INSERT INTO name '(' names ')' VALUES '(' operands ')'
    delete      := DELETE FROM name [WHERE conjunction]
    update      := UPDATE name SET assignments [WHERE conjunction]

Parameters (``?``) are numbered left-to-right from zero across the whole
statement, in the same order the tokens appear, so that a bound statement's
parameter list lines up positionally.
"""

from __future__ import annotations

from repro.errors import ParseError, UnsupportedSqlError
from repro.sql.ast import (
    Aggregate,
    AggregateFunc,
    ColumnRef,
    Comparison,
    ComparisonOp,
    Delete,
    Insert,
    Literal,
    OrderByItem,
    Parameter,
    Select,
    SelectItem,
    Star,
    Statement,
    TableRef,
    Update,
    Value,
)
from repro.sql.lexer import Token, TokenType, tokenize

__all__ = ["parse", "parse_query", "parse_update"]

_AGG_KEYWORDS = {f.value for f in AggregateFunc}


def parse(sql: str) -> Statement:
    """Parse a statement of any kind; raise :class:`ParseError` on junk."""
    return _Parser(sql).parse_statement()


def parse_query(sql: str) -> Select:
    """Parse a statement and require it to be a query."""
    statement = parse(sql)
    if not isinstance(statement, Select):
        raise ParseError(f"expected a query, got {type(statement).__name__}")
    return statement


def parse_update(sql: str) -> Insert | Delete | Update:
    """Parse a statement and require it to be an update of some kind."""
    statement = parse(sql)
    if isinstance(statement, Select):
        raise ParseError("expected an update statement, got a query")
    return statement


class _Parser:
    """One-shot recursive-descent parser over a token list."""

    def __init__(self, sql: str) -> None:
        self._tokens = tokenize(sql)
        self._pos = 0
        self._next_param = 0

    # -- token plumbing ----------------------------------------------------

    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        self._pos += 1
        return token

    def _expect_keyword(self, word: str) -> Token:
        token = self._advance()
        if not token.is_keyword(word):
            raise ParseError(
                f"expected {word.upper()!r}, got {token.value!r}", token.position
            )
        return token

    def _expect_punct(self, char: str) -> Token:
        token = self._advance()
        if token.type is not TokenType.PUNCT or token.value != char:
            raise ParseError(
                f"expected {char!r}, got {token.value!r}", token.position
            )
        return token

    def _expect_identifier(self) -> str:
        token = self._advance()
        if token.type is not TokenType.IDENTIFIER:
            raise ParseError(
                f"expected identifier, got {token.value!r}", token.position
            )
        return token.value

    def _accept_keyword(self, word: str) -> bool:
        if self._peek().is_keyword(word):
            self._pos += 1
            return True
        return False

    def _accept_punct(self, char: str) -> bool:
        token = self._peek()
        if token.type is TokenType.PUNCT and token.value == char:
            self._pos += 1
            return True
        return False

    def _expect_eof(self) -> None:
        token = self._peek()
        if token.type is not TokenType.EOF:
            raise ParseError(
                f"unexpected trailing input {token.value!r}", token.position
            )

    def _make_parameter(self) -> Parameter:
        parameter = Parameter(self._next_param)
        self._next_param += 1
        return parameter

    # -- entry point --------------------------------------------------------

    def parse_statement(self) -> Statement:
        token = self._peek()
        if token.is_keyword("select"):
            statement: Statement = self._parse_select()
        elif token.is_keyword("insert"):
            statement = self._parse_insert()
        elif token.is_keyword("delete"):
            statement = self._parse_delete()
        elif token.is_keyword("update"):
            statement = self._parse_update()
        else:
            raise ParseError(
                f"expected SELECT/INSERT/DELETE/UPDATE, got {token.value!r}",
                token.position,
            )
        self._expect_eof()
        return statement

    # -- SELECT --------------------------------------------------------------

    def _parse_select(self) -> Select:
        self._expect_keyword("select")
        if self._accept_keyword("distinct"):
            # The paper's model is multiset; projection keeps duplicates.
            raise UnsupportedSqlError(
                "SELECT DISTINCT is outside the paper's multiset model"
            )
        items = self._parse_select_list()
        self._expect_keyword("from")
        tables = self._parse_table_list()
        where = self._parse_optional_where()
        group_by = self._parse_optional_group_by()
        order_by = self._parse_optional_order_by()
        limit = self._parse_optional_limit()
        return Select(
            items=items,
            tables=tables,
            where=where,
            group_by=group_by,
            order_by=order_by,
            limit=limit,
        )

    def _parse_select_list(self) -> tuple[SelectItem, ...]:
        items: list[SelectItem] = [self._parse_select_item()]
        while self._accept_punct(","):
            items.append(self._parse_select_item())
        return tuple(items)

    def _parse_select_item(self) -> SelectItem:
        token = self._peek()
        if token.type is TokenType.PUNCT and token.value == "*":
            self._advance()
            return Star()
        if token.type is TokenType.KEYWORD and token.value in _AGG_KEYWORDS:
            return self._parse_aggregate()
        return self._parse_column_ref()

    def _parse_aggregate(self) -> Aggregate:
        func = AggregateFunc(self._advance().value)
        self._expect_punct("(")
        distinct = self._accept_keyword("distinct")
        if self._accept_punct("*"):
            if func is not AggregateFunc.COUNT:
                raise ParseError(f"{func.value.upper()}(*) is not valid")
            argument: ColumnRef | Star = Star()
        else:
            argument = self._parse_column_ref()
        self._expect_punct(")")
        return Aggregate(func=func, argument=argument, distinct=distinct)

    def _parse_column_ref(self) -> ColumnRef:
        first = self._expect_identifier()
        if self._accept_punct("."):
            column = self._expect_identifier()
            return ColumnRef(column=column, table=first)
        return ColumnRef(column=first)

    def _parse_table_list(self) -> tuple[TableRef, ...]:
        tables = [self._parse_table_ref()]
        while self._accept_punct(","):
            tables.append(self._parse_table_ref())
        return tuple(tables)

    def _parse_table_ref(self) -> TableRef:
        name = self._expect_identifier()
        alias: str | None = None
        if self._accept_keyword("as"):
            alias = self._expect_identifier()
        elif self._peek().type is TokenType.IDENTIFIER:
            alias = self._expect_identifier()
        return TableRef(name=name, alias=alias)

    # -- WHERE / GROUP BY / ORDER BY / LIMIT ----------------------------------

    def _parse_optional_where(self) -> tuple[Comparison, ...]:
        if not self._accept_keyword("where"):
            return ()
        comparisons = [self._parse_comparison()]
        while self._accept_keyword("and"):
            comparisons.append(self._parse_comparison())
        return tuple(comparisons)

    def _parse_comparison(self) -> Comparison:
        left = self._parse_operand()
        token = self._advance()
        if token.type is not TokenType.OPERATOR:
            raise ParseError(
                f"expected comparison operator, got {token.value!r}",
                token.position,
            )
        op = ComparisonOp(token.value)
        right = self._parse_operand()
        return Comparison(left=left, op=op, right=right)

    def _parse_operand(self) -> Value:
        token = self._peek()
        if token.type is TokenType.PARAMETER:
            self._advance()
            return self._make_parameter()
        if token.type is TokenType.INTEGER:
            self._advance()
            return Literal(int(token.value))
        if token.type is TokenType.FLOAT:
            self._advance()
            return Literal(float(token.value))
        if token.type is TokenType.STRING:
            self._advance()
            return Literal(token.value)
        if token.is_keyword("null"):
            self._advance()
            return Literal(None)
        if token.type is TokenType.IDENTIFIER:
            return self._parse_column_ref()
        raise ParseError(f"expected operand, got {token.value!r}", token.position)

    def _parse_optional_group_by(self) -> tuple[ColumnRef, ...]:
        if not self._accept_keyword("group"):
            return ()
        self._expect_keyword("by")
        columns = [self._parse_column_ref()]
        while self._accept_punct(","):
            columns.append(self._parse_column_ref())
        return tuple(columns)

    def _parse_optional_order_by(self) -> tuple[OrderByItem, ...]:
        if not self._accept_keyword("order"):
            return ()
        self._expect_keyword("by")
        items = [self._parse_order_item()]
        while self._accept_punct(","):
            items.append(self._parse_order_item())
        return tuple(items)

    def _parse_order_item(self) -> OrderByItem:
        column = self._parse_column_ref()
        descending = False
        if self._accept_keyword("desc"):
            descending = True
        else:
            self._accept_keyword("asc")
        return OrderByItem(column=column, descending=descending)

    def _parse_optional_limit(self) -> int | Parameter | None:
        if not self._accept_keyword("limit"):
            return None
        token = self._advance()
        if token.type is TokenType.INTEGER:
            return int(token.value)
        if token.type is TokenType.PARAMETER:
            self._pos -= 1  # _make_parameter path needs no token re-read
            self._advance()
            return self._make_parameter()
        raise ParseError(
            f"expected integer or '?' after LIMIT, got {token.value!r}",
            token.position,
        )

    # -- INSERT ----------------------------------------------------------------

    def _parse_insert(self) -> Insert:
        self._expect_keyword("insert")
        self._expect_keyword("into")
        table = self._expect_identifier()
        self._expect_punct("(")
        columns = [self._expect_identifier()]
        while self._accept_punct(","):
            columns.append(self._expect_identifier())
        self._expect_punct(")")
        self._expect_keyword("values")
        self._expect_punct("(")
        values = [self._parse_insert_value()]
        while self._accept_punct(","):
            values.append(self._parse_insert_value())
        self._expect_punct(")")
        if len(columns) != len(values):
            raise ParseError(
                f"INSERT lists {len(columns)} columns but {len(values)} values"
            )
        return Insert(table=table, columns=tuple(columns), values=tuple(values))

    def _parse_insert_value(self) -> Literal | Parameter:
        value = self._parse_operand()
        if isinstance(value, ColumnRef):
            raise ParseError(
                "INSERT values must be literals or parameters "
                "(each insertion fully specifies a row)"
            )
        return value

    # -- DELETE ----------------------------------------------------------------

    def _parse_delete(self) -> Delete:
        self._expect_keyword("delete")
        self._expect_keyword("from")
        table = self._expect_identifier()
        where = self._parse_optional_where()
        return Delete(table=table, where=where)

    # -- UPDATE ----------------------------------------------------------------

    def _parse_update(self) -> Update:
        self._expect_keyword("update")
        table = self._expect_identifier()
        self._expect_keyword("set")
        assignments = [self._parse_assignment()]
        while self._accept_punct(","):
            assignments.append(self._parse_assignment())
        where = self._parse_optional_where()
        return Update(table=table, assignments=tuple(assignments), where=where)

    def _parse_assignment(self) -> tuple[str, Literal | Parameter]:
        column = self._expect_identifier()
        token = self._advance()
        if token.type is not TokenType.OPERATOR or token.value != "=":
            raise ParseError(
                f"expected '=' in SET clause, got {token.value!r}", token.position
            )
        value = self._parse_operand()
        if isinstance(value, ColumnRef):
            raise UnsupportedSqlError(
                "SET right-hand sides must be literals or parameters"
            )
        return (column, value)
