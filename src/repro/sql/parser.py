"""Recursive-descent parser for the SPJG SQL subset.

Grammar (informal)::

    statement   := select | create_view
    create_view := CREATE VIEW ident [WITH SCHEMABINDING] AS select
    select      := SELECT [DISTINCT] item (, item)*
                   FROM table_ref (, table_ref)* [(INNER) JOIN table_ref ON pred]*
                   [WHERE predicate] [GROUP BY expr (, expr)*]
    item        := expr [AS ident] | expr ident | *
    table_ref   := [ident .] ident [[AS] ident]
    predicate   := disjunction of conjunctions of (NOT)* atoms
    atom        := comparison | LIKE | BETWEEN | IN | IS [NOT] NULL | ( predicate )
    expr        := additive arithmetic over terms, functions, columns, literals

``a JOIN b ON p`` is normalised to the comma form with ``p`` folded into the
WHERE clause, since the paper treats all inner joins as WHERE conjuncts.
"""

from __future__ import annotations

from ..errors import SqlSyntaxError, UnsupportedSqlError
from .expressions import (
    BinaryOp,
    ColumnRef,
    Expression,
    FuncCall,
    InList,
    IsNull,
    LikePredicate,
    Literal,
    Not,
    UnaryMinus,
    between,
    conjunction,
    disjunction,
)
from .statements import (
    CreateIndexStatement,
    CreateViewStatement,
    SelectItem,
    SelectStatement,
    TableRef,
)
from .tokens import TokenType, position, tokenize

_IDENT = TokenType.IDENT
_KEYWORD = TokenType.KEYWORD
_NUMBER = TokenType.NUMBER
_STRING = TokenType.STRING
_OPERATOR = TokenType.OPERATOR
_COMMA = TokenType.COMMA
_DOT = TokenType.DOT
_LPAREN = TokenType.LPAREN
_RPAREN = TokenType.RPAREN
_STAR = TokenType.STAR
_EOF = TokenType.EOF

_COMPARISONS = frozenset(("=", "<>", "<", "<=", ">", ">="))
_SUFFIX_KEYWORDS = frozenset(("like", "between", "in", "is", "not"))


class _Parser:
    """One statement's tokens and a cursor.

    Tokens are ``(kind, value, offset)`` tuples; the productions index
    ``self.tokens[self.pos]`` directly. A token's line and column are
    worked out from its offset only when an error names it.
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0

    # -- token plumbing ----------------------------------------------------

    def error(self, message: str) -> SqlSyntaxError:
        """A syntax error located at the current token."""
        offset = self.tokens[self.pos][2]
        return SqlSyntaxError(message, *position(self.text, offset))

    def check_keyword(self, *words: str) -> bool:
        kind, value, _ = self.tokens[self.pos]
        return kind is _KEYWORD and value in words

    def accept_keyword(self, word: str) -> bool:
        kind, value, _ = self.tokens[self.pos]
        if kind is _KEYWORD and value == word:
            self.pos += 1
            return True
        return False

    def expect_keyword(self, word: str) -> None:
        kind, value, _ = self.tokens[self.pos]
        if kind is not _KEYWORD or value != word:
            raise self.error(f"expected {word.upper()}, found {value!r}")
        self.pos += 1

    def accept(self, token_type: TokenType) -> bool:
        if self.tokens[self.pos][0] is token_type:
            self.pos += 1
            return True
        return False

    def expect(self, token_type: TokenType) -> str:
        """Consume a token of ``token_type`` and return its value."""
        kind, value, _ = self.tokens[self.pos]
        if kind is not token_type:
            raise self.error(f"expected {token_type.name}, found {value!r}")
        self.pos += 1
        return value

    def expect_ident(self) -> str:
        # Non-reserved keywords may be used as identifiers only where the
        # grammar is unambiguous; we keep it strict and require IDENT.
        return self.expect(_IDENT)

    def expect_end(self) -> None:
        if self.tokens[self.pos][0] is not _EOF:
            raise self.error(
                f"unexpected trailing input {self.tokens[self.pos][1]!r}"
            )

    # -- statements --------------------------------------------------------

    def parse_statement(
        self,
    ) -> SelectStatement | CreateViewStatement | CreateIndexStatement:
        statement: SelectStatement | CreateViewStatement | CreateIndexStatement
        if self.check_keyword("create"):
            kind, value, _ = self.tokens[self.pos + 1]
            if kind is _KEYWORD and value == "view":
                statement = self.parse_create_view()
            else:
                statement = self.parse_create_index()
        else:
            statement = self.parse_select()
        self.accept(TokenType.SEMICOLON)
        self.expect_end()
        return statement

    def parse_create_view(self) -> CreateViewStatement:
        self.expect_keyword("create")
        self.expect_keyword("view")
        name = self.expect_ident()
        schemabinding = False
        if self.accept_keyword("with"):
            self.expect_keyword("schemabinding")
            schemabinding = True
        self.expect_keyword("as")
        query = self.parse_select()
        return CreateViewStatement(name=name, query=query, schemabinding=schemabinding)

    def parse_create_index(self) -> CreateIndexStatement:
        self.expect_keyword("create")
        unique = self.accept_keyword("unique")
        clustered = self.accept_keyword("clustered")
        self.expect_keyword("index")
        name = self.expect_ident()
        self.expect_keyword("on")
        relation = self.expect_ident()
        self.expect(_LPAREN)
        columns = [self.expect_ident()]
        while self.accept(_COMMA):
            columns.append(self.expect_ident())
        self.expect(_RPAREN)
        return CreateIndexStatement(
            name=name,
            relation=relation,
            columns=tuple(columns),
            unique=unique,
            clustered=clustered,
        )

    def parse_select(self) -> SelectStatement:
        tokens = self.tokens
        self.expect_keyword("select")
        distinct = self.accept_keyword("distinct")
        items = [self.parse_select_item()]
        while tokens[self.pos][0] is _COMMA:
            self.pos += 1
            items.append(self.parse_select_item())
        self.expect_keyword("from")
        tables = [self.parse_table_ref()]
        join_predicates: list[Expression] = []
        while True:
            if tokens[self.pos][0] is _COMMA:
                self.pos += 1
                tables.append(self.parse_table_ref())
                continue
            if self.check_keyword("inner", "join"):
                self.accept_keyword("inner")
                self.expect_keyword("join")
                tables.append(self.parse_table_ref())
                self.expect_keyword("on")
                join_predicates.append(self.parse_predicate())
                continue
            break
        where = None
        if self.accept_keyword("where"):
            where = self.parse_predicate()
        if join_predicates:
            where = conjunction([p for p in ([where] + join_predicates) if p is not None])
        group_by: list[Expression] = []
        if self.accept_keyword("group"):
            self.expect_keyword("by")
            group_by.append(self.parse_expression())
            while tokens[self.pos][0] is _COMMA:
                self.pos += 1
                group_by.append(self.parse_expression())
        if self.check_keyword("having"):
            raise UnsupportedSqlError("HAVING is outside the supported SPJG class")
        return SelectStatement(
            select_items=tuple(items),
            from_tables=tuple(tables),
            where=where,
            group_by=tuple(group_by),
            distinct=distinct,
        )

    def parse_alias(self) -> str | None:
        """``[AS] ident`` after a select item or a table, if present."""
        kind, value, _ = self.tokens[self.pos]
        if kind is _IDENT:
            self.pos += 1
            return value
        if kind is _KEYWORD and value == "as":
            self.pos += 1
            return self.expect_ident()
        return None

    def parse_select_item(self) -> SelectItem:
        if self.tokens[self.pos][0] is _STAR:
            raise UnsupportedSqlError(
                "SELECT * is not supported; indexable views require explicit output lists"
            )
        expression = self.parse_expression()
        return SelectItem(expression=expression, alias=self.parse_alias())

    def parse_table_ref(self) -> TableRef:
        first = self.expect_ident()
        schema = None
        name = first
        if self.accept(_DOT):
            schema = first
            name = self.expect_ident()
        return TableRef(name=name, alias=self.parse_alias(), schema=schema)

    # -- predicates ----------------------------------------------------------

    def parse_predicate(self) -> Expression:
        parts = [self.parse_conjunction()]
        while self.accept_keyword("or"):
            parts.append(self.parse_conjunction())
        result = disjunction(parts)
        assert result is not None
        return result

    def parse_conjunction(self) -> Expression:
        parts = [self.parse_negation()]
        while self.accept_keyword("and"):
            parts.append(self.parse_negation())
        result = conjunction(parts)
        assert result is not None
        return result

    def parse_negation(self) -> Expression:
        if self.accept_keyword("not"):
            return Not(self.parse_negation())
        return self.parse_atom()

    def parse_atom(self) -> Expression:
        # A parenthesised predicate vs. a parenthesised arithmetic expression
        # is resolved by parsing an expression and checking what follows: a
        # comparison or predicate suffix promotes it to a predicate operand.
        checkpoint = self.pos
        if self.tokens[checkpoint][0] is _LPAREN:
            self.pos += 1
            try:
                inner = self.parse_predicate()
                self.expect(_RPAREN)
            except SqlSyntaxError:
                # Not a predicate after all -- a parenthesised arithmetic
                # operand like "(a + b) > 5"; backtrack and reparse.
                self.pos = checkpoint
            else:
                # If the parenthesised unit is followed by a comparison
                # operator it was really an arithmetic operand; backtrack.
                if self._at_predicate_suffix():
                    self.pos = checkpoint
                else:
                    return inner
        operand = self.parse_expression()
        return self.parse_predicate_suffix(operand)

    def _at_predicate_suffix(self) -> bool:
        kind, value, _ = self.tokens[self.pos]
        if kind is _OPERATOR:
            return value in _COMPARISONS
        return kind is _KEYWORD and value in _SUFFIX_KEYWORDS

    def parse_predicate_suffix(self, operand: Expression) -> Expression:
        kind, value, _ = self.tokens[self.pos]
        if kind is _OPERATOR and value in _COMPARISONS:
            self.pos += 1
            right = self.parse_expression()
            return BinaryOp(value, operand, right)
        negated = self.accept_keyword("not")
        if self.accept_keyword("like"):
            pattern = self.expect(_STRING)
            return LikePredicate(operand, pattern, negated=negated)
        if self.accept_keyword("between"):
            low = self.parse_expression()
            self.expect_keyword("and")
            high = self.parse_expression()
            result = between(operand, low, high)
            return Not(result) if negated else result
        if self.accept_keyword("in"):
            self.expect(_LPAREN)
            items = [self.parse_expression()]
            while self.accept(_COMMA):
                items.append(self.parse_expression())
            self.expect(_RPAREN)
            return InList(operand, tuple(items), negated=negated)
        if not negated and self.accept_keyword("is"):
            is_not = self.accept_keyword("not")
            self.expect_keyword("null")
            return IsNull(operand, negated=is_not)
        if negated:
            raise self.error("expected LIKE, BETWEEN or IN after NOT")
        raise self.error(
            f"expected a predicate, found {self.tokens[self.pos][1]!r}"
        )

    # -- arithmetic expressions ----------------------------------------------

    def parse_expression(self) -> Expression:
        tokens = self.tokens
        left = self.parse_term()
        while True:
            kind, value, _ = tokens[self.pos]
            if kind is not _OPERATOR or (value != "+" and value != "-"):
                return left
            self.pos += 1
            left = BinaryOp(value, left, self.parse_term())

    def parse_term(self) -> Expression:
        tokens = self.tokens
        left = self.parse_factor()
        while True:
            kind, value, _ = tokens[self.pos]
            if kind is not _STAR and (
                kind is not _OPERATOR or (value != "/" and value != "%")
            ):
                return left
            self.pos += 1
            left = BinaryOp(value, left, self.parse_factor())

    def parse_factor(self) -> Expression:
        kind, value, _ = self.tokens[self.pos]
        if kind is _IDENT:
            return self.parse_identifier_expression()
        if kind is _NUMBER:
            self.pos += 1
            return Literal(float(value) if "." in value else int(value))
        if kind is _STRING:
            self.pos += 1
            return Literal(value)
        if kind is _LPAREN:
            self.pos += 1
            inner = self.parse_expression()
            self.expect(_RPAREN)
            return inner
        if kind is _OPERATOR:
            if value == "-":
                self.pos += 1
                return UnaryMinus(self.parse_factor())
            if value == "+":
                self.pos += 1
                return self.parse_factor()
        elif kind is _KEYWORD:
            if value == "true" or value == "false":
                self.pos += 1
                return Literal(value == "true")
            if value == "null":
                self.pos += 1
                return Literal(None)
        raise self.error(f"expected an expression, found {value!r}")

    def parse_identifier_expression(self) -> Expression:
        tokens = self.tokens
        name = tokens[self.pos][1]  # the caller saw an IDENT here
        self.pos += 1
        kind = tokens[self.pos][0]
        if kind is _DOT:
            self.pos += 1
            second = self.expect_ident()
            if tokens[self.pos][0] is _DOT:
                # schema.table.column -- schema part is dropped after parsing
                self.pos += 1
                return ColumnRef(second, self.expect_ident())
            return ColumnRef(name, second)
        if kind is _LPAREN:
            self.pos += 1
            if tokens[self.pos][0] is _STAR:
                self.pos += 1
                self.expect(_RPAREN)
                return FuncCall(name, star=True)
            args = [self.parse_expression()]
            while tokens[self.pos][0] is _COMMA:
                self.pos += 1
                args.append(self.parse_expression())
            self.expect(_RPAREN)
            return FuncCall(name, tuple(args))
        return ColumnRef(None, name)


def parse(text: str) -> SelectStatement | CreateViewStatement | CreateIndexStatement:
    """Parse a single SELECT, CREATE VIEW or CREATE INDEX statement."""
    return _Parser(text).parse_statement()


def parse_select(text: str) -> SelectStatement:
    """Parse SQL text that must be a SELECT statement."""
    statement = parse(text)
    if not isinstance(statement, SelectStatement):
        raise SqlSyntaxError("expected a SELECT statement")
    return statement


def parse_view(text: str) -> CreateViewStatement:
    """Parse SQL text that must be a CREATE VIEW statement."""
    statement = parse(text)
    if not isinstance(statement, CreateViewStatement):
        raise SqlSyntaxError("expected a CREATE VIEW statement")
    return statement


def parse_expression(text: str) -> Expression:
    """Parse a standalone scalar expression (handy in tests)."""
    parser = _Parser(text)
    expression = parser.parse_expression()
    parser.expect_end()
    return expression


def parse_predicate(text: str) -> Expression:
    """Parse a standalone predicate (handy in tests)."""
    parser = _Parser(text)
    predicate = parser.parse_predicate()
    parser.expect_end()
    return predicate
