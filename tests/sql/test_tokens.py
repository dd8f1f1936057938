"""Lexer tests. A token is a ``(kind, value, offset)`` tuple."""

import pytest

from repro.errors import SqlSyntaxError
from repro.sql.tokens import TokenType, position, tokenize


def kinds(text):
    return [kind for kind, _, _ in tokenize(text)[:-1]]


def values(text):
    return [value for _, value, _ in tokenize(text)[:-1]]


def positions(text):
    return [position(text, offset) for _, _, offset in tokenize(text)[:-1]]


class TestBasicTokens:
    def test_empty_input_yields_only_eof(self):
        assert tokenize("") == [(TokenType.EOF, "", 0)]

    def test_keywords_are_recognized_case_insensitively(self):
        for text in ("SELECT", "select", "SeLeCt"):
            assert tokenize(text)[:-1] == [(TokenType.KEYWORD, "select", 0)]

    def test_identifiers_are_lowercased(self):
        assert tokenize("L_OrderKey")[:-1] == [(TokenType.IDENT, "l_orderkey", 0)]

    def test_identifier_with_underscores_and_digits(self):
        assert values("tab_1_x") == ["tab_1_x"]

    def test_integer_and_float_literals(self):
        assert values("42 3.14") == ["42", "3.14"]
        assert kinds("42 3.14") == [TokenType.NUMBER, TokenType.NUMBER]

    def test_qualified_name_tokenizes_as_ident_dot_ident(self):
        assert kinds("a.b") == [TokenType.IDENT, TokenType.DOT, TokenType.IDENT]

    def test_number_followed_by_dot_ident_is_not_merged(self):
        # "1.x" would be nonsense SQL; the number stops before the dot.
        assert values("1 .5") == ["1", ".5"]
        assert values("1.x") == ["1", ".", "x"]


class TestStrings:
    def test_simple_string(self):
        assert tokenize("'hello'")[:-1] == [(TokenType.STRING, "hello", 0)]

    def test_doubled_quote_escapes(self):
        assert values("'it''s'") == ["it's"]

    def test_string_preserves_case_and_spaces(self):
        assert values("'Hello World'") == ["Hello World"]

    def test_unterminated_string_raises(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("'oops")


class TestOperators:
    def test_two_character_operators(self):
        assert values("<= >= <>") == ["<=", ">=", "<>"]

    def test_bang_equals_normalizes_to_standard_inequality(self):
        assert values("a != b") == ["a", "<>", "b"]

    def test_single_character_operators(self):
        assert values("+ - / % < > =") == ["+", "-", "/", "%", "<", ">", "="]

    def test_star_token(self):
        assert kinds("*") == [TokenType.STAR]

    def test_lone_bang_raises(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("a ! b")

    def test_unexpected_character_raises_with_location(self):
        with pytest.raises(SqlSyntaxError) as info:
            tokenize("select @")
        assert info.value.column == 8


class TestCommentsAndLines:
    def test_line_comment_is_skipped(self):
        assert values("a -- comment here\n b") == ["a", "b"]

    def test_line_numbers_advance(self):
        assert [line for line, _ in positions("a\nb\nc")] == [1, 2, 3]

    def test_column_positions(self):
        assert [column for _, column in positions("ab cd")] == [1, 4]
        assert positions("ab\n  cd") == [(1, 1), (2, 3)]

    def test_minus_not_starting_comment(self):
        assert values("a - b") == ["a", "-", "b"]


class TestPunctuation:
    def test_parens_commas_semicolon(self):
        assert kinds("(a, b);") == [
            TokenType.LPAREN,
            TokenType.IDENT,
            TokenType.COMMA,
            TokenType.IDENT,
            TokenType.RPAREN,
            TokenType.SEMICOLON,
        ]
