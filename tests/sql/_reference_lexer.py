"""The character-loop lexer ``repro.sql.tokens`` replaced, kept as its oracle.

This is the seed's tokenizer: one ``Token(type, value, line, column)`` per
lexeme, positions tracked while scanning. ``test_lexer_parity`` requires
the regex lexer to produce the same stream -- or the same
``SqlSyntaxError`` at the same place -- on every input.

Two edits since the seed: the imports, and a line break inside a string
literal now starts a new line. The seed skipped it there, so everything
after a multi-line literal was reported on the wrong line with a column
counted from the last break *outside* a literal; the regex lexer derives
positions from offsets and cannot reproduce that.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SqlSyntaxError
from repro.sql.tokens import KEYWORDS, TokenType


@dataclass(frozen=True)
class Token:
    type: TokenType
    value: str
    line: int
    column: int


_OPERATOR_CHARS = frozenset("=<>!+-*/%")
_TWO_CHAR_OPERATORS = {"<=", ">=", "<>", "!="}


def tokenize(text: str) -> list[Token]:
    """Convert SQL text into a token list ending with an EOF token.

    Identifiers and keywords are lower-cased (the SQL subset is
    case-insensitive); string literal contents are preserved verbatim with
    ``''`` unescaped to ``'``.
    """
    tokens: list[Token] = []
    i = 0
    line = 1
    line_start = 0
    n = len(text)

    def column_of(pos: int) -> int:
        return pos - line_start + 1

    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            i += 1
            line_start = i
            continue
        if ch.isspace():
            i += 1
            continue
        if ch == "-" and text.startswith("--", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        start = i
        start_col = column_of(i)
        if ch.isalpha() or ch == "_":
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            word = text[start:i].lower()
            kind = TokenType.KEYWORD if word in KEYWORDS else TokenType.IDENT
            tokens.append(Token(kind, word, line, start_col))
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            seen_dot = False
            while i < n and (text[i].isdigit() or (text[i] == "." and not seen_dot)):
                if text[i] == ".":
                    # A dot not followed by a digit terminates the number
                    # (e.g. range syntax would, though we never see it).
                    if i + 1 >= n or not text[i + 1].isdigit():
                        break
                    seen_dot = True
                i += 1
            tokens.append(Token(TokenType.NUMBER, text[start:i], line, start_col))
            continue
        if ch == "'":
            start_line = line
            i += 1
            parts: list[str] = []
            while True:
                if i >= n:
                    raise SqlSyntaxError("unterminated string literal", start_line, start_col)
                if text[i] == "'":
                    if i + 1 < n and text[i + 1] == "'":
                        parts.append("'")
                        i += 2
                        continue
                    i += 1
                    break
                parts.append(text[i])
                i += 1
                if text[i - 1] == "\n":
                    line += 1
                    line_start = i
            tokens.append(Token(TokenType.STRING, "".join(parts), start_line, start_col))
            continue
        if ch in _OPERATOR_CHARS:
            pair = text[i : i + 2]
            if pair in _TWO_CHAR_OPERATORS:
                value = "<>" if pair == "!=" else pair
                tokens.append(Token(TokenType.OPERATOR, value, line, start_col))
                i += 2
                continue
            if ch == "*":
                tokens.append(Token(TokenType.STAR, "*", line, start_col))
            elif ch == "!":
                raise SqlSyntaxError("unexpected character '!'", line, start_col)
            else:
                tokens.append(Token(TokenType.OPERATOR, ch, line, start_col))
            i += 1
            continue
        simple = {
            ",": TokenType.COMMA,
            ".": TokenType.DOT,
            "(": TokenType.LPAREN,
            ")": TokenType.RPAREN,
            ";": TokenType.SEMICOLON,
        }
        if ch in simple:
            tokens.append(Token(simple[ch], ch, line, start_col))
            i += 1
            continue
        raise SqlSyntaxError(f"unexpected character {ch!r}", line, start_col)

    tokens.append(Token(TokenType.EOF, "", line, column_of(i)))
    return tokens
