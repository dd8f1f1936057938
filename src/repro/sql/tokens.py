"""Tokenizer for the SPJG SQL subset: one compiled regex, tokens as tuples.

A token is a plain ``(kind, value, offset)`` tuple -- a :class:`TokenType`,
the normalised lexeme and its 0-based offset into the source text. Line and
column are not stored: :func:`position` derives them from the offset, and
only error paths ask.
"""

from __future__ import annotations

import functools
import re
import sys
from enum import Enum, auto

from ..errors import SqlSyntaxError

KEYWORDS = frozenset(
    {
        "select", "from", "where", "group", "by", "and", "or", "not",
        "like", "between", "in", "is", "null", "as", "create", "view",
        "with", "schemabinding", "distinct", "having", "on", "inner",
        "join", "true", "false", "unique", "clustered", "index",
    }
)


class TokenType(Enum):
    IDENT = auto()
    KEYWORD = auto()
    NUMBER = auto()
    STRING = auto()
    OPERATOR = auto()      # = <> < <= > >= + - / %
    COMMA = auto()
    DOT = auto()
    LPAREN = auto()
    RPAREN = auto()
    STAR = auto()
    SEMICOLON = auto()
    EOF = auto()


Token = tuple[TokenType, str, int]

# Capture-group numbers of the master pattern; ``Match.lastindex`` names
# the alternative that matched (no alternative nests a capture group).
_WORD, _NUMBER, _STRING, _BAD = 1, 2, 3, 11
_GROUP_KINDS = (
    None,
    None,  # _WORD: IDENT or KEYWORD, decided by the lowered text
    TokenType.NUMBER,
    TokenType.STRING,
    TokenType.OPERATOR,
    TokenType.STAR,
    TokenType.COMMA,
    TokenType.DOT,
    TokenType.LPAREN,
    TokenType.RPAREN,
    TokenType.SEMICOLON,
)


def _master(alpha: str, digit: str) -> re.Pattern[str]:
    """The token pattern over the given letter and digit classes.

    Each match skips whitespace and ``--`` comments, then takes one
    lexeme; the last alternative matches only at the end of the text. A
    string's closing quote must not be followed by another quote, so an
    unterminated ``'abc''`` fails as a whole (and is reported at its
    opening quote) instead of matching ``'abc'``. A number takes one
    fraction, and only when a digit follows the dot.
    """
    return re.compile(
        r"(?:\s+|--[^\n]*)*(?:"
        rf"({alpha}\w*)"
        rf"|({digit}+(?:\.{digit}+)?|\.{digit}+)"
        r"|('[^']*(?:''[^']*)*'(?!'))"
        r"|(<=|>=|<>|!=|[=<>+\-/%])"
        r"|(\*)|(,)|(\.)|(\()|(\))|(;)"
        r"|([\s\S])"
        r"|\Z)"
    )


_ASCII = _master("[A-Za-z_]", "[0-9]")

# One string object per operator and punctuation lexeme: a token's value
# is the canonical string, never the match's fresh copy, so the operators
# a statement keeps (and every view record built from it) share them.
_LEXEMES = {
    lexeme: lexeme
    for lexeme in ("<=", ">=", "<>", "=", "<", ">", "+", "-", "/", "%",
                   "*", ",", ".", "(", ")", ";")
}
_LEXEMES["!="] = "<>"


@functools.lru_cache(maxsize=None)
def _unicode() -> re.Pattern[str]:
    """The pattern for text beyond ASCII, built on first use (~0.3 s).

    A word starts at ``str.isalpha`` and a number is made of
    ``str.isdigit`` characters. ``re`` has no such classes: ``[^\\W\\d]``
    also admits the alphanumerics that are neither (vulgar fractions,
    Roman numerals, superscripts), and ``\\d`` lacks the superscript-like
    digits, so both are listed from the interpreter's own tables.
    """
    beyond_ascii = "".join(map(chr, range(128, sys.maxunicode + 1)))
    not_letters = [
        ch for ch in re.findall(r"[^\W\d]", beyond_ascii) if not ch.isalpha()
    ]
    more_digits = [ch for ch in not_letters if ch.isdigit()]
    return _master(
        f"(?![{''.join(not_letters)}])[^\\W\\d]",
        f"[\\d{''.join(more_digits)}]",
    )


def tokenize(text: str) -> list[Token]:
    """Convert SQL text into a token list ending with an EOF token.

    Identifiers and keywords are lower-cased (the SQL subset is
    case-insensitive) and identifiers ``sys.intern``-ed; an operator or
    punctuation token carries the one canonical string of its lexeme
    (``!=`` reads as ``<>``); string literal contents are preserved
    verbatim with ``''`` unescaped to ``'``.
    """
    pattern = _ASCII if text.isascii() else _unicode()
    tokens: list[Token] = []
    append = tokens.append
    keywords = KEYWORDS
    kinds = _GROUP_KINDS
    lexemes = _LEXEMES
    ident, keyword = TokenType.IDENT, TokenType.KEYWORD
    intern = sys.intern
    for match in pattern.finditer(text):
        group = match.lastindex
        if group == _WORD:
            word = match.group(group).lower()
            if word in keywords:
                append((keyword, word, match.start(group)))
            else:
                # Interned: aliases and names outlive the statement in
                # every view that spells them.
                append((ident, intern(word), match.start(group)))
        elif group is None:
            append((TokenType.EOF, "", match.end()))
            break
        elif group == _NUMBER:
            append((TokenType.NUMBER, match.group(group), match.start(group)))
        elif group == _STRING:
            body = match.group(group)[1:-1]
            append((TokenType.STRING, body.replace("''", "'"), match.start(group)))
        elif group == _BAD:
            char = match.group(group)
            message = (
                "unterminated string literal"
                if char == "'"
                else f"unexpected character {char!r}"
            )
            raise SqlSyntaxError(message, *position(text, match.start(group)))
        else:
            append((kinds[group], lexemes[match.group(group)], match.start(group)))
    return tokens


def position(text: str, offset: int) -> tuple[int, int]:
    """The 1-based ``(line, column)`` of ``offset`` in ``text``."""
    line_start = text.rfind("\n", 0, offset) + 1
    return text.count("\n", 0, offset) + 1, offset - line_start + 1
