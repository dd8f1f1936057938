"""The regex lexer against the character-loop lexer it replaced.

``_reference_lexer.tokenize`` is the oracle: on every input the two must
produce the same ``(kind, value, line, column)`` stream, or raise a
``SqlSyntaxError`` with the same message at the same ``line:column``.
Inputs are the workload generator's SQL (what the benchmark registers),
the difftest corpus, and fuzzed strings biased towards the lexer's edge
cases.
"""

import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import SqlSyntaxError
from repro.sql import statement_to_sql
from repro.sql.tokens import position, tokenize
from repro.workload import WorkloadGenerator

from ._reference_lexer import tokenize as reference_tokenize

CORPUS_DIR = Path(__file__).parent.parent / "difftest" / "corpus"


def lexed(text):
    try:
        return [
            (kind, value, *position(text, offset))
            for kind, value, offset in tokenize(text)
        ]
    except SqlSyntaxError as error:
        return (str(error), error.line, error.column)


def reference_lexed(text):
    try:
        return [
            (token.type, token.value, token.line, token.column)
            for token in reference_tokenize(text)
        ]
    except SqlSyntaxError as error:
        return (str(error), error.line, error.column)


def test_generator_sql(catalog, paper_stats):
    generator = WorkloadGenerator(catalog, paper_stats, seed=7)
    statements = [view.statement for _, view in generator.generate_views(60)]
    statements += [query.statement for query in generator.generate_queries(60)]
    for statement in statements:
        text = statement_to_sql(statement)
        assert lexed(text) == reference_lexed(text)
        assert lexed(text.upper()) == reference_lexed(text.upper())


def test_difftest_corpus():
    texts = []
    for path in sorted(CORPUS_DIR.glob("*.json")):
        case = json.loads(path.read_text())
        texts.append(case["query"])
        texts.extend(case["views"].values())
    assert texts
    for text in texts:
        assert lexed(text) == reference_lexed(text)


EDGE_CASES = [
    "",
    "1 .5",
    "1.",
    "1..5",
    "1.5.3",
    ".5.",
    "1e5",
    "1.x",
    "''",
    "''''",
    "'it''s'",
    "'abc''",
    "'''",
    "'two\nlines' @",
    "a -- comment at the end",
    "a --\n--\nb",
    "1--2",
    "a - -b",
    "a ! b",
    "a != b",
    "a <> b <= c >= d",
    "select @",
    "a\n\n  b\r\n\tc",
    "a\x0cb\x1cc d e",
    "SéLECT naïve_ßtraße, 列 FROM tåble",
    "_x x_ _",
    "² Ⅷ ½ a² xⅧ",  # superscript two, roman eight, one half
    "٣ ٣.٣ 1٣",  # arabic-indic digits
    "select a\nfrom t\nwhere 'unterminated",
    "a;b;;",
    "f(*)*2/3%4",
]


@pytest.mark.parametrize("text", EDGE_CASES)
def test_edge_case(text):
    assert lexed(text) == reference_lexed(text)


# Lexemes and near-lexemes; joining random runs of them reaches the
# boundaries between token classes far more often than random characters.
_FRAGMENTS = st.sampled_from(
    [
        "select", "FROM", "Where", "and", "x", "l_orderkey", "_", "t1", "é", "列",
        "0", "42", "3.14", ".5", "1.", "٣", "²", "½", "Ⅷ",
        "'", "''", "'a'", "'it''s'", "'\n'",
        "--", "-- note", "-", "+", "*", "/", "%", "=", "<", ">", "<=", ">=", "<>",
        "!=", "!", ".", ",", "(", ")", ";", "@", "#", '"', "\\",
        " ", "  ", "\n", "\r\n", "\t", "\x1c", " ",
    ]
)


@settings(max_examples=600, deadline=None)
@given(st.lists(_FRAGMENTS, max_size=12).map("".join))
@example("'abc''")
@example("1..5")
def test_fuzzed_fragments(text):
    assert lexed(text) == reference_lexed(text)


@settings(max_examples=400, deadline=None)
@given(st.text(max_size=24))
def test_fuzzed_text(text):
    assert lexed(text) == reference_lexed(text)
