"""Every syntax error keeps its message and its ``line:column``.

The table below was recorded from the seed's character-loop lexer and
``current``/``accept``/``expect`` parser, verbatim; the regex lexer and
the index-reading parser must report each malformed statement the same
way, now that positions are derived from token offsets on demand.
"""

import pytest

from repro import errors
from repro.sql import parser

# (entry point, text, exception type, str(exception))
MALFORMED = [
    ('parse', 'select', 'SqlSyntaxError', "expected an expression, found '' at line 1, column 7"),
    ('parse', 'select a', 'SqlSyntaxError', "expected FROM, found '' at line 1, column 9"),
    ('parse', 'select a from', 'SqlSyntaxError', "expected IDENT, found '' at line 1, column 14"),
    ('parse', 'select a, from t', 'SqlSyntaxError', "expected an expression, found 'from' at line 1, column 11"),
    ('parse', 'select a from t where', 'SqlSyntaxError', "expected an expression, found '' at line 1, column 22"),
    ('parse', 'select a from t where a', 'SqlSyntaxError', "expected a predicate, found '' at line 1, column 24"),
    ('parse', 'select a from t where a not 5', 'SqlSyntaxError', 'expected LIKE, BETWEEN or IN after NOT at line 1, column 29'),
    ('parse', 'select a from t where a like 5', 'SqlSyntaxError', "expected STRING, found '5' at line 1, column 30"),
    ('parse', 'select a from t where a between 1 or 2', 'SqlSyntaxError', "expected AND, found 'or' at line 1, column 35"),
    ('parse', 'select a from t where a in 1', 'SqlSyntaxError', "expected LPAREN, found '1' at line 1, column 28"),
    ('parse', 'select a from t where a in (1, 2', 'SqlSyntaxError', "expected RPAREN, found '' at line 1, column 33"),
    ('parse', 'select a from t where a is 5', 'SqlSyntaxError', "expected NULL, found '5' at line 1, column 28"),
    ('parse', 'select a from t where a = ', 'SqlSyntaxError', "expected an expression, found '' at line 1, column 27"),
    ('parse', 'select a from t where (a = 1', 'SqlSyntaxError', "expected RPAREN, found '=' at line 1, column 26"),
    ('parse', 'select a from t where a = 1 )', 'SqlSyntaxError', "unexpected trailing input ')' at line 1, column 29"),
    ('parse', 'select a from t group a', 'SqlSyntaxError', "expected BY, found 'a' at line 1, column 23"),
    ('parse', 'select a from t group by', 'SqlSyntaxError', "expected an expression, found '' at line 1, column 25"),
    ('parse', 'select a from t; select', 'SqlSyntaxError', "unexpected trailing input 'select' at line 1, column 18"),
    ('parse', 'select sum( from t', 'SqlSyntaxError', "expected an expression, found 'from' at line 1, column 13"),
    ('parse', 'select sum(a from t', 'SqlSyntaxError', "expected RPAREN, found 'from' at line 1, column 14"),
    ('parse', 'select t. from t', 'SqlSyntaxError', "expected IDENT, found 'from' at line 1, column 11"),
    ('parse', 'select a.b. from t', 'SqlSyntaxError', "expected IDENT, found 'from' at line 1, column 13"),
    ('parse', 'select a as from t', 'SqlSyntaxError', "expected IDENT, found 'from' at line 1, column 13"),
    ('parse', 'select a from t as', 'SqlSyntaxError', "expected IDENT, found '' at line 1, column 19"),
    ('parse', 'select a from s. where a = 1', 'SqlSyntaxError', "expected IDENT, found 'where' at line 1, column 18"),
    ('parse', 'select a from t join u where a = 1', 'SqlSyntaxError', "expected ON, found 'where' at line 1, column 24"),
    ('parse', 'select a from t inner u on a = b', 'SqlSyntaxError', "expected JOIN, found 'u' at line 1, column 23"),
    ('parse', 'select a\nfrom t\nwhere a = @', 'SqlSyntaxError', "unexpected character '@' at line 3, column 11"),
    ('parse', 'select a\n  from t\n where a ! b', 'SqlSyntaxError', "unexpected character '!' at line 3, column 10"),
    ('parse', "select 'oops from t", 'SqlSyntaxError', 'unterminated string literal at line 1, column 8'),
    ('parse', "select a from t where b = 'x''", 'SqlSyntaxError', 'unterminated string literal at line 1, column 27'),
    ('parse', 'select a -- note\nfrom t where\n  and b', 'SqlSyntaxError', "expected an expression, found 'and' at line 3, column 3"),
    ('parse', 'select a from t where a = 1 -- trailing\n extra', 'SqlSyntaxError', "unexpected trailing input 'extra' at line 2, column 2"),
    ('parse', 'create view as select a from t', 'SqlSyntaxError', "expected IDENT, found 'as' at line 1, column 13"),
    ('parse', 'create view v with as select a from t', 'SqlSyntaxError', "expected SCHEMABINDING, found 'as' at line 1, column 20"),
    ('parse', 'create view v select a from t', 'SqlSyntaxError', "expected AS, found 'select' at line 1, column 15"),
    ('parse', 'create index on t (a)', 'SqlSyntaxError', "expected IDENT, found 'on' at line 1, column 14"),
    ('parse', 'create unique index i t (a)', 'SqlSyntaxError', "expected ON, found 't' at line 1, column 23"),
    ('parse', 'create index i on t a', 'SqlSyntaxError', "expected LPAREN, found 'a' at line 1, column 21"),
    ('parse', 'create index i on t (a,)', 'SqlSyntaxError', "expected IDENT, found ')' at line 1, column 24"),
    ('parse', 'create index i on t (a', 'SqlSyntaxError', "expected RPAREN, found '' at line 1, column 23"),
    ('parse', 'create table t', 'SqlSyntaxError', "expected INDEX, found 'table' at line 1, column 8"),
    ('parse', 'update t', 'SqlSyntaxError', "expected SELECT, found 'update' at line 1, column 1"),
    ('parse', '', 'SqlSyntaxError', "expected SELECT, found '' at line 1, column 1"),
    ('parse', 'select * from t', 'UnsupportedSqlError', 'SELECT * is not supported; indexable views require explicit output lists'),
    ('parse', 'select a from t group by a having a > 1', 'UnsupportedSqlError', 'HAVING is outside the supported SPJG class'),
    ('parse_select', 'create view v as select a from t', 'SqlSyntaxError', 'expected a SELECT statement'),
    ('parse_view', 'select a from t', 'SqlSyntaxError', 'expected a CREATE VIEW statement'),
    ('parse_expression', 'a +', 'SqlSyntaxError', "expected an expression, found '' at line 1, column 4"),
    ('parse_expression', 'a + b c', 'SqlSyntaxError', "unexpected trailing input 'c' at line 1, column 7"),
    ('parse_expression', '(a + b', 'SqlSyntaxError', "expected RPAREN, found '' at line 1, column 7"),
    ('parse_expression', '- * 2', 'SqlSyntaxError', "expected an expression, found '*' at line 1, column 3"),
    ('parse_predicate', 'a = 1 and', 'SqlSyntaxError', "expected an expression, found '' at line 1, column 10"),
    ('parse_predicate', 'not', 'SqlSyntaxError', "expected an expression, found '' at line 1, column 4"),
    ('parse_predicate', 'a = 1 or or b = 2', 'SqlSyntaxError', "expected an expression, found 'or' at line 1, column 10"),
    ('parse_predicate', '(a + b) 5', 'SqlSyntaxError', "expected a predicate, found '5' at line 1, column 9"),
]


def test_table_covers_the_front_end():
    assert len(MALFORMED) >= 20
    messages = {message.split(",")[0].split(" at line")[0] for *_, message in MALFORMED}
    assert len(messages) >= 20  # distinct error sites, not one repeated


@pytest.mark.parametrize("entry, text, kind, message", MALFORMED)
def test_malformed_statement(entry, text, kind, message):
    with pytest.raises(errors.ReproError) as info:
        getattr(parser, entry)(text)
    assert type(info.value).__name__ == kind
    assert str(info.value) == message
    if " at line " in message:
        line, column = message.rsplit(" at line ", 1)[1].split(", column ")
        assert (info.value.line, info.value.column) == (int(line), int(column))
