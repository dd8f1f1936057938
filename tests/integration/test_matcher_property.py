"""Property-based soundness: random view/query pairs, executed and compared.

Complements the workload-based integration test with an adversarial
generator: hypothesis builds small random SPJG views and queries over a
two-table schema with tiny value domains (so that predicates actually
select overlapping row sets and the interesting code paths -- compensations,
regrouping, extra-table elimination -- fire constantly), materializes the
view, and whenever the matcher accepts, executes both sides.

The property: **if the matcher produces a substitute, the substitute's
rows equal the query's rows as a bag.** (When the matcher rejects, nothing
is asserted -- the algorithm is deliberately conservative.)
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import Catalog, Column, ColumnType, ForeignKey, Table
from repro.core import describe, match_view
from repro.core.describe import validate_view_description
from repro.engine import Database, execute, materialize_view
from repro.errors import MatchError
from repro.sql import statement_to_sql
from repro.sql.expressions import (
    BinaryOp,
    ColumnRef,
    Expression,
    FuncCall,
    conjunction,
)
from repro.sql.statements import SelectItem, SelectStatement, TableRef


def build_catalog() -> Catalog:
    catalog = Catalog()
    catalog.add_table(
        Table(
            name="dim",
            columns=(Column("dk"), Column("dval"), Column("dgrp")),
            primary_key=("dk",),
        )
    )
    catalog.add_table(
        Table(
            name="fact",
            columns=(
                Column("fk"),
                Column("dim_id"),
                Column("a"),
                Column("b"),
            ),
            primary_key=("fk",),
            foreign_keys=(ForeignKey(("dim_id",), "dim", ("dk",)),),
        )
    )
    return catalog


def build_database() -> Database:
    """Small but dense data: every combination of tiny domains appears."""
    database = Database()
    dim_rows = [(k, k % 3, k % 2) for k in range(6)]
    database.store("dim", ("dk", "dval", "dgrp"), dim_rows)
    fact_rows = []
    key = 0
    for dim_id in range(6):
        for a in range(4):
            for b in range(3):
                fact_rows.append((key, dim_id, a, b))
                key += 1
    database.store("fact", ("fk", "dim_id", "a", "b"), fact_rows)
    return database


CATALOG = build_catalog()
DATABASE = build_database()

FACT_COLUMNS = ["fk", "dim_id", "a", "b"]
DIM_COLUMNS = ["dk", "dval", "dgrp"]

# -- statement strategies ---------------------------------------------------

range_ops = st.sampled_from(["=", "<", "<=", ">", ">="])


def range_predicates(tables: list[str]) -> st.SearchStrategy[list[Expression]]:
    choices = []
    if "fact" in tables:
        choices += [("fact", c, 4) for c in ("a", "b", "dim_id")]
    if "dim" in tables:
        choices += [("dim", c, 6 if c == "dk" else 3) for c in DIM_COLUMNS]
    column = st.sampled_from(choices)
    predicate = st.builds(
        lambda col, op, frac: BinaryOp(
            op, ColumnRef(col[0], col[1]), _literal(int(frac * col[2]))
        ),
        column,
        range_ops,
        st.floats(min_value=0, max_value=1),
    )
    return st.lists(predicate, max_size=3)


def _literal(value: int):
    from repro.sql.expressions import Literal

    return Literal(value)


@st.composite
def spjg_statements(draw, for_view: bool):
    tables = draw(st.sampled_from([["fact"], ["dim"], ["fact", "dim"]]))
    predicates: list[Expression] = []
    if tables == ["fact", "dim"]:
        predicates.append(
            BinaryOp("=", ColumnRef("fact", "dim_id"), ColumnRef("dim", "dk"))
        )
    predicates.extend(draw(range_predicates(tables)))
    available = [
        ("fact", c) for c in FACT_COLUMNS if "fact" in tables
    ] + [("dim", c) for c in DIM_COLUMNS if "dim" in tables]
    outputs = draw(
        st.lists(st.sampled_from(available), min_size=1, max_size=4, unique=True)
    )
    aggregate = draw(st.booleans())
    if not aggregate:
        items = tuple(
            SelectItem(ColumnRef(t, c), alias=f"{t}_{c}" if for_view else None)
            for t, c in outputs
        )
        return SelectStatement(
            select_items=items,
            from_tables=tuple(TableRef(t) for t in tables),
            where=conjunction(predicates),
        )
    group_count = draw(st.integers(min_value=1, max_value=len(outputs)))
    grouping = outputs[:group_count]
    sum_columns = outputs[group_count:]
    items = [
        SelectItem(ColumnRef(t, c), alias=f"{t}_{c}" if for_view else None)
        for t, c in grouping
    ]
    for t, c in sum_columns:
        items.append(
            SelectItem(
                FuncCall("sum", (ColumnRef(t, c),)),
                alias=f"sum_{t}_{c}" if for_view else None,
            )
        )
    if for_view:
        items.append(SelectItem(FuncCall("count_big", star=True), alias="cnt"))
    elif draw(st.booleans()):
        items.append(SelectItem(FuncCall("count", star=True)))
    return SelectStatement(
        select_items=tuple(items),
        from_tables=tuple(TableRef(t) for t in tables),
        where=conjunction(predicates),
        group_by=tuple(ColumnRef(t, c) for t, c in grouping),
    )


@settings(max_examples=400, deadline=None)
@given(spjg_statements(for_view=True), spjg_statements(for_view=False))
def test_accepted_substitutes_are_sound(view_statement, query_statement):
    view_description = describe(view_statement, CATALOG, name="v")
    try:
        validate_view_description(view_description)
    except MatchError:
        return  # not an indexable view; nothing to test
    query_description = describe(query_statement, CATALOG)
    result = match_view(query_description, view_description)
    if not result.matched:
        return
    database = Database()
    for name in DATABASE.names():
        relation = DATABASE.relation(name)
        database.store(name, relation.columns, relation.rows)
    materialize_view("v", view_statement, database)
    expected = execute(query_statement, database)
    actual = execute(result.substitute, database)
    assert expected.bag_equals(actual, float_digits=9), (
        f"\nquery: {statement_to_sql(query_statement)}"
        f"\nview:  {statement_to_sql(view_statement)}"
        f"\nsub:   {statement_to_sql(result.substitute)}"
        f"\nexpected {sorted(expected.rows)[:8]} ..."
        f"\nactual   {sorted(actual.rows)[:8]} ..."
    )


EXTENSION_OPTIONS = __import__("repro").MatchOptions(allow_backjoins=True)


@settings(max_examples=300, deadline=None)
@given(spjg_statements(for_view=True), spjg_statements(for_view=False))
def test_accepted_substitutes_are_sound_with_extensions(
    view_statement, query_statement
):
    """The same soundness property with back-joins enabled."""
    view_description = describe(view_statement, CATALOG, name="v")
    try:
        validate_view_description(view_description)
    except MatchError:
        return
    query_description = describe(query_statement, CATALOG)
    result = match_view(query_description, view_description, EXTENSION_OPTIONS)
    if not result.matched:
        return
    database = Database()
    for name in DATABASE.names():
        relation = DATABASE.relation(name)
        database.store(name, relation.columns, relation.rows)
    materialize_view("v", view_statement, database)
    expected = execute(query_statement, database)
    actual = execute(result.substitute, database)
    assert expected.bag_equals(actual, float_digits=9), (
        f"\nquery: {statement_to_sql(query_statement)}"
        f"\nview:  {statement_to_sql(view_statement)}"
        f"\nsub:   {statement_to_sql(result.substitute)}"
    )


@settings(max_examples=200, deadline=None)
@given(spjg_statements(for_view=True))
def test_every_view_answers_itself(view_statement):
    """Reflexivity: a view must always be able to answer its own query."""
    view_description = describe(view_statement, CATALOG, name="v")
    try:
        validate_view_description(view_description)
    except MatchError:
        return
    # Strip aliases so the query looks like a user query over base tables.
    query_statement = SelectStatement(
        select_items=tuple(
            SelectItem(item.expression, alias=None)
            for item in view_statement.select_items
        ),
        from_tables=view_statement.from_tables,
        where=view_statement.where,
        group_by=view_statement.group_by,
    )
    query_description = describe(query_statement, CATALOG)
    result = match_view(query_description, view_description)
    assert result.matched, (
        f"view failed to answer itself: {statement_to_sql(view_statement)} "
        f"({result.reject_reason}: {result.reject_detail})"
    )
    assert result.substitute.where is None
    assert not result.regrouped
