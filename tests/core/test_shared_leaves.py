"""Bound leaves are shared per catalog, and sharing stays bounded.

Binding hands out the catalog's own ``ColumnRef`` / ``TableRef`` objects
instead of rebuilding the tree around fresh copies, and
``ShallowForm.shared`` keeps one form per expression whose variety the
schema bounds. Both tables must stop growing however many statements
pass through, and nothing holding a literal may ever be kept. Names are
shared too: a catalog ref's key tuple, lexed identifiers, and the table
sets descriptions and hubs keep.
"""

import pytest

from repro.catalog import tpch_catalog
from repro.core.analyze import intern_tables
from repro.core.describe import describe
from repro.core.fkgraph import compute_hub
from repro.core.residual import ShallowForm
from repro.sql import (
    ColumnRef,
    FuncCall,
    Literal,
    parse_expression,
    parse_predicate,
    parse_select,
    statement_to_sql,
)
from repro.sql.binder import bind_statement
from repro.sql.expressions import QUERY_AGGREGATES
from repro.workload import WorkloadGenerator


def column_refs(statement):
    return [ref for e in statement.expressions() for ref in e.column_refs()]


class TestSharedLeaves:
    def test_one_column_ref_per_column_and_catalog(self):
        catalog = tpch_catalog()
        first = bind_statement(
            parse_select("select l_orderkey from lineitem where l_quantity > 5"),
            catalog,
        )
        second = bind_statement(
            parse_select(
                "select sum(l.l_quantity) as q, l.l_orderkey from lineitem l "
                "group by l.l_orderkey"
            ),
            catalog,
        )
        by_key = {ref.key: ref for ref in column_refs(first)}
        assert set(by_key) == {("lineitem", "l_orderkey"), ("lineitem", "l_quantity")}
        for ref in column_refs(second):
            assert ref is by_key[ref.key]
            assert ref is catalog.column_ref(*ref.key)
        assert first.from_tables[0] is second.from_tables[0]

    def test_equal_but_distinct_across_catalogs(self):
        sql = "select o_orderkey from orders where o_totalprice > 10"
        one = tpch_catalog().bind_sql(sql)
        other = tpch_catalog().bind_sql(sql)
        assert one == other
        for mine, theirs in zip(column_refs(one), column_refs(other)):
            assert mine == theirs and mine is not theirs
        assert one.from_tables[0] is not other.from_tables[0]

    def test_unknown_column_is_not_interned(self):
        catalog = tpch_catalog()
        assert catalog.column_ref("lineitem", "nope") is None
        assert catalog.column_ref("nosuch", "l_orderkey") is None

    def test_literals_are_not_shared(self):
        catalog = tpch_catalog()
        sql = "select l_orderkey from lineitem where l_quantity > 5"
        one, other = catalog.bind_sql(sql), catalog.bind_sql(sql)
        assert one.where.left is other.where.left
        assert one.where.right == other.where.right
        assert one.where.right is not other.where.right


    def test_generated_statements_use_the_catalog_leaves(self, paper_stats):
        catalog = tpch_catalog()
        generator = WorkloadGenerator(catalog, paper_stats, seed=42)
        statements = [view.statement for _, view in generator.generate_views(200)]
        statements += [query.statement for query in generator.generate_queries(200)]
        for statement in statements:
            for ref in column_refs(statement):
                assert ref is catalog.column_ref(*ref.key)
            for table in statement.from_tables:
                assert table is catalog.table_ref(table.name)


class TestSharedNames:
    def test_a_catalog_ref_builds_its_key_once(self):
        catalog = tpch_catalog()
        ref = catalog.column_ref("lineitem", "l_orderkey")
        assert ref.key is ref.key
        assert ref.key == ("lineitem", "l_orderkey")
        parsed = ColumnRef("lineitem", "l_orderkey")
        assert parsed == ref and hash(parsed) == hash(ref)
        assert parsed.key == ref.key
        assert "_key" not in vars(parsed)  # only catalog refs store one

    def test_an_unbound_ref_has_no_key(self):
        with pytest.raises(ValueError, match="unbound column reference: x"):
            ColumnRef(None, "x").key

    def test_identifiers_are_interned(self):
        # Spelled differently and built at run time, so only the lexer
        # can make the lowered names the same object.
        one = parse_select("select l_orderkey as " + "Qty" + "_" + "A from lineitem")
        other = parse_select("SELECT L_ORDERKEY AS QTY_a FROM LINEITEM")
        assert one.select_items[0].alias is other.select_items[0].alias

    def test_table_sets_are_shared_per_iteration_order(self):
        catalog = tpch_catalog()
        names = ["lineitem", "orders", "customer", "nation", "region"]
        seen = {}
        for start in range(len(names)):
            for step in (1, -1):
                order = [names[(start + step * i) % len(names)] for i in range(5)]
                for size in range(1, 6):
                    built = frozenset(order[:size])
                    interned = intern_tables(catalog, built)
                    assert interned == built
                    assert tuple(interned) == tuple(built)
                    assert seen.setdefault(tuple(built), interned) is interned

    def test_descriptions_and_hubs_share_table_sets(self):
        catalog = tpch_catalog()
        sql = (
            "select l_orderkey, o_custkey from lineitem, orders "
            "where l_orderkey = o_orderkey"
        )
        one = describe(catalog.bind_sql(sql), catalog)
        other = describe(catalog.bind_sql(sql), catalog)
        assert one.tables is other.tables
        assert compute_hub(one) is compute_hub(other)


class TestIdentityPreservingTransform:
    def test_identity_function_returns_self(self):
        for text in (
            "a + b * (c - 1)",
            "sum(t.a * (1 - t.b))",
            "-a",
            "count_big(*)",
        ):
            expression = parse_expression(text)
            assert expression.transform(lambda node: node) is expression
        predicate = parse_predicate(
            "a = 1 and (b like 'x%' or c in (1, 2)) and not d is null"
        )
        assert predicate.transform(lambda node: node) is predicate

    def test_only_the_ancestors_of_a_change_are_rebuilt(self):
        predicate = parse_predicate("t.a + 1 > 2 and t.b < 3")
        replacement = ColumnRef("u", "a")
        rewritten = predicate.transform(
            lambda node: replacement if node == ColumnRef("t", "a") else node
        )
        assert rewritten == parse_predicate("u.a + 1 > 2 and t.b < 3")
        assert rewritten is not predicate
        assert rewritten.conjuncts[1] is predicate.conjuncts[1]
        assert rewritten.conjuncts[0].right is predicate.conjuncts[0].right


class TestSharedShallowForms:
    def test_forms_of_columns_and_aggregates_are_shared(self):
        catalog = tpch_catalog()
        column = catalog.column_ref("lineitem", "l_quantity")
        for expression in (
            column,
            FuncCall("sum", (column,)),
            FuncCall("count_big", star=True),
        ):
            form = ShallowForm.shared(expression, catalog)
            assert form == ShallowForm.of(expression)
            # An equal expression built elsewhere finds the same form.
            twin = parse_expression(str(expression))
            assert ShallowForm.shared(twin, catalog) is form

    def test_a_form_holding_a_literal_is_never_kept(self):
        catalog = tpch_catalog()
        column = catalog.column_ref("lineitem", "l_quantity")
        for expression in (
            Literal(5),
            parse_predicate("lineitem.l_quantity > 5"),
            parse_expression("lineitem.l_quantity * 2"),
            FuncCall("sum", (parse_expression("lineitem.l_quantity * 2"),)),
            FuncCall("sum", (Literal(1),)),
            FuncCall("coalesce", (column,)),  # not an aggregate: any name
            ColumnRef("lineitem", "no_such_column"),
            ColumnRef(None, "l_quantity"),
        ):
            form = ShallowForm.shared(expression, catalog)
            assert form == ShallowForm.of(expression)
            assert ShallowForm.shared(expression, catalog) is not form
        assert catalog.shallow_forms == {}

    def test_tables_stop_growing_after_the_first_pass(self, paper_stats):
        catalog = tpch_catalog()
        columns = sum(len(table.columns) for table in catalog.tables())
        generator = WorkloadGenerator(catalog, paper_stats, seed=42)
        texts = [
            statement_to_sql(view.statement)
            for _, view in generator.generate_views(1000)
        ]

        def one_pass():
            for text in texts:
                description = describe(catalog.bind_sql(text), catalog)
                description.outputs, description.group_forms
            return len(catalog.shallow_forms), len(catalog._column_refs)

        forms, refs = one_pass()
        assert refs == columns  # made with the schema, never by binding
        assert 0 < forms <= (columns + 1) * (len(QUERY_AGGREGATES) + 1)
        assert one_pass() == (forms, refs)
        for expression, form in catalog.shallow_forms.items():
            assert not any(isinstance(n, Literal) for n in expression.walk())
            assert form == ShallowForm.of(expression)
