"""White-box tests for the optimizer's search machinery."""

import pytest

from repro.core import ViewMatcher
from repro.optimizer.optimizer import _Search, Optimizer


@pytest.fixture()
def searcher(catalog, paper_stats):
    optimizer = Optimizer(catalog, paper_stats)

    def make(sql):
        return _Search(optimizer, catalog.bind_sql(sql))

    return make


def _mask(search, *tables):
    return search.analysis.mask_of(tables)


class TestJoinGraph:
    def test_edges_from_equijoins(self, searcher):
        search = searcher(
            "select l_orderkey from lineitem, orders, customer "
            "where l_orderkey = o_orderkey and o_custkey = c_custkey"
        )
        assert search._join_edges() == {
            _mask(search, "lineitem", "orders"),
            _mask(search, "orders", "customer"),
        }

    def test_range_predicates_are_not_edges(self, searcher):
        search = searcher(
            "select l_orderkey from lineitem, orders "
            "where l_orderkey = o_orderkey and o_custkey > 5"
        )
        assert len(search._join_edges()) == 1

    def test_connected_subsets_of_a_chain(self, searcher):
        search = searcher(
            "select l_orderkey from lineitem, orders, customer "
            "where l_orderkey = o_orderkey and o_custkey = c_custkey"
        )
        subsets = search._connected_subsets()
        # A 3-chain has 3 singletons + 2 pairs + 1 triple = 6.
        assert len(subsets) == 6
        assert _mask(search, "lineitem", "customer") not in subsets
        assert _mask(search, "lineitem", "orders", "customer") in subsets

    def test_connected_subsets_of_a_star(self, searcher):
        search = searcher(
            "select l_orderkey from lineitem, orders, part, supplier "
            "where l_orderkey = o_orderkey and l_partkey = p_partkey "
            "and l_suppkey = s_suppkey"
        )
        subsets = search._connected_subsets()
        # Star with center lineitem: all subsets containing lineitem plus
        # the four singletons: 8 + 4 = ... center subsets = 2^3 = 8, total 11.
        assert len(subsets) == 11

    def test_component_detection(self, searcher):
        search = searcher("select r_name, n_name from region, nation")
        assert search._component_set() == {
            _mask(search, "region"),
            _mask(search, "nation"),
        }


def _needed(search, *tables):
    return search.analysis.needed_columns(_mask(search, *tables))


class TestBlockConstruction:
    def test_local_conjuncts_assignment(self, searcher):
        search = searcher(
            "select l_orderkey from lineitem, orders "
            "where l_orderkey = o_orderkey and l_quantity > 5 and o_custkey < 9"
        )
        block = search._block(_mask(search, "lineitem"))
        # Only the quantity predicate is local to lineitem.
        assert block.statement.where == search.analysis.conjuncts[1]
        assert len(block.classified.range_predicates) == 1

    def test_needed_columns_cover_join_and_output(self, searcher):
        search = searcher(
            "select l_quantity from lineitem, orders where l_orderkey = o_orderkey"
        )
        needed = {ref.key for ref in _needed(search, "lineitem")}
        assert needed == {
            ("lineitem", "l_quantity"),
            ("lineitem", "l_orderkey"),
        }

    def test_needed_columns_include_aggregate_arguments(self, searcher):
        search = searcher(
            "select o_custkey, sum(l_quantity) from lineitem, orders "
            "where l_orderkey = o_orderkey group by o_custkey"
        )
        needed = {ref.key for ref in _needed(search, "lineitem")}
        assert ("lineitem", "l_quantity") in needed

    def test_unreferenced_block_gets_placeholder_column(self, searcher):
        search = searcher("select r_name from region, nation")
        needed = _needed(search, "nation")
        assert len(needed) == 1

    def test_block_statement_shape(self, searcher):
        search = searcher(
            "select l_quantity from lineitem, orders "
            "where l_orderkey = o_orderkey and l_partkey > 5"
        )
        block = search._block(_mask(search, "lineitem")).statement
        assert block.table_names() == ("lineitem",)
        assert block.where is not None  # the l_partkey filter
        assert not block.is_aggregate


class TestSplits:
    def test_splits_partition_and_are_canonical(self, searcher):
        search = searcher(
            "select l_orderkey from lineitem, orders, customer "
            "where l_orderkey = o_orderkey and o_custkey = c_custkey"
        )
        for subset in search._connected_subsets():
            search.best[subset] = object()  # placeholder plans
        full = _mask(search, "lineitem", "orders", "customer")
        splits = list(search._splits(full))
        anchor = full & -full  # the table first in name order
        assert splits  # customer | lineitem+orders, customer+orders | lineitem
        for left, right in splits:
            assert left | right == full
            assert not (left & right)
            assert anchor & left


class TestDisconnectedGroups:
    """A query over join-graph components the optimizer cross-joins:
    the components are found once, and the plan is the one the search
    picked when it rebuilt them for every planned subset."""

    @pytest.fixture(scope="class")
    def optimizer(self, catalog, paper_stats):
        matcher = ViewMatcher(catalog)
        matcher.register_view(
            "lo",
            catalog.bind_sql(
                "select l_orderkey as k, l_quantity as q, o_orderdate as d "
                "from lineitem, orders "
                "where l_orderkey = o_orderkey and l_quantity >= 5"
            ),
        )
        matcher.register_view(
            "pps",
            catalog.bind_sql(
                "select p_partkey as pk, p_name as n, ps_availqty as a "
                "from part, partsupp where p_partkey = ps_partkey"
            ),
        )
        return Optimizer(catalog, paper_stats, matcher=matcher)

    @pytest.mark.parametrize(
        "sql, cost, views",
        [
            (
                "select l_orderkey, l_quantity, p_name "
                "from lineitem, orders, part, partsupp "
                "where l_orderkey = o_orderkey and p_partkey = ps_partkey "
                "and l_quantity > 10",
                1077554451020.4082,
                ("lo", "pps"),
            ),
            (
                "select l_orderkey, p_name, r_name "
                "from lineitem, orders, part, partsupp, region "
                "where l_orderkey = o_orderkey and p_partkey = ps_partkey "
                "and l_quantity > 10 and ps_availqty < 100",
                63052815180.03501,
                ("lo", "pps"),
            ),
            ("select r_name, n_name from region, nation", 167.5, ()),
        ],
        ids=["two-groups", "three-groups", "two-tables"],
    )
    def test_plan_is_unchanged(self, optimizer, catalog, sql, cost, views):
        result = optimizer.optimize(catalog.bind_sql(sql))
        assert (result.cost, result.view_names) == (cost, views)
