"""Probe compilation: the probe staleness regression across interner
growth."""

from repro.core import FilterTree, describe


class TestBoundProbeStaleness:
    """Regression: a description probed before a registration must see
    atoms the registration interned (probes are compiled per search, so
    nothing bound earlier can go stale)."""

    QUERY = (
        "select l_orderkey, o_orderdate from lineitem, orders "
        "where l_orderkey = o_orderkey"
    )
    VIEW = (
        "select l_orderkey as k, o_orderdate as d from lineitem, orders "
        "where l_orderkey = o_orderkey"
    )

    def test_candidates_after_later_registration(self, catalog):
        tree = FilterTree()
        query = describe(catalog.bind_sql(self.QUERY), catalog)
        # First probe compiles against an interner that has never seen
        # the query's atoms (the tree is empty).
        assert tree.candidates(query) == []
        tree.register(describe(catalog.bind_sql(self.VIEW), catalog, name="v1"))
        # The same description must now find the view.
        assert [view.name for view in tree.candidates(query)] == ["v1"]
