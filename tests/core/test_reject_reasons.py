"""One minimal view/query pair per :class:`RejectReason` variant.

The rewrite-path tracer and the ``explain-rewrite`` report surface
``reject_reason`` and ``reject_detail`` for every eliminated candidate,
so every rejection site must classify the failure *and* say which
expression caused it. Each test here pins one variant with the smallest
pair that triggers it and asserts the detail string is populated.
"""

import pytest

from repro.core import RejectReason, describe, match_view


def match(catalog, view_sql, query_sql):
    view = describe(catalog.bind_sql(view_sql), catalog, name="v")
    query = describe(catalog.bind_sql(query_sql), catalog)
    return match_view(query, view)


def assert_rejected(result, reason):
    assert result.reject_reason is reason
    assert result.reject_detail, (
        f"{reason.name} rejection must carry a non-empty detail string"
    )


class TestEveryRejectReasonCarriesDetail:
    def test_view_kind(self, catalog):
        result = match(
            catalog,
            "select l_orderkey as k, count_big(*) as cnt from lineitem "
            "group by l_orderkey",
            "select l_orderkey from lineitem",
        )
        assert_rejected(result, RejectReason.VIEW_KIND)

    def test_tables(self, catalog):
        result = match(
            catalog,
            "select l_orderkey as k from lineitem",
            "select l_orderkey from lineitem, orders "
            "where l_orderkey = o_orderkey",
        )
        assert_rejected(result, RejectReason.TABLES)

    def test_extra_tables(self, catalog):
        # lineitem is on the FK side; joining it multiplies orders rows,
        # so the extra table cannot be eliminated.
        result = match(
            catalog,
            "select o_orderkey as k from lineitem, orders "
            "where l_orderkey = o_orderkey",
            "select o_orderkey from orders",
        )
        assert_rejected(result, RejectReason.EXTRA_TABLES)

    def test_nullable_fk(self, two_table_catalog):
        # The child->optional_parent FK is nullable and the query has no
        # null-rejecting predicate on the FK column.
        result = match(
            two_table_catalog,
            "select ck as c, cdata as d from child, optional_parent "
            "where opt_id = opk",
            "select ck, cdata from child",
        )
        assert_rejected(result, RejectReason.NULLABLE_FK)

    def test_equijoin(self, catalog):
        result = match(
            catalog,
            "select l_orderkey as k from lineitem "
            "where l_shipdate = l_commitdate",
            "select l_orderkey from lineitem",
        )
        assert_rejected(result, RejectReason.EQUIJOIN)

    def test_range(self, catalog):
        result = match(
            catalog,
            "select l_orderkey as k from lineitem where l_quantity >= 20",
            "select l_orderkey from lineitem where l_quantity >= 10",
        )
        assert_rejected(result, RejectReason.RANGE)

    def test_residual(self, catalog):
        result = match(
            catalog,
            "select l_orderkey as k from lineitem "
            "where l_comment like '%rush%'",
            "select l_orderkey from lineitem",
        )
        assert_rejected(result, RejectReason.RESIDUAL)

    def test_predicate_mapping(self, catalog):
        # The compensating range on l_quantity is not computable from the
        # view's single output column.
        result = match(
            catalog,
            "select l_orderkey as k from lineitem",
            "select l_orderkey from lineitem where l_quantity >= 10",
        )
        assert_rejected(result, RejectReason.PREDICATE_MAPPING)

    def test_output_mapping(self, catalog):
        result = match(
            catalog,
            "select l_orderkey as k from lineitem",
            "select l_orderkey, l_quantity from lineitem",
        )
        assert_rejected(result, RejectReason.OUTPUT_MAPPING)

    def test_grouping(self, catalog):
        result = match(
            catalog,
            "select o_custkey as c, sum(o_totalprice) as total, "
            "count_big(*) as cnt from orders group by o_custkey",
            "select o_clerk, sum(o_totalprice) from orders group by o_clerk",
        )
        assert_rejected(result, RejectReason.GROUPING)

    def test_aggregate(self, catalog):
        result = match(
            catalog,
            "select o_custkey as c, sum(o_totalprice) as total, "
            "count_big(*) as cnt from orders group by o_custkey",
            "select o_custkey, sum(o_shippriority) from orders "
            "group by o_custkey",
        )
        assert_rejected(result, RejectReason.AGGREGATE)

    def test_stale(self, catalog):
        # STALE is produced by the matcher's staleness policy, not by
        # match_view: the candidate is excluded before structural
        # matching runs, carrying the policy's detail string.
        from repro.core import ViewMatcher

        matcher = ViewMatcher(catalog)
        matcher.register_view(
            "v", catalog.bind_sql("select l_orderkey as k from lineitem")
        )
        results = matcher.match(
            catalog.bind_sql("select l_orderkey from lineitem"),
            staleness=lambda name: f"view {name} lags the log head",
        )
        assert len(results) == 1
        assert_rejected(results[0], RejectReason.STALE)


def test_every_variant_is_covered():
    """This module pins all RejectReason variants; fail fast if one is added."""
    covered = {
        name.removeprefix("test_").upper()
        for name in dir(TestEveryRejectReasonCarriesDetail)
        if name.startswith("test_")
    }
    assert covered == {reason.name for reason in RejectReason}
