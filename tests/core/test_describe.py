"""SPJG description tests: derived metadata and view validation."""

import pytest

from repro.core import describe, validate_view_description
from repro.errors import MatchError, UnsupportedSqlError
from repro.sql import parse_select
from repro.sql.statements import SelectStatement

from ._reference_filtertree import RangeConstraintLevel
from ._reference_probe import extended_range_constrained_columns


def desc(catalog, sql, name=None):
    return describe(catalog.bind_sql(sql), catalog, name=name)


class TestBasics:
    def test_tables_and_classes(self, catalog):
        d = desc(
            catalog,
            "select l_orderkey from lineitem, orders where l_orderkey = o_orderkey",
        )
        assert d.tables == {"lineitem", "orders"}
        assert d.eqclasses.same_class(
            ("lineitem", "l_orderkey"), ("orders", "o_orderkey")
        )

    def test_ranges_derived_per_class(self, catalog):
        d = desc(
            catalog,
            "select l_orderkey from lineitem, orders "
            "where l_orderkey = o_orderkey and o_orderkey >= 500 and l_orderkey <= 900",
        )
        (interval,) = d.ranges.values()
        assert interval.lower.value == 500
        assert interval.upper.value == 900

    def test_residual_forms(self, catalog):
        d = desc(catalog, "select l_orderkey from lineitem where l_comment like '%x%'")
        assert [f.template for f in d.residual_forms] == ["(? LIKE '%x%')"]

    def test_is_aggregate(self, catalog):
        assert desc(
            catalog,
            "select o_custkey, count(*) from orders group by o_custkey",
        ).is_aggregate
        assert not desc(catalog, "select o_custkey from orders").is_aggregate

    def test_no_tables_rejected(self, catalog):
        with pytest.raises((UnsupportedSqlError, Exception)):
            describe(
                SelectStatement(select_items=(), from_tables=()), catalog
            )


class TestOutputMetadata:
    def test_simple_output_map(self, catalog):
        d = desc(catalog, "select l_orderkey, l_quantity as q from lineitem")
        assert d.simple_output_map == {
            ("lineitem", "l_orderkey"): "l_orderkey",
            ("lineitem", "l_quantity"): "q",
        }

    def test_extended_output_columns_include_class_members(self, catalog):
        d = desc(
            catalog,
            "select l_orderkey from lineitem, orders where l_orderkey = o_orderkey",
        )
        assert ("orders", "o_orderkey") in d.extended_output_columns()

    def test_output_templates_normalize_aggregates(self, catalog):
        d = desc(
            catalog,
            "select o_custkey, count(*) , sum(o_totalprice) from orders "
            "group by o_custkey",
        )
        templates = d.output_templates()
        assert "count_big(*)" in templates
        assert "sum(?)" in templates

    def test_avg_expands_to_sum_and_count(self, catalog):
        d = desc(
            catalog,
            "select o_custkey, avg(o_totalprice) from orders group by o_custkey",
        )
        templates = d.output_templates()
        assert "sum(?)" in templates and "count_big(*)" in templates

    def test_expression_outputs_excludes_constants(self, catalog):
        d = desc(catalog, "select 5, l_orderkey, l_quantity * 2 from lineitem")
        assert len(d.expression_outputs) == 1


class TestGroupingMetadata:
    def test_simple_grouping_columns(self, catalog):
        d = desc(
            catalog,
            "select o_custkey, o_orderdate, count(*) from orders "
            "group by o_custkey, o_orderdate",
        )
        assert d.simple_grouping_columns == {
            ("orders", "o_custkey"),
            ("orders", "o_orderdate"),
        }

    def test_extended_grouping_columns(self, catalog):
        d = desc(
            catalog,
            "select o_orderkey, count(*) from lineitem, orders "
            "where l_orderkey = o_orderkey group by o_orderkey",
        )
        assert ("lineitem", "l_orderkey") in d.extended_grouping_columns()

    def test_grouping_templates_only_for_expressions(self, catalog):
        d = desc(
            catalog,
            "select o_custkey, o_shippriority + 1, count(*) from orders "
            "group by o_custkey, o_shippriority + 1",
        )
        assert d.grouping_templates() == {"(? + 1)"}


class TestRangeMetadata:
    def test_constrained_classes(self, catalog):
        d = desc(
            catalog,
            "select l_orderkey from lineitem, orders "
            "where l_orderkey = o_orderkey and o_orderkey > 100",
        )
        (cls,) = d.range_constrained_classes()
        assert cls == {("lineitem", "l_orderkey"), ("orders", "o_orderkey")}

    def test_reduced_list_only_trivial_classes(self, catalog):
        d = desc(
            catalog,
            "select l_orderkey from lineitem, orders "
            "where l_orderkey = o_orderkey and o_orderkey > 100 and l_quantity < 5",
        )
        # The lattice walk orders its range level by this reduced list.
        level = RangeConstraintLevel()
        reduced = level.projection(level.view_key(d, frozenset()))
        assert reduced == {("c", "lineitem", "l_quantity")}

    def test_extended_constrained_columns(self, catalog):
        d = desc(
            catalog,
            "select l_orderkey from lineitem, orders "
            "where l_orderkey = o_orderkey and o_orderkey > 100",
        )
        assert extended_range_constrained_columns(d) == {
            ("lineitem", "l_orderkey"),
            ("orders", "o_orderkey"),
        }

    def test_columns_with_predicates_includes_residual_refs(self, catalog):
        d = desc(
            catalog,
            "select l_orderkey from lineitem "
            "where l_quantity > 5 and l_comment like '%x%'",
        )
        assert d.columns_with_predicates() == {
            ("lineitem", "l_quantity"),
            ("lineitem", "l_comment"),
        }


class TestViewValidation:
    def validate(self, catalog, sql):
        validate_view_description(desc(catalog, sql, name="v"))

    def test_valid_spj_view(self, catalog):
        self.validate(catalog, "select l_orderkey, l_quantity from lineitem")

    def test_valid_aggregation_view(self, catalog):
        self.validate(
            catalog,
            "select o_custkey, sum(o_totalprice) as s, count_big(*) as cnt "
            "from orders group by o_custkey",
        )

    def test_missing_count_big_rejected(self, catalog):
        with pytest.raises(MatchError, match="count_big"):
            self.validate(
                catalog,
                "select o_custkey, sum(o_totalprice) as s from orders "
                "group by o_custkey",
            )

    def test_avg_rejected_in_views(self, catalog):
        with pytest.raises(MatchError, match="SUM and COUNT_BIG"):
            self.validate(
                catalog,
                "select o_custkey, avg(o_totalprice) as a, count_big(*) as cnt "
                "from orders group by o_custkey",
            )

    def test_unnamed_output_rejected(self, catalog):
        with pytest.raises(MatchError, match="name"):
            self.validate(catalog, "select l_quantity * 2 from lineitem")

    def test_distinct_rejected(self, catalog):
        with pytest.raises(MatchError, match="DISTINCT"):
            self.validate(catalog, "select distinct l_orderkey from lineitem")

    def test_non_grouping_output_rejected(self, catalog):
        with pytest.raises(MatchError, match="grouping"):
            self.validate(
                catalog,
                "select o_custkey, o_clerk, count_big(*) as cnt from orders "
                "group by o_custkey",
            )

    def test_grouping_expression_must_be_output(self, catalog):
        with pytest.raises(MatchError, match="missing from output"):
            self.validate(
                catalog,
                "select o_custkey, count_big(*) as cnt from orders "
                "group by o_custkey, o_clerk",
            )

    def test_aggregate_in_spj_view_rejected(self, catalog):
        # No group-by and a SUM output without count_big: caught as an
        # aggregation view missing count_big.
        with pytest.raises(MatchError):
            self.validate(
                catalog, "select sum(l_quantity) as s from lineitem"
            )


class TestLazyMetadataTakesNoLock:
    """Regression: ``functools.cached_property`` (Python < 3.12) shares one
    lock per property across all instances, so a pool worker forked while
    another thread derived any description's output metadata inherited
    the lock held and hung on its first ``outputs`` access."""

    PROPERTIES = (
        "outputs", "group_forms", "simple_output_map", "expression_outputs"
    )

    def test_first_access_is_not_serialized_across_descriptions(
        self, catalog, monkeypatch
    ):
        import threading

        from repro.core.describe import SpjgDescription

        sql = "select o_custkey, o_totalprice + 1 as p from orders"
        stalled, other = desc(catalog, sql), desc(catalog, sql)
        entered, release = threading.Event(), threading.Event()
        original = SpjgDescription.shallow_form

        def stalling(self, expression):
            if self is stalled:
                entered.set()
                release.wait(30)
            return original(self, expression)

        monkeypatch.setattr(SpjgDescription, "shallow_form", stalling)
        holder = threading.Thread(target=lambda: stalled.outputs)
        holder.start()
        try:
            assert entered.wait(30)
            # ``stalled`` is mid-derivation on another thread: every lazy
            # property of ``other`` must still be derivable right now.
            reader = threading.Thread(
                target=lambda: [getattr(other, name) for name in self.PROPERTIES]
            )
            reader.start()
            reader.join(10)
            assert not reader.is_alive()
        finally:
            release.set()
            holder.join(30)
        assert not holder.is_alive()
        assert [info.name for info in stalled.outputs] == ["o_custkey", "p"]
