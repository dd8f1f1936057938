"""Tests for disjunctive (OR / IN) ranges in range subsumption."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RejectReason, describe, match_view
from repro.core.intervalsets import IntervalSet, UNBOUNDED_SET, as_or_range
from repro.core.ranges import Bound, Interval
from repro.sql import parse_predicate, statement_to_sql


def interval(low=None, high=None, low_inc=True, high_inc=True):
    return Interval(
        lower=None if low is None else Bound(low, low_inc),
        upper=None if high is None else Bound(high, high_inc),
    )


class TestIntervalSet:
    def test_normalization_merges_overlaps(self):
        merged = IntervalSet.of([interval(1, 5), interval(3, 9)])
        assert merged.intervals == (interval(1, 9),)

    def test_disjoint_stay_separate(self):
        result = IntervalSet.of([interval(8, 9), interval(1, 2)])
        assert result.intervals == (interval(1, 2), interval(8, 9))

    def test_touching_closed_bounds_merge(self):
        result = IntervalSet.of([interval(1, 5), interval(5, 9)])
        assert result.intervals == (interval(1, 9),)

    def test_touching_open_bounds_do_not_merge(self):
        result = IntervalSet.of(
            [interval(1, 5, high_inc=False), interval(5, 9, low_inc=False)]
        )
        assert len(result.intervals) == 2

    def test_empty_intervals_dropped(self):
        assert IntervalSet.of([interval(5, 1)]).is_empty

    def test_unbounded_after_merge(self):
        result = IntervalSet.of([interval(high=5), interval(low=2)])
        assert result.is_unbounded

    def test_intersect(self):
        left = IntervalSet.of([interval(1, 5), interval(10, 20)])
        right = IntervalSet.of([interval(3, 12)])
        assert left.intersect(right).intervals == (
            interval(3, 5),
            interval(10, 12),
        )

    def test_contains(self):
        outer = IntervalSet.of([interval(1, 5), interval(10, 20)])
        assert outer.contains(IntervalSet.of([interval(2, 4)]))
        assert outer.contains(IntervalSet.of([interval(2, 4), interval(11, 12)]))
        assert not outer.contains(IntervalSet.of([interval(4, 11)]))
        assert outer.contains(IntervalSet.of([]))
        assert UNBOUNDED_SET.contains(outer)
        assert not outer.contains(UNBOUNDED_SET)

    def test_contains_value(self):
        points = IntervalSet.of([interval(1, 1), interval(3, 3)])
        assert points.contains_value(1)
        assert points.contains_value(3)
        assert not points.contains_value(2)


class TestRecognizer:
    def test_or_of_ranges_on_one_column(self):
        recognised = as_or_range(parse_predicate("t.a < 5 or t.a > 10"))
        assert recognised is not None
        assert recognised.column == ("t", "a")
        assert len(recognised.interval_set.intervals) == 2

    def test_in_list_becomes_points(self):
        recognised = as_or_range(parse_predicate("t.a in (1, 2, 5)"))
        assert recognised is not None
        assert len(recognised.interval_set.intervals) == 3

    def test_adjacent_in_values_merge(self):
        # Integer adjacency is not merged (values 1 and 2 are distinct
        # points); only identical/overlapping intervals merge.
        recognised = as_or_range(parse_predicate("t.a in (1, 1, 5)"))
        assert len(recognised.interval_set.intervals) == 2

    def test_mixed_columns_rejected(self):
        assert as_or_range(parse_predicate("t.a < 5 or t.b > 10")) is None

    def test_non_range_disjunct_rejected(self):
        assert as_or_range(parse_predicate("t.a < 5 or t.b like 'x%'")) is None

    def test_negated_in_rejected(self):
        assert as_or_range(parse_predicate("t.a not in (1, 2)")) is None

    def test_in_with_null_member_rejected(self):
        assert as_or_range(parse_predicate("t.a in (1, null)")) is None


class TestMatchingWithOrRanges:
    VIEW = (
        "select l_orderkey as k, l_partkey as p from lineitem "
        "where l_partkey < 100 or l_partkey > 200"
    )

    def test_narrower_disjunction_accepted_with_option(self, catalog):
        view = describe(catalog.bind_sql(self.VIEW), catalog, name="v")
        query = describe(
            catalog.bind_sql(
                "select l_orderkey from lineitem "
                "where l_partkey < 50 or l_partkey > 300"
            ),
            catalog,
        )
        result = match_view(query, view)
        assert result.matched
        text = statement_to_sql(result.substitute)
        assert "(v.p < 50)" in text and "(v.p > 300)" in text

    def test_wider_disjunction_rejected(self, catalog):
        view = describe(catalog.bind_sql(self.VIEW), catalog, name="v")
        query = describe(
            catalog.bind_sql(
                "select l_orderkey from lineitem "
                "where l_partkey < 150 or l_partkey > 180"
            ),
            catalog,
        )
        result = match_view(query, view)
        assert result.reject_reason is RejectReason.RANGE

    def test_plain_range_inside_one_arm(self, catalog):
        view = describe(catalog.bind_sql(self.VIEW), catalog, name="v")
        query = describe(
            catalog.bind_sql(
                "select l_orderkey from lineitem "
                "where l_partkey >= 10 and l_partkey <= 50"
            ),
            catalog,
        )
        result = match_view(query, view)
        assert result.matched

    def test_plain_range_bridging_the_gap_rejected(self, catalog):
        view = describe(catalog.bind_sql(self.VIEW), catalog, name="v")
        query = describe(
            catalog.bind_sql(
                "select l_orderkey from lineitem "
                "where l_partkey >= 50 and l_partkey <= 250"
            ),
            catalog,
        )
        assert match_view(query, view).reject_reason is RejectReason.RANGE

    def test_in_list_subset(self, catalog):
        view = describe(
            catalog.bind_sql(
                "select l_orderkey as k, l_partkey as p from lineitem "
                "where l_partkey in (1, 2, 3, 4)"
            ),
            catalog,
            name="v",
        )
        query = describe(
            catalog.bind_sql(
                "select l_orderkey from lineitem where l_partkey in (2, 4)"
            ),
            catalog,
        )
        result = match_view(query, view)
        assert result.matched
        assert "IN (2, 4)" in statement_to_sql(result.substitute)

    def test_in_list_superset_rejected(self, catalog):
        view = describe(
            catalog.bind_sql(
                "select l_orderkey as k, l_partkey as p from lineitem "
                "where l_partkey in (1, 2)"
            ),
            catalog,
            name="v",
        )
        query = describe(
            catalog.bind_sql(
                "select l_orderkey from lineitem where l_partkey in (1, 2, 3)"
            ),
            catalog,
        )
        assert match_view(query, view).reject_reason is RejectReason.RANGE

    def test_view_without_constraint_compensates_query_disjunction(self, catalog):
        view = describe(
            catalog.bind_sql("select l_orderkey as k, l_partkey as p from lineitem"),
            catalog,
            name="v",
        )
        query = describe(
            catalog.bind_sql(
                "select l_orderkey from lineitem "
                "where l_partkey < 10 or l_partkey > 500"
            ),
            catalog,
        )
        result = match_view(query, view)
        assert result.matched
        assert "OR" in statement_to_sql(result.substitute)

    def test_identical_sets_need_no_compensation(self, catalog):
        view = describe(catalog.bind_sql(self.VIEW), catalog, name="v")
        query = describe(
            catalog.bind_sql(
                "select l_orderkey from lineitem "
                "where l_partkey < 100 or l_partkey > 200"
            ),
            catalog,
        )
        result = match_view(query, view)
        assert result.matched
        assert result.substitute.where is None

    def test_tautological_view_disjunction_is_dropped(self, catalog):
        view = describe(
            catalog.bind_sql(
                "select l_orderkey as k from lineitem "
                "where l_partkey < 100 or l_partkey > 5"
            ),
            catalog,
            name="v",
        )
        assert not view.or_ranges
        query = describe(
            catalog.bind_sql("select l_orderkey from lineitem"),
            catalog,
        )
        assert match_view(query, view).matched


class TestExecutionSoundness:
    """Execute OR-range substitutes against real data."""

    def run_case(self, catalog, tiny_db, view_sql, query_sql):
        from repro.core import ViewMatcher
        from repro.engine import Database, execute, materialize_view

        database = Database()
        for name in tiny_db.names():
            relation = tiny_db.relation(name)
            database.store(name, relation.columns, relation.rows)
        matcher = ViewMatcher(catalog)
        view_statement = catalog.bind_sql(view_sql)
        matcher.register_view("v", view_statement)
        materialize_view("v", view_statement, database)
        query = catalog.bind_sql(query_sql)
        matches = matcher.substitutes(query)
        assert matches, "expected a match"
        expected = execute(query, database)
        for match in matches:
            assert expected.bag_equals(
                execute(match.substitute, database), float_digits=9
            )

    def test_disjunction_narrowing(self, catalog, tiny_db):
        self.run_case(
            catalog,
            tiny_db,
            "select l_orderkey as k, l_partkey as p, l_quantity as q "
            "from lineitem where l_partkey < 100 or l_partkey > 150",
            "select l_orderkey, l_quantity from lineitem "
            "where l_partkey < 50 or l_partkey > 180",
        )

    def test_in_list_on_view_and_query(self, catalog, tiny_db):
        self.run_case(
            catalog,
            tiny_db,
            "select l_orderkey as k, l_linenumber as n from lineitem "
            "where l_linenumber in (1, 2, 3)",
            "select l_orderkey from lineitem where l_linenumber in (1, 3)",
        )


class TestFilterTreeWithOrRanges:
    def test_or_range_counts_as_range_constraint(self, catalog):
        from repro.core import FilterTree

        tree = FilterTree()
        tree.register(
            describe(
                catalog.bind_sql(
                    "select l_orderkey as k, l_partkey as p from lineitem "
                    "where l_partkey < 10 or l_partkey > 500"
                ),
                catalog,
                name="v",
            )
        )
        unconstrained = describe(
            catalog.bind_sql("select l_orderkey from lineitem"),
            catalog,
        )
        assert tree.candidates(unconstrained) == []
        constrained = describe(
            catalog.bind_sql(
                "select l_orderkey from lineitem "
                "where l_partkey < 5 or l_partkey > 600"
            ),
            catalog,
        )
        assert [v.name for v in tree.candidates(constrained)] == ["v"]


# --------------------------------------------------------------------------
# Properties: interval-set operations agree with point membership.
# --------------------------------------------------------------------------

values = st.integers(min_value=-20, max_value=20)
maybe_bound = st.one_of(st.none(), st.tuples(values, st.booleans()))


def build_interval(spec):
    low, high = spec
    return Interval(
        lower=None if low is None else Bound(low[0], low[1]),
        upper=None if high is None else Bound(high[0], high[1]),
    )


interval_sets = st.lists(
    st.tuples(maybe_bound, maybe_bound).map(build_interval), max_size=4
).map(IntervalSet.of)


@settings(max_examples=300)
@given(interval_sets, values)
def test_normalization_preserves_membership(candidate, point):
    raw = IntervalSet(intervals=tuple(candidate.intervals))
    assert candidate.contains_value(point) == any(
        i.contains_value(point) for i in raw.intervals
    )


@settings(max_examples=300)
@given(interval_sets, interval_sets, values)
def test_intersection_agrees_with_membership(left, right, point):
    both = left.contains_value(point) and right.contains_value(point)
    assert left.intersect(right).contains_value(point) == both


@settings(max_examples=300)
@given(interval_sets, interval_sets, values)
def test_containment_implies_membership_transfer(outer, inner, point):
    if outer.contains(inner) and inner.contains_value(point):
        assert outer.contains_value(point)
