"""Experiment harness tests on a miniature sweep."""

import pytest

from repro.experiments import (
    ALL_CONFIGURATIONS,
    Configuration,
    ExperimentConfig,
    ExperimentHarness,
    figure2,
    figure3,
    figure4,
    render_all,
    render_table,
    section5_statistics,
)

ALT_FILTER = Configuration(produce_substitutes=True, use_filter_tree=True)


@pytest.fixture(scope="module")
def small_result():
    harness = ExperimentHarness(
        ExperimentConfig(view_counts=(0, 30, 60), query_count=12, seed=17)
    )
    return harness.run()


class TestHarness:
    def test_all_cells_measured(self, small_result):
        assert len(small_result.points) == 3 * len(ALL_CONFIGURATIONS)

    def test_point_lookup(self, small_result):
        point = small_result.point(30, ALT_FILTER)
        assert point.view_count == 30
        assert point.query_count == 12

    def test_missing_point_raises(self, small_result):
        with pytest.raises(KeyError):
            small_result.point(999, ALT_FILTER)

    def test_series_sorted_by_view_count(self, small_result):
        series = small_result.series(ALT_FILTER)
        assert [p.view_count for p in series] == [0, 30, 60]

    def test_zero_views_produce_no_matches(self, small_result):
        point = small_result.point(0, ALT_FILTER)
        assert point.substitutes == 0
        assert point.invocations == 0
        assert point.plans_using_views == 0

    def test_noalt_never_uses_views(self, small_result):
        noalt = Configuration(produce_substitutes=False, use_filter_tree=True)
        for count in (0, 30, 60):
            assert small_result.point(count, noalt).plans_using_views == 0

    def test_filter_and_nofilter_agree_on_matches(self, small_result):
        # The filter tree only prunes non-matching views, so the number of
        # substitutes must be identical with and without it.
        nofilter = Configuration(produce_substitutes=True, use_filter_tree=False)
        for count in (30, 60):
            filtered = small_result.point(count, ALT_FILTER)
            unfiltered = small_result.point(count, nofilter)
            assert filtered.substitutes == unfiltered.substitutes
            assert filtered.plans_using_views == unfiltered.plans_using_views

    def test_substitute_counts_are_for_the_unbounded_rule(self):
        # "No Alt" runs the rule with no cost bound. "Alt" must count the
        # same substitutes over the same invocations, or the Section 5
        # per-invocation figures silently shrink with the cost bound
        # (which does engage at this size: 16 vs 20 substitutes).
        noalt = Configuration(produce_substitutes=False, use_filter_tree=True)
        result = ExperimentHarness(
            ExperimentConfig(
                view_counts=(200,),
                query_count=20,
                seed=17,
                configurations=(ALT_FILTER, noalt),
            )
        ).run()
        alt, reference = result.point(200, ALT_FILTER), result.point(200, noalt)
        assert alt.substitutes == reference.substitutes > 0
        assert alt.invocations == reference.invocations

    def test_derived_metrics(self, small_result):
        point = small_result.point(60, ALT_FILTER)
        assert point.seconds_per_query == pytest.approx(
            point.total_seconds / point.query_count
        )
        assert 0 <= point.view_usage_fraction <= 1
        assert point.invocations_per_query > 0


class TestFigures:
    def test_figure2_rows(self, small_result):
        rows = figure2(small_result)
        assert [r.view_count for r in rows] == [0, 30, 60]
        assert all(r.alt_filter > 0 for r in rows)

    def test_figure3_rows(self, small_result):
        rows = figure3(small_result)
        assert rows[0].total_increase == 0.0
        assert all(r.matching_time >= 0 for r in rows)

    def test_figure4_rows(self, small_result):
        rows = figure4(small_result)
        assert rows[0].plans_using_views == 0
        assert all(0 <= r.fraction <= 1 for r in rows)

    def test_renderers_produce_tables(self, small_result):
        text = render_all(small_result)
        assert "Figure 2" in text
        assert "Figure 3" in text
        assert "Figure 4" in text
        assert "Section 5" in text

    def test_section5_statistics_excludes_zero_views(self, small_result):
        text = section5_statistics(small_result)
        lines = [l for l in text.splitlines() if l.strip().startswith(("30", "60"))]
        assert len(lines) == 2


class TestRenderTable:
    def test_alignment_and_title(self):
        text = render_table("My title", ["a", "long_header"], [[1, 2], [333, 4]])
        lines = text.splitlines()
        assert lines[0] == "My title"
        assert "long_header" in lines[2]
        # All data lines share the same width.
        assert len(set(len(l) for l in lines[1:])) == 1


class TestFunnelStatistics:
    def test_points_carry_funnel_fields(self, small_result):
        point = small_result.point(60, ALT_FILTER)
        assert point.level_survivors, "per-level survivor counts missing"
        names = [name for name, _ in point.level_survivors]
        assert names[0] == "registered"
        assert names[1] == "hub"
        # Survivor counts can only shrink down the funnel per query, so
        # the per-level sums must be non-increasing too.
        counts = [count for _, count in point.level_survivors]
        assert counts == sorted(counts, reverse=True)
        assert isinstance(point.rejects_by_reason, dict)

    def test_zero_views_have_empty_funnel(self, small_result):
        point = small_result.point(0, ALT_FILTER)
        assert all(count == 0 for _, count in point.level_survivors)
        assert point.rejects_by_reason == {}

    def test_funnel_statistics_renders(self, small_result):
        from repro.experiments import funnel_statistics

        text = funnel_statistics(small_result)
        assert "Candidate narrowing per filter-tree level" in text
        assert "hub" in text
        assert "registered" in text

    def test_render_all_includes_funnel(self, small_result):
        assert "Candidate narrowing" in render_all(small_result)
