"""Workload generator tests: the Section 5 recipe."""

import hashlib

import pytest

from repro.core import ViewMatcher, describe
from repro.sql import statement_to_sql
from repro.workload import (
    QUERY_TABLE_COUNT_DISTRIBUTION,
    WorkloadGenerator,
    WorkloadParameters,
)


@pytest.fixture()
def generator(catalog, paper_stats):
    return WorkloadGenerator(catalog, paper_stats, seed=99)


class TestDeterminism:
    def test_same_seed_same_workload(self, catalog, paper_stats):
        first = WorkloadGenerator(catalog, paper_stats, seed=5)
        second = WorkloadGenerator(catalog, paper_stats, seed=5)
        assert [v.statement for _, v in first.generate_views(10)] == [
            v.statement for _, v in second.generate_views(10)
        ]

    def test_view_names_are_sequential(self, generator):
        names = [name for name, _ in generator.generate_views(3)]
        assert names == ["mv00001", "mv00002", "mv00003"]


def _digest(statements) -> str:
    digest = hashlib.sha256()
    for statement in statements:
        digest.update(statement_to_sql(statement).encode())
        digest.update(b"\n")
    return digest.hexdigest()


class TestPinnedOutput:
    """The generated SQL, byte for byte: seed 42, paper statistics at
    scale 0.5. A change to how statements are assembled must leave every
    generated text alone (the serve-path benchmark's workload digests
    depend on it)."""

    def test_views(self, catalog, paper_stats):
        generator = WorkloadGenerator(catalog, paper_stats, seed=42)
        assert _digest(v.statement for _, v in generator.generate_views(500)) == (
            "b62f91d212b613bfb6f7318025f1b34b798f81e454b0119a6780dc6cec637cfd"
        )

    def test_queries(self, catalog, paper_stats):
        generator = WorkloadGenerator(catalog, paper_stats, seed=42)
        assert _digest(q.statement for q in generator.generate_queries(300)) == (
            "f61b16cfd4997a3c25c278bef0763def0bd19de95966bce72866eba8d24a4ea9"
        )


class TestViews:
    def test_views_register_cleanly(self, catalog, generator):
        matcher = ViewMatcher(catalog)
        for name, view in generator.generate_views(100):
            matcher.register_view(name, view.statement)
        assert matcher.view_count == 100

    def test_aggregation_fraction_near_75_percent(self, catalog, generator):
        views = generator.generate_views(300)
        fraction = sum(v.is_aggregate for _, v in views) / len(views)
        assert 0.65 <= fraction <= 0.85

    def test_views_are_connected_joins(self, catalog, generator):
        for _, view in generator.generate_views(50):
            description = describe(view.statement, catalog)
            if len(description.tables) > 1:
                # every table participates in at least one equijoin
                joined = set()
                for a, b in description.classified.equalities:
                    joined.add(a[0])
                    joined.add(b[0])
                assert description.tables <= joined

    def test_view_cardinality_band_mostly_respected(self, catalog, paper_stats):
        from repro.stats import CardinalityEstimator

        generator = WorkloadGenerator(catalog, paper_stats, seed=4)
        estimator = CardinalityEstimator(paper_stats)
        low, high = generator.parameters.view_cardinality_band
        in_band = 0
        views = generator.generate_views(100)
        for _, view in views:
            largest = paper_stats.largest_table_rows(view.tables)
            ratio = view.estimated_cardinality / largest
            if low * 0.99 <= ratio <= high * 1.01:
                in_band += 1
        # Views that run out of range-predicate candidates may miss the
        # band; the bulk must land inside it.
        assert in_band >= 70

    def test_aggregate_views_have_count_big(self, catalog, generator):
        for _, view in generator.generate_views(40):
            if view.is_aggregate:
                names = [item.alias for item in view.statement.select_items]
                assert "cnt" in names


class TestQueries:
    def test_table_count_distribution(self, catalog, paper_stats):
        generator = WorkloadGenerator(catalog, paper_stats, seed=12)
        counts = {}
        total = 400
        for query in generator.generate_queries(total):
            counts[len(query.tables)] = counts.get(len(query.tables), 0) + 1
        assert set(counts) <= {2, 3, 4, 5, 6, 7}
        # Two-table queries should dominate per the paper's 40%.
        assert counts[2] / total == pytest.approx(0.40, abs=0.08)
        assert counts[3] / total == pytest.approx(0.20, abs=0.08)

    def test_queries_describe_cleanly(self, catalog, generator):
        for query in generator.generate_queries(50):
            description = describe(query.statement, catalog)
            assert description.tables == set(query.tables)

    def test_query_band_tighter_than_views(self, generator):
        low, high = generator.parameters.query_cardinality_band
        assert high < generator.parameters.view_cardinality_band[0]


class TestParameters:
    def test_distribution_sums_to_one(self):
        assert sum(p for _, p in QUERY_TABLE_COUNT_DISTRIBUTION) == pytest.approx(1.0)

    def test_custom_parameters_respected(self, catalog, paper_stats):
        parameters = WorkloadParameters(aggregation_fraction=0.0)
        generator = WorkloadGenerator(
            catalog, paper_stats, seed=3, parameters=parameters
        )
        assert not any(v.is_aggregate for _, v in generator.generate_views(30))

    def test_all_aggregation(self, catalog, paper_stats):
        parameters = WorkloadParameters(aggregation_fraction=1.0)
        generator = WorkloadGenerator(
            catalog, paper_stats, seed=3, parameters=parameters
        )
        assert all(v.is_aggregate for _, v in generator.generate_views(30))

    def test_paper_text_preset(self, catalog, paper_stats):
        parameters = WorkloadParameters.paper_text()
        assert parameters.view_cardinality_band == (0.25, 0.75)
        assert parameters.hot_range_column_weight == 1
        generator = WorkloadGenerator(
            catalog, paper_stats, seed=8, parameters=parameters
        )
        # The preset still produces valid registrable views.
        from repro.core import ViewMatcher

        matcher = ViewMatcher(catalog)
        for name, view in generator.generate_views(20):
            matcher.register_view(name, view.statement)
        assert matcher.view_count == 20

    def test_single_table_views_possible(self, catalog, paper_stats):
        parameters = WorkloadParameters(view_extra_join_probability=0.0)
        generator = WorkloadGenerator(
            catalog, paper_stats, seed=3, parameters=parameters
        )
        assert all(len(v.tables) == 1 for _, v in generator.generate_views(10))
