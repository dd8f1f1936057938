"""A registered view is its record.

After registration a view keeps its :class:`ViewRecord`, hub, packed row
and the text it was registered from -- no description. These tests pin
what that rests on: the description re-derived from the kept text equals
the one the record was compiled from, the record's extent estimate equals
the description's bit for bit, and the filter funnel the packed rows
attribute level by level equals the per-level walk over the views' keys.
"""

import pytest

from repro import ViewServer
from repro.core import ViewMatcher, describe
from repro.core.filtertree import FilterTree, RegisteredView
from repro.core.matching import ViewRecord
from repro.core.options import MatchOptions
from repro.sql import statement_to_sql
from repro.sql.expressions import Literal, UnaryMinus
from repro.stats.estimator import CardinalityEstimator
from repro.workload import WorkloadGenerator

from ._reference_filtertree import ReferenceFilterTree

EXTENSIONS = MatchOptions(
    use_check_constraints=True,
    support_or_ranges=True,
    allow_backjoins=True,
    allow_null_rejecting_fk=True,
    map_complex_expressions=True,
)
_COMPARED_SLOTS = tuple(slot for slot in ViewRecord.__slots__ if slot != "estimate")


def _same_record(left: ViewRecord, right: ViewRecord) -> bool:
    return all(
        getattr(left, slot) == getattr(right, slot) for slot in _COMPARED_SLOTS
    )


@pytest.fixture(scope="module")
def generated(catalog, paper_stats):
    generator = WorkloadGenerator(catalog, paper_stats, seed=42)
    return generator.generate_views(400), [
        query.statement for query in generator.generate_queries(60)
    ]


@pytest.mark.parametrize(
    "options", [MatchOptions(), EXTENSIONS], ids=["default", "extensions"]
)
def test_rederived_descriptions_equal_the_registered_ones(
    generated, catalog, paper_stats, options
):
    """Every generated view, registered as text (the server) and as a
    bound statement (the matcher): the description re-derived from what
    the view keeps compiles to the same record."""
    views, _ = generated
    server = ViewServer(catalog, paper_stats, options=options, cache_enabled=False)
    matcher = ViewMatcher(catalog, options=options)
    try:
        server.register_views(
            (name, statement_to_sql(view.statement)) for name, view in views
        )
        for name, view in views:
            matcher.register_view(name, view.statement)
        served = {
            v.name: v for v in server.snapshots.current.matcher.registered_views()
        }
        for name, view in views:
            original = describe(view.statement, catalog, name=name, options=options)
            kept = matcher.filter_tree.view(name)
            again = kept.description
            assert again.statement == view.statement
            assert _same_record(ViewRecord.of(again, options), kept.record)
            assert _same_record(ViewRecord.of(original, options), kept.record)
            from_text = served[name]
            assert from_text.sql == statement_to_sql(view.statement)
            assert _same_record(
                ViewRecord.of(from_text.description, options), from_text.record
            )
    finally:
        server.close()


def test_a_statement_that_does_not_render_back_is_kept(catalog):
    """A negative literal renders as ``-5``, which reads back as a unary
    minus (a residual, not a range bound): such a view keeps its
    statement instead of its text."""
    statement = catalog.bind_sql(
        "select o_orderkey as k from orders where o_totalprice >= 5"
    )
    negative = statement.with_where(
        statement.where.with_children([statement.where.left, Literal(-5)])
    )
    assert RegisteredView.definition(statement) == statement_to_sql(statement)
    assert RegisteredView.definition(negative) is negative
    tree = FilterTree()
    view = tree.register(describe(negative, catalog, name="v"))
    assert view.sql is negative
    assert view.record.conjuncts  # a range bound, as registered
    assert _same_record(ViewRecord.of(view.description), view.record)
    reparsed = catalog.bind_sql(statement_to_sql(negative))
    assert isinstance(reparsed.where.right, UnaryMinus)


def test_extent_estimates_equal_the_description_estimates(
    generated, catalog, paper_stats
):
    views, _ = generated
    estimator = CardinalityEstimator(paper_stats)
    for name, view in views:
        description = describe(view.statement, catalog, name=name)
        record = ViewRecord.of(description)
        expected = estimator.output_cardinality(description)
        assert estimator.extent_rows(record) == expected
        assert record.estimated_rows(estimator) == expected
        assert record.estimate == (paper_stats, expected)


@pytest.mark.parametrize(
    "options", [MatchOptions(), EXTENSIONS], ids=["default", "extensions"]
)
def test_packed_attribution_equals_the_level_walk(generated, catalog, options):
    """One sweep per level over the packed rows attributes every pruned
    view to the level the reference tree's per-level key walk does."""
    views, queries = generated
    matcher = ViewMatcher(catalog, options=options)
    for name, view in views[:250]:
        matcher.register_view(name, view.statement)
    packed = matcher.filter_tree
    walked = ReferenceFilterTree(options)
    for view in packed.views():
        walked.register_prebuilt(view)
    pruned = 0
    for statement in queries[:40]:
        query = matcher.describe_query(statement)
        attribution = packed.level_attribution(query)
        assert attribution == walked.level_attribution(query)
        assert attribution[-1][2] == len(packed.candidates(query))
        pruned += sum(len(names) for *_, names in attribution)
    assert pruned > 0
