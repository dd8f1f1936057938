"""The decision against the walk it replaced, and build-only-winners.

The matcher decides every candidate from the view's registration record
and builds a substitute only when one is read. ``_reference_matching``
keeps the old walk, which built one for every accepted candidate. For
generator views and queries, plus difftest covering cases whose views are
derived from their queries (two seeds), on every block the optimizer
fires the view-matching rule on -- each connected sub-block, each
pre-aggregation inner block, the whole statement -- and under default and
extension options, the two must agree on every view: matched, reason,
detail, substitute SQL, the three compensation counts, eliminated and
back-joined tables, regrouping. The optimizer prices an accepted match
from its decision; that price must equal the one the built substitute
gives, with and without an index on every view column.
"""

from dataclasses import dataclass

import pytest

from repro.core import matching
from repro.core.matcher import ViewMatcher
from repro.core.matching import match_view
from repro.core.normalize import conjuncts_of
from repro.core.options import DEFAULT_OPTIONS, MatchOptions
from repro.core.ranges import as_range_predicate
from repro.errors import ReproError
from repro.optimizer.optimizer import Optimizer, OptimizerConfig, _Search
from repro.sql import statement_to_sql
from repro.workload import WorkloadGenerator
from repro.workload.covering import CoveringCaseGenerator

from . import _reference_matching as reference

EXTENSIONS = MatchOptions(
    use_check_constraints=True,
    support_or_ranges=True,
    allow_backjoins=True,
    allow_null_rejecting_fk=True,
    map_complex_expressions=True,
)


@dataclass(frozen=True)
class _Index:
    columns: tuple[str, ...]


class _EveryColumnIndexed:
    """An index registry with a one-column index on every view output."""

    def __init__(self, matcher: ViewMatcher):
        self._columns = {
            view.name: tuple(
                info.name for info in view.description.outputs
            )
            for view in matcher.registered_views()
        }

    def on_relation(self, name: str):
        return tuple(_Index((column,)) for column in self._columns.get(name, ()))


def _outcome(result) -> tuple:
    substitute = result.substitute
    return (
        result.matched,
        result.reject_reason,
        result.reject_detail,
        statement_to_sql(substitute) if substitute is not None else None,
        result.compensating_equalities,
        result.compensating_ranges,
        result.compensating_residuals,
        result.eliminated_tables,
        result.backjoined_tables,
        result.regrouped,
    )


def _built_cost(search: _Search, match, output_rows: float) -> float:
    """The optimizer's price of a substitute, read off the built statement."""
    model = search.cost_model
    view_rows = search.optimizer.view_estimated_rows(match.view)
    substitute = match.substitute
    if search._has_usable_index(
        match.view.name,
        filter(None, map(as_range_predicate, conjuncts_of(substitute.where))),
    ):
        cost = model.index_seek(min(view_rows, output_rows))
    else:
        cost = model.block(view_rows, filtered=substitute.where is not None)
    for ref in substitute.from_tables[1:]:
        cost += model.hash_join(view_rows, search.stats_rows(ref.name), view_rows)
    if substitute.is_aggregate:
        cost += model.group(view_rows, output_rows)
    return cost


def _blocks(matcher: ViewMatcher, optimizer: Optimizer, statement) -> list:
    """Every description the optimizer matches for ``statement``."""
    seen = []
    original = matcher.match

    def capture(query, *args, **kwargs):
        seen.append(query)
        return original(query, *args, **kwargs)

    matcher.match = capture
    try:
        optimizer.optimize(statement)
    finally:
        del matcher.match
    return seen


@pytest.mark.parametrize(
    "options", [DEFAULT_OPTIONS, EXTENSIONS], ids=["default", "extensions"]
)
@pytest.mark.parametrize("seed", [7, 42])
def test_decisions_equal_the_reference_walk(seed, options, catalog, paper_stats):
    generator = WorkloadGenerator(catalog, paper_stats, seed=seed)
    matcher = ViewMatcher(catalog, options=options)
    for name, generated in generator.generate_views(40):
        matcher.register_view(name, generated.statement)
    queries = [generated.statement for generated in generator.generate_queries(10)]
    covering = CoveringCaseGenerator(catalog, paper_stats)
    for index in range(25):
        case = covering.case(seed * 1000 + index, views=3)
        queries.append(case.query)
        for name, view in case.views.items():
            try:
                matcher.register_view(name, view)
            except (ReproError, ValueError):
                continue
    views = matcher.registered_views()
    # A registered view keeps no description: re-derive each once.
    described = {view.name: view.description for view in views}
    contexts = {
        name: reference.ViewMatchContext.of(description, options)
        for name, description in described.items()
    }
    config = OptimizerConfig(cost_bounded_matching=False)
    optimizer = Optimizer(catalog, paper_stats, matcher, config=config)
    indexed = Optimizer(
        catalog,
        paper_stats,
        matcher,
        config=config,
        index_registry=_EveryColumnIndexed(matcher),
    )
    seen = {"blocks": 0, "matched": 0, "rejected": 0, "seeks": 0}
    for statement in queries:
        searches = [_Search(optimizer, statement), _Search(indexed, statement)]
        for query in _blocks(matcher, optimizer, statement):
            seen["blocks"] += 1
            for view in views:
                description = described[view.name]
                decided = match_view(query, description, options, view.record)
                expected = reference.match_view(
                    query, description, options, contexts[view.name]
                )
                if decided.matched:
                    prices = [
                        search._substitute_cost(decided, 1000.0)
                        for search in searches
                    ]
                    built = [
                        _built_cost(search, decided, 1000.0) for search in searches
                    ]
                    assert prices == built, (view.name, statement_to_sql(statement))
                    seen["seeks"] += prices[1] != prices[0]
                    seen["matched"] += 1
                else:
                    seen["rejected"] += 1
                assert _outcome(decided) == _outcome(expected), (
                    view.name,
                    statement_to_sql(statement),
                )
    assert all(seen.values()), seen


def test_optimize_builds_only_the_chosen_substitutes(
    catalog, paper_stats, monkeypatch
):
    """K views match the query; the chosen plan reads one: one build."""
    matcher = ViewMatcher(catalog)
    for index in range(5):
        matcher.register_view(
            f"v{index}",
            catalog.bind_sql(
                "select l_orderkey, l_quantity, l_extendedprice from lineitem "
                f"where l_quantity >= {index}"
            ),
        )
    built = []
    build = matching._build

    def counting(pending):
        built.append(pending.record.name)
        return build(pending)

    monkeypatch.setattr(matching, "_build", counting)
    optimizer = Optimizer(
        catalog,
        paper_stats,
        matcher,
        config=OptimizerConfig(cost_bounded_matching=False),
    )
    result = optimizer.optimize(
        catalog.bind_sql(
            "select l_orderkey, l_extendedprice from lineitem "
            "where l_quantity >= 10"
        )
    )
    assert result.substitutes_produced >= 5
    assert len(result.view_names) == 1
    assert built == list(result.view_names)
    for node in result.plan.walk():
        assert getattr(node, "match", None) is None
        if getattr(node, "view_name", None) is not None:
            assert node.statement is not None
