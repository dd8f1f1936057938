"""Request-scoped analysis: derived blocks equal the from-scratch path.

The optimizer analyses a statement once (``QueryAnalysis``) and derives
every sub-block's description, cardinality terms and filter-tree probe
from it by table mask. These tests keep the from-scratch path alive *as
a test helper* -- block statements built by AST walks, ``describe`` on
the result, the description-walk probe compiler
(``_reference_probe.py``), the reference lattice tree
(``_reference_filtertree.py``) -- and pin the
derived path to it: same statements, same descriptions in the same
iteration order (the cardinality estimator multiplies floats in that
order, so ``==`` on the estimate, not approx), same compiled probes and
candidate lists, and on a 1k-view catalog the same ``(cost, view_names,
candidates_considered, invocations)`` for every request.
"""

from __future__ import annotations

import random

import pytest

from repro.catalog import CheckConstraint, tpch_catalog
from repro.core import ViewMatcher, describe
from repro.core.analyze import QueryAnalysis, bit_indices
from repro.core.describe import describe_block
from repro.core.filtertree import _PackedProbe, _split_requirements
from repro.core.options import MatchOptions
from repro.optimizer import Optimizer, OptimizerConfig
from repro.optimizer.optimizer import _Search
from repro.sql import parse_predicate
from repro.sql.expressions import (
    BinaryOp,
    ColumnRef,
    InList,
    LikePredicate,
    Literal,
    conjunction,
)
from repro.sql.statements import SelectItem, SelectStatement, TableRef
from repro.stats.estimator import CardinalityEstimator
from repro.workload import WorkloadGenerator

from ._reference_filtertree import QueryProbe, ReferenceFilterTree
from ._reference_probe import reference_probe

OPTIONS = MatchOptions(support_or_ranges=True, use_check_constraints=True)
SEEDS = (5, 17)


def checked_tpch_catalog():
    """TPC-H with check constraints: a range, an IN list and a residual."""
    catalog = tpch_catalog()
    catalog.table("lineitem").check_constraints = (
        CheckConstraint("quantity", parse_predicate("lineitem.l_quantity >= 0")),
        CheckConstraint(
            "mode",
            parse_predicate("lineitem.l_shipmode in ('AIR', 'RAIL', 'SHIP')"),
        ),
    )
    catalog.table("orders").check_constraints = (
        CheckConstraint(
            "priced",
            parse_predicate("orders.o_totalprice + orders.o_shippriority >= 0"),
        ),
    )
    return catalog


def _enrich(statement: SelectStatement, rng: random.Random) -> SelectStatement:
    """Add what the generator never emits: an OR-range (IN list), a
    one-table residual and a residual spanning two tables."""
    tables = statement.table_names()
    extra = []
    first = tables[rng.randrange(len(tables))]
    key_column = {
        "lineitem": "l_linenumber",
        "orders": "o_shippriority",
        "customer": "c_nationkey",
        "part": "p_size",
        "supplier": "s_nationkey",
        "partsupp": "ps_availqty",
        "nation": "n_regionkey",
        "region": "r_regionkey",
    }
    extra.append(
        InList(
            ColumnRef(first, key_column[first]),
            tuple(Literal(value) for value in rng.sample(range(10), 3)),
        )
    )
    text_column = {
        "lineitem": "l_comment",
        "orders": "o_comment",
        "customer": "c_comment",
        "part": "p_comment",
        "supplier": "s_comment",
        "partsupp": "ps_comment",
        "nation": "n_comment",
        "region": "r_comment",
    }
    second = tables[rng.randrange(len(tables))]
    extra.append(
        LikePredicate(ColumnRef(second, text_column[second]), "%fur%")
    )
    if len(tables) > 1:
        a, b = rng.sample(tables, 2)
        extra.append(
            BinaryOp(
                ">",
                BinaryOp(
                    "+",
                    ColumnRef(a, key_column[a]),
                    ColumnRef(b, key_column[b]),
                ),
                Literal(rng.randrange(5)),
            )
        )
    return statement.with_where(conjunction([statement.where, *extra]))


@pytest.fixture(scope="module")
def checked_catalog():
    return checked_tpch_catalog()


def enriched_queries(catalog, stats) -> list[SelectStatement]:
    """Generated queries of 2-7 tables, SPJ and aggregate, two seeds."""
    statements = []
    for seed in SEEDS:
        generator = WorkloadGenerator(catalog, stats, seed=seed)
        rng = random.Random(seed)
        wanted = {(n, agg) for n in range(2, 8) for agg in (False, True)}
        while wanted:
            generated = generator.generate_query()
            shape = (len(generated.tables), generated.is_aggregate)
            if len(generated.tables) < 2:
                continue
            wanted.discard(shape)
            statements.append(_enrich(generated.statement, rng))
    return statements


@pytest.fixture(scope="module")
def queries(checked_catalog, paper_stats):
    return enriched_queries(checked_catalog, paper_stats)


# -- the from-scratch path (what the optimizer did before the analysis) ------


def _reference_block_statement(search: _Search, block: int):
    names = search.analysis.table_names
    subset = frozenset(names[index] for index in bit_indices(block))
    needed: dict[tuple[str, str], ColumnRef] = {}

    def note(expression) -> None:
        for ref in expression.column_refs():
            if ref.table in subset:
                needed.setdefault(ref.key, ref)

    for item in search.statement.select_items:
        note(item.expression)
    for expression in search.statement.group_by:
        note(expression)
    local = []
    for conjunct in search.analysis.conjuncts:
        tables = frozenset(ref.table for ref in conjunct.column_refs())
        if not tables <= subset:
            note(conjunct)
        elif tables:
            local.append(conjunct)
    if not needed:
        table = sorted(subset)[0]
        name = search.catalog.table(table).column_names[0]
        needed[(table, name)] = ColumnRef(table, name)
    return SelectStatement(
        select_items=tuple(SelectItem(needed[key]) for key in sorted(needed)),
        from_tables=tuple(TableRef(t) for t in sorted(subset)),
        where=conjunction(local),
    )


def _assert_same_description(derived, scratch) -> None:
    assert derived.statement == scratch.statement
    assert derived.options == scratch.options
    # Iteration order, not just membership: spj_cardinality multiplies
    # floats in the order of tables, equalities, ranges and residuals.
    assert list(derived.tables) == list(scratch.tables)
    assert derived.classified == scratch.classified
    assert list(derived.ranges.items()) == list(scratch.ranges.items())
    assert derived.or_ranges == scratch.or_ranges
    assert derived.residual_forms == scratch.residual_forms
    assert derived.outputs == scratch.outputs
    assert derived.group_forms == scratch.group_forms
    assert derived.is_aggregate == scratch.is_aggregate
    derived_map = derived.eqclasses.class_map()
    scratch_map = scratch.eqclasses.class_map()
    assert list(derived_map) == list(scratch_map)
    for column, cls in scratch_map.items():
        assert list(derived_map[column]) == list(cls)
        assert derived.eqclasses.find(column) == scratch.eqclasses.find(column)
    assert list(derived.merging_equalities) == list(scratch.merging_equalities)
    # The estimator's terms come from the block keys' own union-find: the
    # same merges and the same class representatives, in the same order.
    merging, ranges, residuals = derived.cardinality_terms()
    assert list(merging) == list(scratch.merging_equalities)
    assert list(ranges.items()) == list(scratch.ranges.items())
    assert list(residuals) == list(scratch.classified.residuals)


def _matcher(catalog) -> ViewMatcher:
    return ViewMatcher(catalog, options=OPTIONS)


class TestDerivedBlocks:
    def test_every_connected_subset_matches_the_scratch_block(
        self, checked_catalog, paper_stats, queries
    ):
        optimizer = Optimizer(
            checked_catalog, paper_stats, matcher=_matcher(checked_catalog)
        )
        estimator = CardinalityEstimator(paper_stats)
        blocks = 0
        for statement in queries:
            search = _Search(optimizer, statement)
            for subset in search._connected_subsets():
                derived = search._block(subset)
                reference = _reference_block_statement(search, subset)
                assert derived.statement == reference
                scratch = describe(reference, checked_catalog, options=OPTIONS)
                _assert_same_description(derived, scratch)
                assert estimator.spj_cardinality(
                    derived
                ) == estimator.spj_cardinality(scratch)
                blocks += 1
        assert blocks > 200

    def test_everything_the_optimizer_describes_matches_scratch(
        self, checked_catalog, paper_stats, queries
    ):
        """Top-level statements and pre-aggregation inner blocks too:
        re-describe, from scratch, every description a search asked for."""
        matcher = _matcher(checked_catalog)
        optimizer = Optimizer(checked_catalog, paper_stats, matcher=matcher)
        estimator = CardinalityEstimator(paper_stats)
        described = []
        derive = matcher.describe_query

        def spy(*args):
            described.append(derive(*args))
            return described[-1]

        matcher.describe_query = spy
        for statement in queries:
            optimizer.optimize(statement)
        inner_blocks = 0
        for derived in described:
            scratch = describe(
                derived.statement, checked_catalog, options=OPTIONS
            )
            _assert_same_description(derived, scratch)
            assert estimator.output_cardinality(
                derived
            ) == estimator.output_cardinality(scratch)
            if derived.is_aggregate and derived.statement not in queries:
                inner_blocks += 1
        assert inner_blocks > 20  # pre-aggregation alternatives were covered

    def test_whole_statement_block_keeps_constant_conjuncts(
        self, checked_catalog
    ):
        statement = checked_catalog.bind_sql(
            "select l_orderkey from lineitem, orders "
            "where l_orderkey = o_orderkey and 1 = 1 and l_quantity > 5"
        )
        analysis = QueryAnalysis(statement, checked_catalog, OPTIONS)
        whole = describe_block(analysis)
        _assert_same_description(
            whole, describe(statement, checked_catalog, options=OPTIONS)
        )
        # ...while no sub-block claims the table-less conjunct.
        both = describe_block(analysis, analysis.mask_of(statement.table_names()))
        assert len(both.classified.residuals) == 0


@pytest.fixture(scope="module")
def catalog_1k(checked_catalog, paper_stats):
    """1k generated views, registered once for both matchers below."""
    generator = WorkloadGenerator(checked_catalog, paper_stats, seed=42)
    return [
        (name, generated.statement)
        for name, generated in generator.generate_views(1000)
    ]


class _ScratchMatcher(ViewMatcher):
    """The from-scratch path: blocks re-described from their statements,
    probes through the reference pipeline and the recursive lattice."""

    def describe_query(self, statement, *block):
        if isinstance(statement, QueryAnalysis):
            statement = describe_block(statement, *block).statement
        return describe(statement, self.catalog, options=self.options)


def _described_blocks(catalog, stats, matcher, statements):
    """Every description the optimizer asks for while planning
    ``statements``: each connected subset's block, each pre-aggregation
    inner block (the cost bound off, so none is dropped unasked) and each
    whole statement."""
    optimizer = Optimizer(
        catalog,
        stats,
        matcher=matcher,
        config=OptimizerConfig(cost_bounded_matching=False),
    )
    described = []
    derive = matcher.describe_query

    def spy(*args):
        described.append(derive(*args))
        return described[-1]

    matcher.describe_query = spy
    for statement in statements:
        optimizer.optimize(statement)
    del matcher.describe_query
    return described


def _bound(requirements, interner) -> tuple:
    """Frozenset :class:`OutputRequirement` s as interned
    ``(templates_mask, group_masks)`` pairs; atoms never interned are
    dropped, which is exact."""

    def mask(atoms) -> int:
        bits = 0
        for atom in atoms:
            bits |= interner.known_bit(atom)
        return bits

    return tuple(
        (mask(req.templates), tuple(map(mask, req.column_groups)))
        for req in requirements
    )


def _assert_probe_equals(packed, reference) -> None:
    assert set(packed.tables) == reference.tables
    assert set(packed.residual_templates) == reference.residual_templates
    assert set(packed.constrained_columns) == reference.constrained_columns
    assert packed.output_check == reference.output_check
    assert packed.aggregate_templates == reference.aggregate_templates
    assert packed.grouping_templates == reference.grouping_templates
    assert packed.grouping_requirements == reference.grouping_requirements


PROBE_OPTIONS = {
    "plain": MatchOptions(support_or_ranges=True),
    "checks": MatchOptions(support_or_ranges=True, use_check_constraints=True),
    "backjoins": MatchOptions(support_or_ranges=True, allow_backjoins=True),
    "checks+backjoins": MatchOptions(
        support_or_ranges=True, use_check_constraints=True, allow_backjoins=True
    ),
}


class TestCompiledProbeAndPlans:
    def test_packed_probe_equals_the_reference_pipeline(
        self, checked_catalog, paper_stats, queries, catalog_1k
    ):
        matcher = _matcher(checked_catalog)
        for name, statement in catalog_1k[:200]:  # populate the interner
            matcher.register_view(name, statement)
        interner = matcher.interner
        nonzero = 0
        described = _described_blocks(
            checked_catalog, paper_stats, matcher, queries
        )
        for derived in described:
            packed = _PackedProbe(derived, OPTIONS, interner)
            reference = QueryProbe.of_reference(
                describe(derived.statement, checked_catalog, options=OPTIONS),
                OPTIONS,
            )
            outputs = _bound(reference.output_requirements, interner)
            assert {("t", t) for t in packed.tables} == reference.tables
            assert {
                ("x", t) for t in packed.residual_templates
            } == reference.residual_templates
            assert {
                ("c", *c) for c in packed.constrained_columns
            } == reference.range_constrained_columns
            assert packed.output_check == _split_requirements(outputs)
            if derived.is_aggregate:
                assert {
                    ("x", t) for t in packed.aggregate_templates
                } == reference.aggregate_templates
                assert {
                    ("x", t) for t in packed.grouping_templates
                } == reference.grouping_templates
                assert packed.grouping_requirements == _bound(
                    reference.grouping_requirements, interner
                )
            nonzero += any(mask for mask in packed.output_check[0])
        assert nonzero > len(described) // 2  # the comparison was not vacuous

    @pytest.mark.parametrize("option_set", sorted(PROBE_OPTIONS))
    def test_masked_probe_equals_the_description_walk(
        self, checked_catalog, paper_stats, queries, catalog_1k, option_set
    ):
        """Every block the optimizer describes -- connected subsets,
        pre-aggregation inner blocks, whole statements -- probes like the
        description-walk compiler on its from-scratch description, finds
        the same candidates, and builds its statement lazily as the
        analysis's ``block_statement``."""
        options = PROBE_OPTIONS[option_set]
        matcher = ViewMatcher(checked_catalog, options=options)
        for name, statement in catalog_1k[:300]:
            matcher.register_view(name, statement)
        tree = matcher.filter_tree
        interner = matcher.interner
        order = {view.name: n for n, view in enumerate(tree.views())}
        described = _described_blocks(
            checked_catalog, paper_stats, matcher, queries
        )
        kinds = {"subset": 0, "inner": 0, "whole": 0}
        found_any = 0
        for derived in described:
            block = derived.block
            if block is None:
                kinds["whole"] += 1
            else:
                kinds["subset" if block[1] is None else "inner"] += 1
                assert derived.statement == derived.analysis.block_statement(
                    *block
                )
            scratch = describe(derived.statement, checked_catalog, options=options)
            reference = reference_probe(scratch, options, interner)
            _assert_probe_equals(
                _PackedProbe(derived, options, interner), reference
            )
            # A description made from scratch takes the same masked path.
            _assert_probe_equals(
                _PackedProbe(scratch, options, interner), reference
            )
            expected: list = []
            tree.collect_candidates(reference, expected, derived.is_aggregate)
            expected.sort(key=lambda view: order[view.name])
            candidates = tree.candidates(derived)
            assert [view.name for view in candidates] == [
                view.name for view in expected
            ]
            found_any += bool(candidates)
        assert kinds["subset"] > 200 and kinds["whole"] == len(queries)
        assert kinds["inner"] > 20
        assert found_any > 20  # the candidate comparison was not vacuous

    def test_every_request_plans_like_the_scratch_path(
        self, checked_catalog, paper_stats, queries, catalog_1k
    ):
        derived_matcher = _matcher(checked_catalog)
        scratch_matcher = _ScratchMatcher.with_filter_tree(
            checked_catalog, ReferenceFilterTree(OPTIONS), options=OPTIONS
        )
        for name, statement in catalog_1k:
            derived_matcher.register_view(name, statement)
            scratch_matcher.register_view(name, statement)
        derived = Optimizer(checked_catalog, paper_stats, matcher=derived_matcher)
        scratch = Optimizer(checked_catalog, paper_stats, matcher=scratch_matcher)
        # Generated queries as they come (these rewrite) plus the
        # enriched ones (these exercise OR-ranges and residuals).
        generator = WorkloadGenerator(checked_catalog, paper_stats, seed=44)
        plain = [q.statement for q in generator.generate_queries(60)]
        rewritten = 0
        for statement in plain + queries:
            a = derived.optimize(statement)
            b = scratch.optimize(statement)
            assert (
                a.cost,
                a.view_names,
                a.candidates_considered,
                a.invocations,
            ) == (b.cost, b.view_names, b.candidates_considered, b.invocations)
            rewritten += a.uses_view
        assert rewritten > 20
