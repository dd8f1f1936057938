"""The query-class walk of ``_equality_partitions`` against its oracle.

``_reference_matching._equality_partitions`` visits every view class;
the matcher now visits only the query's merged classes, in the order of
the view's column domain. Over generator views and queries the two must
return equal lists, order included; views that equate nothing over a
query's tables, and one view whose extra table sorts first, add cases
with several partitions. Pairs with extra view tables are compared the
way each version is called: the reference on the query's classes
extended column by column over the query's own domain, the new walk on
them moved onto the view's domain.
"""

import pytest

from repro.core.analyze import column_domain
from repro.core.describe import describe
from repro.core.fkgraph import eliminate_tables
from repro.core.matching import (
    ViewRecord,
    _equality_partitions,
    match_view,
)
from repro.sql import statement_to_sql
from repro.workload import WorkloadGenerator

from ._reference_matching import _equality_partitions as reference_partitions


def _augmented(query, view, catalog):
    """``(reference-style, current-style)`` augmented query classes."""
    extras = view.tables - query.tables
    if not extras:
        return query.eqclasses, query.eqclasses
    edges = eliminate_tables(
        view.tables,
        list(ViewRecord.of(view).fk_edges),
        removable=extras,
    ).used_edges
    grown = query.eqclasses.copy()
    for table in sorted(extras):
        for column in catalog.table(table).column_names:
            grown.add_column((table, column))
    moved = query.eqclasses.over(column_domain(catalog, view.tables))
    for edge in edges:
        for child_key, parent_key in edge.column_pairs:
            grown.add_equality(child_key, parent_key)
            moved.add_equality(child_key, parent_key)
    return grown, moved


def _cross_products(query, catalog):
    """Views over the query's tables, and over one more table, that equate
    nothing: every merged query class becomes a partition of its own, so
    several partitions come back and their order matters."""
    columns = sorted(query.eqclasses.merged_classes())
    select = ", ".join(column for _, column in columns)
    tables = sorted(query.tables)
    extra = next(
        table.name
        for table in sorted(catalog.tables(), key=lambda table: table.name)
        if table.name not in query.tables
    )
    for index, names in enumerate((tables, tables + [extra])):
        sql = f"select {select} from {', '.join(names)}"
        yield describe(catalog.bind_sql(sql), catalog, name=f"cross{index}")


def _compare(query, view, catalog, seen):
    if not view.tables >= query.tables:
        return
    grown, moved = _augmented(query, view, catalog)
    if not view.eqclasses.refines(grown):
        return  # the matcher rejects before partitioning
    expected = reference_partitions(view, grown)
    assert _equality_partitions(view, moved) == expected
    if expected:
        seen["extras" if view.tables != query.tables else "plain"] += 1
        seen["several"] += len(expected) > 1


@pytest.mark.parametrize("seed", [7, 42])
def test_partitions_equal_the_view_class_walk(seed, catalog, paper_stats):
    generator = WorkloadGenerator(catalog, paper_stats, seed=seed)
    views = [
        describe(generated.statement, catalog, name=name)
        for name, generated in generator.generate_views(200)
    ]
    queries = [
        describe(generated.statement, catalog)
        for generated in generator.generate_queries(80)
    ]
    seen = {"plain": 0, "extras": 0, "several": 0}
    for query in queries:
        for view in views:
            _compare(query, view, catalog, seen)
        if query.eqclasses.nontrivial_classes():
            for view in _cross_products(query, catalog):
                _compare(query, view, catalog, seen)
    # Both call shapes, and several partitions at once, were compared.
    assert all(seen.values()), seen


def test_partitions_follow_the_view_domain_with_an_extra_table(catalog):
    """``customer`` is an extra table that sorts before the query's: the
    class holding its key comes first in the view's domain, last in the
    query's extended one."""
    view = describe(
        catalog.bind_sql(
            "select c_custkey, o_custkey, o_orderkey, l_orderkey, l_suppkey "
            "from customer, orders, lineitem where o_custkey = c_custkey"
        ),
        catalog,
        name="v",
    )
    query = describe(
        catalog.bind_sql(
            "select o_orderkey from orders, lineitem "
            "where o_orderkey = l_orderkey and o_custkey = l_suppkey"
        ),
        catalog,
    )
    grown, moved = _augmented(query, view, catalog)
    expected = reference_partitions(view, grown)
    assert [len(partition) for partition in expected] == [2, 2]
    assert ("customer", "c_custkey") in expected[0][0]
    assert _equality_partitions(view, moved) == expected
    # The matcher's own augmentation emits the compensations in that order.
    assert statement_to_sql(match_view(query, view).substitute) == (
        "SELECT v.o_orderkey FROM v WHERE "
        "((v.c_custkey = v.l_suppkey) AND (v.l_orderkey = v.o_orderkey))"
    )
