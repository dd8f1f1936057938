"""Differential tests for the executor's join pipeline.

``execute`` -- delta-first ordering, shared per-relation join indexes,
early termination -- against a nested-loop reference evaluator that
lives only here: it walks the tables in statement order, pairs every
partial row with every stored row, and filters by the conjuncts whose
tables are bound. The two share nothing: its scalar evaluator is the
recursive interpreter of ``_reference_evaluator``, over row mappings.
"""

from __future__ import annotations

import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import Catalog, Column, Table
from repro.datagen import generate_tpch
from repro.engine import Database, QueryResult, execute
from repro.cdc.delta import (
    analyze_view,
    apply_view_delta,
    compute_view_delta,
    merge_aggregate_delta,
)
from repro.sql.expressions import FuncCall, Literal, conjuncts_of
from repro.workload import WorkloadGenerator

from ._reference_evaluator import evaluate, predicate_holds


# -- the reference ------------------------------------------------------------


def reference_execute(statement, database) -> QueryResult:
    """Nested loops, SQL three-valued WHERE, bag semantics."""
    pending = list(conjuncts_of(statement.where))
    bound: set[str] = set()
    rows: list[dict] = [{}]
    for table in statement.table_names():
        relation = database.relation(table)
        keys = [(table, column) for column in relation.columns]
        stored = [dict(zip(keys, row)) for row in relation.rows]
        bound.add(table)
        ready = [c for c in pending if _tables(c) <= bound]
        pending = [c for c in pending if not _tables(c) <= bound]
        paired = ({**row, **other} for row in rows for other in stored)
        rows = [
            row for row in paired if all(predicate_holds(c, row) for c in ready)
        ]
    assert not pending
    if statement.is_aggregate:
        groups: dict[tuple, list[dict]] = {}
        for row in rows:
            key = tuple(evaluate(g, row) for g in statement.group_by)
            groups.setdefault(key, []).append(row)
        if not statement.group_by and not groups:
            groups[()] = []
        output = [
            tuple(_group_value(item.expression, members) for item in statement.select_items)
            for members in groups.values()
        ]
    else:
        output = [
            tuple(evaluate(item.expression, row) for item in statement.select_items)
            for row in rows
        ]
    if statement.distinct:
        output = list(dict.fromkeys(output))
    columns = tuple(f"c{i}" for i in range(len(statement.select_items)))
    return QueryResult(columns, output)


def _tables(expression) -> set[str]:
    return {ref.table for ref in expression.column_refs()}


def _group_value(expression, members: list[dict]):
    """An output of one group: aggregates folded to literals, then evaluated."""

    def fold(node):
        if not (isinstance(node, FuncCall) and node.is_aggregate()):
            return node
        if node.star:
            return Literal(len(members))
        values = [
            value
            for member in members
            if (value := evaluate(node.args[0], member)) is not None
        ]
        if node.name in ("count", "count_big"):
            return Literal(len(values))
        if not values:
            return Literal(None)
        total = sum(values)
        return Literal(total / len(values) if node.name == "avg" else total)

    return evaluate(expression.transform(fold), members[0] if members else {})


def assert_same_bag(got: QueryResult, expected: QueryResult, context: str = ""):
    assert got.bag_equals(expected, float_digits=9), (
        f"{context}\n got      {sorted(got.rows, key=repr)[:8]}"
        f"\n expected {sorted(expected.rows, key=repr)[:8]}"
    )


# -- (i) generated small relations ---------------------------------------------

SMALL = Catalog()
for _name in ("r", "s", "t"):
    SMALL.add_table(
        Table(
            name=_name,
            columns=tuple(Column(c, nullable=True) for c in ("a", "b", "c")),
        )
    )

# (conjunct, tables it reads): equijoins (several per pair, so composite and
# partial keys occur), local, residual cross-table, constant.
CONJUNCTS = [
    ("r.a = s.a", "rs"),
    ("r.b = s.b", "rs"),
    ("s.a = t.a", "st"),
    ("s.c = t.b", "st"),
    ("r.c = t.c", "rt"),
    ("r.a = t.a", "rt"),
    ("r.c >= 1", "r"),
    ("r.a = r.b", "r"),
    ("s.b <> 0", "s"),
    ("s.c in (0, 2)", "s"),
    ("t.a is null", "t"),
    ("t.b is not null", "t"),
    ("(t.c = 1 or t.c is null)", "t"),
    ("r.b < s.c", "rs"),
    ("s.b <> t.b", "st"),
    ("(r.c = 0 or t.c = 1)", "rt"),
    ("r.a + s.a = t.a", "rst"),
    ("1 = 1", ""),
    ("1 = 0", ""),
]

values = st.one_of(st.none(), st.integers(min_value=0, max_value=2))
relations = st.lists(st.tuples(values, values, values), max_size=5)


@st.composite
def small_cases(draw):
    tables = draw(
        st.lists(st.sampled_from("rst"), min_size=1, max_size=3, unique=True)
    )
    usable = [text for text, reads in CONJUNCTS if set(reads) <= set(tables)]
    where = draw(st.lists(st.sampled_from(usable), max_size=5, unique=True))
    columns = [f"{t}.{c}" for t in tables for c in "abc"]
    shape = draw(st.sampled_from(["spj", "distinct", "grouped", "global"]))
    picked = draw(st.lists(st.sampled_from(columns), min_size=1, max_size=3, unique=True))
    x, y = draw(st.sampled_from(columns)), draw(st.sampled_from(columns))
    aggregates = [
        "count_big(*)",
        f"sum({x})",
        f"count({y})",
        f"avg({x})",
        f"coalesce(sum({y}), 0) + count_big(*)",
    ]
    if shape in ("spj", "distinct"):
        items = picked + [f"{x} + 1"]
        group_by = []
    elif shape == "grouped":
        items = picked + [f"{picked[0]} * 2"] + aggregates
        group_by = picked
    else:
        items = aggregates
        group_by = []
    sql = (
        f"select {'distinct ' if shape == 'distinct' else ''}"
        + ", ".join(f"{item} as o{i}" for i, item in enumerate(items))
        + " from "
        + ", ".join(tables)
        + (" where " + " and ".join(where) if where else "")
        + (" group by " + ", ".join(group_by) if group_by else "")
    )
    database = Database()
    for table in "rst":
        database.store(table, ("a", "b", "c"), draw(relations))
    return sql, tables, database


@settings(max_examples=300, deadline=None)
@given(small_cases())
def test_execute_matches_nested_loops_on_small_relations(case):
    sql, tables, database = case
    statement = SMALL.bind_sql(sql)
    expected = reference_execute(statement, database)
    assert_same_bag(execute(statement, database), expected, sql)
    for table in tables:
        assert_same_bag(
            execute(statement, database, delta_table=table),
            expected,
            f"{sql} driven by {table}",
        )


def test_empty_intermediate_discards_what_is_left_but_still_aggregates():
    database = Database()
    database.store("r", ("a", "b", "c"), [])
    database.store("s", ("a", "b", "c"), [(1, 1, 1)])
    database.store("t", ("a", "b", "c"), [(1, 1, 1)])
    statement = SMALL.bind_sql(
        "select count_big(*) as n, sum(s.b) as total from r, s, t "
        "where r.a = s.a and s.a = t.a and r.b < t.c"
    )
    assert execute(statement, database).rows == [(0, None)]
    assert database.relation("s").hash_index_builds == 0
    assert database.relation("t").hash_index_builds == 0


# -- (ii) generated TPC-H views -------------------------------------------------

VIEW_SEEDS = (6, 7)
VIEWS_PER_SEED = 8
DELTA_ROWS = 5


def generated_views(catalog, stats, seed: int):
    """Views whose range constants come from the scale-0.001 data."""
    views = WorkloadGenerator(catalog, stats, seed=seed).generate_views(
        VIEWS_PER_SEED
    )
    return [generated.statement for _, generated in views]


@pytest.fixture(scope="module")
def micro_db():
    """Small enough for nested loops over a seven-table view."""
    return generate_tpch(scale=0.0001, seed=9)


@pytest.mark.parametrize("seed", VIEW_SEEDS)
def test_execute_matches_nested_loops_on_generated_views(
    seed, micro_db, catalog, tiny_stats
):
    for statement in generated_views(catalog, tiny_stats, seed):
        assert_same_bag(
            execute(statement, micro_db),
            reference_execute(statement, micro_db),
            str(statement),
        )


@pytest.mark.parametrize("seed", VIEW_SEEDS)
def test_view_delta_is_recompute_after_minus_recompute_before(
    seed, catalog, tiny_stats
):
    """Per view and per table it reads: an insert batch, then a delete batch.

    Two recomputes per table and view; at scale 0.001 the widest view
    (480k joined rows before grouping) alone would take half a minute.
    """
    views = generated_views(catalog, tiny_stats, seed)
    rng = random.Random(seed)
    database = generate_tpch(scale=0.0002, seed=9)
    for number, statement in enumerate(views):
        view = analyze_view(catalog, f"v{number}", statement)
        before = execute(statement, database)
        for table in sorted(view.tables):
            relation = database.relation(table)
            batch = rng.sample(relation.rows, min(DELTA_ROWS, relation.row_count))
            for sign in (+1, -1):
                # Inserts see the other tables before the batch lands,
                # deletes after the victims are gone.
                if sign < 0:
                    relation.remove(batch)
                delta = compute_view_delta(view, table, batch, database)
                if sign > 0:
                    relation.extend(batch)
                after = execute(statement, database)
                _check_delta(view, before, delta, sign, after, database)
                before = after


def _check_delta(view, before, delta, sign, after, database):
    context = f"{view.name} {'insert' if sign > 0 else 'delete'}"
    if not view.is_aggregate:
        moved = QueryResult(after.columns, delta)
        larger, smaller = (after, before) if sign > 0 else (before, after)
        difference = Counter(larger.as_multiset(9))
        difference.subtract(smaller.as_multiset(9))
        changed = {row: n for row, n in difference.items() if n}
        assert changed == moved.as_multiset(9), context
        return
    stored = database.store(view.name, before.columns, before.rows)
    apply_view_delta(view, delta, sign, database)
    assert_same_bag(QueryResult(after.columns, stored.rows), after, context)
    database.drop(view.name)


# -- join index freshness --------------------------------------------------------


class TestHashIndex:
    def relation(self):
        database = Database()
        return database.store(
            "t", ("k", "j", "v"), [(1, 1, "a"), (1, 2, "b"), (None, 1, "c"), (2, None, "d")]
        )

    def test_null_keys_are_absent_and_buckets_hold_stored_rows(self):
        relation = self.relation()
        assert relation.hash_index((0,)) == {
            (1,): [(1, 1, "a"), (1, 2, "b")],
            (2,): [(2, None, "d")],
        }
        assert relation.hash_index((0, 1)) == {
            (1, 1): [(1, 1, "a")],
            (1, 2): [(1, 2, "b")],
        }

    def test_built_once_per_version(self):
        relation = self.relation()
        assert relation.hash_index((0,)) is relation.hash_index((0,))
        assert relation.hash_index_builds == 1

    def test_extend_keeps_current_indexes_current_without_a_rebuild(self):
        relation = self.relation()
        relation.hash_index((0,))
        relation.extend([(2, 5, "e"), (None, 5, "f"), (3, 5, "g")])
        index = relation.hash_index((0,))
        assert index[(2,)] == [(2, None, "d"), (2, 5, "e")]
        assert index[(3,)] == [(3, 5, "g")]
        assert (None,) not in index
        assert relation.hash_index_builds == 1

    def test_remove_invalidates(self):
        relation = self.relation()
        relation.hash_index((0,))
        relation.remove([(1, 1, "a")])
        assert relation.hash_index((0,))[(1,)] == [(1, 2, "b")]

    def test_raw_mutation_then_bump_version_invalidates(self):
        relation = self.relation()
        relation.hash_index((0,))
        relation.rows.append((1, 9, "z"))
        relation.bump_version()
        assert (1, 9, "z") in relation.hash_index((0,))[(1,)]
        # ... including an index that extend() finds stale.
        relation.rows.append((7, 7, "y"))
        relation.bump_version()
        relation.extend([(8, 8, "x")])
        assert set(relation.hash_index((0,))) == {(1,), (2,), (7,), (8,)}

    def test_join_indexes_are_not_declared_indexes(self):
        database = Database()
        database.store("t", ("k",), [(1,)])
        database.store("u", ("k",), [(1,)])
        catalog = Catalog()
        for name in "tu":
            catalog.add_table(Table(name=name, columns=(Column("k"),)))
        execute(catalog.bind_sql("select t.k from t, u where t.k = u.k"), database)
        assert database.relation("u").hash_index_builds == 1
        assert database.indexes.on_relation("t") == ()
        assert database.indexes.on_relation("u") == ()


# -- shared join indexes under view maintenance ----------------------------------


class TestJoinIndexVersions:
    """View deltas stay exact across every way a probed table changes.

    ``o`` references ``c`` by key, so a delta of ``o`` probes ``c``
    through ``c``'s hash index, shared between executions. After each
    mutation of ``c`` a view delta must still equal recompute-after
    minus recompute-before: buckets served past their version would drop
    or misreport the rows the mutation moved.
    """

    ROLLUP = (
        "select c.nation as nation, count_big(*) as n, sum(o.total) as s "
        "from o, c where o.ck = c.ck group by c.nation"
    )
    SPJ = "select o.ok as ok, c.nation as nation from o, c where o.ck = c.ck"

    @pytest.fixture()
    def catalog(self):
        catalog = Catalog()
        catalog.add_table(
            Table(
                name="c",
                columns=(Column("ck"), Column("nation")),
                primary_key=("ck",),
            )
        )
        catalog.add_table(
            Table(
                name="o",
                columns=(Column("ok"), Column("ck"), Column("total")),
                primary_key=("ok",),
            )
        )
        catalog.add_table(
            Table(
                name="agg",
                columns=(Column("ck"), Column("n"), Column("s")),
                primary_key=("ck",),
            )
        )
        return catalog

    @pytest.fixture()
    def database(self):
        database = Database()
        database.store("c", ("ck", "nation"), [(1, "n1"), (2, "n2"), (3, "n1")])
        database.store(
            "o",
            ("ok", "ck", "total"),
            [(10, 1, 1.5), (11, 1, 2.0), (12, 2, 4.0), (13, 3, 0.5), (14, 9, 8.0)],
        )
        return database

    def assert_delta(self, catalog, database, sql, table, batch, sign):
        """The view's delta for ``batch`` entering (or leaving) ``table``."""
        statement = catalog.bind_sql(sql)
        view = analyze_view(catalog, "v", statement)
        relation = database.relation(table)
        before = execute(statement, database)
        if sign < 0:
            relation.remove(batch)
        delta = compute_view_delta(view, table, batch, database)
        if sign > 0:
            relation.extend(batch)
        after = execute(statement, database)
        _check_delta(view, before, delta, sign, after, database)
        return delta

    def probed_index(self, catalog, database):
        """Build ``c``'s join index the way a delta of ``o`` does."""
        for sql in (self.ROLLUP, self.SPJ):
            self.assert_delta(catalog, database, sql, "o", [(20, 1, 1.0)], +1)
            self.assert_delta(catalog, database, sql, "o", [(20, 1, 1.0)], -1)
        buckets = database.relation("c").hash_index((0,))
        assert buckets == {(1,): [(1, "n1")], (2,): [(2, "n2")], (3,): [(3, "n1")]}
        return buckets

    def assert_deltas(self, catalog, database, batch):
        for sql in (self.ROLLUP, self.SPJ):
            for sign in (+1, -1):
                self.assert_delta(catalog, database, sql, "o", batch, sign)

    def test_extend_carries_a_current_index(self, catalog, database):
        buckets = self.probed_index(catalog, database)
        c = database.relation("c")
        c.extend([(4, "n4"), (2, "twin"), (None, "nobody")])
        assert c.hash_index((0,)) is buckets
        assert buckets[(4,)] == [(4, "n4")] and (None,) not in buckets
        assert buckets[(2,)] == [(2, "n2"), (2, "twin")]
        self.assert_deltas(catalog, database, [(21, 4, 3.0), (22, 2, 1.0)])

    def test_extend_does_not_carry_a_stale_index(self, catalog, database):
        buckets = self.probed_index(catalog, database)
        c = database.relation("c")
        c.rows.append((5, "raw"))
        c.bump_version()
        c.extend([(6, "n6")])
        rebuilt = c.hash_index((0,))
        assert rebuilt is not buckets
        assert rebuilt[(5,)] == [(5, "raw")] and rebuilt[(6,)] == [(6, "n6")]
        self.assert_deltas(catalog, database, [(21, 5, 3.0), (22, 6, 1.0)])

    def test_remove_drops_the_index(self, catalog, database):
        buckets = self.probed_index(catalog, database)
        c = database.relation("c")
        c.remove([(2, "n2")])
        assert c.hash_index((0,)) is not buckets
        assert (2,) not in c.hash_index((0,))
        self.assert_deltas(catalog, database, [(21, 2, 3.0), (22, 3, 1.0)])

    def test_raw_edit_then_bump_version_invalidates_the_index(
        self, catalog, database
    ):
        self.probed_index(catalog, database)
        c = database.relation("c")
        c.rows[0] = (1, "renamed")
        c.bump_version()
        assert c.hash_index((0,))[(1,)] == [(1, "renamed")]
        self.assert_deltas(catalog, database, [(21, 1, 3.0)])

    def test_merge_aggregate_delta_invalidates_the_index(self, catalog, database):
        """``agg`` is an aggregate view kept by in-place merges; a view
        over it probes ``agg`` through ``agg``'s join index."""
        agg_view = analyze_view(
            catalog,
            "agg",
            catalog.bind_sql(
                "select o.ck as ck, count_big(*) as n, sum(o.total) as s "
                "from o group by o.ck"
            ),
        )
        stored = execute(agg_view.statement, database)
        database.store("agg", stored.columns, stored.rows)
        top = (
            "select c.nation as nation, agg.n as n, agg.s as s "
            "from c, agg where c.ck = agg.ck"
        )
        self.assert_delta(catalog, database, top, "c", [(9, "n9")], +1)
        agg = database.relation("agg")
        buckets = agg.hash_index((0,))
        assert buckets[(1,)] == [(1, 2, 3.5)]
        # Grow group 1 in place and start group 7.
        batch = [(30, 1, 1.0), (31, 7, 2.0)]
        delta = compute_view_delta(agg_view, "o", batch, database)
        database.relation("o").extend(batch)
        merge_aggregate_delta(agg_view, delta, +1, database)
        assert agg.hash_index((0,))[(1,)] == [(1, 3, 4.5)]
        assert agg.hash_index((0,)) is not buckets
        self.assert_delta(catalog, database, top, "c", [(1, "n1")], -1)
        self.assert_delta(catalog, database, top, "c", [(7, "n7"), (1, "n1")], +1)


# -- blow-up regression ----------------------------------------------------------

# The shape of cdc_fresh_100's mv00038: partsupp joins on ps_suppkey alone
# (80 rows per supplier) and the customer range is empty. Joining in
# statement order builds ~480k seven-table rows (about 1 GB) to return none.
BLOW_UP = (
    "select o_orderkey, l_quantity, s_suppkey, p_size, ps_partkey, "
    "c_custkey, n_nationkey "
    "from orders, lineitem, supplier, part, partsupp, customer, nation "
    "where l_orderkey = o_orderkey and l_suppkey = s_suppkey "
    "and l_partkey = p_partkey and ps_suppkey = s_suppkey "
    "and o_custkey = c_custkey and c_nationkey = n_nationkey "
    "and c_custkey >= 45237 and c_custkey <= 46004"
)


def test_partial_key_join_behind_an_empty_range_stays_small(catalog):
    statement = catalog.bind_sql(BLOW_UP)
    database = generate_tpch(scale=0.001, seed=7)  # no index built yet
    tracemalloc.start()
    try:
        result = execute(statement, database)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.rows == []
    assert peak < 50 * 2**20, f"peak {peak / 2**20:.0f} MB"
