"""Property-based maintenance soundness over random views and updates.

For random maintainable SPJG views and random insert/delete sequences, a
view the CDC pipeline maintains must equal recomputation from scratch
after every write and ``drain()``. Reuses the two-table random statement
generator from the matcher property suite.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cdc import CdcPipeline
from repro.engine import Database, QueryResult, execute
from repro.errors import MatchError
from repro.sql import statement_to_sql

from ..integration.test_matcher_property import CATALOG, DATABASE, spjg_statements


def fresh_database() -> Database:
    database = Database()
    for name in DATABASE.names():
        relation = DATABASE.relation(name)
        database.store(name, relation.columns, list(relation.rows))
    return database


fact_rows = st.lists(
    st.tuples(
        st.integers(min_value=1000, max_value=9999),  # unique-ish key space
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=2),
    ),
    min_size=1,
    max_size=4,
    unique_by=lambda row: row[0],
)

operations = st.lists(
    st.tuples(st.sampled_from(["insert", "delete"]), fact_rows, st.randoms()),
    min_size=1,
    max_size=6,
)


@settings(max_examples=200, deadline=None)
@given(spjg_statements(for_view=True), operations)
def test_maintained_view_equals_recomputation(view_statement, ops):
    pipeline = CdcPipeline(CATALOG, fresh_database())
    database = pipeline.database
    try:
        view = pipeline.register_view("mv", view_statement)
    except MatchError:
        return  # not maintainable (e.g. missing count_big)
    for kind, rows, rng in ops:
        if kind == "insert":
            pipeline.insert("fact", rows)
        else:
            stored = database.relation("fact").rows
            if not stored:
                continue
            count = min(len(stored), len(rows))
            victims = rng.sample(stored, count)
            pipeline.delete("fact", victims)
        pipeline.drain()
        fresh = execute(view.statement, database)
        stored_view = database.relation("mv")
        current = QueryResult(
            columns=stored_view.columns, rows=list(stored_view.rows)
        )
        assert fresh.bag_equals(current, float_digits=9), (
            f"view diverged after {kind}: {statement_to_sql(view_statement)}"
        )


churn_operations = st.lists(
    st.tuples(
        st.sampled_from(
            ["insert", "delete", "delete_where", "register", "unregister"]
        ),
        fact_rows,
        st.randoms(),
    ),
    min_size=1,
    max_size=10,
)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        spjg_statements(for_view=True), min_size=2, max_size=3
    ),
    churn_operations,
)
def test_views_survive_mutation_and_registration_churn(definitions, ops):
    """Interleaved writes and register/unregister churn stay sound.

    Every *currently registered* view must equal recomputation after
    every operation -- including predicate deletes (which must flow
    through the same delta path as row deletes) and views registered
    mid-stream over an already-mutated table.
    """
    pipeline = CdcPipeline(CATALOG, fresh_database())
    database = pipeline.database
    registered: dict[str, object] = {}
    sequence = 0
    for kind, rows, rng in ops:
        if kind == "insert":
            pipeline.insert("fact", rows)
        elif kind == "delete":
            stored = database.relation("fact").rows
            if not stored:
                continue
            victims = rng.sample(stored, min(len(stored), len(rows)))
            pipeline.delete("fact", victims)
        elif kind == "delete_where":
            group = rng.randrange(6)
            pipeline.delete_where("fact", lambda row: row[1] == group)
        elif kind == "register":
            statement = definitions[sequence % len(definitions)]
            name = f"mv{sequence}"
            sequence += 1
            try:
                pipeline.register_view(name, statement)
            except MatchError:
                continue  # not maintainable (e.g. missing count_big)
            registered[name] = statement
        else:  # unregister
            if not registered:
                continue
            name = rng.choice(sorted(registered))
            pipeline.unregister_view(name)
            del registered[name]
        pipeline.drain()
        for name in registered:
            view = next(v for v in pipeline.applier.views() if v.name == name)
            fresh = execute(view.statement, database)
            stored_view = database.relation(name)
            current = QueryResult(
                columns=stored_view.columns, rows=list(stored_view.rows)
            )
            assert fresh.bag_equals(current, float_digits=9), (
                f"view {name} diverged after {kind}: "
                f"{statement_to_sql(view.statement)}"
            )
