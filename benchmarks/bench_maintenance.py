"""Incremental maintenance vs. full recomputation.

Quantifies why Section 2's incremental-maintenance rules (count_big,
sum-only aggregates) are worth their restrictions: applying a small delta
to a materialized aggregation view is orders of magnitude cheaper than
recomputing the view from its base tables. Incremental runs write
through the CDC pipeline and drain it after every write, so each timed
step includes logging the change and merging its delta.
"""

from __future__ import annotations

import pytest

from repro.catalog import tpch_catalog
from repro.cdc import CdcPipeline
from repro.datagen import generate_tpch
from repro.engine import Database, execute

VIEW_SQL = (
    "select o_custkey, sum(o_totalprice) as revenue, count_big(*) as cnt "
    "from orders group by o_custkey"
)
JOIN_VIEW_SQL = (
    "select l_partkey, sum(l_quantity) as q, count_big(*) as cnt "
    "from lineitem, orders where l_orderkey = o_orderkey group by l_partkey"
)


def fresh_setup(view_sql: str):
    catalog = tpch_catalog()
    database = generate_tpch(scale=0.002, seed=21)
    pipeline = CdcPipeline(catalog, database)
    statement = catalog.bind_sql(view_sql)
    pipeline.register_view("mv", statement)
    return catalog, database, pipeline, statement


def order_rows(start_key: int, count: int):
    return [
        (start_key + i, (i % 200) + 1, "O", 100.0 + i, 9000 + (i % 100),
         "1-URGENT", "Clerk#1", 0, "bench")
        for i in range(count)
    ]


@pytest.mark.parametrize("batch", [1, 10, 100])
def test_incremental_insert(benchmark, batch):
    catalog, database, pipeline, _ = fresh_setup(VIEW_SQL)
    state = {"next_key": 10_000_000}

    def run():
        rows = order_rows(state["next_key"], batch)
        state["next_key"] += batch
        pipeline.insert("orders", rows)
        pipeline.drain()

    benchmark(run)
    benchmark.extra_info["batch"] = batch


@pytest.mark.parametrize("batch", [1, 10, 100])
def test_recompute_after_insert(benchmark, batch):
    catalog, database, pipeline, statement = fresh_setup(VIEW_SQL)
    state = {"next_key": 10_000_000}

    def run():
        rows = order_rows(state["next_key"], batch)
        state["next_key"] += batch
        relation = database.relation("orders")
        relation.rows.extend(rows)
        relation.bump_version()
        result = execute(statement, database)
        database.store("mv", database.relation("mv").columns, result.rows)

    benchmark(run)
    benchmark.extra_info["batch"] = batch


def test_incremental_insert_join_view(benchmark):
    catalog, database, pipeline, _ = fresh_setup(JOIN_VIEW_SQL)
    state = {"next_key": 10_000_000}

    def run():
        # New lineitems referencing existing orders/parts.
        rows = [
            (
                (state["next_key"] + i) % database.row_count("orders") + 1,
                (i % 100) + 1,
                1,
                7,
                3.0,
                500.0,
                0.01,
                0.02,
                "N",
                "O",
                9100,
                9100,
                9105,
                "NONE",
                "MAIL",
                "bench",
            )
            for i in range(10)
        ]
        state["next_key"] += 10
        pipeline.insert("lineitem", rows)
        pipeline.drain()

    benchmark(run)


def test_incremental_delete(benchmark):
    catalog, database, pipeline, _ = fresh_setup(VIEW_SQL)
    # Pre-insert a large pool of deletable rows.
    pool = order_rows(20_000_000, 3000)
    pipeline.insert("orders", pool)
    pipeline.drain()
    state = {"cursor": 0}

    def run():
        start = state["cursor"]
        state["cursor"] += 10
        pipeline.delete("orders", pool[start : start + 10])
        pipeline.drain()

    benchmark.pedantic(run, rounds=100, iterations=1, warmup_rounds=0)
