"""Deferred maintenance through the change log: shadow state, watermarks.

The applier's correctness claim is that a stored view always equals what
a full recompute *at its applied LSN* would produce -- even while the
live base tables have moved on. Every test here drives the pipeline
through interleaved writes and partial scan/merge batches and checks the
stored rows against an independent recompute.
"""

import pytest

from repro.catalog import tpch_catalog
from repro.cdc import CdcPipeline
from repro.datagen import generate_tpch
from repro.engine import QueryResult, execute
from repro.errors import ExecutionError

ROLLUP = (
    "select o_custkey as c, sum(o_totalprice) as total, "
    "count_big(*) as cnt from orders group by o_custkey"
)
JOIN_VIEW = (
    "select o_custkey as c, sum(l_quantity) as qty, count_big(*) as cnt "
    "from orders, lineitem where o_orderkey = l_orderkey "
    "group by o_custkey"
)


@pytest.fixture()
def catalog():
    return tpch_catalog()


@pytest.fixture()
def pipeline(catalog):
    return CdcPipeline(catalog, generate_tpch(scale=0.0005, seed=3))


def stored(pipeline, name) -> QueryResult:
    relation = pipeline.database.relation(name)
    return QueryResult(relation.columns, list(relation.rows))


def recompute(pipeline, catalog, sql) -> QueryResult:
    return execute(catalog.bind_sql(sql), pipeline.database)


def fresh_order_row(pipeline, key_offset=1):
    orders = pipeline.database.relation("orders")
    position = orders.column_position("o_orderkey")
    template = list(orders.rows[0])
    template[position] = (
        max(row[position] for row in orders.rows) + key_offset
    )
    return tuple(template)


def test_drain_matches_recompute_after_interleaved_writes(
    pipeline, catalog
):
    pipeline.register_view("mv", catalog.bind_sql(ROLLUP))
    pipeline.insert("orders", [fresh_order_row(pipeline)])
    victim = pipeline.database.relation("orders").rows[0]
    pipeline.delete("orders", [victim])
    pipeline.delete_where("orders", lambda row: row[1] == victim[1])
    pipeline.drain()
    assert pipeline.view_freshness("mv").is_fresh
    assert stored(pipeline, "mv").bag_equals(
        recompute(pipeline, catalog, ROLLUP), float_digits=9
    )


def test_partial_scan_and_merge_move_the_watermark(pipeline, catalog):
    pipeline.register_view("mv", catalog.bind_sql(ROLLUP))
    base_head = pipeline.head_lsn
    for offset in (1, 2, 3):
        pipeline.insert("orders", [fresh_order_row(pipeline, offset)])
    assert pipeline.head_lsn == base_head + 3

    # Scanning computes deltas but does not touch the stored view: the
    # watermark stays put until the first delta is merged.
    assert pipeline.scan(limit=2) == 2
    assert pipeline.applier.scanned_lsn == base_head + 2
    assert pipeline.view_freshness("mv").applied_lsn == base_head
    assert pipeline.applier.pending_deltas("mv") == 2

    # Merging one delta advances the watermark by exactly one record.
    pipeline.merge("mv", max_deltas=1)
    assert pipeline.view_freshness("mv").applied_lsn == base_head + 1

    pipeline.drain()
    freshness = pipeline.view_freshness("mv")
    assert freshness.is_fresh
    assert freshness.applied_lsn == base_head + 3
    assert stored(pipeline, "mv").bag_equals(
        recompute(pipeline, catalog, ROLLUP), float_digits=9
    )


def test_join_view_deltas_use_state_as_of_the_record(pipeline, catalog):
    """A delta for LSN n must join against base state as of n.

    Insert an order, then lineitem rows referencing it, then delete one
    of them -- all before the applier scans anything. Replaying naively
    against the *live* tables would double- or under-count the join
    partners; the shadow database replays the history in LSN order.
    """
    pipeline.register_view("mv", catalog.bind_sql(JOIN_VIEW))
    order = fresh_order_row(pipeline)
    order_key = order[0]
    pipeline.insert("orders", [order])
    lineitem = pipeline.database.relation("lineitem")
    template = list(lineitem.rows[0])
    key_position = lineitem.column_position("l_orderkey")
    template[key_position] = order_key
    new_lines = [tuple(template), tuple(template)]
    pipeline.insert("lineitem", new_lines)
    pipeline.delete("lineitem", [new_lines[0]])
    pipeline.drain()
    assert stored(pipeline, "mv").bag_equals(
        recompute(pipeline, catalog, JOIN_VIEW), float_digits=9
    )


def test_register_seeds_from_current_state_then_lags(pipeline, catalog):
    pipeline.insert("orders", [fresh_order_row(pipeline)])
    view = pipeline.register_view("mv", catalog.bind_sql(ROLLUP))
    assert view.name == "mv"
    # Registration scans to head first, so the new view starts fresh.
    assert pipeline.view_freshness("mv").is_fresh
    assert stored(pipeline, "mv").bag_equals(
        recompute(pipeline, catalog, ROLLUP), float_digits=9
    )
    pipeline.insert("orders", [fresh_order_row(pipeline, 2)])
    assert pipeline.view_freshness("mv").lag_records == 1
    pipeline.drain()
    assert stored(pipeline, "mv").bag_equals(
        recompute(pipeline, catalog, ROLLUP), float_digits=9
    )


def test_unregister_forgets_the_view(pipeline, catalog):
    pipeline.register_view("mv", catalog.bind_sql(ROLLUP))
    pipeline.unregister_view("mv")
    assert pipeline.view_freshness("mv") is None
    assert not pipeline.database.has("mv")
    # New writes drain cleanly with no view left to maintain.
    pipeline.insert("orders", [fresh_order_row(pipeline)])
    pipeline.drain()


def test_delete_validates_before_mutating(pipeline):
    orders = pipeline.database.relation("orders")
    present = orders.rows[0]
    before_rows = len(orders.rows)
    before_head = pipeline.head_lsn
    with pytest.raises(ExecutionError):
        pipeline.delete("orders", [present, ("no", "such", "row")])
    # The outbox invariant held on the error path: neither the table nor
    # the log changed.
    assert len(orders.rows) == before_rows
    assert pipeline.head_lsn == before_head


def test_cdc_apply_events_and_listener_isolation(pipeline, catalog):
    pipeline.register_view("mv", catalog.bind_sql(ROLLUP))
    events: list[tuple[str, ...]] = []

    def failing(views):
        raise RuntimeError("listener bug")

    pipeline.add_listener(failing)
    pipeline.add_listener(events.append)
    pipeline.insert("orders", [fresh_order_row(pipeline)])
    pipeline.drain()
    assert events == [("mv",)]


def test_listener_gets_only_the_merged_views(pipeline, catalog):
    pipeline.register_view("mv_orders", catalog.bind_sql(ROLLUP))
    pipeline.register_view(
        "mv_parts", catalog.bind_sql("select p_partkey as k from part")
    )
    events: list[tuple[str, ...]] = []
    pipeline.add_listener(events.append)
    pipeline.insert("orders", [fresh_order_row(pipeline)])
    pipeline.drain()
    # A view no record touched is not named, so its cached rewrites stay.
    assert events == [("mv_orders",)]


def test_log_records_carry_the_changed_rows(pipeline):
    row = fresh_order_row(pipeline)
    inserted = pipeline.insert("orders", [row])
    deleted = pipeline.delete("orders", [row])
    assert [(r.kind, r.table, r.rows) for r in (inserted, deleted)] == [
        ("insert", "orders", (row,)),
        ("delete", "orders", (row,)),
    ]
    assert pipeline.log.records_after(inserted.lsn - 1) == (inserted, deleted)


def test_delete_where_logs_its_victim_rows(pipeline, catalog):
    """A predicate delete is logged as the concrete rows it removed, so
    replaying the log never re-evaluates the predicate."""
    pipeline.register_view("mv", catalog.bind_sql(ROLLUP))
    orders = pipeline.database.relation("orders")
    position = orders.column_position("o_custkey")
    customer = orders.rows[0][position]
    victims = sorted(row for row in orders.rows if row[position] == customer)
    head = pipeline.head_lsn
    removed = pipeline.delete_where(
        "orders", lambda row: row[position] == customer
    )
    assert removed == len(victims)
    (record,) = pipeline.log.records_after(head)
    assert (record.kind, record.table) == ("delete", "orders")
    assert sorted(record.rows) == victims
    pipeline.drain()
    assert stored(pipeline, "mv").bag_equals(
        recompute(pipeline, catalog, ROLLUP), float_digits=9
    )


def test_stats_tell_rebuilt_indexes_from_slow_views(pipeline, catalog):
    pipeline.register_view("mv", catalog.bind_sql(JOIN_VIEW))
    pipeline.register_view("rollup", catalog.bind_sql(ROLLUP))
    stats = pipeline.stats
    built = stats.join_index_builds
    assert built >= 1 and stats.delta_evaluations == 0
    # An insert-only stream evaluates one delta per record and view and
    # keeps every join index it has.
    for offset in (1, 2, 3):
        pipeline.insert("orders", [fresh_order_row(pipeline, offset)])
    pipeline.drain()
    assert stats.delta_evaluations == 6
    assert stats.join_index_builds == built
    # The lineitem delta probes orders (first use of that index); the
    # delete invalidates lineitem's own, so the next orders delta
    # rebuilds it.
    lineitem = pipeline.database.relation("lineitem")
    pipeline.delete("lineitem", [lineitem.rows[0]])
    pipeline.insert("orders", [fresh_order_row(pipeline, 4)])
    pipeline.drain()
    assert stats.delta_evaluations == 9
    assert stats.join_index_builds == built + 2
    snapshot = stats.snapshot()
    assert snapshot["delta_evaluations"] == 9
    assert snapshot["join_index_builds"] == built + 2


def test_stats_count_materializations_and_their_time(pipeline, catalog):
    stats = pipeline.stats
    assert (stats.views_materialized, stats.materialize_seconds) == (0, 0.0)
    pipeline.register_view("mv", catalog.bind_sql(JOIN_VIEW))
    pipeline.register_view("rollup", catalog.bind_sql(ROLLUP))
    assert stats.views_materialized == 2
    assert stats.materialize_seconds > 0
    snapshot = stats.snapshot()
    assert snapshot["views_materialized"] == 2
    assert snapshot["materialize_seconds"] == stats.materialize_seconds
    # Maintenance is not materialization.
    pipeline.insert("orders", [fresh_order_row(pipeline)])
    pipeline.drain()
    assert stats.views_materialized == 2


def test_unregistered_view_no_longer_receives_deltas(pipeline, catalog):
    pipeline.register_view("mv", catalog.bind_sql(ROLLUP))
    pipeline.register_view("other", catalog.bind_sql(ROLLUP))
    pipeline.unregister_view("mv")
    pipeline.insert("orders", [fresh_order_row(pipeline)])
    pipeline.drain()
    assert pipeline.stats.delta_evaluations == 1
    assert [view.name for view in pipeline.applier.views()] == ["other"]
