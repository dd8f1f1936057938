"""Pool responses are compact frames: the plan travels as bytes.

A pool worker ships each result back as scalars plus the plan's pickle,
and the parent decodes the plan only when ``result.plan`` is read. These
tests pin that nothing is lost on the way: a pool-served result equals
the in-process one field by field and plan by plan, its plan executes to
the same bag as the query, one result always hands out one plan object,
and a parent cache hit on a pool-filled entry still yields its plan.
"""

import pickle
import sys
import threading

import pytest

from repro import ViewServer
from repro.core.parallel import fork_available
from repro.datagen import generate_tpch
from repro.engine import execute, materialize_view
from repro.optimizer import PlanNode, plan_result
from repro.optimizer.plans import describe_plan
from repro.service.pool import _build_handler
from repro.sql import statement_to_sql
from repro.workload import WorkloadGenerator

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="os.fork unavailable on this platform"
)

SEED = 1  # 8 of the 30 queries read a view
VIEWS = 50
QUERIES = 30

COUNTERS = (
    "invocations",
    "substitutes_produced",
    "candidates_considered",
    "candidates_skipped",
    "preaggregations_dropped",
    "preverified_rejects",
    "reject_tallies",
)


@pytest.fixture(scope="module")
def workload(catalog, paper_stats):
    generator = WorkloadGenerator(catalog, paper_stats, seed=SEED)
    views = [
        (f"fv{index:03d}", statement_to_sql(generated.statement))
        for index, (_, generated) in enumerate(generator.generate_views(VIEWS))
    ]
    queries = [
        statement_to_sql(generator.generate_query().statement)
        for _ in range(QUERIES)
    ]
    return views, queries


@pytest.fixture(scope="module")
def served(catalog, paper_stats, workload):
    """Every query served in-process and then through a two-worker pool
    over the same epoch; the server stays open for the cache tests."""
    views, queries = workload
    server = ViewServer(catalog, paper_stats, cache_size=256)
    try:
        server.register_views(views)
        optimizer = server.snapshots.current.optimizer
        local = [optimizer.optimize(catalog.bind_sql(sql)) for sql in queries]
        server.start_pool(workers=2)
        pooled = [server.rewrite(sql) for sql in queries]
        yield server, queries, local, pooled
    finally:
        server.close()


def _plan_nodes(value, seen=None):
    """Every :class:`PlanNode` reachable through containers and objects."""
    seen = set() if seen is None else seen
    if id(value) in seen or isinstance(value, (str, bytes, int, float)):
        return []
    seen.add(id(value))
    if isinstance(value, PlanNode):
        return [value]
    if isinstance(value, dict):
        children = list(value.values())
    elif isinstance(value, (tuple, list)):
        children = list(value)
    else:
        children = list(getattr(value, "__dict__", {}).values())
    return [node for child in children for node in _plan_nodes(child, seen)]


class TestParity:
    def test_pool_result_equals_in_process(self, served):
        _, queries, local, pooled = served
        assert sum(result.uses_view for result in local) >= 5
        for sql, expected, got in zip(queries, local, pooled):
            assert got.ok, (sql, got.error)
            result = got.result
            assert result.cost == expected.cost, sql
            assert result.view_names == expected.view_names, sql
            for name in COUNTERS:
                assert getattr(result, name) == getattr(expected, name), (
                    sql,
                    name,
                )
            assert describe_plan(result.plan) == describe_plan(expected.plan)

    def test_pool_plans_execute_to_the_query_bag(
        self, catalog, paper_stats, workload
    ):
        views, queries = workload
        database = generate_tpch(scale=0.001, seed=7)
        for name, sql in views:
            materialize_view(name, catalog.bind_sql(sql), database)
        with ViewServer(catalog, paper_stats) as server:
            server.register_views(views)
            server.start_pool(workers=2)
            executed = 0
            for sql in queries:
                served = server.rewrite(sql)
                assert served.ok, served.error
                expected = execute(catalog.bind_sql(served.sql), database)
                actual = plan_result(served.result.plan, database)
                assert expected.bag_equals(actual, float_digits=9), served.sql
                executed += served.uses_view
            assert executed >= 5


class TestLazyPlan:
    def test_plan_is_decoded_once(self, served):
        server, queries, _, _ = served
        fresh = server.serving_pool.rewrite(queries[0], max_staleness=60.0)
        assert fresh.ok and not fresh.cache_hit
        first = fresh.result.plan
        assert isinstance(first, PlanNode)
        assert fresh.result.plan is first

    def test_concurrent_readers_get_one_plan(self, served):
        server, queries, _, _ = served
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for sql in queries[:10]:
                # A bounded request bypasses the cache: a fresh result
                # whose plan nobody has decoded yet.
                fresh = server.serving_pool.rewrite(sql, max_staleness=60.0)
                assert _plan_nodes(vars(fresh.result)) == []
                start = threading.Barrier(4)
                plans = []

                def read() -> None:
                    start.wait()
                    plans.append(fresh.result.plan)

                threads = [threading.Thread(target=read) for _ in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
                assert len(plans) == 4
                assert all(plan is plans[0] for plan in plans)
                assert fresh.result.plan is plans[0]
        finally:
            sys.setswitchinterval(switch)

    def test_a_decoded_frame_holds_no_plan_node(self, catalog, served):
        server, queries, local, _ = served
        handle = _build_handler(catalog, server.snapshots.current)
        for sql, expected in zip(queries, local):
            frame = pickle.loads(pickle.dumps(handle((sql, None, None))))
            assert _plan_nodes(frame) == []
            assert isinstance(frame[4][1], bytes)  # the plan, still encoded
            if expected.uses_view:
                break
        else:
            pytest.fail("no query reads a view")

    def test_parent_cache_hit_yields_the_pool_plan(self, served):
        server, queries, local, _ = served
        for sql, expected in zip(queries, local):
            again = server.rewrite(sql)
            assert again.cache_hit, sql
            assert describe_plan(again.result.plan) == describe_plan(
                expected.plan
            )
