"""The serving tier keeps compact state.

Every rewrite-cache entry is a result frame -- scalars plus the plan's
pickle, decoded on the first read of ``plan`` -- whether a pool worker
or the serving process optimized it, and the statement memo maps SQL
text to its fingerprint only. A request the memo answers but the cache
cannot (an evicted or stale entry, a ``max_staleness`` request) binds
its text again; these tests pin that it then returns what a
fresh server returns, and that the second bind counts as a parse.
"""

import pytest

from repro import ViewServer
from repro.errors import BindError
from repro.optimizer.plans import describe_plan
from repro.sql import statement_to_sql
from repro.workload import WorkloadGenerator

from .test_pool_frames import _plan_nodes

SEED = 1
VIEWS = 40
QUERIES = 10


@pytest.fixture(scope="module")
def workload(catalog, paper_stats):
    """``VIEWS`` views, one spare view for an epoch bump, and queries."""
    generator = WorkloadGenerator(catalog, paper_stats, seed=SEED)
    views = [
        (f"cv{index:03d}", statement_to_sql(generated.statement))
        for index, (_, generated) in enumerate(
            generator.generate_views(VIEWS + 1)
        )
    ]
    queries = [
        statement_to_sql(query.statement)
        for query in generator.generate_queries(QUERIES)
    ]
    assert len(set(queries)) == QUERIES
    return views[:VIEWS], views[VIEWS], queries


def _server(catalog, paper_stats, views, **kwargs) -> ViewServer:
    server = ViewServer(catalog, paper_stats, **kwargs)
    server.register_views(views)
    return server


def _fresh(catalog, paper_stats, views, queries) -> dict:
    """What a fresh server returns for each query: the reference."""
    with _server(catalog, paper_stats, views) as server:
        served = {sql: server.serve(sql) for sql in queries}
        for result in served.values():
            assert result.ok, result.error
            describe_plan(result.result.plan)  # decode inside the server
        return served


@pytest.fixture(scope="module")
def expected(catalog, paper_stats, workload):
    views, _, queries = workload
    served = _fresh(catalog, paper_stats, views, queries)
    assert any(result.uses_view for result in served.values())
    return served


def _same(got, want) -> None:
    assert got.ok, got.error
    assert got.result.cost == want.result.cost, got.sql
    assert got.view_names == want.view_names, got.sql
    assert describe_plan(got.result.plan) == describe_plan(
        want.result.plan
    ), got.sql


def _count(server, stage: str) -> int:
    return server.stats()["latency"].get(stage, {"count": 0})["count"]


class TestCacheEntriesAreFrames:
    def test_a_cached_entry_holds_no_plan_node(
        self, catalog, paper_stats, workload, expected
    ):
        views, _, queries = workload
        sql = next(q for q in queries if expected[q].uses_view)
        with _server(catalog, paper_stats, views) as server:
            first = server.serve(sql)
            entry = server.cache._entries[first.fingerprint]
            assert entry.result is first.result
            assert _plan_nodes(entry.result) == []
            assert isinstance(first.result.__dict__["_plan_bytes"], bytes)
            _same(first, expected[sql])  # reads (decodes) the plan
            assert _plan_nodes(entry.result) != []  # decoded once, kept
            second = server.serve(sql)
            assert second.cache_hit
            assert second.result is first.result

    def test_a_batch_entry_holds_no_plan_node(
        self, catalog, paper_stats, workload, expected
    ):
        views, _, queries = workload
        with _server(catalog, paper_stats, views) as server:
            served = [server.serve(sql) for sql in queries]
            for result in served:
                entry = server.cache._entries[result.fingerprint]
                assert entry.result is result.result
                assert _plan_nodes(entry.result) == []
            for result in served:
                _same(result, expected[result.sql])

    def test_the_memo_holds_only_fingerprints(
        self, catalog, paper_stats, workload
    ):
        views, _, queries = workload
        with _server(catalog, paper_stats, views) as server:
            for sql in queries + queries:
                assert server.serve(sql).ok
            memo = server._statement_memo
            assert sorted(memo.keys()) == sorted(queries)
            assert all(isinstance(memo[sql], str) for sql in queries)

    def test_the_memo_fills_only_for_cache_probes(
        self, catalog, paper_stats, workload
    ):
        """Not with the cache off, not for bounded requests: neither
        probes the cache, the one step a memo answer saves a parse for."""
        views, _, queries = workload
        with _server(
            catalog, paper_stats, views, cache_enabled=False
        ) as server:
            for sql in queries[:2] + queries[:2]:
                assert server.serve(sql).ok
            assert len(server._statement_memo) == 0
        with _server(catalog, paper_stats, views) as server:
            for sql in queries[:2] + queries[:2]:
                assert server.serve(sql, max_staleness=60.0).ok
            assert len(server._statement_memo) == 0


class TestMemoHitThatBindsAgain:
    def _rebinds(self, server, sql, **kwargs):
        """Serve a text the memo knows; it must parse once more and not
        fingerprint again."""
        assert sql in server._statement_memo
        parses = _count(server, "parse")
        fingerprints = _count(server, "fingerprint")
        served = server.serve(sql, **kwargs)
        assert not served.cache_hit
        assert _count(server, "parse") == parses + 1
        assert _count(server, "fingerprint") == fingerprints
        return served

    def test_after_an_eviction(self, catalog, paper_stats, workload, expected):
        views, _, queries = workload
        with _server(catalog, paper_stats, views, cache_size=1) as server:
            for sql in queries:
                assert server.serve(sql).ok
            assert server.cache.statistics.evictions == QUERIES - 1
            for sql in queries:
                _same(self._rebinds(server, sql), expected[sql])

    def test_after_an_epoch_bump(self, catalog, paper_stats, workload):
        views, spare, queries = workload
        with _server(catalog, paper_stats, views) as server:
            for sql in queries:
                assert server.serve(sql).ok
            server.register_view(*spare)
            assert len(server.cache) == 0
            reference = _fresh(catalog, paper_stats, views + [spare], queries)
            for sql in queries:
                _same(self._rebinds(server, sql), reference[sql])

    def test_a_bounded_request(self, catalog, paper_stats, workload, expected):
        views, _, queries = workload
        with _server(catalog, paper_stats, views) as server:
            for sql in queries:
                assert server.serve(sql).ok
            for sql in queries:
                served = self._rebinds(server, sql, max_staleness=60.0)
                assert served.max_staleness == 60.0
                _same(served, expected[sql])

    def test_a_failed_second_bind_is_an_error_result(
        self, catalog, paper_stats, workload, monkeypatch
    ):
        views, _, queries = workload
        with _server(catalog, paper_stats, views, cache_size=1) as server:
            for sql in queries[:2]:
                assert server.serve(sql).ok
            bind_sql = catalog.bind_sql

            def refuse_first(sql):
                if sql == queries[0]:
                    raise BindError("gone")
                return bind_sql(sql)

            monkeypatch.setattr(catalog, "bind_sql", refuse_first)
            errors = server.stats()["counters"].get("errors", 0)
            assert server.serve(queries[0]).error == "gone"
            batch = [server.serve(sql) for sql in queries[:2] + queries[:1]]
            assert [result.error for result in batch] == ["gone", None, "gone"]
            assert batch[1].cache_hit
            assert server.stats()["counters"]["errors"] == errors + 3
