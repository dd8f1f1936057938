"""The persistent worker-pool serving tier (``repro.service.pool``).

Lifecycle contracts pinned here:

* a worker crash mid-request redelivers the in-flight request, respawns
  a replacement, and never drops anything already queued behind it;
* a generation swap under load completes every outstanding future and
  leaves the fleet at target size on the new generation;
* ``close(drain=True)`` serves the backlog before stopping, while
  ``close(drain=False)`` fails the backlog fast;
* epoch swaps under concurrent rewrites yield **zero torn reads**: each
  result's plan reads only views registered in the epoch it reports,
  because each worker serves against the single snapshot it forked with;
* ``rewrite`` goes to a worker while ``serve`` stays in-process, so a
  ``serve`` right after a publish answers from the new epoch.
"""

import os
import threading
import time

import pytest

from repro.core.parallel import WorkerError, fork_available, spawn_worker
from repro.service import PoolSaturatedError, ViewServer, WorkerPool

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="os.fork unavailable on this platform"
)

WAIT = 30  # generous per-future timeout; the suite is event-driven


@needs_fork
class TestWorkerPool:
    def test_roundtrip_and_stats(self):
        pool = WorkerPool(lambda x: x * 2, workers=2)
        try:
            futures = [pool.submit(i) for i in range(8)]
            assert [f.result(timeout=WAIT) for f in futures] == [
                i * 2 for i in range(8)
            ]
            stats = pool.stats()
            assert stats["submitted"] == 8
            assert stats["completed"] == 8
            assert stats["crashes"] == 0
            assert stats["workers"] == 2
        finally:
            pool.close()

    def test_handler_exception_fails_request_not_worker(self):
        def picky(x):
            if x < 0:
                raise ValueError("negative")
            return x + 1

        pool = WorkerPool(picky, workers=1)
        try:
            bad = pool.submit(-1)
            good = pool.submit(41)
            with pytest.raises(WorkerError, match="negative"):
                bad.result(timeout=WAIT)
            assert good.result(timeout=WAIT) == 42
            assert pool.stats()["crashes"] == 0
        finally:
            pool.close()

    def test_saturation_raises_and_counts(self):
        pool = WorkerPool(lambda x: time.sleep(x) or x, workers=1, max_queue=2)
        try:
            blocker = pool.submit(0.3)
            deadline = time.monotonic() + WAIT
            while pool.stats()["busy"] == 0 and time.monotonic() < deadline:
                time.sleep(0.005)  # wait for dispatch so queue slots free up
            queued = [pool.submit(0) for _ in range(2)]
            with pytest.raises(PoolSaturatedError):
                pool.submit(0)
            assert pool.stats()["saturated"] == 1
            assert blocker.result(timeout=WAIT) == 0.3
            assert [f.result(timeout=WAIT) for f in queued] == [0, 0]
        finally:
            pool.close()

    def test_submit_after_close_raises(self):
        pool = WorkerPool(lambda x: x, workers=1)
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.submit(1)

    def test_crash_respawns_without_dropping_queued_requests(self):
        """A worker dying mid-request must not lose the requests queued
        behind it: the pool respawns and serves the whole backlog."""

        def volatile(x):
            if x == "die":
                os._exit(9)
            return x * 2

        pool = WorkerPool(volatile, workers=1, max_retries=1)
        try:
            poison = pool.submit("die")
            queued = [pool.submit(i) for i in range(5)]
            # Redelivered once, crashes the replacement too, then fails.
            with pytest.raises(WorkerError, match="2 attempts"):
                poison.result(timeout=WAIT)
            assert [f.result(timeout=WAIT) for f in queued] == [
                i * 2 for i in range(5)
            ]
            deadline = time.monotonic() + WAIT
            while pool.stats()["workers"] < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            stats = pool.stats()
            assert stats["workers"] == 1  # capacity recovered
            assert stats["crashes"] == 2
            assert stats["respawns"] == 2
            assert stats["redelivered"] == 1
            assert stats["failed"] == 1
        finally:
            pool.close()

    def test_swap_under_load_completes_everything(self):
        pool = WorkerPool(lambda x: ("g0", x), workers=2, max_queue=256)
        try:
            first = [pool.submit(i) for i in range(20)]
            pool.swap(lambda x: ("g1", x))
            second = [pool.submit(i) for i in range(20)]
            results = [
                f.result(timeout=WAIT) for f in first + second
            ]
            # No future dropped, every payload answered by some generation.
            assert sorted(x for _, x in results) == sorted(
                list(range(20)) * 2
            )
            assert {tag for tag, _ in results} <= {"g0", "g1"}
            # The new generation is live: fresh requests get g1 answers.
            deadline = time.monotonic() + WAIT
            while time.monotonic() < deadline:
                if pool.submit(99).result(timeout=WAIT)[0] == "g1":
                    break
                time.sleep(0.01)
            else:
                pytest.fail("swap never produced a new-generation answer")
            assert pool.stats()["generation"] == 1
            assert pool.stats()["swaps"] == 1
            deadline = time.monotonic() + WAIT
            while pool.stats()["workers"] != 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert pool.stats()["workers"] == 2  # old fleet fully retired
        finally:
            pool.close()

    def test_drain_close_serves_backlog(self):
        pool = WorkerPool(lambda x: time.sleep(0.01) or x, workers=1)
        futures = [pool.submit(i) for i in range(5)]
        pool.close(drain=True)
        assert [f.result(timeout=0) for f in futures] == list(range(5))
        assert pool.stats()["workers"] == 0

    def test_nondrain_close_fails_backlog_fast(self):
        pool = WorkerPool(lambda x: time.sleep(x) or x, workers=1)
        blocker = pool.submit(0.2)
        deadline = time.monotonic() + WAIT
        while pool.stats()["busy"] == 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        queued = [pool.submit(0) for _ in range(3)]
        pool.close(drain=False)
        assert blocker.result(timeout=WAIT) == 0.2  # in-flight finishes
        for future in queued:
            with pytest.raises(WorkerError, match="pool closed"):
                future.result(timeout=WAIT)


VIEW_SQL = (
    "select l_partkey, l_quantity from lineitem where l_quantity >= 10"
)
QUERY_SQL = (
    "select l_partkey, l_quantity from lineitem where l_quantity >= 25"
)

CHURN_QUERIES = [
    QUERY_SQL,
    "select l_partkey from lineitem where l_quantity >= 30",
    "select p_partkey, p_retailprice from part where p_retailprice >= 500",
]

CHURN_VIEWS = [
    ("cv_line", VIEW_SQL),
    (
        "cv_part",
        "select p_partkey, p_retailprice from part "
        "where p_retailprice >= 100",
    ),
]


def _child_pids() -> set[int]:
    """Pids of this process's children, zombies included (Linux /proc)."""
    me = os.getpid()
    children = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # exited while we were listing
        if int(fields[1]) == me:
            children.add(int(entry))
    return children


def _worker_pids(pool) -> set[int]:
    """Pids of the serving pool's live workers, every generation."""
    with pool._pool._work:
        return set(pool._pool._workers)


@pytest.mark.parametrize(
    "pooled",
    [False, pytest.param(True, marks=needs_fork)],
    ids=["in_process", "pool"],
)
def test_pool_counts_requests_like_in_process(catalog, paper_stats, pooled):
    """The serving counters read the same whichever path served: a
    pooled cache miss is counted where the worker bound the query, as
    the in-process path counts it at its cache probe."""
    with ViewServer(catalog, paper_stats) as server:
        server.register_view("pv_line", VIEW_SQL)
        if pooled:
            server.start_pool(workers=2)
        for sql in (
            QUERY_SQL,
            QUERY_SQL,
            "select nope from missing_table",
            CHURN_QUERIES[2],
        ):
            server.rewrite(sql)
        counters = server.stats()["counters"]
    counted = ("requests", "cache_hits", "cache_misses", "rewrites", "errors")
    assert {name: counters.get(name, 0) for name in counted} == {
        "requests": 4,
        "cache_hits": 1,
        "cache_misses": 2,
        "rewrites": 1,
        "errors": 1,
    }


@needs_fork
class TestServingPool:
    def test_rewrite_routes_through_pool(self, catalog, paper_stats):
        with ViewServer(catalog, paper_stats) as server:
            server.register_view("pv_line", VIEW_SQL)
            server.start_pool(workers=2)
            result = server.rewrite(QUERY_SQL)
            assert result.ok
            assert result.uses_view
            assert "pv_line" in result.view_names
            assert result.epoch == server.epoch
            stats = server.stats()["pool"]
            assert stats["submitted"] == 1
            assert stats["completed"] == 1
            assert stats["epoch"] == server.epoch

    def test_serve_stays_in_process_and_never_lags(
        self, catalog, paper_stats
    ):
        """``rewrite`` is answered by a worker; ``serve``, called the
        moment ``register_view`` returns, is answered in-process from the
        new epoch -- the pool's generation swap may not have landed."""
        with ViewServer(catalog, paper_stats) as server:
            server.start_pool(workers=1)
            routed = server.rewrite(QUERY_SQL)
            assert routed.ok and not routed.uses_view
            assert server.stats()["counters"]["pool_worker_requests"] == 1
            epoch = server.register_view("pv_line", VIEW_SQL)
            served = server.serve(QUERY_SQL)
            assert served.epoch == epoch
            assert served.view_names == ("pv_line",)
            stats = server.stats()
            assert stats["counters"]["pool_worker_requests"] == 1
            assert stats["pool"]["submitted"] == 1

    def test_repeat_query_hits_parent_cache(self, catalog, paper_stats):
        with ViewServer(catalog, paper_stats) as server:
            server.register_view("pv_line", VIEW_SQL)
            server.start_pool(workers=2)
            first = server.rewrite(QUERY_SQL)
            second = server.rewrite(QUERY_SQL)
            assert not first.cache_hit
            assert second.cache_hit
            assert second.result is first.result
            # The fast path never crossed a process boundary.
            assert server.stats()["pool"]["submitted"] == 1

    def test_fingerprint_memo_keeps_admitting_new_queries(
        self, catalog, paper_stats, monkeypatch
    ):
        """A full memo evicts its least recent entry: a query first seen
        after it filled still reaches the parent fast path."""
        with ViewServer(catalog, paper_stats) as server:
            monkeypatch.setattr(server._statement_memo, "capacity", 2)
            server.register_view("pv_line", VIEW_SQL)
            server.start_pool(workers=1)
            for sql in CHURN_QUERIES:  # fills the memo, then overflows it
                assert server.rewrite(sql).ok
            late = "select l_orderkey from lineitem where l_quantity >= 40"
            first = server.rewrite(late)
            second = server.rewrite(late)
            assert not first.cache_hit
            assert second.cache_hit
            assert server.stats()["pool"]["submitted"] == len(CHURN_QUERIES) + 1

    def test_zero_deadline_times_out(self, catalog, paper_stats):
        with ViewServer(catalog, paper_stats) as server:
            server.start_pool(workers=1)
            result = server.rewrite(QUERY_SQL, deadline=0.0)
            assert result.timed_out and not result.ok

    def test_bad_sql_is_an_error_result(self, catalog, paper_stats):
        with ViewServer(catalog, paper_stats) as server:
            server.start_pool(workers=1)
            result = server.rewrite("select nope from missing_table")
            assert result.error is not None
            assert not result.ok

    def test_epoch_swap_picks_up_new_views(self, catalog, paper_stats):
        with ViewServer(catalog, paper_stats) as server:
            server.start_pool(workers=1)
            before = server.rewrite(QUERY_SQL)
            assert before.ok and not before.uses_view
            server.register_view("pv_line", VIEW_SQL)
            pool = server.serving_pool
            deadline = time.monotonic() + WAIT
            while (
                pool.stats()["epoch"] != server.epoch
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            assert pool.stats()["epoch"] == server.epoch
            deadline = time.monotonic() + WAIT
            while time.monotonic() < deadline:
                after = server.rewrite(QUERY_SQL)
                assert after.ok
                if after.uses_view:
                    break
                time.sleep(0.01)  # a retiring g0 worker may answer once
            assert after.uses_view
            assert "pv_line" in after.view_names
            assert server.stats()["pool"]["swaps"] >= 1

    def test_pool_failures_land_in_the_total_histogram(
        self, catalog, paper_stats, monkeypatch
    ):
        """A request whose worker dies on every attempt is a served
        failure: its latency counts toward ``total`` like any other."""
        from repro.service import pool as pool_module

        def doomed_handler(catalog, snapshot):
            def handle(payload):
                os._exit(9)

            return handle

        monkeypatch.setattr(pool_module, "_build_handler", doomed_handler)
        with ViewServer(catalog, paper_stats) as server:
            server.start_pool(workers=1, max_retries=1)
            result = server.rewrite(QUERY_SQL)
            assert result.error is not None and not result.ok
            stats = server.stats()
            assert stats["counters"]["errors"] == 1
            assert (
                stats["latency"]["total"]["count"]
                == stats["counters"]["requests"]
                == 1
            )

    def test_stop_pool_restores_inprocess_serving(self, catalog, paper_stats):
        with ViewServer(catalog, paper_stats) as server:
            server.register_view("pv_line", VIEW_SQL)
            server.start_pool(workers=1)
            assert server.rewrite(QUERY_SQL).ok
            server.stop_pool()
            assert server.serving_pool is None
            result = server.rewrite(QUERY_SQL)
            assert result.ok and result.uses_view

    def test_close_leaves_no_child_process(self, catalog, paper_stats):
        """While the pool serves, the server's only children are the
        pool's workers (the fork shares the epoch; no helper process is
        started), and ``close()`` reaps every worker of every
        generation. Children some earlier test left are not the pool's:
        only the difference from the start counts."""
        before = _child_pids()
        with ViewServer(catalog, paper_stats) as server:
            server.register_view("pv_line", VIEW_SQL)
            server.start_pool(workers=2)
            assert server.rewrite(QUERY_SQL).ok
            server.register_view(
                "pv_orders", "select o_orderkey, o_custkey from orders"
            )
            pool = server.serving_pool
            deadline = time.monotonic() + WAIT
            while (
                pool.stats()["epoch"] != server.epoch
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            assert pool.stats()["epoch"] == server.epoch  # the publish was picked up
            assert server.rewrite(QUERY_SQL).ok
            # The retired generation exits on its own; wait it out.
            deadline = time.monotonic() + WAIT
            workers = _worker_pids(pool)
            while (
                _child_pids() - before != workers
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
                workers = _worker_pids(pool)
            assert len(workers) == 2
            assert _child_pids() - before == workers
        assert _child_pids() - before == set()

    def test_forked_worker_sweeps_the_parents_candidates(
        self, catalog, paper_stats
    ):
        """A worker reads its epoch through plain fork copy-on-write:
        its packed row images and its filter-tree candidates match the
        parent's byte for byte."""
        with ViewServer(catalog, paper_stats) as server:
            server.register_views([("pv_line", VIEW_SQL), *CHURN_VIEWS])
            matcher = server.snapshots.current.matcher
            tree = matcher.filter_tree

            def sweep(_payload):
                images = [
                    table.packed_bytes() for table in tree.packed_tables()
                ]
                names = [
                    [
                        view.name
                        for view in tree.candidates(
                            matcher.describe_query(catalog.bind_sql(sql))
                        )
                    ]
                    for sql in CHURN_QUERIES
                ]
                return images, names

            expected = sweep(None)  # packs the images before the fork
            assert any(expected[0]) and any(expected[1])
            handle = spawn_worker(sweep)
            try:
                handle.send(1, None)
                assert handle.recv() == (1, True, expected)
            finally:
                handle.shutdown()
                handle.reap()

    def test_fingerprint_memo_fills_only_where_it_is_read(
        self, catalog, paper_stats
    ):
        """The parent remembers a query's fingerprint, in the server's
        statement memo, only for the cache fast path: not with the cache
        off, not for bounded requests."""
        with ViewServer(
            catalog, paper_stats, cache_enabled=False
        ) as server:
            server.register_view("pv_line", VIEW_SQL)
            server.start_pool(workers=1)
            for sql in CHURN_QUERIES:
                assert server.rewrite(sql).ok
            assert len(server._statement_memo) == 0
        with ViewServer(catalog, paper_stats) as server:
            server.register_view("pv_line", VIEW_SQL)
            server.start_pool(workers=1)
            for sql in CHURN_QUERIES:
                assert server.rewrite(sql, max_staleness=60.0).ok
            assert len(server._statement_memo) == 0
            assert server.rewrite(QUERY_SQL).ok
            assert len(server._statement_memo) == 1

    def test_epoch_churn_yields_no_torn_reads(self, catalog, paper_stats):
        """Readers hammer the pool while a writer registers and drops
        views. Every result must come from exactly one published epoch:
        its plan's views are a subset of that epoch's registered set."""
        READERS = 3
        REQUESTS = 12
        CYCLES = 3
        with ViewServer(
            catalog, paper_stats, cache_size=256
        ) as server:
            epoch_views = {server.epoch: server.snapshots.current.view_names}
            server.snapshots.add_listener(
                lambda snapshot: epoch_views.__setitem__(
                    snapshot.epoch, snapshot.view_names
                )
            )
            server.start_pool(workers=2, max_queue=256)

            errors: list[str] = []
            results: list[list] = [[] for _ in range(READERS)]
            start = threading.Barrier(READERS + 1)

            def reader(slot: int) -> None:
                start.wait()
                try:
                    for i in range(REQUESTS):
                        sql = CHURN_QUERIES[(slot + i) % len(CHURN_QUERIES)]
                        results[slot].append(server.rewrite(sql))
                except Exception as exc:  # noqa: BLE001 - the test's point
                    errors.append(f"reader {slot}: {exc!r}")

            def writer() -> None:
                start.wait()
                try:
                    for _ in range(CYCLES):
                        for name, sql in CHURN_VIEWS:
                            server.register_view(name, sql)
                        for name, _ in CHURN_VIEWS:
                            server.unregister_view(name)
                except Exception as exc:  # noqa: BLE001
                    errors.append(f"writer: {exc!r}")

            threads = [
                threading.Thread(target=reader, args=(slot,))
                for slot in range(READERS)
            ] + [threading.Thread(target=writer)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            assert errors == []
            for per_reader in results:
                assert len(per_reader) == REQUESTS
                for result in per_reader:
                    assert result.ok, (result.error, result.rejected)
                    # The answering epoch was really published...
                    assert result.epoch in epoch_views
                    # ...and the plan reads only views that epoch had:
                    # a torn read (half old epoch, half new) would leak
                    # a view name missing from its own snapshot.
                    registered = epoch_views[result.epoch]
                    assert set(result.view_names) <= set(registered), (
                        f"epoch {result.epoch} served views "
                        f"{result.view_names} but had {sorted(registered)}"
                    )

            stats = server.stats()["pool"]
            assert stats["swaps"] >= 1  # churn really swapped generations
            assert stats["failed"] == 0
