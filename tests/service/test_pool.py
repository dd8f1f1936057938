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
  because each worker serves against the single snapshot it forked with.

Plus the admission-control primitives with an injected clock.
"""

import os
import threading
import time

import pytest

from repro.core.parallel import WorkerError, fork_available
from repro.service import (
    AdmissionController,
    PoolSaturatedError,
    TokenBucket,
    ViewServer,
    WorkerPool,
)

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="os.fork unavailable on this platform"
)

WAIT = 30  # generous per-future timeout; the suite is event-driven


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestTokenBucket:
    def test_burst_then_refusal(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, capacity=3.0, clock=clock)
        assert [bucket.try_acquire() for _ in range(4)] == [
            True,
            True,
            True,
            False,
        ]

    def test_refill_is_rate_times_elapsed(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, capacity=10.0, clock=clock)
        for _ in range(10):
            assert bucket.try_acquire()
        assert not bucket.try_acquire()
        clock.advance(1.0)  # 2 tokens back
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_refill_caps_at_capacity(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=100.0, capacity=2.0, clock=clock)
        bucket.try_acquire(2.0)
        clock.advance(3600.0)
        assert bucket.try_acquire(2.0)
        assert not bucket.try_acquire()

    def test_capacity_defaults_to_rate(self):
        bucket = TokenBucket(rate=5.0, clock=FakeClock())
        assert bucket.capacity == 5.0

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0)


class TestAdmissionController:
    def test_unknown_tenants_unlimited_by_default(self):
        admission = AdmissionController(clock=FakeClock())
        assert all(admission.admit("anyone") for _ in range(100))

    def test_default_rate_applies_to_unknown_tenants(self):
        admission = AdmissionController(default_rate=2.0, clock=FakeClock())
        assert admission.admit("t1")
        assert admission.admit("t1")
        assert not admission.admit("t1")
        # Separate tenant, separate bucket.
        assert admission.admit("t2")

    def test_configure_overrides_and_exempts(self):
        clock = FakeClock()
        admission = AdmissionController(default_rate=1.0, clock=clock)
        admission.configure("vip", rate=None)  # exempt
        admission.configure("small", rate=1.0, burst=1.0)
        assert all(admission.admit("vip") for _ in range(50))
        assert admission.admit("small")
        assert not admission.admit("small")
        clock.advance(1.0)
        assert admission.admit("small")

    def test_stats_count_both_outcomes(self):
        admission = AdmissionController(clock=FakeClock())
        admission.configure("t", rate=1.0, burst=1.0)
        admission.admit("t")
        admission.admit("t")
        admission.admit("t")
        stats = admission.stats()
        assert stats["admitted"]["t"] == 1
        assert stats["throttled"]["t"] == 2


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
            while pool.busy() == 0 and time.monotonic() < deadline:
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
            while pool.worker_count() < 1 and time.monotonic() < deadline:
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
            assert pool.generation == 1
            assert pool.stats()["swaps"] == 1
            deadline = time.monotonic() + WAIT
            while pool.worker_count() != 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert pool.worker_count() == 2  # old fleet fully retired
        finally:
            pool.close()

    def test_drain_close_serves_backlog(self):
        pool = WorkerPool(lambda x: time.sleep(0.01) or x, workers=1)
        futures = [pool.submit(i) for i in range(5)]
        pool.close(drain=True)
        assert [f.result(timeout=0) for f in futures] == list(range(5))
        assert pool.worker_count() == 0

    def test_nondrain_close_fails_backlog_fast(self):
        pool = WorkerPool(lambda x: time.sleep(x) or x, workers=1)
        blocker = pool.submit(0.2)
        deadline = time.monotonic() + WAIT
        while pool.busy() == 0 and time.monotonic() < deadline:
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


@needs_fork
class TestServingPool:
    def test_rewrite_routes_through_pool(self, catalog, paper_stats):
        with ViewServer(catalog, paper_stats, workers=2) as server:
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

    def test_repeat_query_hits_parent_cache(self, catalog, paper_stats):
        with ViewServer(catalog, paper_stats, workers=2) as server:
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
        from repro.service import pool as pool_module

        monkeypatch.setattr(pool_module, "_FINGERPRINT_MEMO_CAPACITY", 2)
        with ViewServer(catalog, paper_stats, workers=2) as server:
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

    def test_admission_throttles_before_queueing(self, catalog, paper_stats):
        clock = FakeClock()
        admission = AdmissionController(clock=clock)
        admission.configure("metered", rate=1.0, burst=1.0)
        with ViewServer(catalog, paper_stats, workers=2) as server:
            server.start_pool(workers=1, admission=admission)
            first = server.serving_pool.rewrite(QUERY_SQL, tenant="metered")
            second = server.serving_pool.rewrite(QUERY_SQL, tenant="metered")
            assert first.ok
            assert second.rejected and not second.ok
            assert server.stats()["pool"]["admission"]["throttled"] == {
                "metered": 1
            }

    def test_zero_deadline_times_out(self, catalog, paper_stats):
        with ViewServer(catalog, paper_stats, workers=2) as server:
            server.start_pool(workers=1)
            result = server.rewrite(QUERY_SQL, deadline=0.0)
            assert result.timed_out and not result.ok

    def test_bad_sql_is_an_error_result(self, catalog, paper_stats):
        with ViewServer(catalog, paper_stats, workers=2) as server:
            server.start_pool(workers=1)
            result = server.rewrite("select nope from missing_table")
            assert result.error is not None
            assert not result.ok

    def test_epoch_swap_picks_up_new_views(self, catalog, paper_stats):
        with ViewServer(catalog, paper_stats, workers=2) as server:
            server.start_pool(workers=1)
            before = server.rewrite(QUERY_SQL)
            assert before.ok and not before.uses_view
            server.register_view("pv_line", VIEW_SQL)
            pool = server.serving_pool
            deadline = time.monotonic() + WAIT
            while pool.epoch != server.epoch and time.monotonic() < deadline:
                time.sleep(0.01)
            assert pool.epoch == server.epoch
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
        with ViewServer(catalog, paper_stats, workers=2) as server:
            server.start_pool(workers=1, max_retries=1)
            result = server.rewrite(QUERY_SQL)
            assert result.error is not None and not result.ok
            metrics = server.metrics
            assert metrics.counter("errors").value == 1
            assert (
                metrics.histogram("total").count
                == metrics.counter("requests").value
                == 1
            )

    def test_stop_pool_restores_inprocess_serving(self, catalog, paper_stats):
        with ViewServer(catalog, paper_stats, workers=2) as server:
            server.register_view("pv_line", VIEW_SQL)
            server.start_pool(workers=1)
            assert server.rewrite(QUERY_SQL).ok
            server.stop_pool()
            assert server.serving_pool is None
            result = server.rewrite(QUERY_SQL)
            assert result.ok and result.uses_view

    def test_close_leaves_no_child_process(self, catalog, paper_stats):
        """Exporting a snapshot to shared memory starts multiprocessing's
        resource-tracker child; ``close()`` must stop and reap it along
        with every worker of every generation."""
        from multiprocessing import resource_tracker

        # A tracker some earlier test left running is not the pool's to
        # stop: start from none.
        resource_tracker._resource_tracker._stop()
        before = _child_pids()
        with ViewServer(catalog, paper_stats, workers=2) as server:
            server.register_view("pv_line", VIEW_SQL)
            server.start_pool(workers=2)
            assert server.rewrite(QUERY_SQL).ok
            server.register_view(
                "pv_orders", "select o_orderkey, o_custkey from orders"
            )
            pool = server.serving_pool
            deadline = time.monotonic() + WAIT
            while pool.epoch != server.epoch and time.monotonic() < deadline:
                time.sleep(0.01)
            assert pool.epoch == server.epoch  # the publish was exported
            assert _child_pids() - before  # workers + tracker are running
        assert _child_pids() - before == set()

    def test_epoch_churn_yields_no_torn_reads(self, catalog, paper_stats):
        """Readers hammer the pool while a writer registers and drops
        views. Every result must come from exactly one published epoch:
        its plan's views are a subset of that epoch's registered set."""
        READERS = 3
        REQUESTS = 12
        CYCLES = 3
        with ViewServer(
            catalog, paper_stats, workers=2, cache_size=256
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
