"""Deadline propagation through the serving path.

The historical bug: a request's deadline was only checked once, at
dequeue time -- a request that started with 1ms of budget left would
then run an unbounded optimizer search. The fix threads the remaining
budget into :meth:`Optimizer.optimize` as an absolute ``deadline``; the
search checks it per connected subset and before every view-matching
invocation (the dominant cost at large catalogs) and raises
:class:`DeadlineExceeded`, which the server folds into a ``timed_out``
result. Through the worker pool the same deadline also covers the
request's wait in the queue.
"""

import threading
import time

import pytest

from repro.core.parallel import fork_available
from repro.errors import DeadlineExceeded
from repro.service import ViewServer

VIEW_SQL = (
    "select l_partkey, l_quantity from lineitem where l_quantity >= 10"
)
QUERY_SQL = (
    "select l_partkey, l_quantity from lineitem where l_quantity >= 25"
)
# A join: its search walks several connected subsets, so a deadline
# check runs *after* the first (slow) matcher call.
JOIN_SQL = (
    "select l_partkey from lineitem, part "
    "where l_partkey = p_partkey and p_retailprice >= 500"
)


def test_optimizer_raises_on_expired_deadline(catalog, paper_stats):
    with ViewServer(catalog, paper_stats) as server:
        server.register_view("dv_line", VIEW_SQL)
        snapshot = server.snapshots.current
        statement = server.catalog.bind_sql(QUERY_SQL)
        with pytest.raises(DeadlineExceeded):
            snapshot.optimizer.optimize(
                statement, deadline=time.monotonic() - 1.0
            )
        # No deadline (or a generous one): same call succeeds.
        assert snapshot.optimizer.optimize(
            statement, deadline=time.monotonic() + 60.0
        )


def test_submit_with_exhausted_budget_times_out(catalog, paper_stats):
    with ViewServer(catalog, paper_stats) as server:
        result = server.serve(QUERY_SQL, deadline=0.0)
        assert result.timed_out and not result.ok
        assert server.stats()["counters"]["timeouts"] == 1


def test_deadline_bounds_a_search_already_underway(catalog, paper_stats):
    """The regression proper: a request that passes the dequeue check
    with budget remaining must still be cut off once the search itself
    overruns -- not allowed to run to completion late."""
    with ViewServer(catalog, paper_stats) as server:
        server.register_view("dv_line", VIEW_SQL)
        snapshot = server.snapshots.current
        real_match = snapshot.matcher.match

        def slow_match(query, **kwargs):
            time.sleep(0.1)
            return real_match(query, **kwargs)

        snapshot.matcher.match = slow_match
        try:
            # 30ms of budget, 100ms per matcher call: the first call is
            # allowed to finish, the next deadline check must fire.
            result = server.serve(JOIN_SQL, deadline=0.03)
            assert result.timed_out and not result.ok
            assert server.stats()["counters"]["timeouts"] == 1
            # Without a deadline the identical query plans fine.
            assert server.serve(JOIN_SQL).ok
        finally:
            snapshot.matcher.match = real_match


@pytest.mark.skipif(not fork_available(), reason="needs os.fork")
def test_submit_async_deadline_covers_queue_wait_plus_search(
    catalog, paper_stats, monkeypatch
):
    """Through the pool, the one worker is busy with a slow request: the
    next request spends its whole budget queued behind it and comes back
    timed out, although its own search would fit the budget."""
    from repro.service import pool as pool_module

    real_build = pool_module._build_handler

    def slow_join_handler(catalog, snapshot):
        handle = real_build(catalog, snapshot)

        def slow(payload):
            if payload[0] == JOIN_SQL:
                time.sleep(0.3)
            return handle(payload)

        return slow

    monkeypatch.setattr(pool_module, "_build_handler", slow_join_handler)
    with ViewServer(catalog, paper_stats, cache_enabled=False) as server:
        server.register_view("dv_line", VIEW_SQL)
        pool = server.start_pool(workers=1)
        blocked = []
        blocker = threading.Thread(
            target=lambda: blocked.append(server.rewrite(JOIN_SQL))
        )
        blocker.start()
        deadline = time.monotonic() + 30
        while pool.stats()["busy"] == 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        result = server.rewrite(QUERY_SQL, deadline=0.05)
        blocker.join(timeout=30)
        assert not blocker.is_alive() and blocked[0].ok
        assert result.timed_out and not result.ok
        assert server.stats()["counters"]["timeouts"] == 1
        # Alone in the queue, the same request fits a generous budget.
        assert server.rewrite(QUERY_SQL, deadline=30.0).ok
