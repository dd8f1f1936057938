"""Concurrency regression: readers hammer the server during catalog churn.

The ISSUE-level contract for the serving layer:

* no request ever fails or observes an exception while views are being
  registered and dropped concurrently;
* **no torn matches** -- every result was produced against exactly one
  published snapshot, so the views its plan reads are a subset of the
  views registered in the epoch it reports;
* epochs only increase, both globally (publication order) and as
  observed by any single reader thread.
"""

import threading

from repro.service import ViewServer

QUERIES = [
    "select l_partkey, l_quantity from lineitem where l_quantity >= 25",
    "select l_partkey from lineitem where l_quantity >= 30",
    "select o_orderkey from orders where o_orderkey >= 1",
    "select p_partkey, p_retailprice from part where p_retailprice >= 500",
    "select l_partkey from lineitem, part "
    "where l_partkey = p_partkey and p_retailprice >= 500",
]

# Views the writer cycles through; the first two can answer the lineitem
# queries, the third the part queries, so readers race real rewrites.
VIEWS = [
    ("v_line", "select l_partkey, l_quantity from lineitem where l_quantity >= 10"),
    ("v_part", "select p_partkey, p_retailprice from part where p_retailprice >= 100"),
    (
        "v_join",
        "select l_partkey, p_retailprice from lineitem, part "
        "where l_partkey = p_partkey",
    ),
]

READERS = 6
REQUESTS_PER_READER = 80
WRITER_CYCLES = 12


def test_readers_survive_concurrent_catalog_churn(catalog, paper_stats):
    with ViewServer(catalog, paper_stats, cache_size=256) as server:
        # Epoch -> registered view set, recorded at publication time (the
        # listener runs under the writer lock, so the map is race-free).
        epoch_views = {0: frozenset()}
        published = [0]
        server.snapshots.add_listener(
            lambda snapshot: (
                epoch_views.__setitem__(snapshot.epoch, snapshot.view_names),
                published.append(snapshot.epoch),
            )
        )

        errors: list[str] = []
        results_per_thread: list[list] = [[] for _ in range(READERS)]
        start = threading.Barrier(READERS + 1)

        def reader(slot: int) -> None:
            start.wait()
            try:
                for i in range(REQUESTS_PER_READER):
                    result = server.serve(QUERIES[(slot + i) % len(QUERIES)])
                    results_per_thread[slot].append(result)
            except Exception as exc:  # noqa: BLE001 - the test's whole point
                errors.append(f"reader {slot}: {exc!r}")

        def writer() -> None:
            start.wait()
            try:
                for _ in range(WRITER_CYCLES):
                    for name, sql in VIEWS:
                        server.register_view(name, sql)
                    for name, _ in VIEWS:
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

        # Every request was served: nothing shed, nothing failed.
        for results in results_per_thread:
            assert len(results) == REQUESTS_PER_READER
            for result in results:
                assert result.error is None, result.error
                assert not result.rejected
                assert not result.timed_out
                assert result.ok

        # Epochs only increase: globally in publication order...
        assert published == sorted(published)
        assert len(published) == len(set(published))
        assert published[-1] == 2 * WRITER_CYCLES * len(VIEWS)
        # ...and as observed by each reader thread.
        for results in results_per_thread:
            epochs = [r.epoch for r in results]
            assert epochs == sorted(epochs)

        # No torn matches: whatever snapshot answered, the views the plan
        # reads were all registered in that exact epoch. (Cache hits
        # satisfy this too -- the cache only returns epoch-matching
        # entries.)
        for results in results_per_thread:
            for result in results:
                registered = epoch_views[result.epoch]
                assert set(result.view_names) <= registered, (
                    f"epoch {result.epoch} served views "
                    f"{result.view_names} but had {sorted(registered)}"
                )

        # The run exercised both sides of the race for real.
        stats = server.stats()
        assert stats["counters"]["requests"] == READERS * REQUESTS_PER_READER
        assert stats["counters"]["epoch_bumps"] == published[-1]
