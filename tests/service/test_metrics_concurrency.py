"""Thread-safety of the server's one metrics registry, the ``TelemetryHub``.

The hub's contract: every write and read takes its lock, so counts are
exact under any contention, a name written by racing threads becomes
one series, and reads concurrent with writes never crash or observe a
torn structure.
"""

import threading

from repro.obs.telemetry import TelemetryHub, render_prometheus
from repro.service import ViewServer

THREADS = 8
ITERATIONS = 2000

BASE_ONLY = "select o_orderkey from orders where o_orderkey >= 1"


def hammer(worker, threads=THREADS):
    barrier = threading.Barrier(threads)

    def run(index):
        barrier.wait()
        worker(index)

    pool = [
        threading.Thread(target=run, args=(index,))
        for index in range(threads)
    ]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()


class TestCreationRace:
    def test_racing_counter_creation_converges_on_one_object(self):
        hub = TelemetryHub()

        def worker(_index):
            hub.increment("requests")

        hammer(worker)
        assert hub.snapshot()["counters"] == {"requests": THREADS}

    def test_racing_histogram_and_sketch_creation(self):
        hub = TelemetryHub()

        def worker(index):
            hub.record("total_seconds", 0.001 * (index + 1))
            hub.record("worker_seconds", 0.002)

        hammer(worker)
        sketches = hub.snapshot()["sketches"]
        assert sorted(sketches) == ["total_seconds", "worker_seconds"]
        assert sketches["total_seconds"]["count"] == THREADS
        assert sketches["worker_seconds"]["count"] == THREADS

    def test_concurrent_creation_of_distinct_metrics_loses_none(self):
        hub = TelemetryHub()

        def worker(index):
            for i in range(50):
                hub.increment(f"c_{index}_{i}")

        hammer(worker)
        counters = hub.snapshot()["counters"]
        assert len(counters) == THREADS * 50
        assert all(value == 1 for value in counters.values())


class TestConcurrentRecording:
    def test_private_metrics_per_thread_are_exact(self):
        hub = TelemetryHub()

        def worker(index):
            for _ in range(ITERATIONS):
                hub.increment(f"requests_{index}")
                hub.record(f"latency_{index}_seconds", 0.001)

        hammer(worker)
        snapshot = hub.snapshot()
        assert all(
            value == ITERATIONS for value in snapshot["counters"].values()
        )
        assert all(
            snap["count"] == ITERATIONS
            for snap in snapshot["sketches"].values()
        )

    def test_shared_counter_loss_is_bounded(self):
        hub = TelemetryHub()

        def worker(_index):
            for _ in range(ITERATIONS):
                hub.increment("shared")

        hammer(worker)
        # The hub's lock bounds the loss at zero: the count is exact.
        assert hub.snapshot()["counters"] == {"shared": THREADS * ITERATIONS}

    def test_shared_histogram_stays_structurally_sound(self):
        hub = TelemetryHub()

        def worker(index):
            for i in range(ITERATIONS):
                hub.record("shared_seconds", 0.0001 * (1 + (index + i) % 10))

        hammer(worker)
        expected = THREADS * ITERATIONS
        wire = hub.sketch("shared_seconds").to_dict()
        assert wire["count"] == expected
        # Bucket tallies and the count are updated under one lock, so
        # they agree exactly.
        assert sum(wire["buckets"].values()) + wire["zero_count"] == expected
        snapshot = hub.snapshot()["sketches"]["shared_seconds"]
        assert snapshot["min"] <= snapshot["p50"] <= snapshot["max"]

    def test_reads_concurrent_with_writes_never_tear(self):
        hub = TelemetryHub()
        stop = threading.Event()
        failures = []

        def reader():
            last = 0
            while not stop.is_set():
                try:
                    snapshot = hub.snapshot()
                    render_prometheus({"telemetry": snapshot})
                except Exception as exc:  # pragma: no cover - the failure
                    failures.append(exc)
                    return
                total = sum(snapshot["counters"].values())
                if total < last:
                    failures.append(f"counter went backwards: {total} < {last}")
                    return
                # One locked read: each counter add precedes its record.
                recorded = snapshot["sketches"].get(
                    "latency_seconds", {"count": 0}
                )["count"]
                if not total - THREADS <= recorded <= total:
                    failures.append(f"torn read: {total} adds, {recorded} records")
                    return
                last = total

        def worker(index):
            for _ in range(ITERATIONS):
                hub.increment(f"c{index % 4}")
                hub.record("latency_seconds", 0.001)

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            hammer(worker)
        finally:
            stop.set()
            thread.join()
        assert failures == []
        counters = hub.snapshot()["counters"]
        assert sum(counters.values()) == THREADS * ITERATIONS


class TestServerCounts:
    def test_threaded_submits_are_counted_exactly(
        self, catalog, paper_stats
    ):
        per_thread = 25
        with ViewServer(catalog, paper_stats) as server:
            results = [[] for _ in range(THREADS)]

            def worker(index):
                for _ in range(per_thread):
                    results[index].append(server.serve(BASE_ONLY))

            hammer(worker)
            stats = server.stats()
        requests = THREADS * per_thread
        assert all(result.ok for batch in results for result in batch)
        counters = stats["counters"]
        assert counters["requests"] == requests
        assert stats["latency"]["total"]["count"] == requests
        assert counters["cache_hits"] + counters["cache_misses"] == requests
