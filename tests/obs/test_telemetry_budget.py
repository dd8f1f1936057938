"""The always-on telemetry pipeline costs at most 25% of serving time.

Serving the same queries with a journaling ``WorkloadRecorder`` and an
SLO tracker attached may be at most ``BUDGET`` slower than serving them
without. Both servers are built in this process and their timed passes
alternate (the order flips every round), so host speed and its drift
divide out of the ratio; the best of ``PASSES`` passes per side is
compared. The cache is off on both sides, so the ratio times real
rewrite work rather than journal writes against cache probes. Both sides
carry the always-on matcher sketches, so the ratio isolates what the
pipeline adds per request: one SLO ring update and one JSON line.
"""

import time

from repro.catalog import tpch_catalog
from repro.obs.recorder import WorkloadRecorder
from repro.obs.slo import SloObjectives
from repro.service import ViewServer
from repro.sql.printer import statement_to_sql
from repro.stats import synthetic_tpch_stats
from repro.workload import WorkloadGenerator

BUDGET = 0.25
VIEWS = 200
QUERIES = 25
PASSES = 5


def _workload(catalog, stats):
    generator = WorkloadGenerator(catalog, stats, seed=42)
    views = [
        (name, statement_to_sql(generated.statement))
        for name, generated in generator.generate_views(VIEWS)
    ]
    queries = [
        statement_to_sql(generated.statement)
        for generated in generator.generate_queries(QUERIES)
    ]
    return views, queries


def measure_overhead(journal: str) -> tuple[float, float]:
    """Best-of-``PASSES`` seconds per pass, telemetry ``(off, on)``."""
    catalog = tpch_catalog()
    stats = synthetic_tpch_stats(scale=0.5)
    views, queries = _workload(catalog, stats)
    with ViewServer(
        catalog, stats, workers=1, cache_enabled=False
    ) as plain, ViewServer(
        catalog, stats, workers=1, cache_enabled=False, slo=SloObjectives()
    ) as instrumented, WorkloadRecorder(journal) as recorder:
        instrumented.attach_recorder(recorder)
        sides = (plain, instrumented)
        for server in sides:
            server.register_views(views)
            for sql in queries:  # warm memos outside the timed passes
                server.serve(sql)
        best = [float("inf"), float("inf")]
        for round_number in range(PASSES):
            order = (0, 1) if round_number % 2 == 0 else (1, 0)
            for side in order:
                server = sides[side]
                started = time.perf_counter()
                for sql in queries:
                    server.serve(sql)
                best[side] = min(best[side], time.perf_counter() - started)
    return best[0], best[1]


def test_recorder_and_slo_tracker_cost_at_most_a_quarter(tmp_path):
    off, on = measure_overhead(str(tmp_path / "journal.jsonl"))
    overhead = on / off - 1.0
    assert overhead <= BUDGET, (
        f"telemetry pipeline overhead {overhead:.1%} exceeds the "
        f"{BUDGET:.0%} budget: on {on * 1e3:.1f} ms vs off "
        f"{off * 1e3:.1f} ms per pass of {QUERIES} queries at {VIEWS} views"
    )


if __name__ == "__main__":  # pragma: no cover - measurement helper
    import tempfile

    with tempfile.TemporaryDirectory() as directory:
        off, on = measure_overhead(f"{directory}/journal.jsonl")
    print(f"off {off * 1e3:.2f} ms  on {on * 1e3:.2f} ms  {on / off - 1:+.1%}")
