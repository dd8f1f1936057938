"""Serving-pool benchmark: sustained load through persistent workers.

Replays a distinct-query schedule through one ``ViewServer``'s
persistent worker pool (cache disabled so every request really
optimizes), which forks once per epoch generation and shares the
snapshot copy-on-write. Live epoch swaps are injected mid-run, so the numbers
include generation churn. Run directly::

    PYTHONPATH=src python benchmarks/bench_pool.py            # full, 1000 views
    PYTHONPATH=src python benchmarks/bench_pool.py --smoke    # CI, seconds
    PYTHONPATH=src python benchmarks/bench_pool.py --check    # SLO gate

``--check`` exits non-zero on any failed request, or when churn was
injected and no epoch swap was applied; ``--check-baseline`` adds the
calibration-normalized regression gates against a committed report.
The module is also collectable by pytest (one
smoke-sized test), like the other bench files.
"""

from __future__ import annotations

import sys

from repro.cli import run_pool_bench
from repro.core.parallel import fork_available
from repro.service import PoolBenchConfig, run_pool_benchmark


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced configuration finishing in a few seconds (CI)",
    )
    parser.add_argument("--views", type=int, default=None)
    parser.add_argument("--queries", type=int, default=None)
    parser.add_argument("--passes", type=int, default=None)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--output", default=None, help="write the JSON report to this path"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="apply the SLO gate (zero failures, an applied swap)",
    )
    parser.add_argument(
        "--check-baseline",
        default=None,
        metavar="JSON",
        help="committed report (BENCH_pool.json) for the calibration-"
        "normalized regression gates",
    )
    arguments = parser.parse_args(argv)
    return run_pool_bench(
        smoke=arguments.smoke,
        views=arguments.views,
        queries=arguments.queries,
        passes=arguments.passes,
        workers=arguments.workers,
        seed=arguments.seed,
        output=arguments.output,
        check=arguments.check,
        check_baseline=arguments.check_baseline,
    )


def test_pool_bench_smoke():
    """Pytest entry point: the pool serves everything, swaps happen."""
    if not fork_available():
        import pytest

        pytest.skip("os.fork unavailable on this platform")
    config = PoolBenchConfig(
        views=30,
        queries=4,
        passes=2,
        warmup_passes=1,
        scale=0.1,
        churn_cycles=1,
    )
    report = run_pool_benchmark(config, echo=None)
    assert report.pool.failures == 0
    assert report.pool.served == config.queries * config.passes
    assert report.swaps >= 1  # churn really swapped a generation
    # Timings are not asserted (flaky on shared runners); shape is.
    payload = report.to_dict()
    assert payload["pool"]["p99_ms"] > 0


if __name__ == "__main__":
    sys.exit(main())
