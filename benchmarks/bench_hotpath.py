"""Hot-path benchmark: bitset-interned candidate filtering, before/after.

Times one filter-tree ``candidates`` call at 100/500/1000 registered
views, comparing the interned bitset path against the frozenset
reference path, and one full ``match`` invocation on the interned path.
Both trees are cross-checked to return identical candidate sets and
matcher statistics before anything is timed. Run directly::

    PYTHONPATH=src python benchmarks/bench_hotpath.py                 # full sweep
    PYTHONPATH=src python benchmarks/bench_hotpath.py --smoke         # CI, seconds
    PYTHONPATH=src python benchmarks/bench_hotpath.py --smoke \\
        --check-baseline BENCH_matching.json                          # CI gate

Each size point also times single-pass probe compilation against the
preserved reference pipeline, and the sweep finishes with an end-to-end
serving comparison: the sequential ``serve`` loop against batched
``rewrite_many`` through the ``ViewServer`` stack (results verified
identical; timings reported, not gated -- ``benchmarks/e2e`` owns
serve-path throughput).

``--output`` writes the machine-readable report (the repository commits
it as ``BENCH_matching.json``); ``--check-baseline`` exits non-zero when
candidate filtering at the largest shared view count is more than 2x
slower than the committed baseline, or probe building more than 25 %
slower (calibration-normalized). ``--check-overhead`` applies the much
tighter disabled-tracing guard (calibration-normalized; run the full
sweep, not ``--smoke``, so the configuration matches the baseline's).
``--check-speedups`` enforces the absolute floors: probe compilation
>=2x over the reference pipeline and the memory budget. ``--profile N``
skips timing and
prints cProfile top-N tables for the probe-build and full-match phases.
The module is also collectable by pytest (one smoke-sized test), like
the other bench files.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.experiments import (
    HotpathConfig,
    check_against_baseline,
    check_pool_slo,
    check_speedup_gates,
    check_tracing_overhead,
    profile_hotpath,
    run_hotpath_benchmark,
)
from repro.experiments.hotpath import write_report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced configuration finishing in seconds (CI); still "
        "measures the gated 1000-view point",
    )
    parser.add_argument(
        "--views",
        type=int,
        nargs="+",
        default=None,
        help="view counts to sweep (default 100 500 1000)",
    )
    parser.add_argument("--queries", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--catalog-scale",
        type=int,
        default=None,
        metavar="N",
        help="override the catalog-scale point's view count (default "
        "100000 in the full sweep, disabled in --smoke; 0 disables)",
    )
    parser.add_argument(
        "--pool-views",
        type=int,
        default=None,
        metavar="N",
        help="override the serving-pool point's view count (default "
        "1000 in the full sweep, 40 in --smoke; 0 disables)",
    )
    parser.add_argument(
        "--output", default=None, help="write the JSON report to this path"
    )
    parser.add_argument(
        "--check-baseline",
        default=None,
        metavar="JSON",
        help="committed BENCH_matching.json to gate regressions against",
    )
    parser.add_argument(
        "--check-overhead",
        default=None,
        metavar="JSON",
        help="baseline for the disabled-tracing overhead guard "
        "(calibration-normalized; needs matching sweep configuration)",
    )
    parser.add_argument(
        "--overhead-tolerance",
        type=float,
        default=None,
        metavar="FRACTION",
        help="override the overhead budget (default 0.05; CI uses more "
        "to absorb shared-runner scheduling noise)",
    )
    parser.add_argument(
        "--check-speedups",
        action="store_true",
        help="fail unless probe building is >=2x the reference pipeline "
        "and the memory budget holds",
    )
    parser.add_argument(
        "--profile",
        type=int,
        default=None,
        metavar="N",
        help="skip the benchmark; print cProfile top-N tables for the "
        "probe-build and full-match phases",
    )
    arguments = parser.parse_args(argv)

    config = HotpathConfig.smoke() if arguments.smoke else HotpathConfig()
    import dataclasses

    overrides = {}
    if arguments.views is not None:
        overrides["view_counts"] = tuple(arguments.views)
    if arguments.queries is not None:
        overrides["query_count"] = arguments.queries
    if arguments.seed is not None:
        overrides["seed"] = arguments.seed
    if arguments.catalog_scale is not None:
        overrides["catalog_scale_views"] = arguments.catalog_scale
    if arguments.pool_views is not None:
        overrides["pool_views"] = arguments.pool_views
    if overrides:
        config = dataclasses.replace(config, **overrides)

    if arguments.profile is not None:
        profile_hotpath(config, top=arguments.profile)
        return 0

    report = run_hotpath_benchmark(config)
    if arguments.output:
        write_report(report, arguments.output)
        print(f"report written to {arguments.output}")

    failures = []
    if arguments.check_baseline:
        with open(arguments.check_baseline) as handle:
            baseline = json.load(handle)
        failures += check_against_baseline(report, baseline)
    if arguments.check_overhead:
        with open(arguments.check_overhead) as handle:
            baseline = json.load(handle)
        kwargs = (
            {}
            if arguments.overhead_tolerance is None
            else {"tolerance": arguments.overhead_tolerance}
        )
        failures += check_tracing_overhead(report, baseline, **kwargs)
    if arguments.check_speedups:
        failures += check_speedup_gates(report)
        failures += check_pool_slo(report)
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


def test_hotpath_bench_smoke():
    """Pytest entry point: modes agree and interning is not slower."""
    config = HotpathConfig(
        view_counts=(60,),
        query_count=6,
        filter_repetitions=3,
        filter_runs=1,
        match_repetitions=1,
        probe_repetitions=3,
        probe_runs=1,
        end_to_end_view_counts=(120,),
        end_to_end_runs=1,
        catalog_scale_views=0,  # the 100k point is not a smoke test
        pool_views=30,
        pool_queries=4,
        pool_passes=2,
        pool_scale=0.1,
        pool_churn_cycles=1,
    )
    report = run_hotpath_benchmark(config, echo=None)
    (entry,) = report["sizes"]
    assert entry["modes_identical"]
    assert entry["funnel"]["invocations"] == 6
    # Identical-result verification ran inside run_hotpath_benchmark; a
    # timing assertion here would be flaky, so only sanity-check shape.
    assert entry["candidate_filter_us"]["interned"] > 0
    assert entry["candidate_filter_us"]["reference"] > 0
    assert entry["probe_build_us"]["fast"] > 0
    assert entry["probe_build_us"]["reference"] > 0
    # The batched path must return the same rewrites as the serve loop
    # (verified inside _run_end_to_end; an end-to-end timing assertion
    # would be flaky on shared runners).
    (served,) = report["end_to_end"]
    assert served["modes_identical"]
    # The serving-pool point ran both modes to completion without
    # shedding or erroring (ratios are timing, so not asserted here).
    pool = report["serving_pool"]
    assert pool["pool"]["failures"] == 0
    assert pool["fork_batch"]["failures"] == 0
    assert pool["pool"]["served"] == pool["fork_batch"]["served"]


if __name__ == "__main__":
    sys.exit(main())
