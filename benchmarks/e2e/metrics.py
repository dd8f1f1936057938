"""The metric tables: names, units, directions, bounds, and where each runs.

``BENCHMARK.json`` is generated from these tables
(``python -m benchmarks.e2e manifest``); nothing else spells a metric's
unit or bound.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: float | None = None  # share of the parent's median; None = unbounded
    exact: bool = False  # must repeat exactly on identical inputs
    gated: bool = False  # in ``BENCHMARK.json``'s global ``end_to_end`` list
    note: str = ""


# The issue's eleven end-to-end metrics, all taken from the untraced run.
#
# Bounds follow the host, not the wish: on the 2-core reference VM a fixed
# CPU loop swings 0.41 s -> 0.56 s for seconds to minutes at a time, and
# ten same-seed runs of one workload spread (quartile distance / median)
# 6-10 % on throughput_qps and latency_p50_ms in a calm window and 40 % in
# a bad one. A 0.10 bound on those would reject unchanged code, so timing
# metrics carry 0.25 (the contract's ceiling) and anything that still
# does not repeat is demoted: reported, compared as ``info``, never gated.
# ``gated`` marks the metrics in ``BENCHMARK.json``'s ``end_to_end`` list;
# that list is global, so a gated metric is bounded, defined on every
# workload, never 0, and within its bound on the noisiest of the four.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25, gated=True),
    Metric(
        "latency_p50_ms", "ms", "lower", 0.25,
        note="not gated by the driver: serve_hot_1k's median is an 8 us "
        "cache hit whose unchanged-code spread reached 0.35",
    ),
    Metric(
        "latency_p99_ms", "ms", "lower", None,
        note="demoted: 3-60 samples lie beyond p99 in a 10 s run; spread "
        "0.14-0.44 over ten seeds, 0.07-0.39 over ten runs of one seed",
    ),
    Metric("throughput_qps", "1/s", "higher", 0.25, gated=True),
    Metric(
        "failed_share", "ratio", "lower", None, exact=True,
        note="must be 0: a failed request fails the run; the contract "
        "carries it as attempted/failed",
    ),
    Metric(
        "rewrite_share", "ratio", "higher", None, exact=True,
        note="exact on equal digests; across seeds 70 of 300 requests "
        "rewrite on cdc_fresh_100 (spread 0.19), so no cross-seed bound",
    ),
    Metric("plan_cost_ratio", "ratio", "lower", 0.15, exact=True, gated=True),
    Metric(
        "register_views_per_s", "1/s", "higher", None,
        note="demoted: one 12 s call on serve_cold_10k, spread 0.19-0.51 "
        "with the host's slow spells; setup_s gates the same work",
    ),
    Metric(
        "publish_ms", "ms", "lower", None,
        note="pool_churn_1k and cdc_fresh_100 only; demoted: 3 publishes "
        "per 10 s run, spread 0.20-0.37",
    ),
    Metric(
        "maintain_rows_per_s", "1/s", "higher", 0.25,
        note="cdc_fresh_100 only, so not in the driver's global list",
    ),
    Metric("peak_rss_mb", "MB", "lower", 0.10, gated=True),
)

_L = "lower"
_H = "higher"
PER_LAYER = tuple(
    Metric(name, unit, better)
    for name, unit, better in (
        ("sql.parse_us", "us", _L),
        ("sql.parse_calls", "count", _L),
        ("service.server.self_us", "us", _L),
        ("service.server.fingerprint_us", "us", _L),
        ("service.server.statement_memo_hit_ratio", "ratio", _H),
        ("service.server.description_memo_hit_ratio", "ratio", _H),
        ("service.cache.hit_ratio", "ratio", _H),
        ("service.cache.evictions", "count", _L),
        ("service.cache.lookup_us", "us", _L),
        ("service.cache.bytes_per_entry", "B", _L),
        ("service.snapshot.register_us_per_view", "us", _L),
        ("service.snapshot.publish_call_ms", "ms", _L),
        ("service.snapshot.epochs", "count", _L),
        ("service.pool.overhead_ms", "ms", _L),
        ("service.pool.worker_busy_ratio", "ratio", _H),
        ("service.pool.depth_max", "count", _L),
        ("service.pool.swaps", "count", _L),
        ("service.pool.redelivered", "count", _L),
        ("service.pool.respawns", "count", _L),
        ("service.pool.throttled", "count", _L),
        ("service.pool.saturated", "count", _L),
        ("service.shm.bytes_exported", "B", _L),
        ("service.shm.tables_exported", "count", _L),
        ("core.describe.us_per_call", "us", _L),
        ("core.describe.calls_per_query", "count", _L),
        ("core.matcher.invocations_per_query", "count", _L),
        ("core.matcher.candidates_per_invocation", "count", _L),
        ("core.matcher.candidate_fraction", "ratio", _L),
        ("core.filtertree.candidates_us_per_invocation", "us", _L),
        ("core.filtertree.share_of_request", "ratio", _L),
        ("core.preverify.screen_us_per_call", "us", _L),
        ("core.preverify.reject_ratio", "ratio", _H),
        ("core.matching.verify_us_per_invocation", "us", _L),
        ("core.matching.us_per_candidate", "us", _L),
        ("core.matching.match_ratio", "ratio", _H),
        ("core.matching.template_replay_ratio", "ratio", _H),
        ("optimizer.self_us_per_query", "us", _L),
        ("optimizer.skipped_ratio", "ratio", _H),
        ("optimizer.substitutes_per_query", "count", _H),
        ("cdc.insert_us_per_row", "us", _L),
        ("cdc.applier.scan_s", "s", _L),
        ("cdc.applier.merge_s", "s", _L),
        ("cdc.applier.delta_batches_per_row", "count", _L),
        ("engine.materialize_s_per_view", "s", _L),
        ("memsize.bytes_per_view", "B", _L),
        ("memsize.packed_table_bytes", "B", _L),
        ("runtime.gc_pause_s", "s", _L),
        ("runtime.gc_full_collections", "count", _L),
        ("trace.coverage_ratio", "ratio", _H),
    )
)

BY_NAME = {metric.name: metric for metric in END_TO_END + PER_LAYER}


def percentile(ordered: list, share: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(math.ceil(share * len(ordered)) - 1, 0)]


def quartiles(values: list) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def ratio(numerator: float, denominator: float) -> float:
    """A share that reads 0 when its layer was never reached."""
    return numerator / denominator if denominator else 0.0
