"""Telemetry: context propagation, sketch merge across forks, the hub.

The two acceptance properties of the pipeline live here: sketches
recorded in forked workers merge into percentiles equal to a
single-process run over the same samples, and spans recorded by the CDC
applier stitch under the driving request's trace id.
"""

import random

import pytest

from repro.catalog import tpch_catalog
from repro.cdc import CdcPipeline
from repro.core.parallel import fork_available, spawn_worker
from repro.datagen import generate_tpch
from repro.obs.sketch import DDSketch
from repro.obs.telemetry import (
    TelemetryHub,
    TraceContext,
    current_trace_context,
    set_telemetry_hub,
    telemetry_hub,
    trace_context,
)

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="os.fork unavailable on this platform"
)


class TestTraceContext:
    def test_new_ids_are_unique(self):
        ids = {TraceContext.new().trace_id for _ in range(64)}
        assert len(ids) == 64

    def test_wire_round_trip(self):
        context = TraceContext(trace_id="abc123", sampled=False, deadline=9.5)
        assert TraceContext.from_wire(context.to_wire()) == context

    def test_context_manager_installs_and_restores(self):
        assert current_trace_context() is None
        outer = TraceContext.new()
        with trace_context(outer):
            assert current_trace_context() is outer
            inner = TraceContext.new()
            with trace_context(inner):
                assert current_trace_context() is inner
            assert current_trace_context() is outer
        assert current_trace_context() is None

    def test_remaining_tracks_deadline(self):
        assert TraceContext.new().remaining() is None
        context = TraceContext.new(deadline=0.0)
        assert context.remaining() is not None
        assert context.remaining() < 0.0


class TestTelemetryHub:
    def test_counters_and_sketches(self):
        hub = TelemetryHub()
        hub.increment("requests")
        hub.increment("requests", 4)
        hub.record("latency", 0.002)
        assert hub.counters() == {"requests": 5}
        assert hub.sketch_snapshots()["latency"]["count"] == 1

    def test_span_ring_is_bounded(self):
        hub = TelemetryHub()
        for index in range(600):
            hub.record_span("s", 0.001, index=index)
        spans = hub.spans()
        assert len(spans) == 512
        assert spans[-1]["attributes"]["index"] == 599

    def test_to_prometheus_renders_counters_and_summaries(self):
        hub = TelemetryHub()
        hub.increment("match_invocations", 2)
        hub.record("match_seconds", 0.002)
        text = hub.to_prometheus(prefix="repro")
        assert "# TYPE repro_match_invocations_total counter" in text
        assert "repro_match_invocations_total 2" in text
        assert 'repro_match_seconds{quantile="0.99"}' in text
        assert "repro_match_seconds_count 1" in text
        assert text.endswith("\n")
        assert TelemetryHub().to_prometheus() == ""

    def test_reset_clears_everything(self):
        hub = TelemetryHub()
        hub.increment("n")
        hub.record("s", 1.0)
        hub.record_span("x", 1.0)
        hub.reset()
        assert hub.counters() == {}
        assert hub.spans() == ()

    def test_global_hub_swap(self):
        replacement = TelemetryHub()
        previous = set_telemetry_hub(replacement)
        try:
            assert telemetry_hub() is replacement
        finally:
            set_telemetry_hub(previous)
        assert telemetry_hub() is previous


class TestForkedMerge:
    """Acceptance: N forked workers' merged sketch == single-process run."""

    @needs_fork
    def test_merged_percentiles_equal_single_process(self):
        rng = random.Random(7)
        samples = [rng.lognormvariate(-7.0, 1.5) for _ in range(4000)]
        workers = 4
        partitions = [samples[start::workers] for start in range(workers)]

        def collect(partition):
            sketch = DDSketch()
            for value in partition:
                sketch.record(value)
            return sketch.to_dict()

        merged = DDSketch()
        for index, partition in enumerate(partitions):
            handle = spawn_worker(collect)
            try:
                handle.send(index, partition)
                request_id, ok, wire = handle.recv()
            finally:
                handle.reap()
            assert (request_id, ok) == (index, True)
            merged.merge(DDSketch.from_dict(wire))

        single = DDSketch()
        for value in samples:
            single.record(value)

        assert merged.count == single.count == len(samples)
        # Bucket-wise addition is lossless, so the merged quantiles are
        # not merely close -- they are identical to the single-process
        # sketch, and both sit within the relative-error bound of the
        # true sample quantiles.
        ordered = sorted(samples)
        for q in (50, 90, 99):
            assert merged.percentile(q) == single.percentile(q)
            truth = ordered[max(0, -(-q * len(ordered) // 100) - 1)]
            assert abs(merged.percentile(q) - truth) / truth <= 0.011


ROLLUP = (
    "select o_custkey as c, sum(o_totalprice) as total, "
    "count_big(*) as cnt from orders group by o_custkey"
)
class TestTraceStitching:
    """Acceptance: CDC spans stitch under the request's trace id."""

    def test_worker_and_cdc_spans_share_the_trace_id(self):
        catalog = tpch_catalog()
        hub = TelemetryHub()
        pipeline = CdcPipeline(
            catalog, generate_tpch(scale=0.0005, seed=3), telemetry=hub
        )
        pipeline.register_view("mv", catalog.bind_sql(ROLLUP))

        orders = pipeline.database.relation("orders")
        position = orders.column_position("o_orderkey")
        row = list(orders.rows[0])
        row[position] = max(r[position] for r in orders.rows) + 1

        context = TraceContext.new()
        with trace_context(context):
            pipeline.insert("orders", [tuple(row)])
            pipeline.scan()
            pipeline.merge()

        stitched = {
            span["name"]
            for span in hub.spans()
            if span.get("trace_id") == context.trace_id
        }
        assert {"cdc.scan", "cdc.merge"} <= stitched
        # Per-view CDC lag landed in the shared hub as a sketch.
        assert hub.sketch_snapshots()["cdc_view_lag_seconds.mv"]["count"] >= 1

    def test_untraced_cdc_spans_carry_no_trace_id(self):
        catalog = tpch_catalog()
        hub = TelemetryHub()
        pipeline = CdcPipeline(
            catalog, generate_tpch(scale=0.0005, seed=3), telemetry=hub
        )
        pipeline.register_view("mv", catalog.bind_sql(ROLLUP))
        pipeline.scan()
        assert all("trace_id" not in span for span in hub.spans())
