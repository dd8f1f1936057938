"""Scenario: sampled rewrite-path tracing under live serving.

Run with:  python examples/tracing_demo.py

Production question: *why* did a query (not) get rewritten, and where
does the rewrite path spend its time?  This example serves a Section 5
workload through a :class:`repro.ViewServer` with deterministic trace
sampling enabled (every request here, so the demo is exhaustive; in
production a rate like ``0.01`` records every 100th request), then reads
three things back out:

* the sampled :class:`repro.obs.RewriteTrace` ring -- one full funnel
  per sampled request (stage spans, per-level filter-tree narrowing,
  per-candidate reject reasons, plan cost comparison);
* an aggregated reject-reason funnel across all sampled traces -- the
  operational "why don't my queries rewrite?" histogram;
* ``server.stats()`` -- every serving metric in one read -- and its
  Prometheus text rendering (what ``server.prometheus_metrics()``
  returns): the served epoch's reject tallies beside the counters.
"""

from collections import Counter

from repro import ViewServer, synthetic_tpch_stats, tpch_catalog
from repro.obs import render_trace
from repro.obs.telemetry import render_prometheus
from repro.sql import statement_to_sql
from repro.workload import WorkloadGenerator


def main() -> None:
    catalog = tpch_catalog()
    stats = synthetic_tpch_stats(scale=0.1)
    generator = WorkloadGenerator(catalog, stats, seed=1)
    views = list(generator.generate_views(60))
    queries = [
        statement_to_sql(q.statement) for q in generator.generate_queries(20)
    ]

    # trace_sample_rate=1.0 samples every request; the ring keeps the
    # most recent trace_capacity traces.
    with ViewServer(
        catalog, stats, trace_sample_rate=1.0, trace_capacity=64
    ) as server:
        for name, view in views:
            server.register_view(name, view.statement)
        print(f"registered {len(views)} views; tracing every request\n")

        for sql in queries:
            result = server.serve(sql)
            assert result.error is None, result.error

        traces = server.traces()
        print(f"sampled {len(traces)} traces")

        # One full funnel, end to end -- pick the first trace that chose
        # a view-based plan so the compensation steps show up.
        rewritten = [
            t for t in traces
            if any(c.matched for m in t.invocations for c in m.funnel)
        ]
        if rewritten:
            print("\n--- one rewritten request, full funnel ---")
            print(render_trace(rewritten[0]))

        # The aggregated reject-reason funnel across every sampled trace:
        # how often full matching turned a candidate away, and why.
        tallies: Counter[str] = Counter()
        matched = 0
        for trace in traces:
            for invocation in trace.invocations:
                for candidate in invocation.funnel:
                    if candidate.matched:
                        matched += 1
                    elif candidate.reject_reason:
                        tallies[candidate.reject_reason] += 1
        print("--- aggregated match funnel across sampled traces ---")
        print(f"candidates matched: {matched}")
        for reason, count in tallies.most_common():
            print(f"rejected {reason:20s} {count}")

        # One read, one renderer: stats() holds every serving metric and
        # the exposition is that same dict rendered as text.
        stats = server.stats()
        print("\n--- stats()['rejects']: the served epoch's funnel ---")
        for reason, count in stats["rejects"].items():
            print(f"rejected {reason:20s} {count}")
        print("\n--- its prometheus rendering (counters, rejects) ---")
        for line in render_prometheus(stats).splitlines():
            interesting = "_total" in line or "match_rejects" in line
            if interesting and "_seconds" not in line and not line.startswith("#"):
                print(line)


if __name__ == "__main__":
    main()
