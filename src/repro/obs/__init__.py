"""Observability for the rewrite path: tracing, funnels, exposition.

``repro.obs`` answers the questions the aggregate counters in
``repro.service.metrics`` cannot: *why* did a specific view fail to
match, *where* in the filter tree did candidates get narrowed out, and
*how* did the winning rewrite's cost compare to the base plan. One
:class:`RewriteTrace` per traced request, recorded through a
contextvar-scoped tracer that is a strict no-op when disabled (the
module-level :data:`NULL_TRACER`).

Entry points:

* :func:`tracing` / :class:`RewriteTracer` -- record a trace around any
  matcher/optimizer call.
* :class:`TraceSampler` -- deterministic 1-in-N sampling for the
  serving layer (``ViewServer(trace_sample_rate=...)``).
* :func:`render_trace` / :func:`trace_to_json` /
  :func:`validate_trace_dict` -- the ``explain-rewrite`` output formats
  and the frozen export schema.

The always-on telemetry pipeline layers on top:

* :class:`DDSketch` -- mergeable relative-error percentile sketch.
* :class:`TraceContext` / :func:`trace_context` -- the request identity
  carried into the CDC applier.
* :class:`TelemetryHub` -- the counter / sketch / span registry.
* :class:`SloTracker` -- target-p99/error-budget burn rates.
* :class:`WorkloadRecorder` / :func:`load_journal` -- the rotating
  JSONL request journal and its advisor-consumable aggregation.
"""

from .render import (
    TRACE_SCHEMA,
    TRACE_SCHEMA_V1,
    render_trace,
    trace_to_json,
    validate_trace_dict,
)
from .sketch import DDSketch
from .slo import SloObjectives, SloTracker
from .recorder import (
    WorkloadAggregate,
    WorkloadRecorder,
    aggregate_events,
    iter_events,
    load_journal,
)
from .telemetry import (
    TelemetryHub,
    TraceContext,
    current_trace_context,
    set_telemetry_hub,
    telemetry_hub,
    trace_context,
)
from .trace import (
    NULL_TRACER,
    TRACE_VERSION,
    CandidateTrace,
    FilterLevelTrace,
    MatchInvocationTrace,
    NullTracer,
    PlanAlternative,
    RewriteTrace,
    RewriteTracer,
    Span,
    TraceSampler,
    activate,
    current_tracer,
    deactivate,
    tracing,
)

__all__ = [
    "CandidateTrace",
    "DDSketch",
    "FilterLevelTrace",
    "MatchInvocationTrace",
    "NULL_TRACER",
    "NullTracer",
    "PlanAlternative",
    "RewriteTrace",
    "RewriteTracer",
    "SloObjectives",
    "SloTracker",
    "Span",
    "TRACE_SCHEMA",
    "TRACE_SCHEMA_V1",
    "TRACE_VERSION",
    "TelemetryHub",
    "TraceContext",
    "TraceSampler",
    "WorkloadAggregate",
    "WorkloadRecorder",
    "activate",
    "aggregate_events",
    "current_trace_context",
    "current_tracer",
    "deactivate",
    "iter_events",
    "load_journal",
    "render_trace",
    "set_telemetry_hub",
    "telemetry_hub",
    "trace_context",
    "trace_to_json",
    "tracing",
    "validate_trace_dict",
]
