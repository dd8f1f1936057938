"""Rewrite-path tracing: one :class:`RewriteTrace` per request.

The serving layer and the ``explain-rewrite`` CLI need to answer two
questions the aggregate metrics cannot: *where did each candidate view
die* (which filter-tree level pruned it, or which subsumption test
rejected it and why) and *what did the winning rewrite cost to build*
(compensation steps, cost comparison against the base plan). This module
records exactly that, as plain dataclasses that serialize to a stable
JSON shape (see :mod:`repro.obs.render` for the schema).

Design constraints, in priority order:

1. **Zero-cost when off.** Every instrumented hot path does one
   ``current_tracer()`` contextvar read and one attribute test
   (``tracer.active``); with the module-level :data:`NULL_TRACER`
   installed -- the default -- nothing else happens.
   ``tests/obs/test_disabled_tracing.py`` holds this exactly: with
   sampling off, serving and optimizing construct no trace object and
   call no null-tracer hook.
2. **Contextvar-scoped.** A tracer is installed for one request on one
   thread (or task); concurrent requests under the serving layer never
   see each other's spans. :func:`activate` returns a token for
   :func:`deactivate`, and the :func:`tracing` context manager wraps the
   pair.
3. **Sampling-friendly.** :class:`TraceSampler` picks every N-th request
   deterministically (no RNG on the hot path, reproducible in tests).

The tracer API is intentionally write-only and forgiving: hooks accept
whatever the call site already has (``MatchResult`` lists, filter trees)
and do their own summarizing, so instrumented modules carry no
trace-model knowledge beyond the hook names.
"""

from __future__ import annotations

import itertools
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field

from .telemetry import current_trace_context

#: Version stamped on every exported trace dict. History:
#:
#: * 1 -- initial shape (PR 3).
#: * 2 -- cross-process telemetry: top-level ``trace_id`` (nullable;
#:   set when a :class:`~repro.obs.telemetry.TraceContext` was active)
#:   so spans recorded outside the tracer (forked matching workers at
#:   the time, the CDC applier) stitch to the request trace they belong
#:   to.
#: * 3 -- vectorized verification: every funnel entry carries a
#:   ``stage`` ("verify" = full ``match_view`` walk, "preverify" =
#:   rejected by the columnar pre-verifier sweep, "skipped" = never
#:   verified because the optimizer's cost bound proved no cheaper plan
#:   was reachable), so pre-verifier rejects and early terminations are
#:   distinct funnel lines. The pre-verifier is gone and nothing writes
#:   "preverify" any more; traces that carry it still load and render.
#:
#: The validator in :mod:`repro.obs.render` accepts all versions.
TRACE_VERSION = 3


# ---------------------------------------------------------------------------
# Trace model
# ---------------------------------------------------------------------------


@dataclass
class Span:
    """One timed stage of a request (parse, fingerprint, cache, optimize)."""

    name: str
    started: float          # seconds since the trace began
    duration: float = 0.0   # seconds
    attributes: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "started": self.started,
            "duration": self.duration,
            "attributes": dict(self.attributes),
        }


@dataclass
class FilterLevelTrace:
    """One filter-tree level's narrowing step for one match invocation."""

    level: str
    entering: int
    survivors: int
    pruned: tuple[str, ...] = ()  # names of the views eliminated here

    @property
    def pruned_count(self) -> int:
        return self.entering - self.survivors

    def to_dict(self) -> dict:
        return {
            "level": self.level,
            "entering": self.entering,
            "survivors": self.survivors,
            "pruned": list(self.pruned),
        }


@dataclass
class CandidateTrace:
    """One candidate view's fate in the full matching tests.

    Either ``matched`` with the compensation summary of the substitute,
    or rejected with the :class:`~repro.core.matching.RejectReason` name
    and its detail string. ``stage`` (schema version 3) says how the
    verdict was reached: ``"verify"`` is the full ``match_view`` walk,
    ``"skipped"`` a candidate the optimizer's cost bound never verified
    (neither matched nor rejected), and ``"preverify"`` -- only in traces
    written while the columnar pre-verifier existed -- a rejection it
    issued.
    """

    view: str
    matched: bool
    reject_reason: str | None = None
    reject_detail: str = ""
    compensation: tuple[str, ...] = ()
    stage: str = "verify"

    def to_dict(self) -> dict:
        return {
            "view": self.view,
            "matched": self.matched,
            "reject_reason": self.reject_reason,
            "reject_detail": self.reject_detail,
            "compensation": list(self.compensation),
            "stage": self.stage,
        }


@dataclass
class MatchInvocationTrace:
    """One view-matching rule invocation: filter funnel + candidate fates."""

    registered: int
    candidates: int
    levels: tuple[FilterLevelTrace, ...] = ()
    funnel: tuple[CandidateTrace, ...] = ()

    @property
    def matches(self) -> int:
        return sum(1 for c in self.funnel if c.matched)

    @property
    def skipped(self) -> int:
        return sum(1 for c in self.funnel if c.stage == "skipped")

    def to_dict(self) -> dict:
        return {
            "registered": self.registered,
            "candidates": self.candidates,
            "matches": self.matches,
            "levels": [level.to_dict() for level in self.levels],
            "funnel": [candidate.to_dict() for candidate in self.funnel],
        }


@dataclass
class PlanAlternative:
    """One costed plan alternative in the optimizer's final comparison."""

    kind: str               # "base", "view", or "preaggregation"
    cost: float
    views: tuple[str, ...] = ()
    chosen: bool = False

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "cost": self.cost,
            "views": list(self.views),
            "chosen": self.chosen,
        }


@dataclass
class RewriteTrace:
    """Everything recorded about one traced rewrite request."""

    sql: str
    spans: list[Span] = field(default_factory=list)
    invocations: list[MatchInvocationTrace] = field(default_factory=list)
    plan_alternatives: list[PlanAlternative] = field(default_factory=list)
    cache_hit: bool | None = None
    epoch: int | None = None
    error: str | None = None
    total_seconds: float = 0.0
    # The request's cross-process trace id (schema version 2): worker
    # and CDC spans carry the same id in their attributes, so a stitched
    # trace is recognizable even after the spans crossed a fork.
    trace_id: str | None = None

    def reject_tallies(self) -> dict[str, int]:
        """RejectReason-name histogram across every invocation's funnel."""
        tallies: dict[str, int] = {}
        for invocation in self.invocations:
            for candidate in invocation.funnel:
                if candidate.reject_reason is not None:
                    tallies[candidate.reject_reason] = (
                        tallies.get(candidate.reject_reason, 0) + 1
                    )
        return tallies

    def chosen_alternative(self) -> PlanAlternative | None:
        for alternative in self.plan_alternatives:
            if alternative.chosen:
                return alternative
        return None

    def to_dict(self) -> dict:
        return {
            "trace_version": TRACE_VERSION,
            "trace_id": self.trace_id,
            "sql": self.sql,
            "cache_hit": self.cache_hit,
            "epoch": self.epoch,
            "error": self.error,
            "total_seconds": self.total_seconds,
            "spans": [span.to_dict() for span in self.spans],
            "invocations": [inv.to_dict() for inv in self.invocations],
            "plan_alternatives": [
                alt.to_dict() for alt in self.plan_alternatives
            ],
            "reject_tallies": self.reject_tallies(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RewriteTrace":
        """Rebuild a trace from its exported dict, any schema version.

        Version-1 exports simply lack ``trace_id``; every other field
        is shared, so old journals and committed fixtures keep
        rendering after the version bump.
        """
        return cls(
            sql=data.get("sql", ""),
            cache_hit=data.get("cache_hit"),
            epoch=data.get("epoch"),
            error=data.get("error"),
            total_seconds=data.get("total_seconds", 0.0),
            trace_id=data.get("trace_id"),
            spans=[
                Span(
                    name=span["name"],
                    started=span.get("started", 0.0),
                    duration=span.get("duration", 0.0),
                    attributes=dict(span.get("attributes", {})),
                )
                for span in data.get("spans", [])
            ],
            invocations=[
                MatchInvocationTrace(
                    registered=inv.get("registered", 0),
                    candidates=inv.get("candidates", 0),
                    levels=tuple(
                        FilterLevelTrace(
                            level=level["level"],
                            entering=level.get("entering", 0),
                            survivors=level.get("survivors", 0),
                            pruned=tuple(level.get("pruned", ())),
                        )
                        for level in inv.get("levels", [])
                    ),
                    funnel=tuple(
                        CandidateTrace(
                            view=candidate.get("view", "<unnamed>"),
                            matched=candidate.get("matched", False),
                            reject_reason=candidate.get("reject_reason"),
                            reject_detail=candidate.get("reject_detail", ""),
                            compensation=tuple(
                                candidate.get("compensation", ())
                            ),
                            stage=candidate.get("stage", "verify"),
                        )
                        for candidate in inv.get("funnel", [])
                    ),
                )
                for inv in data.get("invocations", [])
            ],
            plan_alternatives=[
                PlanAlternative(
                    kind=alt.get("kind", "base"),
                    cost=alt.get("cost", 0.0),
                    views=tuple(alt.get("views", ())),
                    chosen=alt.get("chosen", False),
                )
                for alt in data.get("plan_alternatives", [])
            ],
        )


# ---------------------------------------------------------------------------
# Tracers
# ---------------------------------------------------------------------------


class _NullSpan:
    """Reusable no-op context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def annotate(self, **attributes) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The do-nothing tracer installed by default.

    Contract (relied on by every instrumented module): ``active`` is
    ``False`` and every hook is a no-op safe to call from any thread.
    Instrumented code tests ``tracer.active`` before doing *any*
    trace-only work -- summarizing results, attributing filter levels --
    so the disabled cost is the contextvar read plus one attribute test.
    """

    __slots__ = ()
    active = False

    def span(self, name: str, **attributes) -> _NullSpan:
        return _NULL_SPAN

    def record_span(self, name: str, duration: float, **attributes) -> None:
        return None

    def on_filter_tree(self, tree, query, candidates) -> None:
        return None

    def on_match_invocation(self, registered, candidates, results) -> None:
        return None

    def on_plan_choice(self, alternatives) -> None:
        return None


NULL_TRACER = NullTracer()


class _RecordedSpan:
    """Context manager that appends a timed :class:`Span` on exit."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "RewriteTracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> "_RecordedSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        self._span.duration = self._tracer.clock() - (
            self._span.started + self._tracer.epoch_started
        )

    def annotate(self, **attributes) -> None:
        self._span.attributes.update(attributes)


class RewriteTracer:
    """Records one :class:`RewriteTrace`; install with :func:`activate`.

    Not thread-safe: a tracer belongs to exactly one request on one
    thread, which is what the contextvar scoping provides.
    """

    active = True

    def __init__(self, sql: str = "", clock=time.perf_counter):
        self.clock = clock
        self.epoch_started = clock()
        context = current_trace_context()
        self.trace = RewriteTrace(
            sql=sql,
            trace_id=context.trace_id if context is not None else None,
        )
        # The filter-tree hook fires inside ViewMatcher.candidates, before
        # the match loop; the invocation hook then claims the attribution.
        self._pending_levels: tuple[FilterLevelTrace, ...] = ()

    # -- spans ---------------------------------------------------------------

    def span(self, name: str, **attributes) -> _RecordedSpan:
        span = Span(
            name=name,
            started=self.clock() - self.epoch_started,
            attributes=dict(attributes),
        )
        self.trace.spans.append(span)
        return _RecordedSpan(self, span)

    def record_span(self, name: str, duration: float, **attributes) -> None:
        """Append an already-measured stage (ends now, started ``duration`` ago)."""
        ended = self.clock() - self.epoch_started
        self.trace.spans.append(
            Span(
                name=name,
                started=max(0.0, ended - duration),
                duration=duration,
                attributes=dict(attributes),
            )
        )

    # -- hooks ---------------------------------------------------------------

    def on_filter_tree(self, tree, query, candidates) -> None:
        """Called by :meth:`FilterTree.candidates` after one search.

        Attribution (which level pruned which view) comes from
        :meth:`FilterTree.level_attribution`: one sweep of the packed rows
        per level, the same bits that chose the candidates -- run only
        for traced requests.
        """
        self._pending_levels = tuple(
            FilterLevelTrace(
                level=name,
                entering=entering,
                survivors=survivors,
                pruned=tuple(pruned),
            )
            for name, entering, survivors, pruned in tree.level_attribution(
                query
            )
        )

    def on_match_invocation(self, registered, candidates, results) -> None:
        """Called by :meth:`ViewMatcher.match` with the invocation's results."""
        funnel = tuple(
            CandidateTrace(
                view=result.view.name or "<unnamed>",
                matched=result.matched,
                reject_reason=(
                    result.reject_reason.name
                    if result.reject_reason is not None
                    else None
                ),
                reject_detail=result.reject_detail,
                compensation=(
                    tuple(result.compensation_steps())
                    if result.matched
                    else ()
                ),
                stage=getattr(result, "stage", "verify"),
            )
            for result in results
        )
        self.trace.invocations.append(
            MatchInvocationTrace(
                registered=registered,
                candidates=len(candidates),
                levels=self._pending_levels,
                funnel=funnel,
            )
        )
        self._pending_levels = ()

    def on_plan_choice(self, alternatives) -> None:
        """Called by the optimizer with the final costed alternatives."""
        self.trace.plan_alternatives.extend(alternatives)

    # -- lifecycle -----------------------------------------------------------

    def finish(
        self,
        cache_hit: bool | None = None,
        epoch: int | None = None,
        error: str | None = None,
    ) -> RewriteTrace:
        """Seal the trace with request-level metadata and total latency."""
        self.trace.total_seconds = self.clock() - self.epoch_started
        if cache_hit is not None:
            self.trace.cache_hit = cache_hit
        if epoch is not None:
            self.trace.epoch = epoch
        if error is not None:
            self.trace.error = error
        return self.trace


# ---------------------------------------------------------------------------
# Contextvar scoping
# ---------------------------------------------------------------------------

_CURRENT_TRACER: ContextVar = ContextVar("repro_tracer", default=NULL_TRACER)


def current_tracer():
    """The tracer scoped to the current context (the null tracer by default)."""
    return _CURRENT_TRACER.get()


def activate(tracer):
    """Install ``tracer`` for the current context; returns a reset token."""
    return _CURRENT_TRACER.set(tracer)


def deactivate(token) -> None:
    """Undo a prior :func:`activate`."""
    _CURRENT_TRACER.reset(token)


@contextmanager
def tracing(tracer=None):
    """Scope a tracer to a ``with`` block; yields the (possibly new) tracer.

    >>> with tracing() as tracer:
    ...     matcher.match(query)
    >>> tracer.trace.invocations
    """
    if tracer is None:
        tracer = RewriteTracer()
    token = activate(tracer)
    try:
        yield tracer
    finally:
        deactivate(token)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


class TraceSampler:
    """Deterministic 1-in-N request sampling.

    ``rate`` is the sampled fraction: 0 never samples, 1 (or more)
    samples everything, 0.01 samples every 100th request. Deterministic
    (a shared counter, no RNG) so tests and benchmarks are reproducible;
    the counter is a single ``itertools.count`` step, which is atomic
    under the GIL.
    """

    def __init__(self, rate: float):
        if rate < 0.0:
            raise ValueError("sample rate must be non-negative")
        self.rate = rate
        self._period = 0 if rate <= 0.0 else max(1, round(1.0 / rate))
        self._counter = itertools.count()

    @property
    def period(self) -> int:
        """Every ``period``-th request is sampled (0 = never)."""
        return self._period

    def should_sample(self) -> bool:
        if self._period == 0:
            return False
        return next(self._counter) % self._period == 0


__all__ = [
    "CandidateTrace",
    "FilterLevelTrace",
    "MatchInvocationTrace",
    "NULL_TRACER",
    "NullTracer",
    "PlanAlternative",
    "RewriteTrace",
    "RewriteTracer",
    "Span",
    "TRACE_VERSION",
    "TraceSampler",
    "activate",
    "current_tracer",
    "deactivate",
    "tracing",
]
