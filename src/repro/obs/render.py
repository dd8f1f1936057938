"""Rendering and export of :class:`~repro.obs.trace.RewriteTrace`.

Two consumers:

* ``explain-rewrite`` prints :func:`render_trace` -- a human-readable
  report of the whole rewrite path: timed spans, the per-level filter
  funnel of every match invocation, every candidate's fate (reject
  reason + detail, or the winner's compensation steps), and the final
  cost comparison.
* ``explain-rewrite --json`` (and the CI smoke step) emit
  :func:`trace_to_json`; :func:`validate_trace_dict` checks an exported
  dict against :data:`TRACE_SCHEMA` without any external schema library.

The schema is deliberately minimal -- field names, types, and nesting --
because its job is to freeze the export contract, not to validate
semantics. Bump ``trace_version`` when the shape changes.
"""

from __future__ import annotations

import json

from .trace import RewriteTrace

# A JSON-Schema-like description of RewriteTrace.to_dict(). Types are
# python type tuples; "nullable" admits None; nested dicts describe
# objects, ("list", spec) describes homogeneous arrays.
#
# This is the current (version 3) schema: version 2 exports are the
# same shape minus the per-candidate ``stage`` field the vectorized
# pre-verifier added, and version 1 additionally lacks the top-level
# ``trace_id`` field from the cross-process telemetry pipeline. The
# validator dispatches on the dict's own ``trace_version`` so committed
# v1/v2 fixtures keep validating.
TRACE_SCHEMA: dict = {
    "trace_version": {"type": (int,)},
    "trace_id": {"type": (str,), "nullable": True},
    "sql": {"type": (str,)},
    "cache_hit": {"type": (bool,), "nullable": True},
    "epoch": {"type": (int,), "nullable": True},
    "error": {"type": (str,), "nullable": True},
    "total_seconds": {"type": (int, float)},
    "spans": (
        "list",
        {
            "name": {"type": (str,)},
            "started": {"type": (int, float)},
            "duration": {"type": (int, float)},
            "attributes": {"type": (dict,)},
        },
    ),
    "invocations": (
        "list",
        {
            "registered": {"type": (int,)},
            "candidates": {"type": (int,)},
            "matches": {"type": (int,)},
            "levels": (
                "list",
                {
                    "level": {"type": (str,)},
                    "entering": {"type": (int,)},
                    "survivors": {"type": (int,)},
                    "pruned": ("list", {"type": (str,)}),
                },
            ),
            "funnel": (
                "list",
                {
                    "view": {"type": (str,)},
                    "matched": {"type": (bool,)},
                    "reject_reason": {"type": (str,), "nullable": True},
                    "reject_detail": {"type": (str,)},
                    "compensation": ("list", {"type": (str,)}),
                    "stage": {"type": (str,)},
                },
            ),
        },
    ),
    "plan_alternatives": (
        "list",
        {
            "kind": {"type": (str,)},
            "cost": {"type": (int, float)},
            "views": ("list", {"type": (str,)}),
            "chosen": {"type": (bool,)},
        },
    ),
    "reject_tallies": {"type": (dict,)},
}


def _validate(value, spec, path: str, errors: list[str]) -> None:
    if isinstance(spec, tuple) and spec and spec[0] == "list":
        if not isinstance(value, list):
            errors.append(f"{path}: expected list, got {type(value).__name__}")
            return
        for i, item in enumerate(value):
            _validate(item, spec[1], f"{path}[{i}]", errors)
        return
    if isinstance(spec, dict) and "type" in spec:
        if value is None:
            if not spec.get("nullable"):
                errors.append(f"{path}: null not allowed")
            return
        expected = spec["type"]
        # bool is an int subclass; reject it where int is expected.
        if isinstance(value, bool) and bool not in expected:
            errors.append(f"{path}: expected {expected}, got bool")
            return
        if not isinstance(value, expected):
            errors.append(
                f"{path}: expected "
                f"{'/'.join(t.__name__ for t in expected)}, "
                f"got {type(value).__name__}"
            )
        return
    # An object spec: a dict of field -> spec.
    if not isinstance(value, dict):
        errors.append(f"{path}: expected object, got {type(value).__name__}")
        return
    for name, field_spec in spec.items():
        if name not in value:
            errors.append(f"{path}.{name}: missing")
            continue
        _validate(value[name], field_spec, f"{path}.{name}", errors)
    for name in value:
        if name not in spec:
            errors.append(f"{path}.{name}: unexpected field")


def _without_funnel_stage(schema: dict) -> dict:
    """The given schema minus the per-candidate ``stage`` funnel field."""
    derived = dict(schema)
    kind, invocation_spec = schema["invocations"]
    invocation_spec = dict(invocation_spec)
    funnel_kind, funnel_spec = invocation_spec["funnel"]
    invocation_spec["funnel"] = (
        funnel_kind,
        {name: spec for name, spec in funnel_spec.items() if name != "stage"},
    )
    derived["invocations"] = (kind, invocation_spec)
    return derived


# Version 2 lacked the funnel ``stage`` field; version 1 additionally
# lacked trace_id. Kept as distinct specs (rather than marking the
# fields optional) so a current export that *drops* a field still fails
# validation.
TRACE_SCHEMA_V2: dict = _without_funnel_stage(TRACE_SCHEMA)
TRACE_SCHEMA_V1: dict = {
    name: spec for name, spec in TRACE_SCHEMA_V2.items() if name != "trace_id"
}


def validate_trace_dict(data: dict) -> list[str]:
    """Check an exported trace dict against its schema version.

    Dispatches on the dict's own ``trace_version``: version-1 exports
    (from before the cross-process telemetry pipeline) validate against
    the v1 schema, version-2 exports (before the vectorized
    pre-verifier) against the v2 schema, everything else against the
    current one. Returns the list of mismatches (empty = valid).
    """
    errors: list[str] = []
    version = data.get("trace_version")
    if version == 1:
        schema = TRACE_SCHEMA_V1
    elif version == 2:
        schema = TRACE_SCHEMA_V2
    else:
        schema = TRACE_SCHEMA
    _validate(data, schema, "trace", errors)
    return errors


def trace_to_json(trace: RewriteTrace, indent: int | None = 2) -> str:
    """The trace serialized as schema-conformant JSON."""
    return json.dumps(trace.to_dict(), indent=indent, sort_keys=False)


# ---------------------------------------------------------------------------
# Human-readable report
# ---------------------------------------------------------------------------


def _format_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.0f}us"


def render_trace(trace: RewriteTrace) -> str:
    """The full rewrite-path funnel report for one traced request."""
    lines: list[str] = [f"query: {trace.sql.strip()}"]
    if trace.error is not None:
        lines.append(f"error: {trace.error}")
    meta: list[str] = []
    if trace.epoch is not None:
        meta.append(f"epoch {trace.epoch}")
    if trace.cache_hit is not None:
        meta.append("cache hit" if trace.cache_hit else "cache miss")
    meta.append(f"total {_format_seconds(trace.total_seconds)}")
    lines.append("  " + ", ".join(meta))

    if trace.spans:
        lines.append("stages:")
        for span in trace.spans:
            suffix = ""
            if span.attributes:
                rendered = ", ".join(
                    f"{key}={value}" for key, value in span.attributes.items()
                )
                suffix = f"  ({rendered})"
            lines.append(
                f"  {span.name:12s} {_format_seconds(span.duration):>9s}"
                f"{suffix}"
            )

    for number, invocation in enumerate(trace.invocations, start=1):
        skipped = invocation.skipped
        extras = f"  ({skipped} skipped)" if skipped else ""
        lines.append(
            f"match invocation {number}: {invocation.registered} registered "
            f"-> {invocation.candidates} candidates "
            f"-> {invocation.matches} matched{extras}"
        )
        for level in invocation.levels:
            pruned = ""
            if level.pruned:
                shown = ", ".join(level.pruned[:6])
                if len(level.pruned) > 6:
                    shown += f", ... +{len(level.pruned) - 6} more"
                pruned = f"  pruned: {shown}"
            lines.append(
                f"  level {level.level:22s} {level.entering:5d} -> "
                f"{level.survivors:5d}{pruned}"
            )
        for candidate in invocation.funnel:
            if candidate.matched:
                lines.append(f"  + {candidate.view}: MATCHED")
                for step in candidate.compensation:
                    lines.append(f"      compensation: {step}")
            elif candidate.stage == "skipped":
                lines.append(
                    f"  ~ {candidate.view}: skipped (cost bound reached)"
                )
            else:
                detail = (
                    f" ({candidate.reject_detail})"
                    if candidate.reject_detail
                    else ""
                )
                preverified = (
                    " [pre-verified]"
                    if candidate.stage == "preverify"
                    else ""
                )
                lines.append(
                    f"  - {candidate.view}: rejected "
                    f"{candidate.reject_reason}{detail}{preverified}"
                )

    tallies = trace.reject_tallies()
    if tallies:
        lines.append("reject reasons:")
        for reason, count in sorted(tallies.items(), key=lambda kv: -kv[1]):
            lines.append(f"  {reason.lower():20s} {count:5d}")

    if trace.plan_alternatives:
        lines.append("cost comparison:")
        for alternative in trace.plan_alternatives:
            marker = "*" if alternative.chosen else " "
            views = (
                f" [{', '.join(alternative.views)}]"
                if alternative.views
                else ""
            )
            lines.append(
                f"  {marker} {alternative.kind:16s} "
                f"cost={alternative.cost:12.1f}{views}"
            )
        chosen = trace.chosen_alternative()
        if chosen is not None:
            what = (
                f"view rewrite over {', '.join(chosen.views)}"
                if chosen.views
                else "the base-table plan"
            )
            lines.append(f"  chosen: {what}")
    return "\n".join(lines)


__all__ = [
    "TRACE_SCHEMA",
    "TRACE_SCHEMA_V1",
    "TRACE_SCHEMA_V2",
    "render_trace",
    "trace_to_json",
    "validate_trace_dict",
]
