"""Trace schema evolution: version-3 exports, v1/v2 compatibility.

The committed ``fixtures/trace_v1.json`` (pre-trace-id) and
``fixtures/trace_v2.json`` (pre-funnel-stage) exports must keep
validating (the validator dispatches on the dict's own
``trace_version``) and keep rebuilding/rendering, or the version bump
broke every journal written before it.
"""

import json
import os

from repro.obs import TRACE_VERSION, RewriteTrace, RewriteTracer, tracing
from repro.obs.render import (
    TRACE_SCHEMA,
    TRACE_SCHEMA_V1,
    TRACE_SCHEMA_V2,
    render_trace,
    validate_trace_dict,
)
from repro.obs.telemetry import TraceContext, trace_context

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def load_fixture(name):
    with open(os.path.join(FIXTURES, name), encoding="utf-8") as handle:
        return json.load(handle)


class TestCurrentSchema:
    def test_version_is_three(self):
        assert TRACE_VERSION == 3

    def test_schema_lineage(self):
        # v3 requires the funnel stage, v2 does not; v1 additionally
        # drops trace_id.
        funnel_spec = TRACE_SCHEMA["invocations"][1]["funnel"][1]
        assert "stage" in funnel_spec
        v2_funnel = TRACE_SCHEMA_V2["invocations"][1]["funnel"][1]
        assert "stage" not in v2_funnel
        assert "trace_id" in TRACE_SCHEMA_V2
        assert "trace_id" not in TRACE_SCHEMA_V1

    def test_fresh_export_carries_the_active_trace_id(self):
        context = TraceContext.new()
        with trace_context(context):
            with tracing(RewriteTracer(sql="select 1")) as tracer:
                pass
        data = tracer.trace.to_dict()
        assert data["trace_version"] == 3
        assert data["trace_id"] == context.trace_id
        assert validate_trace_dict(data) == []


class TestV1Compatibility:
    def test_fixture_still_validates(self):
        data = load_fixture("trace_v1.json")
        assert data["trace_version"] == 1
        assert "trace_id" not in data
        assert validate_trace_dict(data) == []

    def test_fixture_fails_v2_validation_semantics(self):
        # The same dict claiming to be version 2 must be rejected: the
        # compat window is keyed on the declared version, not leniency.
        data = load_fixture("trace_v1.json")
        data["trace_version"] = 2
        assert validate_trace_dict(data) != []

    def test_fixture_rebuilds_and_renders(self):
        trace = RewriteTrace.from_dict(load_fixture("trace_v1.json"))
        assert trace.trace_id is None
        assert trace.reject_tallies() == {
            "RANGE": 1,
            "PREDICATE_MAPPING": 1,
        }
        chosen = trace.chosen_alternative()
        assert chosen is not None and chosen.views == ("v1",)
        text = render_trace(trace)
        assert "RANGE" in text

    def test_round_trip_re_export_upgrades_version(self):
        # from_dict + to_dict re-emits at the current version with a
        # null trace id -- old data is readable, new writes are v3.
        data = RewriteTrace.from_dict(load_fixture("trace_v1.json")).to_dict()
        assert data["trace_version"] == 3
        assert data["trace_id"] is None


class TestV2Compatibility:
    def test_fixture_still_validates(self):
        data = load_fixture("trace_v2.json")
        assert data["trace_version"] == 2
        assert "stage" not in data["invocations"][0]["funnel"][0]
        assert validate_trace_dict(data) == []

    def test_fixture_fails_v3_validation_semantics(self):
        data = load_fixture("trace_v2.json")
        data["trace_version"] = 3
        assert validate_trace_dict(data) != []

    def test_fixture_rebuilds_with_default_stage(self):
        # Pre-stage funnel entries rebuild as ordinary full-match
        # verifications; nothing in a v2 journal can claim the
        # pre-verifier or cost-bound paths that did not exist yet.
        trace = RewriteTrace.from_dict(load_fixture("trace_v2.json"))
        stages = {
            candidate.stage
            for invocation in trace.invocations
            for candidate in invocation.funnel
        }
        assert stages == {"verify"}
        assert trace.invocations[0].skipped == 0

    def test_round_trip_re_export_upgrades_version(self):
        data = RewriteTrace.from_dict(load_fixture("trace_v2.json")).to_dict()
        assert data["trace_version"] == 3
        for candidate in data["invocations"][0]["funnel"]:
            assert candidate["stage"] == "verify"
        assert validate_trace_dict(data) == []


class TestPreVerifierStage:
    """Version-3 exports written while the columnar pre-verifier existed
    carry ``"preverify"`` funnel stages; they still validate, rebuild
    and render, although nothing writes that stage any more."""

    @staticmethod
    def export():
        data = RewriteTrace.from_dict(load_fixture("trace_v2.json")).to_dict()
        data["invocations"][0]["funnel"][1]["stage"] = "preverify"
        return data

    def test_still_validates(self):
        assert validate_trace_dict(self.export()) == []

    def test_rebuilds_and_renders(self):
        trace = RewriteTrace.from_dict(self.export())
        funnel = trace.invocations[0].funnel
        assert [candidate.stage for candidate in funnel] == [
            "verify",
            "preverify",
            "verify",
        ]
        assert trace.reject_tallies() == {
            "RANGE": 1,
            "PREDICATE_MAPPING": 1,
        }
        text = render_trace(trace)
        assert "v2: rejected RANGE" in text
        assert "[pre-verified]" in text
