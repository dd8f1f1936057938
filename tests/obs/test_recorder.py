"""Workload recorder: journal mechanics, aggregation, funnel fidelity."""

import json
import os

import pytest

from repro.obs.recorder import (
    EVENT_VERSION,
    WorkloadAggregate,
    WorkloadRecorder,
    aggregate_events,
    iter_events,
    load_journal,
)
from repro.service.loadgen import BenchConfig, run_service_benchmark


def read_lines(path):
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def rewrite_event(**overrides):
    event = {
        "kind": "rewrite",
        "fingerprint": "fp-1",
        "sql": "select 1",
        "cache_hit": False,
        "uses_view": False,
        "views": [],
        "latency_seconds": 0.001,
        "error": None,
        "timed_out": False,
        "rejected": False,
        "max_staleness": None,
        "reject_tallies": {},
    }
    event.update(overrides)
    return event


class TestRecorder:
    def test_events_are_stamped_and_flushed_on_close(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        clock = lambda: 123.5
        with WorkloadRecorder(path, clock=clock) as recorder:
            assert recorder.record_event({"kind": "rewrite"}) is True
        (event,) = read_lines(path)
        assert event["v"] == EVENT_VERSION
        assert event["ts"] == 123.5

    def test_sampling_keeps_every_nth(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with WorkloadRecorder(path, sample_every=3) as recorder:
            kept = [recorder.record_event({"i": i}) for i in range(10)]
        assert kept == [True, False, False] * 3 + [True]
        assert len(read_lines(path)) == 4
        assert recorder.stats() == {
            "seen": 10,
            "written": 4,
            "rotations": 0,
            "sample_every": 3,
        }

    def test_rotation_bounds_files_and_keeps_order(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with WorkloadRecorder(path, max_bytes=1024, max_files=3) as recorder:
            for index in range(200):
                recorder.record_event({"i": index, "pad": "x" * 64})
        assert recorder.stats()["rotations"] > 0
        assert not os.path.exists(f"{path}.3")
        indices = [event["i"] for event in iter_events(path)]
        # Oldest-first across rotated files, strictly increasing.
        assert indices == sorted(indices)
        assert indices[-1] == 199

    def test_record_result_duck_types_served_result(self, tmp_path):
        class Inner:
            reject_tallies = {"RANGE": 2}
            candidates_skipped = 7
            preaggregations_dropped = 3

        class Result:
            sql = "select * from t"
            fingerprint = "fp"
            cache_hit = True
            uses_view = True
            view_names = ("mv1",)
            latency_seconds = 0.002
            error = None
            timed_out = False
            rejected = False
            max_staleness = 5.0
            result = Inner()

        path = str(tmp_path / "journal.jsonl")
        with WorkloadRecorder(path) as recorder:
            recorder.record_result(Result())
        (event,) = read_lines(path)
        assert event["fingerprint"] == "fp"
        assert event["views"] == ["mv1"]
        assert event["reject_tallies"] == {"RANGE": 2}
        assert event["max_staleness"] == 5.0
        assert event["candidates_skipped"] == 7
        assert event["preaggregations_dropped"] == 3

    def test_validation(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with pytest.raises(ValueError):
            WorkloadRecorder(path, max_bytes=10)
        with pytest.raises(ValueError):
            WorkloadRecorder(path, sample_every=0)
        with pytest.raises(ValueError):
            WorkloadRecorder(path, max_files=0)


class TestReader:
    def test_torn_tail_and_garbage_are_skipped(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"v": EVENT_VERSION, "i": 1}) + "\n")
            handle.write("not json at all\n")
            handle.write("[1, 2, 3]\n")  # valid JSON, not an object
            handle.write(json.dumps({"v": EVENT_VERSION, "i": 2}) + "\n")
            handle.write('{"v": 1, "i": 3, "tor')  # torn tail, no newline
        assert [event["i"] for event in iter_events(path)] == [1, 2]

    def test_unknown_versions_are_skipped(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"v": EVENT_VERSION + 1, "i": 1}) + "\n")
            handle.write(json.dumps({"i": 2}) + "\n")  # no version at all
            handle.write(json.dumps({"v": EVENT_VERSION, "i": 3}) + "\n")
        assert [event["i"] for event in iter_events(path)] == [3]

    def test_missing_file_yields_nothing(self, tmp_path):
        assert list(iter_events(str(tmp_path / "absent.jsonl"))) == []


class TestAggregate:
    def test_funnel_ranking_is_deterministic(self):
        aggregate = aggregate_events(
            [
                rewrite_event(reject_tallies={"RANGE": 3, "AGGREGATE": 1}),
                rewrite_event(reject_tallies={"RANGE": 2, "EQUIJOIN": 1}),
                rewrite_event(reject_tallies={"AGGREGATE": 2}),
            ]
        )
        assert aggregate.ranked_rejects() == [
            ("RANGE", 5),
            ("AGGREGATE", 3),
            ("EQUIJOIN", 1),
        ]

    def test_hit_rate_and_fingerprints(self):
        aggregate = aggregate_events(
            [
                rewrite_event(cache_hit=True),
                rewrite_event(cache_hit=True),
                rewrite_event(fingerprint="fp-2", uses_view=True, views=["mv"]),
            ]
        )
        assert aggregate.hit_rate == pytest.approx(2 / 3)
        top = aggregate.top_fingerprints()
        assert top[0][0] == "fp-1" and top[0][1]["count"] == 2
        assert aggregate.fingerprints["fp-2"]["views"] == {"mv": 1}

    def test_counts_errors_timeouts_rejections(self):
        aggregate = aggregate_events(
            [
                rewrite_event(error="parse failed", fingerprint=None),
                rewrite_event(timed_out=True, fingerprint=None),
                rewrite_event(rejected=True, fingerprint=None),
                rewrite_event(max_staleness=10.0),
            ]
        )
        assert aggregate.errors == 1
        assert aggregate.timed_out == 1
        assert aggregate.rejected == 1
        assert aggregate.bounded == 1

    def test_advisor_input_shape(self):
        aggregate = aggregate_events(
            [
                rewrite_event(ts=10.0, reject_tallies={"RANGE": 1}),
                rewrite_event(ts=25.0),
            ]
        )
        advisor = aggregate.to_advisor_input(top=5)
        assert advisor["source_events"] == 2
        assert advisor["window_seconds"] == 15.0
        assert advisor["reject_funnel"] == {"RANGE": 1}
        assert advisor["queries"][0]["fingerprint"] == "fp-1"
        assert json.loads(json.dumps(advisor)) == advisor

    def test_render_mentions_funnel_and_shapes(self):
        aggregate = aggregate_events(
            [rewrite_event(reject_tallies={"RANGE": 2})]
        )
        text = aggregate.render()
        assert "reject funnel" in text
        assert "RANGE" in text
        assert "query shapes" in text

    def test_cost_bound_counts_fold_and_render(self):
        aggregate = aggregate_events(
            [
                rewrite_event(candidates_skipped=4, preaggregations_dropped=2),
                rewrite_event(preaggregations_dropped=1),
                rewrite_event(),  # a journal line written before the fields
            ]
        )
        assert aggregate.candidates_skipped == 4
        assert aggregate.preaggregations_dropped == 3
        assert aggregate.to_advisor_input()["preaggregations_dropped"] == 3
        assert (
            "4 cost-bound skips, 3 pre-aggregation alternatives dropped"
            in aggregate.render()
        )

    def test_empty_render(self):
        assert "0 events" in WorkloadAggregate().render()


class TestFunnelFidelity:
    """Acceptance: a recorded journal reproduces the serving tier's
    reject-reason funnel ranking -- RANGE dominates PREDICATE_MAPPING,
    matching the committed BENCH_matching.json profile."""

    def test_journal_reproduces_reject_ranking(self, tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        config = BenchConfig(
            views=200,
            queries=40,
            repeat=2,
            workers=2,
            scale=0.1,
            seed=42,
            journal=journal,
        )
        report = run_service_benchmark(config, echo=None)
        aggregate = load_journal(journal)
        # Every cache-enabled request was journaled.
        assert aggregate.events == len(report.cached.results)
        ranked = aggregate.ranked_rejects()
        funnel = dict(ranked)
        assert ranked[0][0] == "RANGE"
        assert "PREDICATE_MAPPING" in funnel
        assert funnel["RANGE"] > funnel["PREDICATE_MAPPING"]
