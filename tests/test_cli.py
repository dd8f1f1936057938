"""CLI tests: python -m repro."""

import pytest

from repro.__main__ import main
from repro.cli import run_demo, run_figures


class TestCli:
    def test_demo_succeeds(self, capsys):
        assert run_demo() == 0
        captured = capsys.readouterr()
        assert "substitute" in captured.out
        assert "bag-equal: True" in captured.out

    def test_figures_tiny(self, capsys):
        assert run_figures(quick=True, views=20, queries=5) == 0
        captured = capsys.readouterr()
        assert "Figure 2" in captured.out
        assert "Figure 4" in captured.out

    def test_main_dispatch_demo(self, capsys):
        assert main(["demo"]) == 0

    def test_repro_top_demo_serves_its_generated_workload(self, capsys):
        assert main(["repro-top", "--demo", "--once"]) == 0
        out = capsys.readouterr().out
        assert "20 views registered" in out
        assert "errors 0" in out

    def test_main_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_main_rejects_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["nope"])


AGG_QUERY = """
    select l_partkey, sum(l_extendedprice * l_quantity)
    from lineitem, part
    where l_partkey = p_partkey and p_partkey >= 50 and p_partkey <= 100
    group by l_partkey
"""


class TestExplainRewrite:
    def test_human_report_shows_funnel(self, capsys):
        from repro.cli import run_explain_rewrite

        assert run_explain_rewrite(AGG_QUERY) == 0
        out = capsys.readouterr().out
        assert "match invocation" in out
        assert "level hub" in out
        assert "+ part_revenue: MATCHED" in out
        assert "compensation:" in out
        assert "cost comparison:" in out

    def test_json_validates_against_schema(self, capsys):
        import json

        from repro.cli import run_explain_rewrite
        from repro.obs import validate_trace_dict

        assert run_explain_rewrite(AGG_QUERY, json_output=True, validate=True) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trace_version"] == 3
        assert validate_trace_dict(payload) == []
        assert payload["invocations"]

    def test_bad_query_exits_nonzero_with_error_line(self, capsys):
        from repro.cli import run_explain_rewrite

        assert run_explain_rewrite("select nope from nowhere") == 1
        assert "error:" in capsys.readouterr().out

    def test_custom_view_pool(self, capsys):
        from repro.cli import run_explain_rewrite

        view = (
            "v=select l_orderkey, l_partkey, l_extendedprice "
            "from lineitem where l_extendedprice <= 1000"
        )
        query = (
            "select l_orderkey from lineitem where l_extendedprice <= 500"
        )
        assert run_explain_rewrite(query, views=(view,)) == 0
        out = capsys.readouterr().out
        assert "+ v: MATCHED" in out

    def test_bad_view_spec_exits_two(self, capsys):
        from repro.cli import run_explain_rewrite

        assert run_explain_rewrite("select 1", views=("no-equals-sign",)) == 2
        assert "bad --view" in capsys.readouterr().out

    def test_main_dispatch(self, capsys):
        assert main(["explain-rewrite", AGG_QUERY]) == 0
        assert "cost comparison:" in capsys.readouterr().out


def write_journal(path, events=3):
    from repro.obs.recorder import WorkloadRecorder

    with WorkloadRecorder(str(path)) as recorder:
        for index in range(events):
            recorder.record_event(
                {
                    "kind": "rewrite",
                    "fingerprint": f"fp-{index % 2}",
                    "sql": "select 1",
                    "cache_hit": index > 0,
                    "uses_view": False,
                    "views": [],
                    "latency_seconds": 0.001,
                    "error": None,
                    "timed_out": False,
                    "rejected": False,
                    "max_staleness": None,
                    "reject_tallies": {"RANGE": 2, "PREDICATE_MAPPING": 1},
                }
            )


class TestWorkloadReport:
    def test_report_renders_funnel(self, tmp_path, capsys):
        from repro.cli import run_workload_report

        journal = tmp_path / "journal.jsonl"
        write_journal(journal)
        assert run_workload_report(str(journal)) == 0
        out = capsys.readouterr().out
        assert "3 events" in out
        assert "RANGE" in out
        assert "reject funnel" in out

    def test_json_output_is_advisor_shaped(self, tmp_path, capsys):
        import json

        from repro.cli import run_workload_report

        journal = tmp_path / "journal.jsonl"
        write_journal(journal)
        assert run_workload_report(str(journal), json_output=True) == 0
        advisor = json.loads(capsys.readouterr().out)
        assert advisor["source_events"] == 3
        assert advisor["reject_funnel"]["RANGE"] == 6

    def test_missing_journal_exits_two(self, tmp_path, capsys):
        from repro.cli import run_workload_report

        assert run_workload_report(str(tmp_path / "absent.jsonl")) == 2

    def test_empty_journal_exits_one(self, tmp_path, capsys):
        from repro.cli import run_workload_report

        journal = tmp_path / "journal.jsonl"
        journal.write_text("")
        assert run_workload_report(str(journal)) == 1

    def test_main_dispatch(self, tmp_path, capsys):
        journal = tmp_path / "journal.jsonl"
        write_journal(journal)
        assert main(["workload-report", str(journal)]) == 0
        assert "reject funnel" in capsys.readouterr().out


class TestReproTop:
    def test_once_over_journal(self, tmp_path, capsys):
        from repro.cli import run_repro_top

        journal = tmp_path / "journal.jsonl"
        write_journal(journal)
        assert run_repro_top(journal=str(journal), once=True) == 0
        out = capsys.readouterr().out
        assert "journal replay" in out
        assert "RANGE" in out
        assert not out.startswith("\x1b")  # --once never clears the screen

    def test_missing_journal_exits_two(self, tmp_path, capsys):
        from repro.cli import run_repro_top

        assert run_repro_top(journal=str(tmp_path / "nope.jsonl"), once=True) == 2

    def test_no_source_exits_two(self, capsys):
        from repro.cli import run_repro_top

        assert run_repro_top() == 2
        assert "--journal" in capsys.readouterr().out

    def test_main_dispatch(self, tmp_path, capsys):
        journal = tmp_path / "journal.jsonl"
        write_journal(journal)
        assert main(["repro-top", "--once", "--journal", str(journal)]) == 0
