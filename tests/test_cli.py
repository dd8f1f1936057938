"""CLI tests: python -m repro."""

import pytest

from repro.__main__ import main


class TestCli:
    def test_demo_succeeds(self, capsys):
        assert main(["demo"]) == 0
        captured = capsys.readouterr()
        assert "substitute" in captured.out
        assert "bag-equal: True" in captured.out

    def test_figures_tiny(self, capsys):
        assert (
            main(["figures", "--quick", "--views", "20", "--queries", "5"]) == 0
        )
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
        assert main(["explain-rewrite", AGG_QUERY]) == 0
        out = capsys.readouterr().out
        assert "match invocation" in out
        assert "level hub" in out
        assert "+ part_revenue: MATCHED" in out
        assert "compensation:" in out
        assert "cost comparison:" in out

    def test_json_validates_against_schema(self, capsys):
        import json

        from repro.obs import validate_trace_dict

        assert (
            main(["explain-rewrite", AGG_QUERY, "--json", "--validate"]) == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["trace_version"] == 3
        assert validate_trace_dict(payload) == []
        assert payload["invocations"]

    def test_bad_query_exits_nonzero_with_error_line(self, capsys):
        assert main(["explain-rewrite", "select nope from nowhere"]) == 1
        assert "error:" in capsys.readouterr().out

    def test_custom_view_pool(self, capsys):
        view = (
            "v=select l_orderkey, l_partkey, l_extendedprice "
            "from lineitem where l_extendedprice <= 1000"
        )
        query = (
            "select l_orderkey from lineitem where l_extendedprice <= 500"
        )
        assert main(["explain-rewrite", query, "--view", view]) == 0
        out = capsys.readouterr().out
        assert "+ v: MATCHED" in out

    def test_bad_view_spec_exits_two(self, capsys):
        assert (
            main(["explain-rewrite", "select 1", "--view", "no-equals-sign"])
            == 2
        )
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
        journal = tmp_path / "journal.jsonl"
        write_journal(journal)
        assert main(["workload-report", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "3 events" in out
        assert "RANGE" in out
        assert "reject funnel" in out

    def test_json_output_is_advisor_shaped(self, tmp_path, capsys):
        import json

        journal = tmp_path / "journal.jsonl"
        write_journal(journal)
        assert main(["workload-report", str(journal), "--json"]) == 0
        advisor = json.loads(capsys.readouterr().out)
        assert advisor["source_events"] == 3
        assert advisor["reject_funnel"]["RANGE"] == 6

    def test_missing_journal_exits_two(self, tmp_path, capsys):
        assert main(["workload-report", str(tmp_path / "absent.jsonl")]) == 2

    def test_empty_journal_exits_one(self, tmp_path, capsys):
        journal = tmp_path / "journal.jsonl"
        journal.write_text("")
        assert main(["workload-report", str(journal)]) == 1

    def test_main_dispatch(self, tmp_path, capsys):
        journal = tmp_path / "journal.jsonl"
        write_journal(journal)
        assert main(["workload-report", str(journal)]) == 0
        assert "reject funnel" in capsys.readouterr().out


class TestReproTop:
    def test_once_over_journal(self, tmp_path, capsys):
        journal = tmp_path / "journal.jsonl"
        write_journal(journal)
        assert main(["repro-top", "--journal", str(journal), "--once"]) == 0
        out = capsys.readouterr().out
        assert "journal replay" in out
        assert "RANGE" in out
        assert not out.startswith("\x1b")  # --once never clears the screen

    def test_missing_journal_exits_two(self, tmp_path, capsys):
        nope = str(tmp_path / "nope.jsonl")
        assert main(["repro-top", "--journal", nope, "--once"]) == 2

    def test_no_source_exits_two(self, capsys):
        assert main(["repro-top"]) == 2
        assert "--journal" in capsys.readouterr().out

    def test_main_dispatch(self, tmp_path, capsys):
        journal = tmp_path / "journal.jsonl"
        write_journal(journal)
        assert main(["repro-top", "--once", "--journal", str(journal)]) == 0


def parser_surface(parser):
    """Each command's positionals and each option's strings, default,
    type, action and metavar -- what a script that calls the CLI sees."""
    import argparse

    (subparsers,) = [
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    surface = {}
    for name, subparser in subparsers.choices.items():
        positionals, options = [], []
        for action in subparser._actions:
            if not action.option_strings:
                positionals.append(action.dest)
                continue
            options.append(
                {
                    "strings": list(action.option_strings),
                    "default": action.default,
                    "type": None if action.type is None else action.type.__name__,
                    "action": type(action).__name__,
                    "metavar": action.metavar,
                }
            )
        surface[name] = {"positionals": positionals, "options": options}
    return surface


class TestCommandSurface:
    def test_parser_matches_pinned_surface(self):
        """Every command keeps its flags and defaults: the parser equals the
        surface recorded in ``cli_surface_pinned.json``."""
        import json
        import pathlib

        from repro.__main__ import build_parser

        pinned = json.loads(
            (pathlib.Path(__file__).parent / "cli_surface_pinned.json").read_text()
        )
        assert parser_surface(build_parser()) == pinned
