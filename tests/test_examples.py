"""Smoke tests: every example script runs to completion.

Examples are part of the public deliverable; these tests keep them from
rotting. The scaling experiment is exercised in its --quick form and with
reduced sizes where the script supports them.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, *args: str, timeout: int = 600) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, (
        f"{name} failed\nstdout:\n{result.stdout[-2000:]}\n"
        f"stderr:\n{result.stderr[-2000:]}"
    )
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        output = run_example("quickstart.py")
        assert "identical rows" in output

    def test_paper_walkthrough(self):
        output = run_example("paper_walkthrough.py")
        assert "Example 1" in output
        assert "Example 4" in output
        assert "best plan uses views: ('v4',)" in output

    def test_query_result_cache(self):
        output = run_example("query_result_cache.py")
        assert "cache HIT" in output
        assert "cache MISS" in output

    def test_extensions_demo(self):
        output = run_example("extensions_demo.py")
        assert output.count("verified: True") >= 3

    def test_incremental_maintenance(self):
        output = run_example("incremental_maintenance.py")
        assert "view answer still exact: True" in output

    def test_serving_demo(self):
        output = run_example("serving_demo.py")
        assert "registered 12 views" in output
        assert "hit rate" in output
        assert "answered from views" in output
        assert "cache_hit=False" in output  # epoch bump retired the cache

    def test_tracing_demo(self):
        output = run_example("tracing_demo.py")
        assert "sampled 20 traces" in output
        assert "MATCHED" in output
        assert "compensation:" in output
        assert "rejected RANGE" in output
        assert "cost comparison:" in output
        assert "repro_traces_sampled_total 20" in output
        assert 'repro_match_rejects_total{reason="range"}' in output

    def test_scaling_experiment_quick(self):
        output = run_example("scaling_experiment.py", "--quick")
        assert "Figure 2" in output
        assert "Figure 4" in output
