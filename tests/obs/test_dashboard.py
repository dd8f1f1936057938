"""repro-top: frame assembly and pure rendering, loop mechanics."""

from repro.obs.dashboard import (
    DashboardLoop,
    journal_frame,
    render_frame,
    server_frame,
)
from repro.obs.recorder import aggregate_events
from repro.obs.slo import SloObjectives, SloTracker
from repro.obs.telemetry import TelemetryHub


def journal_events():
    return [
        {
            "v": 1,
            "ts": 100.0,
            "kind": "rewrite",
            "fingerprint": "fp-1",
            "sql": "select 1",
            "cache_hit": hit,
            "uses_view": False,
            "views": [],
            "latency_seconds": 0.002,
            "error": None,
            "timed_out": False,
            "rejected": False,
            "max_staleness": None,
            "reject_tallies": {"RANGE": 2, "AGGREGATE": 1},
        }
        for hit in (True, False, True)
    ]


class StubServer:
    """Duck-typed stand-in for ViewServer: stats + telemetry + slo."""

    def __init__(self):
        self.telemetry = TelemetryHub()
        self.telemetry.record("match_invocation_seconds", 0.004)
        self.telemetry.increment("match_invocations", 7)
        self.slo = SloTracker(SloObjectives())
        self.slo.record(0.001)
        self.slo.record(0.5)  # slow: burns budget

    def stats(self):
        return {
            "epoch": 3,
            "views": 12,
            "counters": {"requests": 10, "errors": 1, "cache_hits": 6,
                         "cache_misses": 4},
            "latency": {
                "total": {
                    "count": 10,
                    "mean": 0.002,
                    "min": 0.001,
                    "max": 0.01,
                    "p50": 0.002,
                    "p90": 0.005,
                    "p99": 0.009,
                }
            },
            "cache": {"hits": 6},
            "rejects": {"RANGE": 5, "EQUIJOIN": 1},
            "cdc": {
                "head_lsn": 42,
                "views": {"mv": {"lag_seconds": 1.25}},
            },
        }


class TestFrames:
    def test_journal_frame_shape(self):
        frame = journal_frame(aggregate_events(journal_events()))
        assert frame["source"] == "journal"
        assert frame["counters"]["requests"] == 3
        assert frame["counters"]["cache_hits"] == 2
        assert frame["funnel"] == {"RANGE": 6, "AGGREGATE": 3}
        assert frame["fingerprints"] == 1

    def test_server_frame_shape(self):
        frame = server_frame(StubServer())
        assert frame["source"] == "server"
        assert frame["epoch"] == 3
        assert frame["funnel"] == {"RANGE": 5, "EQUIJOIN": 1}
        assert frame["sketches"]["match_invocation_seconds"]["count"] == 1
        assert frame["counters"]["match_invocations"] == 7
        assert frame["cdc"] == {"mv": 1.25}
        assert frame["slo"]["requests"] == 2


class TestRendering:
    def test_sections_render(self):
        text = render_frame(server_frame(StubServer()))
        assert "repro-top -- epoch 3, 12 views registered" in text
        assert "reject funnel (6 rejects):" in text
        assert "RANGE" in text
        assert "telemetry sketches (ms):" in text
        assert "cdc lag (head lsn 42):" in text
        assert "slo: p99 target 5.0 ms" in text
        assert "burn" in text

    def test_burn_over_one_is_flagged(self):
        text = render_frame(server_frame(StubServer()))
        # One of two requests was slow against a 0.1% budget: the burn
        # rate is far past 1.0 and the renderer marks it.
        assert " !" in text

    def test_rates_come_from_counter_deltas(self):
        first = {
            "source": "server",
            "now": 10.0,
            "counters": {"requests": 100, "errors": 0},
        }
        second = {
            "source": "server",
            "now": 12.0,
            "counters": {"requests": 150, "errors": 4},
        }
        text = render_frame(second, previous=first)
        assert "(25.0/s)" in text
        assert "(2.0/s)" in text
        # No previous frame: no rate shown.
        assert "/s)" not in render_frame(first)

    def test_journal_header(self):
        text = render_frame(journal_frame(aggregate_events(journal_events())))
        assert "journal replay" in text
        assert "1 query shapes" in text


class TestLoop:
    def test_iterations_and_injected_sleep(self):
        screens = []
        sleeps = []
        loop = DashboardLoop(
            lambda: {"source": "server", "now": 1.0, "counters": {}},
            interval=0.5,
            iterations=3,
            clear=False,
            echo=screens.append,
            sleep=sleeps.append,
        )
        assert loop.run() == 0
        assert len(screens) == 3
        # No sleep after the final frame.
        assert sleeps == [0.5, 0.5]
        assert not screens[0].startswith("\x1b")

    def test_clear_prepends_ansi(self):
        screens = []
        DashboardLoop(
            lambda: {"source": "server", "now": 1.0, "counters": {}},
            iterations=1,
            clear=True,
            echo=screens.append,
            sleep=lambda _: None,
        ).run()
        assert screens[0].startswith("\x1b[2J\x1b[H")

    def test_keyboard_interrupt_exits_cleanly(self):
        def boom(_):
            raise KeyboardInterrupt

        loop = DashboardLoop(
            lambda: {"source": "server", "now": 1.0, "counters": {}},
            iterations=None,
            clear=False,
            echo=lambda _: None,
            sleep=boom,
        )
        assert loop.run() == 0
