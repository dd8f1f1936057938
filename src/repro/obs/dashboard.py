"""``repro-top``: live terminal dashboard over a server or journal.

The rendering is split from the looping so everything interesting is
a pure function of a *frame* -- a plain dict assembled either from a
running :class:`~repro.service.server.ViewServer` (``server_frame``)
or from a recorded workload journal (``journal_frame``).  Tests
assert on the rendered string; the CLI adds the refresh loop and the
ANSI clear.

Sections, top to bottom:

* **RED** -- request/error rates (per second, from counter deltas
  between frames) and duration percentiles from the ``total`` stage.
* **Funnel** -- reject reasons ranked with percentage bars: the
  paper's per-level pruning behaviour as a live view.
* **Sketches** -- every percentile sketch in the server's telemetry
  hub: the serving stages, matcher invocations, the pool's per-request
  worker serve times, CDC scan/merge. The hub is this process's alone:
  a pool worker's own sketches stay in the worker and are not merged.
* **CDC** -- per-view maintenance lag.
* **SLO** -- multi-window burn rates with a ``!`` marker past 1.0.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional

__all__ = [
    "server_frame",
    "journal_frame",
    "render_frame",
    "DashboardLoop",
]

_CLEAR = "\x1b[2J\x1b[H"
_BAR_WIDTH = 24


# ---------------------------------------------------------------------------
# Frame assembly


def server_frame(server: Any) -> Dict[str, Any]:
    """A running ``ViewServer``'s :meth:`stats` as a renderable frame."""

    stats = server.stats()
    frame: Dict[str, Any] = {
        "source": "server",
        "now": time.monotonic(),
        "epoch": stats["epoch"],
        "views": stats["views"],
        "counters": stats["counters"],
        "latency": stats["latency"],
        "cache": stats["cache"],
        "sketches": stats["telemetry"]["sketches"],
        "funnel": stats["rejects"],
    }
    if "cdc" in stats:
        frame["cdc"] = {
            view: entry["lag_seconds"]
            for view, entry in stats["cdc"]["views"].items()
        }
        frame["cdc_head_lsn"] = stats["cdc"]["head_lsn"]
    if "slo" in stats:
        frame["slo"] = stats["slo"]
    return frame


def journal_frame(aggregate: Any) -> Dict[str, Any]:
    """Render-ready frame from a :class:`WorkloadAggregate`."""

    latency = aggregate.latency.snapshot()
    window = 0.0
    if aggregate.first_ts is not None and aggregate.last_ts is not None:
        window = max(aggregate.last_ts - aggregate.first_ts, 0.0)
    return {
        "source": "journal",
        "now": time.monotonic(),
        "window_seconds": window,
        "counters": {
            "requests": aggregate.events,
            "errors": aggregate.errors,
            "timeouts": aggregate.timed_out,
            "rejected": aggregate.rejected,
            "cache_hits": aggregate.cache_hits,
            "cache_misses": aggregate.cache_misses,
            "rewrites": aggregate.uses_view,
        },
        "latency": {"total": latency},
        "funnel": dict(aggregate.reject_funnel),
        "hit_rate": aggregate.hit_rate,
        "fingerprints": len(aggregate.fingerprints),
    }


# ---------------------------------------------------------------------------
# Rendering


def _rate(
    frame: Dict[str, Any],
    previous: Optional[Dict[str, Any]],
    counter: str,
) -> Optional[float]:
    if previous is None:
        return None
    dt = frame.get("now", 0.0) - previous.get("now", 0.0)
    if dt <= 0:
        return None
    delta = frame.get("counters", {}).get(counter, 0) - previous.get(
        "counters", {}
    ).get(counter, 0)
    return max(delta, 0) / dt


def _bar(fraction: float, width: int = _BAR_WIDTH) -> str:
    filled = int(round(min(max(fraction, 0.0), 1.0) * width))
    return "#" * filled + "." * (width - filled)


def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:8.3f}"


def render_frame(
    frame: Dict[str, Any],
    *,
    previous: Optional[Dict[str, Any]] = None,
) -> str:
    lines: List[str] = []
    counters = frame.get("counters", {})
    if frame.get("source") == "journal":
        header = (
            f"repro-top -- journal replay, {counters.get('requests', 0)} "
            f"events over {frame.get('window_seconds', 0.0):.1f}s, "
            f"{frame.get('fingerprints', 0)} query shapes"
        )
    else:
        header = (
            f"repro-top -- epoch {frame.get('epoch')}, "
            f"{frame.get('views')} views registered"
        )
    lines.append(header)
    lines.append("=" * len(header))

    # RED: rates + durations.
    requests = counters.get("requests", 0)
    errors = counters.get("errors", 0)
    red = [f"requests {requests}"]
    rate = _rate(frame, previous, "requests")
    if rate is not None:
        red.append(f"({rate:.1f}/s)")
    red.append(f"errors {errors}")
    error_rate = _rate(frame, previous, "errors")
    if error_rate is not None:
        red.append(f"({error_rate:.1f}/s)")
    hits = counters.get("cache_hits", 0)
    misses = counters.get("cache_misses", 0)
    probes = hits + misses
    if probes:
        red.append(f"hit rate {hits / probes:.1%}")
    lines.append("  ".join(red))
    total = frame.get("latency", {}).get("total")
    if total and total.get("count"):
        lines.append(
            f"latency ms: p50 {_ms(total['p50'])}  p90 {_ms(total['p90'])}  "
            f"p99 {_ms(total['p99'])}  (n={total['count']})"
        )

    # Reject funnel.
    funnel = frame.get("funnel") or {}
    if funnel:
        ranked = sorted(funnel.items(), key=lambda item: (-item[1], item[0]))
        total_rejects = sum(count for _, count in ranked)
        lines.append("")
        lines.append(f"reject funnel ({total_rejects} rejects):")
        for reason, count in ranked:
            fraction = count / total_rejects if total_rejects else 0.0
            lines.append(
                f"  {reason:<18} {count:>8}  {_bar(fraction)} {fraction:6.1%}"
            )

    # The server's hub sketches.
    sketches = frame.get("sketches") or {}
    if sketches:
        lines.append("")
        lines.append("telemetry sketches (ms):")
        lines.append(
            f"  {'name':<24} {'count':>8} {'p50':>9} {'p90':>9} {'p99':>9}"
        )
        for name in sorted(sketches):
            snap = sketches[name]
            if not snap.get("count"):
                continue
            lines.append(
                f"  {name:<24} {snap['count']:>8}"
                f" {_ms(snap['p50'])} {_ms(snap['p90'])} {_ms(snap['p99'])}"
            )

    # CDC lag.
    cdc = frame.get("cdc")
    if cdc:
        lines.append("")
        lines.append(
            f"cdc lag (head lsn {frame.get('cdc_head_lsn', '?')}):"
        )
        for view in sorted(cdc):
            lines.append(f"  {view:<24} {cdc[view]:10.3f}s")

    # SLO burn.
    slo = frame.get("slo")
    if slo:
        lines.append("")
        objectives = slo.get("objectives", {})
        lines.append(
            "slo: p99 target "
            f"{objectives.get('target_p99_seconds', 0.0) * 1e3:.1f} ms, "
            f"budget {objectives.get('target_error_budget', 0.0):.2%}, "
            f"bad {slo.get('bad_fraction', 0.0):.2%} of "
            f"{slo.get('requests', 0)}"
        )
        for window, burn in sorted(
            (slo.get("burn_rates") or {}).items(), key=lambda kv: int(kv[0])
        ):
            marker = " !" if burn > 1.0 else ""
            lines.append(
                f"  burn {int(window):>6}s window: {burn:8.3f}{marker}"
            )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Refresh loop


class DashboardLoop:
    """Re-render frames on an interval until told to stop.

    ``frames`` produces a new frame per tick; ``echo`` receives the
    rendered screen (tests inject a collector, the CLI prints).  The
    ANSI clear is prepended only when ``clear`` is on, so piped output
    stays readable.
    """

    def __init__(
        self,
        frames: Callable[[], Dict[str, Any]],
        *,
        interval: float = 1.0,
        iterations: Optional[int] = None,
        clear: bool = True,
        echo: Callable[[str], None] = print,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.frames = frames
        self.interval = interval
        self.iterations = iterations
        self.clear = clear
        self.echo = echo
        self.sleep = sleep

    def run(self) -> int:
        previous: Optional[Dict[str, Any]] = None
        count = 0
        try:
            while self.iterations is None or count < self.iterations:
                frame = self.frames()
                screen = render_frame(frame, previous=previous)
                if self.clear:
                    screen = _CLEAR + screen
                self.echo(screen)
                previous = frame
                count += 1
                if self.iterations is not None and count >= self.iterations:
                    break
                self.sleep(self.interval)
        except KeyboardInterrupt:
            pass
        return 0
