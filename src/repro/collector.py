"""Pausing the cyclic garbage collector around allocation-heavy work.

Two kinds of work allocate many container objects and no reference
cycle: a bulk view load (hundreds of long-lived objects per view) and a
query execution (one tuple per joined, grouped or output row). Every
collection they trigger re-walks what they allocated and frees nothing
-- a quarter of a 10k-view load, a fifth of the ``cdc_fresh_100``
benchmark's set-up, which materializes 100 views -- so both run with the
collector paused.
"""

from __future__ import annotations

import contextlib
import gc
from typing import Iterator


@contextlib.contextmanager
def collector_paused() -> Iterator[None]:
    """Keep the cyclic collector from running during allocation-heavy work.

    The collector is process-wide state, so the pause only ever hands
    back what it found: it nests, leaves a collector the application
    disabled disabled, and restores on error. Two threads pausing at
    once can at worst re-enable the collector while the slower one is
    still working. Also usable as ``@collector_paused()``.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
