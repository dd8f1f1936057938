"""The concurrent rewrite-serving layer.

The paper makes view matching cheap enough to run inside the optimizer on
every query; this package makes the *reproduction* cheap enough to run as
a service: a thread-safe front-end (:class:`ViewServer`) that parses,
fingerprints, matches, and plans concurrent SQL requests against
epoch-versioned immutable catalog snapshots (:class:`SnapshotManager`),
short-circuiting repeats through a fingerprint-keyed rewrite cache
(:class:`RewriteCache`) that is invalidated wholesale on epoch bumps and
per-entry when the CDC applier merges into a view.

Design rule the whole package is built around: **readers never lock**.
Snapshot access is one attribute read, cache hits are GIL-coherent dict
probes; only catalog mutation and cache insertion serialize on writer
locks. Metrics are the exception by choice: every counter and stage
latency goes to the server's :class:`~repro.obs.telemetry.TelemetryHub`,
whose short lock keeps counts exact under concurrency.
"""

from .cache import CacheStatistics, RewriteCache
from .fingerprint import canonical_parts, statement_fingerprint
from .pool import PoolSaturatedError, ServingPool, WorkerPool
from .server import ServedResult, ViewServer
from .snapshot import CatalogSnapshot, SnapshotManager

__all__ = [
    "CacheStatistics",
    "CatalogSnapshot",
    "PoolSaturatedError",
    "RewriteCache",
    "ServedResult",
    "ServingPool",
    "SnapshotManager",
    "ViewServer",
    "WorkerPool",
    "canonical_parts",
    "statement_fingerprint",
]
