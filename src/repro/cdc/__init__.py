"""Change-data-capture: deferred view maintenance with bounded staleness.

The paper's maintenance story (Section 2: ``count_big(*)`` so deletes
can be handled incrementally) assumes views are patched synchronously
with every base-table change. This package relaxes that: base-table
writes land immediately and are *captured* into an ordered change log
(:class:`ChangeLog`, monotone LSNs, transactional-outbox style via
:class:`CdcPipeline`); a deferred applier (:class:`ChangeApplier`)
drains the log in batches through the delta algebra of
:mod:`repro.cdc.delta`; and a :class:`FreshnessTracker` maps every
view to the last LSN it has absorbed plus a wall-clock lag estimate.
It is the only view maintainer: a caller that wants the synchronous
semantics calls :meth:`CdcPipeline.drain` after each write.

The serving layer consumes freshness through
:meth:`FreshnessTracker.bound`: a request's ``max_staleness`` freezes
into a :class:`StalenessBound` that the matcher consults per candidate,
so a stale-but-cheap view wins only when its lag is inside the caller's
bound -- otherwise it is skipped with the ``STALE`` reject reason.
"""

from .applier import ApplierStats, ChangeApplier
from .delta import MaintainedView
from .freshness import FreshnessTracker, StalenessBound, ViewFreshness
from .log import ChangeLog, ChangeRecord
from .pipeline import CdcPipeline

__all__ = [
    "ApplierStats",
    "CdcPipeline",
    "ChangeApplier",
    "ChangeLog",
    "ChangeRecord",
    "FreshnessTracker",
    "MaintainedView",
    "StalenessBound",
    "ViewFreshness",
]
