"""Shared-memory export of an epoch's packed filter-tree rows.

The serving pool forks long-lived workers that each pin one
:class:`~repro.service.snapshot.CatalogSnapshot`. Fork already shares the
whole object graph copy-on-write, but CPython's reference counting dirties
the header page of every object a worker merely *touches*, so a large
catalog degrades into per-worker private copies over time. The packed
:class:`~repro.core.interning.PackedBitsetTable` row images -- the bulk of
a big epoch's bytes, and the bytes every request sweeps -- are immutable
flat arrays, which makes them the one part of the snapshot worth pinning
in genuinely shared pages.

:func:`export_snapshot` copies each table's packed image into a
``multiprocessing.shared_memory`` segment and re-points the table at it
(:meth:`~repro.core.interning.PackedBitsetTable.adopt_buffer`), then
**unlinks the segment immediately**: the name disappears from the
filesystem, but the mapping stays valid for this process and every child
forked afterwards, for exactly as long as some table still references the
exported view. No attach-by-name, no cross-process name negotiation, no
leak if the server dies -- the kernel frees the pages when the last
mapping goes away. Workers never write the segments (sweeps are
read-only), and a parent-side mutation marks the table dirty, which
rebuilds a private byte image and naturally un-shares it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

try:
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - platform without _posixshmem
    _shared_memory = None


def _resource_tracker():
    """``multiprocessing``'s process-wide tracker object (private API;
    ``None`` where it is missing)."""
    try:
        from multiprocessing import resource_tracker
    except ImportError:  # pragma: no cover - platform without it
        return None
    return getattr(resource_tracker, "_resource_tracker", None)


def resource_tracker_running() -> bool:
    """Whether ``multiprocessing``'s resource-tracker child is running.

    Creating the first ``SharedMemory`` segment of a process starts it;
    whoever finds it stopped before exporting owns it afterwards and
    should :func:`stop_resource_tracker` when done.
    """
    return getattr(_resource_tracker(), "_fd", None) is not None


def stop_resource_tracker() -> None:
    """Stop the resource-tracker child and wait for it.

    The tracker holds nothing of ours -- every exported segment is
    unlinked (hence unregistered) at export -- and ``multiprocessing``
    restarts it on demand. It exits when the last copy of its pipe
    closes and forked workers inherit one, so call this only once they
    are gone; the wait is then immediate.
    """
    stop = getattr(_resource_tracker(), "_stop", None)
    if stop is not None:
        stop()


def shm_available() -> bool:
    """Whether ``multiprocessing.shared_memory`` works on this platform."""
    if _shared_memory is None:
        return False
    try:
        segment = _shared_memory.SharedMemory(create=True, size=8)
    except (OSError, PermissionError):
        return False
    segment.buf[:8] = b"\0" * 8
    segment.unlink()
    segment.close()
    return True


@dataclass
class SnapshotArena:
    """The shared segments backing one exported epoch.

    Holds the exported memoryviews so the mappings outlive the
    ``SharedMemory`` handles (which are dropped after unlink). The arena
    itself needs no explicit release: when the pool drops the arena *and*
    every table adopted from it is gone, the last view dies and the
    kernel reclaims the pages.
    """

    epoch: int
    tables_exported: int = 0
    bytes_exported: int = 0
    _views: list = field(default_factory=list, repr=False)


def export_snapshot(snapshot) -> SnapshotArena:
    """Move ``snapshot``'s packed row images into shared memory.

    Returns the arena describing what was exported. Safe to call on any
    snapshot: epochs without packed tables (filter tree disabled, no
    views yet) or platforms without shared memory export nothing and
    return an empty arena -- fork-COW sharing still applies, it is merely
    less durable under reference-count traffic.
    """
    arena = SnapshotArena(epoch=snapshot.epoch)
    if _shared_memory is None:
        return arena
    tree = getattr(snapshot.matcher, "filter_tree", None)
    packed = getattr(tree, "packed_tables", None)
    if packed is None:
        return arena
    for table in packed():
        image = table.packed_bytes()
        if not image:
            continue
        try:
            segment = _shared_memory.SharedMemory(
                create=True, size=len(image)
            )
        except (OSError, PermissionError):
            return arena  # degrade to plain fork-COW for the rest
        # The mapping can be page-rounded past the requested size; adopt
        # exactly the image's bytes.
        view = segment.buf[: len(image)]
        view[:] = image
        table.adopt_buffer(view)
        # Unlink now: the name is gone (nothing to leak), the mapping
        # survives in this process and in workers forked from here on.
        segment.unlink()
        _detach(segment, arena)
        arena._views.append(view)
        arena.tables_exported += 1
        arena.bytes_exported += len(image)
    return arena


def _detach(segment, arena: SnapshotArena) -> None:
    """Hand the mapping over to the exported views and close the fd.

    ``SharedMemory.__del__`` unmaps its pages, which would fault every
    view we just adopted; dropping the handle's own buffer references
    first leaves the ``mmap`` owned solely by the exported views (freed
    when the last one dies) while ``close()`` still releases the file
    descriptor. Falls back to parking the handle on the arena -- pages
    then live as long as the arena -- if the private layout ever changes.
    """
    try:
        segment._buf.release()
        segment._buf = None
        segment._mmap = None
    except (AttributeError, BufferError, ValueError):
        arena._views.append(segment)
        return
    try:
        segment.close()
    except BufferError:  # pragma: no cover - close is fd-only after detach
        arena._views.append(segment)
