"""Approximate resident-memory accounting for catalog-scale structures.

The paper's scalability claim is not only about time: a 100k-view
catalog must also *fit*, and the dominant resident costs in this
implementation are the per-view match state (descriptions, view
records, filter-tree rows) and the rewrite cache's entries. This module
measures both with one primitive, :func:`deep_sizeof` -- a cycle-safe
recursive ``sys.getsizeof`` walk -- and two reporting helpers:

* :func:`view_memory_report` -- total and per-view bytes for a filter
  tree including every registered view's reachable
  state, with the catalog/statistics objects excluded so schema metadata
  shared by all views is not attributed per view;
* :func:`cache_memory_report` -- total and per-entry bytes for a
  :class:`~repro.service.cache.RewriteCache`.

Shared objects are counted **once** per call (identity-based ``seen``
set), so per-view figures are *amortized* marginal cost across the whole
catalog -- the number that predicts how the footprint grows with the
next 10k registrations. ``benchmarks/e2e`` reports it per workload as
``memsize.bytes_per_view``, and CI's e2e smoke budgets it at 24 KiB per
view. Figures are approximate in the usual ``getsizeof`` sense
(interpreter-version dependent, no allocator overhead) but comparable
across runs on one interpreter, which is all a regression gate needs.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable
from types import FunctionType, ModuleType
from typing import Any

__all__ = [
    "cache_memory_report",
    "deep_sizeof",
    "packed_table_bytes",
    "view_memory_report",
]

# Leaf types: sized but never descended into. str/bytes/bytearray report
# their payload through getsizeof already; descending into a str yields
# single-character strings and double-counts.
_ATOMIC = (
    int,
    float,
    complex,
    bool,
    str,
    bytes,
    bytearray,
    memoryview,
    range,
    type(None),
)

# Never counted at all: code/module/class machinery is process-wide, not
# per-view state, and following it drags in the whole interpreter.
_SKIPPED = (ModuleType, FunctionType, type, staticmethod, classmethod, property)


_SLOT_CACHE: dict[type, tuple[str, ...]] = {}


def _slot_names(cls: type) -> tuple[str, ...]:
    cached = _SLOT_CACHE.get(cls)
    if cached is not None:
        return cached
    names: list[str] = []
    for klass in cls.__mro__:
        slots = klass.__dict__.get("__slots__", ())
        if isinstance(slots, str):
            slots = (slots,)
        for name in slots:
            if name not in ("__dict__", "__weakref__"):
                names.append(name)
    result = tuple(names)
    _SLOT_CACHE[cls] = result
    return result


def deep_sizeof(
    obj: Any,
    *,
    exclude: Iterable[Any] = (),
    seen: set[int] | None = None,
) -> int:
    """Bytes reachable from ``obj``, counting every object once.

    ``exclude`` pre-marks objects (and everything reachable from them)
    as already seen without counting them -- used to keep the shared
    catalog/statistics out of per-view figures. Passing a shared ``seen``
    set across calls turns several calls into one joint accounting.
    """
    if seen is None:
        seen = set()
    for item in exclude:
        _walk(item, seen)  # mark reachable ids, discard the byte count
    return _walk(obj, seen)


def _walk(obj: Any, seen: set[int]) -> int:
    # Iterative DFS: 100k-view catalogs produce reference chains far
    # deeper than the recursion limit would tolerate.
    total = 0
    stack = [obj]
    while stack:
        current = stack.pop()
        if isinstance(current, _SKIPPED):
            continue
        ident = id(current)
        if ident in seen:
            continue
        seen.add(ident)
        try:
            total += sys.getsizeof(current)
        except TypeError:
            continue
        if isinstance(current, _ATOMIC):
            continue
        if isinstance(current, dict):
            stack.extend(current.keys())
            stack.extend(current.values())
            continue
        if isinstance(current, (list, tuple, set, frozenset)):
            stack.extend(current)
            continue
        instance_dict = getattr(current, "__dict__", None)
        if instance_dict is not None:
            stack.append(instance_dict)
        for name in _slot_names(type(current)):
            # Past any ``__getattr__``: measuring must not derive an
            # unset slot (``SpjgDescription`` computes one on first read).
            try:
                stack.append(object.__getattribute__(current, name))
            except AttributeError:
                pass  # slot declared but never assigned
        # Containers that are neither builtin sequences nor slot/dict
        # objects (deque, OrderedDict subclasses handled above via dict).
        if isinstance(current, Iterable) and not hasattr(current, "__dict__"):
            if not isinstance(current, (dict, list, tuple, set, frozenset)):
                try:
                    stack.extend(iter(current))
                except TypeError:
                    pass
    return total


def view_memory_report(
    tree: Any, *, exclude: Iterable[Any] = ()
) -> dict[str, Any]:
    """Total/per-view resident bytes for a filter tree.

    ``tree`` is a :class:`~repro.core.filtertree.FilterTree` (anything
    with ``views()``); ``exclude`` typically carries the catalog, statistics,
    and options objects so shared schema metadata is not charged to the
    views. Reported keys: ``views``, ``total_bytes``, ``bytes_per_view``,
    and ``packed_table_bytes`` (the contiguous row storage alone, 0 when
    the packed layout is inactive).
    """
    count = len(tree.views())
    total = deep_sizeof(tree, exclude=exclude)
    packed = packed_table_bytes(tree)
    return {
        "views": count,
        "total_bytes": total,
        "bytes_per_view": (total / count) if count else 0.0,
        "packed_table_bytes": packed,
    }


def packed_table_bytes(tree: Any) -> int:
    """Contiguous packed-row bytes of a filter tree, 0 if none.

    Cheap (no object walk): sums the ``PackedBitsetTable.nbytes`` of each
    subtree, so it stays usable at 100k views where :func:`deep_sizeof`
    would take a minute.
    """
    total = 0
    for attr in ("_spj_packed", "_aggregate_packed"):
        subtree = getattr(tree, attr, None)
        if subtree is not None:
            total += subtree.table.nbytes
    return total


def cache_memory_report(
    cache: Any, *, exclude: Iterable[Any] = ()
) -> dict[str, Any]:
    """Total/per-entry resident bytes for a ``RewriteCache``.

    Counts only the entry table (results and their epochs), not
    the cache shell; ``exclude`` keeps plan-referenced shared objects
    (catalog, statistics) out of the per-entry figure.
    """
    entries = getattr(cache, "_entries", {})
    count = len(entries)
    total = deep_sizeof(entries, exclude=exclude)
    return {
        "entries": count,
        "total_bytes": total,
        "bytes_per_entry": (total / count) if count else 0.0,
    }
