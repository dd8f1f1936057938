"""The persistent worker-pool serving tier.

The only multi-process tier the server has: a fleet of **long-lived**
forked workers (:func:`repro.core.parallel.spawn_worker`). Each worker is
forked once per epoch generation, inherits the published :class:`~repro.service.snapshot.CatalogSnapshot`
copy-on-write (every publish calls ``gc.freeze()``, so the collector
never writes the epoch's pages), and then serves many requests over a
pipe pair.

Two cooperating layers:

* :class:`WorkerPool` -- the generic process pool: a bounded FIFO of
  pending requests paired with idle workers by the threads already
  holding the work (the submitter hands a request to an idle worker, a
  freed worker's reader takes the queue head; exactly one in flight per
  worker), one reader thread per worker completing futures, crash
  respawn with bounded redelivery, and **generation swaps**:
  :meth:`WorkerPool.swap` retires the current fleet gracefully (idle
  workers drain immediately, busy ones after their in-flight response)
  while a freshly forked fleet takes over.
* :class:`ServingPool` -- the :class:`~repro.service.server.ViewServer`
  integration: builds the per-epoch worker handler (bind +
  optimize against the pinned snapshot, no parent locks touched), listens
  for snapshot publications and swaps generations off the writer's
  critical path, and turns each worker's compact response frame into a
  :class:`ServedResult` on the reader thread that received it. Its one
  request method, :meth:`ServingPool.rewrite`, is what
  :meth:`ViewServer.rewrite` calls while a pool is started.

Epoch correctness: a worker serves every request against the single
snapshot it was forked with, so a request can never observe half of one
epoch and half of another -- the torn-read hazard of live mutation is
structurally impossible. On publish the pool swaps generations; responses
from a retiring worker carry their (older) epoch, and the parent inserts
them into the rewrite cache only when that epoch is still current.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

from ..core.parallel import (
    WorkerError,
    WorkerHandle,
    effective_cpu_count,
    fork_available,
    spawn_worker,
)
from ..errors import DeadlineExceeded, ReproError
from ..optimizer.optimizer import OptimizationResult
from .cache import LruMemo
from .fingerprint import statement_fingerprint
from .server import ServedResult

__all__ = [
    "PoolSaturatedError",
    "ServingPool",
    "WorkerPool",
]


class PoolSaturatedError(RuntimeError):
    """The pool's bounded request queue is full (caller should shed)."""


# ---------------------------------------------------------------------------
# The generic worker pool


@dataclass(slots=True)
class _PoolRequest:
    request_id: int
    payload: Any
    future: Future
    finish: Callable[[Any, BaseException | None], Any] | None = None
    retries: int = 0

    def resolve(self, value: Any, error: BaseException | None = None) -> None:
        """Complete the future once: with ``finish(value, error)`` when a
        finisher was given, else with ``value`` or ``error`` as is."""
        if self.finish is not None:
            try:
                value, error = self.finish(value, error), None
            except Exception as exc:  # the caller must not hang
                value, error = None, exc
        if error is None:
            self.future.set_result(value)
        else:
            self.future.set_exception(error)


class WorkerPool:
    """Long-lived forked workers behind a bounded FIFO request queue.

    The pool has no thread of its own. The submitting thread hands a
    request straight to an idle worker, or queues it; a worker's reader
    thread, on reading a response, gives that worker the queue head
    before it completes the response's future. Exactly one request is in
    flight per worker (the pipe is never a hidden second queue). The
    rarer duties run on the thread that triggers them: :meth:`swap`
    forks the new generation on its caller's thread, a dead worker's
    reader forks its replacement, and :meth:`close` retires the fleet.
    All shared state lives under a single condition variable; futures
    are completed outside it.

    Failure semantics: a worker that dies mid-request has its request
    redelivered to another worker up to ``max_retries`` times, then the
    future fails with :class:`WorkerError`; a worker whose *handler*
    raises fails only that request (the worker survives). Death of a
    worker triggers a respawn into the current generation, so capacity
    recovers without caller involvement.
    """

    def __init__(
        self,
        handler: Callable[[Any], Any],
        workers: int | None = None,
        max_queue: int = 1024,
        max_retries: int = 1,
    ):
        if not fork_available():  # pragma: no cover - POSIX-only code base
            raise RuntimeError("WorkerPool requires os.fork")
        self._target = max(
            1, workers if workers is not None else effective_cpu_count()
        )
        self._handler = handler
        self._max_queue = max_queue
        self._max_retries = max_retries
        self._work = threading.Condition()
        self._queue: deque[_PoolRequest] = deque()
        self._idle: deque[WorkerHandle] = deque()
        self._workers: dict[int, WorkerHandle] = {}
        self._readers: list[threading.Thread] = []
        self._generation = 0
        self._closed = False
        self._next_id = 0
        self._counters = {
            "submitted": 0,
            "completed": 0,
            "failed": 0,
            "redelivered": 0,
            "crashes": 0,
            "respawns": 0,
            "swaps": 0,
            "saturated": 0,
            "spawn_failures": 0,
        }
        with self._work:
            for _ in range(self._target):
                self._spawn_locked()

    # -- public API ----------------------------------------------------------

    def submit(
        self,
        payload: Any,
        finish: Callable[[Any, BaseException | None], Any] | None = None,
    ) -> "Future[Any]":
        """Queue one request; the future resolves to the handler's result.

        With ``finish``, the future resolves to ``finish(result, None)``
        instead -- or ``finish(None, error)`` when the request fails with
        :class:`WorkerError` -- called once, on the thread that completes
        the request (normally the worker's reader). Raises
        :class:`PoolSaturatedError` when the bounded queue is full -- the
        caller sheds or backs off; the pool never buffers unboundedly
        (queue-based load leveling).
        """
        future: Future = Future()
        with self._work:
            if self._closed:
                raise RuntimeError("pool is closed")
            if len(self._queue) >= self._max_queue:
                self._counters["saturated"] += 1
                raise PoolSaturatedError(
                    f"pool queue is full ({self._max_queue} pending)"
                )
            self._next_id += 1
            self._queue.append(
                _PoolRequest(self._next_id, payload, future, finish)
            )
            self._counters["submitted"] += 1
            self._pump_locked()
            # No worker and none coming (every spawn failed): fail now
            # rather than queue for a worker that will never exist.
            no_workers = self._fail_if_dead_locked()
        for request in no_workers:
            request.resolve(None, WorkerError("pool has no live workers"))
        return future

    def swap(self, handler: Callable[[Any], Any]) -> None:
        """Retire the current fleet and fork a new one running ``handler``.

        Forks on the caller's thread, so call it off any latency-critical
        path (the serving pool's epoch watcher does). Graceful: the new
        generation is spawned *first* and takes the queue head at once,
        idle old workers retire immediately, busy ones after their
        in-flight response, and no queued request is dropped.
        """
        with self._work:
            if self._closed:
                return
            self._handler = handler
            self._generation += 1
            self._counters["swaps"] += 1
            retiring = list(self._idle)
            self._idle.clear()
            for handle in self._workers.values():
                handle.retired = True  # busy ones retire after responding
            for _ in range(self._target):
                self._spawn_locked()
            for handle in retiring:
                handle.shutdown()  # reader sees EOF next and reaps
            self._pump_locked()

    def close(self, drain: bool = True, timeout: float | None = None) -> None:
        """Stop the pool. ``drain=True`` serves queued requests first;
        ``drain=False`` fails them with :class:`WorkerError` immediately.
        In-flight requests finish either way; returns once every worker
        has exited and been reaped, or ``timeout`` seconds have passed."""
        deadline = None if timeout is None else time.monotonic() + timeout
        dropped: list[_PoolRequest] = []
        no_workers: list[_PoolRequest] = []
        with self._work:
            if not self._closed:
                self._closed = True
                if not drain:
                    dropped = list(self._queue)
                    self._queue.clear()
                # A worker is idle only while the queue is empty: nothing
                # is left for it to serve.
                for handle in self._idle:
                    handle.retired = True
                    handle.shutdown()  # reader sees EOF next and reaps
                self._idle.clear()
                no_workers = self._fail_if_dead_locked()
        for request in dropped:
            request.resolve(None, WorkerError("pool closed"))
        for request in no_workers:
            request.resolve(None, WorkerError("pool has no live workers"))
        with self._work:
            while self._workers:
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return
                self._work.wait(remaining)
        # Every worker has exited; its reader reaps it, so no zombie
        # outlives close().
        for reader in self._readers:
            reader.join(timeout)

    def stats(self) -> dict[str, int]:
        """The counters plus ``depth`` (queued), ``busy``, ``workers``,
        ``generation`` and ``target`` (fleet size), in one locked read."""
        with self._work:
            stats = dict(self._counters)
            stats["depth"] = len(self._queue)
            stats["busy"] = sum(
                1 for handle in self._workers.values() if handle.inflight
            )
            stats["workers"] = len(self._workers)
            stats["generation"] = self._generation
            stats["target"] = self._target
            return stats

    # -- fleet bookkeeping (callers hold self._work) -------------------------

    def _spawn_locked(self) -> bool:
        try:
            handle = spawn_worker(self._handler, self._generation)
        except OSError:
            self._counters["spawn_failures"] += 1
            return False
        self._workers[handle.pid] = handle
        self._idle.append(handle)
        reader = threading.Thread(
            target=self._reader,
            args=(handle,),
            name=f"pool-reader-{handle.pid}",
            daemon=True,
        )
        reader.start()
        # Readers reap their worker; close() waits for the live ones.
        self._readers = [t for t in self._readers if t.is_alive()]
        self._readers.append(reader)
        return True

    def _fail_if_dead_locked(self) -> list[_PoolRequest]:
        """With zero workers and no way to get one, empty the queue; the
        caller fails the returned requests outside the lock."""
        if self._workers or not self._queue:
            return []
        failed = list(self._queue)
        self._queue.clear()
        self._counters["failed"] += len(failed)
        return failed

    def _pump_locked(self) -> None:
        """Hand queued requests to idle workers, oldest request first."""
        queue, idle = self._queue, self._idle
        while queue and idle:
            self._send_locked(idle.popleft(), queue.popleft())

    def _send_locked(self, handle: WorkerHandle, request: _PoolRequest) -> None:
        try:
            handle.send(request.request_id, request.payload)
        except (OSError, ValueError):
            # Dead pipe: the worker's reader owns the cleanup (EOF ->
            # reap -> respawn); the request goes back to the head.
            handle.kill()
            self._queue.appendleft(request)
            return
        handle.inflight = request

    # -- per-worker reader ---------------------------------------------------

    def _reader(self, handle: WorkerHandle) -> None:
        while True:
            response = handle.recv()
            if response is None:
                self._on_worker_death(handle)
                handle.reap()
                return
            request_id, ok, value = response
            with self._work:
                request = handle.inflight
                handle.inflight = None
                self._counters["completed"] += 1
                # A closing pool keeps workers in rotation until the
                # queue is drained; retire only once nothing is pending.
                retire = handle.retired or (self._closed and not self._queue)
                if retire:
                    handle.retired = True
                elif self._queue:
                    self._send_locked(handle, self._queue.popleft())
                else:
                    self._idle.append(handle)
            # Complete outside the lock: the finisher and done-callbacks
            # run inline and must not be able to deadlock against pool
            # state. The worker is already serving its next request.
            if request is not None and request.request_id == request_id:
                if ok:
                    request.resolve(value)
                else:
                    request.resolve(None, WorkerError(str(value)))
            if retire:
                handle.shutdown()  # next recv returns EOF -> reap

    def _on_worker_death(self, handle: WorkerHandle) -> None:
        fail: _PoolRequest | None = None
        with self._work:
            self._workers.pop(handle.pid, None)
            try:
                self._idle.remove(handle)
            except ValueError:
                pass
            request = handle.inflight
            handle.inflight = None
            if request is not None:
                request.retries += 1
                if request.retries > self._max_retries:
                    fail = request
                    self._counters["failed"] += 1
                else:
                    # Head of the queue: the crashed worker's request was
                    # admitted before everything queued behind it.
                    self._queue.appendleft(request)
                    self._counters["redelivered"] += 1
            if not handle.retired:
                self._counters["crashes"] += 1
                if not self._closed and self._spawn_locked():
                    self._counters["respawns"] += 1
            no_workers = self._fail_if_dead_locked()
            self._pump_locked()
            self._work.notify_all()  # close() waits for the fleet to exit
        if fail is not None:
            fail.resolve(
                None,
                WorkerError(
                    f"worker died serving request {fail.request_id} "
                    f"({fail.retries} attempts)"
                ),
            )
        for request in no_workers:
            request.resolve(None, WorkerError("pool has no live workers"))


# ---------------------------------------------------------------------------
# The ViewServer-facing serving pool


#: Per-worker memo of query text -> (bound statement, fingerprint).
_STATEMENT_MEMO_CAPACITY = 4096


def _build_handler(catalog, snapshot):
    """The per-generation child request handler.

    Runs in the forked worker, so it must not touch parent-shared locks
    (the server's telemetry hub, its statement memo): it binds and
    fingerprints with a child-private memo -- a worker sees a text again
    whenever the parent's cache cannot answer it (cache off, or a
    bounded-staleness request) -- and optimizes against the pinned
    snapshot. A bounded request carries the parent's frozen verdicts, a
    ``{view: detail}`` map of the views too stale to read (``None`` for
    an unbounded request): the worker's fork-time freshness tracker
    lags the change log. It returns a compact response frame,
    ``(epoch, fingerprint, error, timed_out, result, serve_seconds)``:
    ``result`` is the optimization's :meth:`OptimizationResult.to_frame`
    -- scalars plus the plan as bytes, which the parent decodes only if
    something reads the plan -- or ``None`` when ``error`` (a message)
    or ``timed_out`` is set.
    """
    statements = LruMemo(_STATEMENT_MEMO_CAPACITY)

    def handle(payload) -> tuple:
        sql, stale, deadline_at = payload
        started = time.perf_counter()
        fingerprint = None
        try:
            pair = statements.get(sql)
            if pair is None:
                statement = catalog.bind_sql(sql)
                fingerprint = statement_fingerprint(statement)
                statements.put(sql, (statement, fingerprint))
            else:
                statement, fingerprint = pair
            result = snapshot.optimizer.optimize(
                statement,
                staleness=stale.get if stale is not None else None,
                deadline=deadline_at,
            )
        except DeadlineExceeded:
            return (snapshot.epoch, fingerprint, None, True, None, 0.0)
        except (ReproError, ValueError) as exc:
            return (snapshot.epoch, fingerprint, str(exc), False, None, 0.0)
        elapsed = time.perf_counter() - started
        return (
            snapshot.epoch,
            fingerprint,
            None,
            False,
            result.to_frame(),
            elapsed,
        )

    return handle


class ServingPool:
    """Routes a :class:`ViewServer`'s rewrites through persistent workers.

    Construction forks the first worker generation against the server's
    current snapshot and registers a snapshot listener: each published
    epoch schedules a generation swap, performed by a watcher thread
    strictly *off* the publisher's critical path -- registration latency
    never includes a fork.

    :meth:`rewrite` first tries a parent-side fast path (the server's
    statement memo + rewrite cache probe), so repeated hot queries never
    cross a process boundary. Pool responses are folded back into the
    server's telemetry hub and -- only when their epoch is still
    current -- its rewrite cache, on the reader thread that received
    them, and that thread completes the future the blocked
    :meth:`rewrite` call waits on with the finished :class:`ServedResult`.

    A bounded-staleness request is judged in the parent, against the
    freshness tracker as of the request (a worker's copy is as old as
    its fork), and ships its verdicts to the worker.
    """

    def __init__(
        self,
        server,
        workers: int | None = None,
        max_queue: int = 1024,
        max_retries: int = 1,
    ):
        self.server = server
        self._closed = False
        snapshot = server.snapshots.current
        self._epoch = snapshot.epoch
        self._pool = WorkerPool(
            _build_handler(server.catalog, snapshot),
            workers=workers,
            max_queue=max_queue,
            max_retries=max_retries,
        )
        self._swap_wanted = threading.Event()
        self._watcher = threading.Thread(
            target=self._watch_epochs, name="pool-epoch-watcher", daemon=True
        )
        self._watcher.start()
        # SnapshotManager has no listener removal; the closure checks
        # _closed so a closed pool's listener degenerates to a no-op.
        server.snapshots.add_listener(self._on_publish)

    # -- epoch swaps ---------------------------------------------------------

    def _on_publish(self, snapshot) -> None:
        # Runs under the SnapshotManager writer lock: must not fork or
        # block -- just schedule.
        if not self._closed:
            self._swap_wanted.set()

    def _watch_epochs(self) -> None:
        server = self.server
        while True:
            self._swap_wanted.wait()
            self._swap_wanted.clear()
            if self._closed:
                return
            snapshot = server.snapshots.current
            if snapshot.epoch == self._epoch:
                continue
            handler = _build_handler(server.catalog, snapshot)
            self._epoch = snapshot.epoch
            self._pool.swap(handler)

    # -- serving -------------------------------------------------------------

    def rewrite(
        self,
        sql: str,
        *,
        max_staleness: float | None = None,
        deadline: float | None = None,
    ) -> ServedResult:
        """Serve one query through the pool, blocking until it is done.

        ``deadline`` is this request's total budget in seconds (queue
        wait + optimize; an overrun comes back ``timed_out``), and a
        full queue sheds the request as ``rejected``.
        """
        server = self.server
        started = time.perf_counter()
        if self._closed:
            raise RuntimeError("serving pool is closed")
        deadline_at = (
            time.monotonic() + deadline if deadline is not None else None
        )
        if max_staleness is None and server.cache is not None:
            # Parent fast path: a repeated query whose fingerprint the
            # server's statement memo remembers probes the lock-free
            # cache without touching a worker.
            fingerprint = server._statement_memo.get(sql)
            if fingerprint is not None:
                epoch = server.epoch
                cached = server.cache.get(fingerprint, epoch)
                if cached is not None:
                    latency = time.perf_counter() - started
                    telemetry = server.telemetry
                    telemetry.increment("requests")
                    telemetry.increment("cache_hits")
                    telemetry.record("hit_seconds", latency)
                    telemetry.record("total_seconds", latency)
                    served = ServedResult(
                        sql=sql,
                        fingerprint=fingerprint,
                        epoch=epoch,
                        cache_hit=True,
                        result=cached,
                        latency_seconds=latency,
                    )
                    server._observe(served)
                    return served
        stale = None
        if max_staleness is not None:
            bound = server.snapshots.current.staleness_bound(max_staleness)
            if bound is not None:
                stale = {name: bound(name) for name in bound.stale_views}
        try:
            future = self._pool.submit(
                (sql, stale, deadline_at),
                partial(self._finish, sql, started, max_staleness),
            )
        except PoolSaturatedError:
            server.telemetry.increment("rejected")
            served = ServedResult(sql=sql, rejected=True)
            server._observe(served)
            return served
        return future.result()

    def _finish(
        self, sql: str, started: float, max_staleness, frame, error
    ):
        """One worker response frame (or the pool's failure) as the
        caller's :class:`ServedResult`; runs on the worker's reader."""
        server = self.server
        telemetry = server.telemetry
        latency = time.perf_counter() - started
        telemetry.increment("requests")
        if error is not None:
            telemetry.increment("errors")
            telemetry.record("total_seconds", latency)
            served = ServedResult(
                sql=sql, error=str(error), latency_seconds=latency
            )
            server._observe(served)
            return served
        epoch, fingerprint, message, timed_out, encoded, serve_seconds = frame
        # The request the parent's fast path probes: an unbounded one,
        # cache on, whose worker bound the query.
        cacheable = (
            fingerprint is not None
            and max_staleness is None
            and server.cache is not None
        )
        if cacheable:
            # In-process this request would have probed the cache: it
            # missed (a hit never leaves the parent).
            telemetry.increment("cache_misses")
        if message is not None:
            telemetry.increment("errors")
            telemetry.record("total_seconds", latency)
            served = ServedResult(
                sql=sql, error=message, latency_seconds=latency
            )
        elif timed_out:
            telemetry.increment("timeouts")
            telemetry.record("total_seconds", latency)
            served = ServedResult(
                sql=sql, timed_out=True, latency_seconds=latency
            )
        else:
            result = OptimizationResult.from_frame(encoded)
            telemetry.record("pool_worker_serve_seconds", serve_seconds)
            telemetry.increment("pool_worker_requests")
            telemetry.record("match_seconds", result.matching_seconds)
            telemetry.record(
                "plan_seconds",
                max(result.optimize_seconds - result.matching_seconds, 0.0),
            )
            telemetry.record("miss_seconds", latency)
            telemetry.record("total_seconds", latency)
            if result.uses_view:
                telemetry.increment("pool_worker_rewrites")
                telemetry.increment("rewrites")
            if cacheable:
                # Remembered only where rewrite() reads it back.
                server._statement_memo.put(sql, fingerprint)
                if epoch == server.epoch:
                    # A lagging (retiring-generation) worker's result
                    # must not poison the cache under a newer epoch;
                    # insert only while its epoch is still the served one.
                    server.cache.put(fingerprint, epoch, result)
            served = ServedResult(
                sql=sql,
                fingerprint=fingerprint,
                epoch=epoch,
                cache_hit=False,
                result=result,
                latency_seconds=latency,
                max_staleness=max_staleness,
            )
        server._observe(served)
        return served

    # -- lifecycle / introspection -------------------------------------------

    def stats(self) -> dict:
        """:meth:`WorkerPool.stats` plus ``epoch`` (the generation's) and
        ``utilization`` (busy workers over the target fleet size)."""
        stats = dict(self._pool.stats())
        stats["epoch"] = self._epoch
        stats["utilization"] = stats["busy"] / stats["target"]
        return stats

    def close(self, drain: bool = True, timeout: float | None = None) -> None:
        """Stop the watcher and the pool (``drain`` as in
        :meth:`WorkerPool.close`), leaving no child process behind: the
        workers are reaped. Idempotent."""
        if self._closed:
            return
        self._closed = True
        self._swap_wanted.set()  # wake the watcher so it can exit
        self._watcher.join(timeout=5.0)
        self._pool.close(drain=drain, timeout=timeout)
