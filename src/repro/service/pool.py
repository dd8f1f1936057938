"""The persistent worker-pool serving tier.

The only multi-process tier the server has: a fleet of **long-lived**
forked workers (:func:`repro.core.parallel.spawn_worker`). Each worker is
forked once per epoch generation, inherits the published :class:`~repro.service.snapshot.CatalogSnapshot`
copy-on-write (with the packed filter-tree rows pinned in shared memory by
:mod:`repro.service.shm`, so reference-count traffic cannot duplicate
them), and then serves many requests over a pipe pair.

Three cooperating layers:

* :class:`TokenBucket` / :class:`AdmissionController` -- per-tenant
  token-bucket admission. Traffic a tenant sends beyond its refill rate
  is rejected *before* it consumes a queue slot, so one chatty tenant
  cannot starve the rest (the front door of queue-based load leveling).
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
  optimize against the pinned snapshot, no parent locks touched), exports
  each new epoch's packed tables to shared memory, listens for snapshot
  publications and swaps generations off the writer's critical path, and
  turns each worker's compact response frame into a
  :class:`ServedResult` on the reader thread that received it.

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
from .shm import (
    SnapshotArena,
    export_snapshot,
    resource_tracker_running,
    stop_resource_tracker,
)

__all__ = [
    "AdmissionController",
    "PoolSaturatedError",
    "ServingPool",
    "TokenBucket",
    "WorkerPool",
]


class PoolSaturatedError(RuntimeError):
    """The pool's bounded request queue is full (caller should shed)."""


# ---------------------------------------------------------------------------
# Admission control


class TokenBucket:
    """A classic token bucket: ``capacity`` burst, steady ``rate``/s refill.

    Not thread-safe on its own; :class:`AdmissionController` serializes
    access. ``clock`` is injectable so tests can step time explicitly.
    """

    __slots__ = ("capacity", "rate", "_tokens", "_updated", "_clock")

    def __init__(
        self,
        rate: float,
        capacity: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if rate <= 0:
            raise ValueError("token bucket rate must be positive")
        self.rate = float(rate)
        self.capacity = float(capacity if capacity is not None else rate)
        self._tokens = self.capacity
        self._clock = clock
        self._updated = clock()

    def try_acquire(self, tokens: float = 1.0) -> bool:
        """Take ``tokens`` if available (refilling lazily); else refuse."""
        now = self._clock()
        elapsed = now - self._updated
        self._updated = now
        if elapsed > 0:
            self._tokens = min(
                self.capacity, self._tokens + elapsed * self.rate
            )
        if self._tokens >= tokens:
            self._tokens -= tokens
            return True
        return False


class AdmissionController:
    """Per-tenant token-bucket admission in front of the pool queue.

    ``default_rate``/``default_burst`` apply to tenants without an
    explicit :meth:`configure` entry; a ``default_rate`` of ``None``
    admits unknown tenants unconditionally (rate limiting is opt-in per
    tenant). Decisions and per-tenant counts are kept for
    :meth:`stats`.
    """

    def __init__(
        self,
        default_rate: float | None = None,
        default_burst: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self._default_rate = default_rate
        self._default_burst = default_burst
        self._clock = clock
        self._lock = threading.Lock()
        self._buckets: dict[str, TokenBucket | None] = {}
        self._admitted: dict[str, int] = {}
        self._throttled: dict[str, int] = {}

    def configure(
        self, tenant: str, rate: float | None, burst: float | None = None
    ) -> None:
        """Set (or, with ``rate=None``, exempt) one tenant's bucket."""
        with self._lock:
            self._buckets[tenant] = (
                None
                if rate is None
                else TokenBucket(rate, burst, clock=self._clock)
            )

    def admit(self, tenant: str) -> bool:
        """Whether one request from ``tenant`` may enter the queue now."""
        with self._lock:
            if tenant not in self._buckets:
                self._buckets[tenant] = (
                    None
                    if self._default_rate is None
                    else TokenBucket(
                        self._default_rate,
                        self._default_burst,
                        clock=self._clock,
                    )
                )
            bucket = self._buckets[tenant]
            admitted = bucket is None or bucket.try_acquire()
            book = self._admitted if admitted else self._throttled
            book[tenant] = book.get(tenant, 0) + 1
            return admitted

    def stats(self) -> dict[str, dict[str, int]]:
        with self._lock:
            return {
                "admitted": dict(self._admitted),
                "throttled": dict(self._throttled),
            }


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

    @property
    def generation(self) -> int:
        return self._generation

    def depth(self) -> int:
        """Requests waiting in the queue (the load-leveling backlog)."""
        with self._work:
            return len(self._queue)

    def busy(self) -> int:
        """Workers currently serving a request."""
        with self._work:
            return sum(
                1 for handle in self._workers.values() if handle.inflight
            )

    def worker_count(self) -> int:
        with self._work:
            return len(self._workers)

    def stats(self) -> dict[str, int]:
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


#: Parent-side memo of query text -> fingerprint (the cache fast path).
_FINGERPRINT_MEMO_CAPACITY = 8192
#: Per-worker memo of query text -> (bound statement, fingerprint).
_STATEMENT_MEMO_CAPACITY = 4096


def _build_handler(catalog, snapshot):
    """The per-generation child request handler.

    Runs in the forked worker, so it must not touch parent-shared locks
    (metrics registry, telemetry hub, the server's statement memo): it
    binds and fingerprints with a child-private memo and optimizes
    against the pinned snapshot. It returns a compact response frame,
    ``(epoch, fingerprint, error, timed_out, result, serve_seconds)``:
    ``result`` is the optimization's :meth:`OptimizationResult.to_frame`
    -- scalars plus the plan as bytes, which the parent decodes only if
    something reads the plan -- or ``None`` when ``error`` (a message)
    or ``timed_out`` is set.
    """
    statements = LruMemo(_STATEMENT_MEMO_CAPACITY)

    def handle(payload) -> tuple:
        sql, max_staleness, deadline_at = payload
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
            staleness = (
                snapshot.staleness_bound(max_staleness)
                if max_staleness is not None
                else None
            )
            result = snapshot.optimizer.optimize(
                statement, staleness=staleness, deadline=deadline_at
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
    current snapshot (packed rows exported to shared memory first, so
    every generation maps one physical copy) and registers a snapshot
    listener: each published epoch schedules a generation swap, performed
    by a watcher thread strictly *off* the publisher's critical path --
    registration latency never includes a fork.

    ``rewrite`` / ``submit`` add per-tenant admission control and a
    parent-side fast path (fingerprint memo + rewrite cache probe) so
    repeated hot queries never cross a process boundary. Pool responses
    are folded back into the server's metrics, telemetry hub, and --
    only when their epoch is still current -- its rewrite cache, on the
    reader thread that received them; the caller's one future resolves
    to the finished :class:`ServedResult`.

    Bounded-staleness note: freshness is evaluated against the worker's
    snapshot as of its fork, so a bounded request observes view lag with
    up to one generation of slack; callers needing exact freshness use
    the in-process path (:meth:`ViewServer.rewrite`).
    """

    def __init__(
        self,
        server,
        workers: int | None = None,
        max_queue: int = 1024,
        max_retries: int = 1,
        admission: AdmissionController | None = None,
        export_shared_memory: bool = True,
    ):
        from .server import ServedResult  # circular at import time

        self._served_result = ServedResult
        self.server = server
        self.admission = admission
        self._export = export_shared_memory
        self._closed = False
        self._fingerprints = LruMemo(_FINGERPRINT_MEMO_CAPACITY)
        snapshot = server.snapshots.current
        self._epoch = snapshot.epoch
        # Exporting starts multiprocessing's resource-tracker child; if
        # it was not running before, close() stops it again.
        self._owns_tracker = (
            export_shared_memory and not resource_tracker_running()
        )
        self._arena: SnapshotArena | None = (
            export_snapshot(snapshot) if export_shared_memory else None
        )
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
        # Runs under the SnapshotManager writer lock: must not fork,
        # export, or block -- just schedule.
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
            arena = export_snapshot(snapshot) if self._export else None
            handler = _build_handler(server.catalog, snapshot)
            self._epoch = snapshot.epoch
            self._arena = arena  # old arena pages die with their tables
            self._pool.swap(handler)

    # -- serving -------------------------------------------------------------

    def submit(
        self,
        sql: str,
        *,
        tenant: str = "default",
        max_staleness: float | None = None,
        deadline: float | None = None,
    ) -> "Future[Any]":
        """Queue one rewrite; resolves to a :class:`ServedResult`.

        ``tenant`` feeds admission control (throttled requests come back
        ``rejected`` without consuming a queue slot), ``deadline`` is
        this request's total budget in seconds (queue wait + optimize;
        overruns come back ``timed_out``).
        """
        server = self.server
        started = time.perf_counter()
        if self._closed:
            raise RuntimeError("serving pool is closed")
        if self.admission is not None and not self.admission.admit(tenant):
            server.metrics.counter("pool_throttled").increment()
            return self._immediate(
                self._served_result(sql=sql, rejected=True)
            )
        deadline_at = (
            time.monotonic() + deadline if deadline is not None else None
        )
        if max_staleness is None and server.cache is not None:
            # Parent fast path: a repeated query whose fingerprint we
            # remember probes the lock-free cache without touching a
            # worker.
            fingerprint = self._fingerprints.get(sql)
            if fingerprint is not None:
                epoch = server.epoch
                cached = server.cache.get(fingerprint, epoch)
                if cached is not None:
                    latency = time.perf_counter() - started
                    server.metrics.counter("requests").increment()
                    server.metrics.counter("cache_hits").increment()
                    server.metrics.histogram("hit").record(latency)
                    server.metrics.histogram("total").record(latency)
                    return self._immediate(
                        self._served_result(
                            sql=sql,
                            fingerprint=fingerprint,
                            epoch=epoch,
                            cache_hit=True,
                            result=cached,
                            latency_seconds=latency,
                        )
                    )
        try:
            return self._pool.submit(
                (sql, max_staleness, deadline_at),
                partial(self._finish, sql, started, max_staleness),
            )
        except PoolSaturatedError:
            server.metrics.counter("rejected").increment()
            return self._immediate(
                self._served_result(sql=sql, rejected=True)
            )

    def rewrite(
        self,
        sql: str,
        *,
        tenant: str = "default",
        max_staleness: float | None = None,
        deadline: float | None = None,
    ):
        """Blocking :meth:`submit`."""
        return self.submit(
            sql,
            tenant=tenant,
            max_staleness=max_staleness,
            deadline=deadline,
        ).result()

    def rewrite_many(
        self,
        sqls,
        *,
        tenant: str = "default",
        max_staleness: float | None = None,
        deadline: float | None = None,
    ) -> list:
        """Fan a batch through the pool; results in input order."""
        futures = [
            self.submit(
                sql,
                tenant=tenant,
                max_staleness=max_staleness,
                deadline=deadline,
            )
            for sql in sqls
        ]
        return [future.result() for future in futures]

    def _immediate(self, served) -> "Future[Any]":
        self.server._observe(served)
        future: Future = Future()
        future.set_result(served)
        return future

    def _finish(
        self, sql: str, started: float, max_staleness, frame, error
    ):
        """One worker response frame (or the pool's failure) as the
        caller's :class:`ServedResult`; runs on the worker's reader."""
        server = self.server
        metrics = server.metrics
        latency = time.perf_counter() - started
        metrics.counter("requests").increment()
        if error is not None:
            metrics.counter("errors").increment()
            metrics.histogram("total").record(latency)
            served = self._served_result(
                sql=sql, error=str(error), latency_seconds=latency
            )
            server._observe(served)
            return served
        epoch, fingerprint, message, timed_out, encoded, serve_seconds = frame
        if message is not None:
            metrics.counter("errors").increment()
            metrics.histogram("total").record(latency)
            served = self._served_result(
                sql=sql, error=message, latency_seconds=latency
            )
        elif timed_out:
            metrics.counter("timeouts").increment()
            metrics.histogram("total").record(latency)
            served = self._served_result(
                sql=sql, timed_out=True, latency_seconds=latency
            )
        else:
            result = OptimizationResult.from_frame(encoded)
            telemetry = server.telemetry
            telemetry.record("pool_worker_serve_seconds", serve_seconds)
            telemetry.increment("pool_worker_requests")
            metrics.histogram("match").record(result.matching_seconds)
            metrics.histogram("plan").record(
                max(result.optimize_seconds - result.matching_seconds, 0.0)
            )
            metrics.histogram("miss").record(latency)
            metrics.histogram("total").record(latency)
            if result.uses_view:
                telemetry.increment("pool_worker_rewrites")
                metrics.counter("rewrites").increment()
            if fingerprint is not None:
                self._fingerprints.put(sql, fingerprint)
                if (
                    max_staleness is None
                    and server.cache is not None
                    and epoch == server.epoch
                ):
                    # A lagging (retiring-generation) worker's result
                    # must not poison the cache under a newer epoch;
                    # insert only while its epoch is still the served one.
                    server.cache.put(fingerprint, epoch, result)
            served = self._served_result(
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

    @property
    def epoch(self) -> int:
        """The epoch the current worker generation is pinned to."""
        return self._epoch

    def stats(self) -> dict:
        stats = dict(self._pool.stats())
        stats["epoch"] = self._epoch
        if self._arena is not None:
            stats["shm_tables"] = self._arena.tables_exported
            stats["shm_bytes"] = self._arena.bytes_exported
        if self.admission is not None:
            stats["admission"] = self.admission.stats()
        return stats

    def close(self, drain: bool = True, timeout: float | None = None) -> None:
        """Stop the watcher and the pool (``drain`` as in
        :meth:`WorkerPool.close`), leaving no child process behind: the
        workers are reaped and the resource-tracker child the
        shared-memory export started is stopped. Idempotent."""
        if self._closed:
            return
        self._closed = True
        self._swap_wanted.set()  # wake the watcher so it can exit
        self._watcher.join(timeout=5.0)
        self._pool.close(drain=drain, timeout=timeout)
        if self._owns_tracker and self._pool.worker_count() == 0:
            stop_resource_tracker()
