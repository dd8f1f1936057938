"""Fork-based parallelism over copy-on-write shared state.

Two execution shapes share one frame protocol here:

* :func:`forked_map` -- the original fork-per-batch fan-out: children are
  forked for one batch, each computes its slice, writes one result frame,
  and exits. The parent pays a fork per batch.
* :func:`spawn_worker` / :class:`WorkerHandle` -- a **persistent**
  request/response loop for the serving tier's worker pool
  (:mod:`repro.service.pool`): a child is forked once, inherits the
  parent's snapshot copy-on-write, and then serves many requests over a
  pair of pipes until it is told to shut down. The fork (and the page
  faults of first touching the snapshot) are paid once per worker
  lifetime instead of once per batch.

``fork(2)`` is the sharing mechanism in both shapes: children inherit the
whole address space copy-on-write, so the only data crossing a process
boundary is each request's *result*, pickled over a pipe. Threads cannot
help here -- matching is pure Python and GIL-bound -- and spawn-based
pools would pay a full snapshot pickle per worker.

Frame protocol
--------------
Every message is one length-prefixed pickle frame: a ``>BQ`` header
(status byte, payload length) followed by the payload. Status values:

* ``_OK`` / ``_FAILED`` -- a result frame (``_FAILED`` payloads carry the
  stringified worker exception);
* ``_REQUEST`` -- a parent-to-worker request carrying ``(request_id,
  payload)``;
* ``_SHUTDOWN`` -- the graceful-drain sentinel: a worker that reads it
  finishes nothing further and exits cleanly.

The parent treats a short read *or an undecodable payload* as worker
death: a truncated or corrupt frame must fail that one worker, never
abort the drain of its siblings (a previous version let ``pickle.loads``
raise out of the drain loop, abandoning the remaining children un-drained
and un-reaped).

Children never touch shared mutable service state: they compute, write
frames, and ``os._exit``. A worker that dies without producing a frame
(or that reports an exception) fails the whole map with
:class:`WorkerError` -- partial results are never silently returned.

``fork_available()`` gates every caller: on platforms without ``fork``
(or when explicitly disabled) callers fall back to sequential execution,
which is also the required behaviour below their view-count thresholds.
"""

from __future__ import annotations

import os
import pickle
import signal
import struct
from typing import Any, BinaryIO, Callable, Iterable, Sequence, TypeVar

__all__ = [
    "WorkerError",
    "WorkerHandle",
    "default_worker_count",
    "effective_cpu_count",
    "fork_available",
    "forked_map",
    "spawn_worker",
]

_T = TypeVar("_T")
_R = TypeVar("_R")

_HEADER = struct.Struct(">BQ")
_OK = 1
_FAILED = 0
_REQUEST = 2
_SHUTDOWN = 3


class WorkerError(RuntimeError):
    """A forked worker raised or died before reporting a result."""


def fork_available() -> bool:
    """True when ``os.fork`` exists (POSIX; never on Windows)."""
    return hasattr(os, "fork")


def effective_cpu_count() -> int:
    """Cores this process may actually run on.

    ``os.cpu_count()`` reports the machine's logical cores, which lies
    on affinity-restricted boxes (containers pinned to a cpuset, CI
    runners under ``taskset``): a 64-core host limited to one core
    would fork 64 workers into a single-core straitjacket -- and the
    benchmark environment capture would record ``cpu_count: 1`` hosts
    as fully parallel.  ``sched_getaffinity`` reports the restricted
    set where the platform has it (Linux); elsewhere fall back to the
    logical count.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return len(getaffinity(0)) or 1
        except OSError:  # pragma: no cover - exotic platforms
            pass
    return os.cpu_count() or 1


def default_worker_count() -> int:
    """Worker count matching the machine's *usable* cores (affinity-aware)."""
    return effective_cpu_count()


# ---------------------------------------------------------------------------
# Frame helpers (shared by the batch fan-out and the persistent loop)


def _write_frame(stream: BinaryIO, status: int, payload: bytes) -> None:
    stream.write(_HEADER.pack(status, len(payload)))
    stream.write(payload)
    stream.flush()


def _read_frame(stream: BinaryIO) -> tuple[int, bytes] | None:
    """One ``(status, payload)`` frame, or ``None`` on EOF / short read."""
    header = stream.read(_HEADER.size)
    if len(header) != _HEADER.size:
        return None
    status, length = _HEADER.unpack(header)
    payload = stream.read(length)
    if len(payload) != length:
        return None
    return status, payload


def _decode(payload: bytes) -> Any:
    """``pickle.loads`` isolated so corruption handling is testable."""
    return pickle.loads(payload)


def _reap(pid: int) -> None:
    try:
        os.waitpid(pid, 0)
    except ChildProcessError:  # already reaped (or double-reap race)
        pass


def _kill_and_reap(pid: int) -> None:
    """Force-terminate and reap one child (partial fan-out cleanup)."""
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    _reap(pid)


def _close_quietly(fd: int) -> None:
    try:
        os.close(fd)
    except OSError:
        pass


# ---------------------------------------------------------------------------
# Fork-per-batch map


def _child_main(
    write_fd: int, func: Callable[[_T], _R], items: Sequence[_T], indices: Sequence[int]
) -> None:
    """Worker body: compute assigned items, write one frame, exit."""
    try:
        try:
            payload = pickle.dumps(
                [(index, func(items[index])) for index in indices],
                protocol=pickle.HIGHEST_PROTOCOL,
            )
            status = _OK
        except BaseException as exc:  # report, never propagate out of the fork
            payload = pickle.dumps(
                f"{type(exc).__name__}: {exc}", protocol=pickle.HIGHEST_PROTOCOL
            )
            status = _FAILED
        with os.fdopen(write_fd, "wb") as stream:
            stream.write(_HEADER.pack(status, len(payload)))
            stream.write(payload)
    finally:
        # _exit skips atexit/finalizers: the child must not run the
        # parent's cleanup (tracers, metric flushes) a second time.
        os._exit(0)


def forked_map(
    func: Callable[[_T], _R],
    items: Iterable[_T],
    workers: int,
) -> list[_R]:
    """``[func(item) for item in items]`` fanned out across forked workers.

    Items are assigned round-robin so adjacent (likely similar-cost) items
    spread across workers; results come back in input order regardless.
    Falls back to the sequential comprehension when one worker suffices or
    ``fork`` is unavailable, so callers can invoke it unconditionally.

    A spawn failure mid-fan-out (``os.pipe`` or ``os.fork`` raising, e.g.
    ``EAGAIN`` under load) cleans up the partial fan-out -- every
    already-opened read fd is closed and every already-forked child is
    killed and reaped -- before the error propagates, so a burst of
    failed batches cannot leak fds or accumulate zombies.
    """
    sequence = list(items)
    if not sequence:
        return []
    workers = max(1, min(workers, len(sequence)))
    if workers == 1 or not fork_available():
        return [func(item) for item in sequence]

    children: list[tuple[int, int]] = []
    try:
        for worker in range(workers):
            indices = range(worker, len(sequence), workers)
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                _close_quietly(read_fd)
                _close_quietly(write_fd)
                raise
            if pid == 0:
                os.close(read_fd)
                _child_main(write_fd, func, sequence, indices)
            os.close(write_fd)
            children.append((pid, read_fd))
    except BaseException:
        for pid, read_fd in children:
            _close_quietly(read_fd)
            _kill_and_reap(pid)
        raise

    results: list[_R | None] = [None] * len(sequence)
    failure: str | None = None
    for pid, read_fd in children:
        with os.fdopen(read_fd, "rb") as stream:
            frame = _read_frame(stream)
        _reap(pid)
        if frame is None:
            failure = failure or f"worker {pid} died without reporting a result"
            continue
        status, payload = frame
        try:
            decoded = _decode(payload)
        except Exception as exc:
            # A corrupt frame is that worker's failure; the siblings'
            # pipes must still be drained and their processes reaped.
            failure = (
                failure
                or f"worker {pid} returned an undecodable frame: {exc}"
            )
            continue
        if status != _OK:
            failure = failure or f"worker {pid} failed: {decoded}"
            continue
        for index, value in decoded:
            results[index] = value
    if failure is not None:
        raise WorkerError(failure)
    return results  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# Persistent request/response workers


def _worker_loop(
    handler: Callable[[Any], Any], read_fd: int, write_fd: int
) -> None:
    """Child body of a persistent worker: serve frames until shutdown.

    A handler exception fails *that request* (a ``_FAILED`` frame carries
    the stringified error) and the loop continues -- one poisonous
    request must not take the worker down with it. An unpicklable result
    is likewise reported as that request's failure.
    """
    try:
        with os.fdopen(read_fd, "rb") as inbox, os.fdopen(
            write_fd, "wb"
        ) as outbox:
            while True:
                frame = _read_frame(inbox)
                if frame is None:
                    break  # parent closed the pipe (or died)
                status, payload = frame
                if status == _SHUTDOWN:
                    break
                if status != _REQUEST:  # unknown frame: protocol error
                    break
                request_id, value = _decode(payload)
                try:
                    result = handler(value)
                    body = pickle.dumps(
                        (request_id, result),
                        protocol=pickle.HIGHEST_PROTOCOL,
                    )
                    reply = _OK
                except BaseException as exc:
                    body = pickle.dumps(
                        (request_id, f"{type(exc).__name__}: {exc}"),
                        protocol=pickle.HIGHEST_PROTOCOL,
                    )
                    reply = _FAILED
                _write_frame(outbox, reply, body)
    finally:
        # Same rationale as _child_main: never run parent finalizers.
        os._exit(0)


class WorkerHandle:
    """Parent-side handle of one persistent forked worker.

    The parent writes ``_REQUEST`` frames with :meth:`send` and reads
    responses with :meth:`recv`; the pool keeps exactly one request in
    flight per worker, so sends and receives never interleave. The
    handle is not itself thread-safe -- the pool serializes access
    (sends happen under the pool's lock, one reader thread receives).
    """

    __slots__ = (
        "pid",
        "generation",
        "retired",
        "inflight",
        "_send",
        "_recv",
        "_send_closed",
        "_reaped",
    )

    def __init__(self, pid: int, send: BinaryIO, recv: BinaryIO, generation: int = 0):
        self.pid = pid
        #: Pool bookkeeping: which spawn generation (epoch) this worker
        #: belongs to; the pool retires whole generations on epoch swap.
        self.generation = generation
        self.retired = False
        #: The request currently being served, or ``None`` (pool-managed).
        self.inflight: Any = None
        self._send = send
        self._recv = recv
        self._send_closed = False
        self._reaped = False

    def send(self, request_id: int, payload: Any) -> None:
        """Ship one request frame to the worker (raises on a dead pipe)."""
        body = pickle.dumps(
            (request_id, payload), protocol=pickle.HIGHEST_PROTOCOL
        )
        _write_frame(self._send, _REQUEST, body)

    def recv(self) -> tuple[int, bool, Any] | None:
        """Block for one response: ``(request_id, ok, value)``.

        ``None`` means the worker died (EOF / short read) or returned a
        frame the parent could not decode -- either way the worker is
        unusable and the caller should reap and replace it.
        """
        frame = _read_frame(self._recv)
        if frame is None:
            return None
        status, payload = frame
        try:
            request_id, value = _decode(payload)
        except Exception:
            return None
        return request_id, status == _OK, value

    def shutdown(self) -> None:
        """Send the graceful-drain sentinel (idempotent, never raises)."""
        if self._send_closed:
            return
        self._send_closed = True
        try:
            _write_frame(self._send, _SHUTDOWN, b"")
            self._send.close()
        except (BrokenPipeError, OSError, ValueError):
            pass

    def kill(self) -> None:
        """Force-terminate (crash-path cleanup; graceful path is shutdown)."""
        try:
            os.kill(self.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def reap(self) -> None:
        """Close parent-side streams and wait for the child (idempotent)."""
        if self._reaped:
            return
        self._reaped = True
        self.shutdown()
        try:
            self._recv.close()
        except OSError:
            pass
        _reap(self.pid)

    def alive(self) -> bool:
        """Best-effort liveness probe (non-blocking)."""
        if self._reaped:
            return False
        try:
            pid, _ = os.waitpid(self.pid, os.WNOHANG)
        except ChildProcessError:
            return False
        return pid == 0


def spawn_worker(
    handler: Callable[[Any], Any], generation: int = 0
) -> WorkerHandle:
    """Fork one persistent worker running ``handler`` per request.

    The child inherits the parent's address space copy-on-write at the
    moment of the call -- whatever snapshot ``handler`` closes over is
    pinned from the child's point of view, which is exactly the pool's
    epoch-pinning semantics. The child touches no parent locks: it reads
    request frames, calls ``handler``, and writes response frames until
    it sees a shutdown sentinel or EOF.
    """
    if not fork_available():  # pragma: no cover - POSIX-only code base
        raise RuntimeError("persistent workers require os.fork")
    request_read, request_write = os.pipe()
    response_read, response_write = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        for fd in (request_read, request_write, response_read, response_write):
            _close_quietly(fd)
        raise
    if pid == 0:
        os.close(request_write)
        os.close(response_read)
        _worker_loop(handler, request_read, response_write)
        os._exit(0)  # pragma: no cover - _worker_loop never returns
    os.close(request_read)
    os.close(response_write)
    return WorkerHandle(
        pid,
        os.fdopen(request_write, "wb"),
        os.fdopen(response_read, "rb"),
        generation=generation,
    )
