"""Failure paths of the persistent workers in ``core.parallel``.

Pinned here, for ``spawn_worker`` / ``WorkerHandle`` and the
``WorkerPool`` fleet above them:

* a spawn failure (``os.pipe`` or ``os.fork`` raising, e.g. ``EAGAIN``
  under load) while a pool forks its fleet closes every pipe end it
  opened and leaves no child behind; the pool runs with the workers it
  got, and a pool that got none fails requests instead of queueing them
  forever;
* a corrupt response frame counts as that worker's death, never as an
  ``UnpicklingError`` in the parent: the pool reaps the worker,
  redelivers its in-flight request to a fresh one, and leaks nothing.

Plus coverage of the request/response loop itself, and of the
affinity-aware CPU count a pool sizes its default fleet by.
"""

import errno
import os

import pytest

import repro.core.parallel as parallel
from repro.core.parallel import (
    WorkerError,
    effective_cpu_count,
    fork_available,
    spawn_worker,
)
from repro.service.pool import WorkerPool

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="os.fork unavailable on this platform"
)

WAIT = 30  # generous per-future timeout


def _open_fds() -> set[int]:
    return {int(fd) for fd in os.listdir("/proc/self/fd")}


def _no_zombie_children() -> bool:
    """True when no terminated-but-unreaped child of this process exists."""
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True  # no children at all
    return pid == 0  # children exist but none is a zombie


@needs_fork
class TestForkFailureCleanup:
    def test_fork_eagain_mid_fanout_leaks_nothing(self, monkeypatch):
        """Fork failing after real forks: the pool keeps the workers it
        got, and closing it closes every fd and reaps every child."""
        real_fork = os.fork
        forks = {"count": 0}

        def flaky_fork():
            forks["count"] += 1
            if forks["count"] >= 3:
                raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
            return real_fork()

        before = _open_fds()
        monkeypatch.setattr(os, "fork", flaky_fork)
        pool = WorkerPool(lambda x: x * 2, workers=4)
        monkeypatch.undo()
        try:
            assert forks["count"] == 4  # two real children, two failures
            stats = pool.stats()
            assert (stats["workers"], stats["spawn_failures"]) == (2, 2)
            futures = [pool.submit(i) for i in range(6)]
            assert [f.result(timeout=WAIT) for f in futures] == [
                i * 2 for i in range(6)
            ]
        finally:
            pool.close()
        assert _open_fds() == before  # no leaked pipe ends
        assert _no_zombie_children()

    def test_fork_failing_immediately_leaks_nothing(self, monkeypatch):
        """A pool that could fork no worker fails requests at once."""

        def broken_fork():
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        before = _open_fds()
        monkeypatch.setattr(os, "fork", broken_fork)
        pool = WorkerPool(lambda x: x, workers=2)
        monkeypatch.undo()
        try:
            assert pool.stats()["spawn_failures"] == 2
            with pytest.raises(WorkerError, match="no live workers"):
                pool.submit(1).result(timeout=WAIT)
        finally:
            pool.close()
        assert _open_fds() == before
        assert _no_zombie_children()

    def test_pipe_failure_mid_fanout_leaks_nothing(self, monkeypatch):
        """The second worker's response pipe fails after its request
        pipe opened: both ends of the opened pipe are closed again."""
        real_pipe = os.pipe
        pipes = {"count": 0}

        def flaky_pipe():
            pipes["count"] += 1
            if pipes["count"] == 4:
                raise OSError(errno.EMFILE, "Too many open files")
            return real_pipe()

        before = _open_fds()
        monkeypatch.setattr(os, "pipe", flaky_pipe)
        pool = WorkerPool(lambda x: x + 1, workers=2)
        monkeypatch.undo()
        try:
            stats = pool.stats()
            assert (stats["workers"], stats["spawn_failures"]) == (1, 1)
            assert pool.submit(41).result(timeout=WAIT) == 42
        finally:
            pool.close()
        assert _open_fds() == before
        assert _no_zombie_children()


@needs_fork
class TestCorruptFrameDrain:
    def test_undecodable_frame_is_worker_failure_not_crash(self, monkeypatch):
        """``recv`` reports a corrupt response frame as worker death
        (``None``), never as an ``UnpicklingError``."""
        handle = spawn_worker(lambda x: x * 2)
        # Patched after the fork: only the parent's decoding is corrupt.
        monkeypatch.setattr(
            parallel,
            "_decode",
            lambda payload: (_ for _ in ()).throw(ValueError("corrupt")),
        )
        try:
            handle.send(1, 21)
            assert handle.recv() is None
        finally:
            monkeypatch.undo()
            handle.reap()
        assert not handle.alive()
        assert _no_zombie_children()

    def test_corrupt_response_is_redelivered_to_a_fresh_worker(
        self, monkeypatch
    ):
        """One corrupt response: the pool replaces the worker, the
        in-flight request completes on the replacement, nothing leaks."""
        real_decode = parallel._decode
        calls = {"count": 0}

        def corrupt_first(payload):
            calls["count"] += 1
            if calls["count"] == 1:
                raise ValueError("truncated pickle stream")
            return real_decode(payload)

        before = _open_fds()
        pool = WorkerPool(lambda x: x * 2, workers=1, max_retries=1)
        monkeypatch.setattr(parallel, "_decode", corrupt_first)
        try:
            assert pool.submit(21).result(timeout=WAIT) == 42
            stats = pool.stats()
            assert stats["respawns"] == 1
            assert stats["redelivered"] == 1
            assert stats["failed"] == 0
        finally:
            pool.close()
            monkeypatch.undo()
        assert _open_fds() == before
        assert _no_zombie_children()

    def test_all_frames_corrupt_still_reaps_everyone(self, monkeypatch):
        """Every response corrupt: the request fails once its retries
        are spent, and closing the pool reaps every worker it forked."""
        before = _open_fds()
        pool = WorkerPool(lambda x: x, workers=2, max_retries=1)
        monkeypatch.setattr(
            parallel,
            "_decode",
            lambda payload: (_ for _ in ()).throw(ValueError("corrupt")),
        )
        try:
            with pytest.raises(WorkerError, match="2 attempts"):
                pool.submit(7).result(timeout=WAIT)
        finally:
            pool.close()
            monkeypatch.undo()
        assert _open_fds() == before
        assert _no_zombie_children()

    def test_worker_death_without_frame_reported(self):
        def die(x):
            if x == 5:
                os._exit(13)
            return x

        handle = spawn_worker(die)
        try:
            handle.send(1, 4)
            assert handle.recv() == (1, True, 4)
            handle.send(2, 5)
            assert handle.recv() is None  # EOF: died without a frame
        finally:
            handle.reap()
        assert _no_zombie_children()


@needs_fork
class TestPersistentWorker:
    def test_request_response_roundtrip(self):
        handle = spawn_worker(lambda x: x * 3)
        try:
            handle.send(1, 14)
            assert handle.recv() == (1, True, 42)
            handle.send(2, "ab")
            assert handle.recv() == (2, True, "ababab")
        finally:
            handle.reap()
        assert not handle.alive()
        assert _no_zombie_children()

    def test_handler_exception_fails_request_not_worker(self):
        def picky(x):
            if x < 0:
                raise ValueError("negative")
            return x + 1

        handle = spawn_worker(picky)
        try:
            handle.send(1, -5)
            request_id, ok, value = handle.recv()
            assert (request_id, ok) == (1, False)
            assert "ValueError" in value and "negative" in value
            # The worker survived the failed request.
            handle.send(2, 41)
            assert handle.recv() == (2, True, 42)
        finally:
            handle.reap()

    def test_shutdown_then_recv_reports_eof(self):
        handle = spawn_worker(lambda x: x)
        handle.shutdown()
        assert handle.recv() is None
        handle.reap()
        assert _no_zombie_children()

    def test_reap_is_idempotent(self):
        handle = spawn_worker(lambda x: x)
        handle.reap()
        handle.reap()
        assert not handle.alive()

    def test_spawn_failure_closes_all_pipes(self, monkeypatch):
        monkeypatch.setattr(
            os,
            "fork",
            lambda: (_ for _ in ()).throw(OSError(errno.EAGAIN, "EAGAIN")),
        )
        before = _open_fds()
        with pytest.raises(OSError):
            spawn_worker(lambda x: x)
        monkeypatch.undo()
        assert _open_fds() == before


class TestEffectiveCpuCount:
    def test_matches_scheduler_affinity(self):
        if hasattr(os, "sched_getaffinity"):
            assert effective_cpu_count() == len(os.sched_getaffinity(0))
        else:  # pragma: no cover - platform fallback
            assert effective_cpu_count() == (os.cpu_count() or 1)

    def test_at_least_one(self):
        assert effective_cpu_count() >= 1

    @needs_fork
    def test_default_workers_never_exceed_affinity(self):
        pool = WorkerPool(lambda payload: payload)
        try:
            assert 1 <= pool.stats()["target"] <= effective_cpu_count()
        finally:
            pool.close()
