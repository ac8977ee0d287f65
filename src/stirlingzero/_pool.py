"""The process pool behind ``sum_collapsed(jobs > 1)``: one fork per shard.

Each submitted call runs in its own child, forked when a worker slot is free.
The child pickles ``(ok, value or exception, traceback text)`` to a pipe and
ends with ``os._exit``, so it never returns into the caller's code, never
runs ``atexit`` handlers and never flushes the parent's stdio buffers.  The
parent reads whichever running child is readable first, reaps it with
``waitpid`` and forks the next queued call, so a free CPU takes the next
shard at once.  Nothing is sent to a child: it inherits the call, so the
function need not pickle, and a monkeypatch in the parent reaches it.

Neither the pool nor the package starts a thread, so each fork copies a
single-threaded process.  ``pickle`` and ``select`` are imported when the
first pool is built, so serial sums and the commands that never shard
(``part2``, ``bridge``, ``report``) do not load them, and ``multiprocessing``
and ``concurrent.futures`` are never loaded.  Without ``os.fork`` building a
pool raises ``OSError``.
"""

from __future__ import annotations

import os
from collections import deque

__all__ = ["ProcessPoolExecutor"]

_QUEUED, _RUNNING, _DONE, _CANCELLED = "queued", "running", "done", "cancelled"


class _RemoteTraceback(Exception):
    """The traceback a shard's exception had in its child, as ``__cause__``."""

    def __str__(self) -> str:
        return self.args[0]


class Future:
    """One submitted call; :meth:`result` waits for its child and re-raises its error."""

    def __init__(self, pool: "ProcessPoolExecutor", call):
        self._pool = pool
        self._call = call
        self._state = _QUEUED
        self._outcome = None  # (ok, value or exception)

    def cancelled(self) -> bool:
        return self._state == _CANCELLED

    def result(self):
        while self._state in (_QUEUED, _RUNNING):
            self._pool._collect()
        if self._state == _CANCELLED:
            raise RuntimeError("the shard was cancelled")
        ok, value = self._outcome
        if ok:
            return value
        raise value


def _child(call, r: int, w: int) -> None:
    """Run ``call`` in a forked child and pickle its outcome to the pipe ``w``; never returns."""
    status = 1
    try:
        import pickle

        os.close(r)
        fn, args, kwargs = call
        try:
            data = pickle.dumps((True, fn(*args, **kwargs), None))
        except BaseException as exc:  # every outcome goes to the parent
            import traceback

            text = traceback.format_exc()
            if not isinstance(exc, Exception):  # SystemExit, KeyboardInterrupt
                exc = ChildProcessError(f"shard process {os.getpid()} stopped by {exc!r}")
            try:
                data = pickle.dumps((False, exc, text))
                pickle.loads(data)  # an exception that pickles may still not unpickle
            except Exception:
                data = pickle.dumps((False, RuntimeError(repr(exc)), text))
        view = memoryview(data)
        while view:
            view = view[os.write(w, view):]
        status = 0
    finally:
        os._exit(status)


class ProcessPoolExecutor:
    """At most ``max_workers`` forked children at a time, one per submitted call.

    Leaving a ``with`` block on an exception cancels the calls still queued,
    which are then never forked; either way every running child is waited
    for and reaped before the block ends.
    """

    def __init__(self, max_workers: int):
        if max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        if not hasattr(os, "fork"):
            raise OSError("--jobs above 1 needs os.fork, which this platform lacks")
        import pickle  # loaded here, so each child finds it imported
        import select

        self._loads = pickle.loads
        self._select = select.select
        self._max_workers = max_workers
        self._queued: deque[Future] = deque()
        self._running: dict[int, tuple[Future, int, list[bytes]]] = {}  # fd -> (future, pid, chunks)

    def submit(self, fn, /, *args, **kwargs) -> Future:
        fut = Future(self, (fn, args, kwargs))
        self._queued.append(fut)
        self._fill()
        return fut

    def _fill(self) -> None:
        while self._queued and len(self._running) < self._max_workers:
            fut = self._queued.popleft()
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                self._queued.appendleft(fut)
                raise
            if pid == 0:
                _child(fut._call, r, w)
            os.close(w)
            fut._state = _RUNNING
            self._running[r] = (fut, pid, [])

    def _collect(self) -> None:
        """Read the running children that are readable; file each one that ended.

        Queued calls are forked first, into the slots the last call freed.
        """
        self._fill()
        ready, _, _ = self._select(list(self._running), [], [])
        for fd in ready:
            fut, pid, chunks = self._running[fd]
            chunk = os.read(fd, 1 << 16)
            if chunk:
                chunks.append(chunk)
                continue
            del self._running[fd]
            os.close(fd)
            _, status = os.waitpid(pid, 0)
            if status != 0:
                error = ChildProcessError(
                    f"shard process {pid} ended without a result (wait status {status})")
                fut._outcome = (False, error)
            else:
                ok, value, text = self._loads(b"".join(chunks))
                if not ok:
                    value.__cause__ = _RemoteTraceback(text)
                fut._outcome = (ok, value)
            fut._state = _DONE

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False) -> None:
        if cancel_futures:
            for fut in self._queued:
                fut._state = _CANCELLED
            self._queued.clear()
        while wait and (self._running or self._queued):
            self._collect()

    def __enter__(self) -> "ProcessPoolExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        # through self.shutdown, so a subclass that overrides shutdown sees
        # the exit
        self.shutdown(wait=True, cancel_futures=exc_type is not None)
        return False
