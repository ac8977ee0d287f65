"""The process pool behind ``sum_collapsed(jobs > 1)``: one fork per shard.

Each submitted call is forked at once into its own child (the caller submits
at most one per CPU), which pickles ``(ok, value or exception, traceback
text)`` to a pipe and ends with ``os._exit``: it never returns into the
caller's code, runs ``atexit`` handlers or flushes the parent's stdio.  The
parent reads whichever child is readable and reaps each at the end of its
pipe.  A child inherits its call, so the function need not pickle, and a
monkeypatch in the parent reaches it.

Neither the pool nor the package starts a thread, so each fork copies a
single-threaded process.  ``pickle`` and ``select`` are imported when the
first pool is built, so serial sums and the commands that never shard
(``part2``, ``bridge``, ``report``) do not load them, and ``multiprocessing``
and ``concurrent.futures`` are never loaded.  Without ``os.fork`` building a
pool raises ``OSError``.
"""

from __future__ import annotations

import os

__all__ = ["ProcessPoolExecutor"]


class _RemoteTraceback(Exception):
    """The traceback a shard's exception had in its child, as ``__cause__``."""

    def __str__(self) -> str:
        return self.args[0]


class Future:
    """One submitted call; :meth:`result` waits for its child and re-raises its error."""

    def __init__(self, pool: "ProcessPoolExecutor"):
        self._pool = pool
        self._outcome = None  # (ok, value or exception) once the child is reaped

    def result(self):
        while self._outcome is None:
            self._pool._collect()
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
    """One child per submitted call, forked in :meth:`submit`.

    Leaving a ``with`` block on an exception (a shard's error out of
    :meth:`Future.result`, a Ctrl-C) kills the children still running instead
    of waiting for them; either way each child is reaped before the block ends.
    """

    def __init__(self):
        if not hasattr(os, "fork"):
            raise OSError("--jobs above 1 needs os.fork, which this platform lacks")
        import pickle  # loaded here, so each child finds it imported
        import select

        self._loads = pickle.loads
        self._select = select.select
        self._running: dict[int, tuple[Future, int, list[bytes]]] = {}  # fd -> (future, pid, chunks)

    def submit(self, fn, /, *args, **kwargs) -> Future:
        r, w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(r)
            os.close(w)
            raise
        if pid == 0:
            _child((fn, args, kwargs), r, w)
        os.close(w)
        fut = Future(self)
        self._running[r] = (fut, pid, [])
        return fut

    def _collect(self) -> None:
        """Read the running children that are readable; file each one that ended."""
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

    def shutdown(self, kill: bool = False) -> None:
        """Reap every child: after it finishes, or with ``kill`` after a ``SIGKILL``."""
        if kill:
            import signal

            for _, pid, _ in self._running.values():
                os.kill(pid, signal.SIGKILL)
        while self._running:
            self._collect()

    def __enter__(self) -> "ProcessPoolExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        # through self.shutdown, so a subclass that overrides shutdown sees
        # the exit
        self.shutdown(kill=exc_type is not None)
        return False
