"""The process pool behind ``jobs > 1``: one fork per submitted call.

``sum_collapsed`` submits one call per shard of an instance; ``run_plan``
opens one pool per instance, with one call that walks it whole, and keeps
several open side by side.  Each call builds the instance's block table in its
own child.  Either way at most one child runs per usable CPU.  Each submitted
call is forked at once into its own child, which pickles ``(ok, value or
exception, traceback text)``, writes that one pickle to a pipe and ends with
``os._exit``: it never returns into the caller's code, runs ``atexit`` handlers
or flushes the parent's stdio.  A child writes nothing before its outcome is
pickled, so the parent, selecting over all children, reads a readable one's
pickle whole to the end of its pipe, reaps it and raises the first failure of
any child at once; a child that ends without an outcome is a
``ChildProcessError``.  A child inherits its call, so the function and its
arguments need not pickle, a monkeypatch in the parent reaches it, and what
the parent cached before the fork (the offset polynomials' coefficients) is
read copy-on-write, not rebuilt.  A child forked while other pools are open
inherits the read ends of their pipes and never touches them; each write end
is closed in the parent right after its fork, so the end of a pipe still marks
the end of its own child.

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

_PENDING = object()


class _RemoteTraceback(Exception):
    """The traceback a shard's exception had in its child, as ``__cause__``."""


class Future:
    """One submitted call; :meth:`result` waits for its value, or raises any child's failure."""

    def __init__(self, pool: "ProcessPoolExecutor"):
        self._pool = pool
        self._value = _PENDING

    def result(self):
        while self._value is _PENDING:
            self._pool._collect()
        return self._value


def _child(fn, args, r: int, w: int) -> None:
    """Run ``fn(*args)`` in a forked child and pickle its outcome to ``w``; never returns."""
    status = 1
    try:
        import pickle

        os.close(r)
        try:
            data = pickle.dumps((True, fn(*args), None))
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
        with open(w, "wb") as out:  # the buffered writer loops over partial writes
            out.write(data)
        status = 0
    finally:
        os._exit(status)


class ProcessPoolExecutor:
    """One child per submitted call, forked in :meth:`submit`.

    Leaving a ``with`` block, normally or on an exception (a shard's error, a
    Ctrl-C), kills and reaps the children still running.
    """

    def __init__(self):
        if not hasattr(os, "fork"):
            raise OSError("--jobs above 1 needs os.fork, which this platform lacks")
        import pickle  # loaded here, so each child finds it imported
        import select

        self._loads = pickle.loads
        self._select = select.select
        self._running: dict[int, tuple[Future, int]] = {}  # read end -> (future, pid)

    def submit(self, fn, /, *args) -> Future:
        r, w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(r)
            os.close(w)
            raise
        if pid == 0:
            _child(fn, args, r, w)
        os.close(w)
        fut = Future(self)
        self._running[r] = (fut, pid)
        return fut

    def _collect(self) -> None:
        """Read each ready child's pickle whole before dropping and reaping it; raise a failure."""
        if not self._running:
            raise ChildProcessError("shard process killed or failed before its result")
        ready, _, _ = self._select(list(self._running), [], [])
        for fd in ready:
            data = b"".join(iter(lambda: os.read(fd, 1 << 16), b""))
            fut, pid = self._running.pop(fd)
            os.close(fd)
            _, status = os.waitpid(pid, 0)
            if status != 0 or not data:
                raise ChildProcessError(
                    f"shard process {pid} ended without a result (wait status {status})")
            ok, value, text = self._loads(data)
            if not ok:
                raise value from _RemoteTraceback(text)
            fut._value = value

    def shutdown(self) -> None:
        """Kill every child still running and reap it, its pipe unread."""
        if self._running:
            import signal

            for fd, (_, pid) in self._running.items():
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                os.close(fd)
            self._running.clear()

    def __enter__(self) -> "ProcessPoolExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        # through self.shutdown, so a subclass that overrides shutdown sees
        # the exit
        self.shutdown()
        return False
