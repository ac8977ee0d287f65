"""The process pool behind ``sum_collapsed(jobs > 1)``, imported on first use.

``concurrent.futures`` brings in ``multiprocessing``, ``socket``, ``pickle``,
``subprocess`` and ``logging``.  Serial sums and the commands that never
shard (``part2``, ``bridge``, ``report``) need none of them, so the stdlib
pool is imported when the first pool is built, not when the package is.
"""

from __future__ import annotations

__all__ = ["ProcessPoolExecutor"]


class ProcessPoolExecutor:
    """A stdlib process pool, built on first use.

    Leaving a ``with`` block on an exception cancels the shards still queued,
    so the error reaches the caller once the running shards finish; either
    way every worker is joined before the block ends.
    """

    def __init__(self, max_workers: int):
        from concurrent.futures import ProcessPoolExecutor as StdlibPool

        self._pool = StdlibPool(max_workers=max_workers)

    def submit(self, fn, /, *args, **kwargs):
        return self._pool.submit(fn, *args, **kwargs)

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False) -> None:
        self._pool.shutdown(wait=wait, cancel_futures=cancel_futures)

    def __enter__(self) -> "ProcessPoolExecutor":
        self._pool.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        # through self.shutdown, as the stdlib pool's own __exit__ does, so a
        # subclass that overrides shutdown sees the exit
        self.shutdown(wait=True, cancel_futures=exc_type is not None)
        return False
