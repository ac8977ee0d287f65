"""Machine-speed sampling: rescale a pass's times to a reference speed.

The benchmark runs on a few cores of a shared host whose speed wanders by up
to 2x over seconds to minutes, with the same code and inputs: in one test a
fixed 0.27 s piece of ``config_sums`` work took 0.17 s to 0.37 s (medians of
ten), while its ratio to a fixed pure-Python kernel run beside it stayed
within +-6%.  A pass's wall time alone therefore measures the host as much
as the program.

So while a timed pass runs, :class:`SpeedSampler` runs :func:`kernel` twice
every ``INTERVAL_S`` from a ``SIGALRM`` handler and times the second run in
thread CPU time (time the scheduler gives to other processes, such as the
pass's own pool workers, does not count).  The pass's wall time, less the
kernel's, is cut at the samples into segments, and each segment is rescaled by
``REF_KERNEL_S / (median kernel time of the samples around it)``: seconds at
the reference speed, at which one kernel run takes ``REF_KERNEL_S``.  The
kernel is exact rational arithmetic in dicts, the interpreter work of the
program's ``Fraction`` convolutions and ``MultiPoly`` products, and uses only
the standard library, so no change to the program moves it.  Interval
timers are not inherited across ``fork``, so pool workers run no kernel.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.02      # one sample per 20 ms of pass, about 8% extra time
WINDOW = 5             # samples on each side whose median gives a segment's speed
MIN_SAMPLES = 2 * WINDOW + 1  # a shorter pass is topped up with runs after it
PROBE_SAMPLES = 21     # samples that rescale a set-up time, taken right after the import
REF_KERNEL_S = 0.00085  # CPU seconds of one kernel run at the reference speed
                        # (typical of a 2-vCPU VM)
A = {(i, j): Fraction(i - 3, j + 2) for i in range(4) for j in range(3)}
B = {(i, j): Fraction(j + 1, i + 5) for i in range(4) for j in range(3)}
RESULT = Fraction(-6929, 280)


def kernel() -> Fraction:
    """Multiply two fixed 12-term polynomials with ``Fraction`` coefficients."""
    out = {}
    for (i1, j1), x in A.items():
        for (i2, j2), y in B.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + x * y
    return sum(out.values())


def timed_kernel() -> tuple:
    """``(wall start, wall end, CPU seconds of both, CPU seconds of the second)``
    of two kernel runs.

    Only the second run times the speed, with the kernel's code and data in
    cache, so the sample measures the core and not what the interrupted work
    left in the caches.
    """
    start, cpu0 = time.perf_counter(), time.thread_time()
    kernel()
    cpu1 = time.thread_time()
    if kernel() != RESULT:
        raise RuntimeError("calibration kernel gave a wrong result")
    cpu2 = time.thread_time()
    return start, time.perf_counter(), cpu2 - cpu0, cpu2 - cpu1


def probe() -> float:
    """Scale factor to reference seconds, from ``PROBE_SAMPLES`` samples taken back to back."""
    return REF_KERNEL_S / statistics.median(timed_kernel()[3] for _ in range(PROBE_SAMPLES))


class SpeedSampler:
    """Samples the machine's speed while the ``with`` block runs."""

    def __init__(self):
        self.samples = []  # timed_kernel() of each sample during the block
        self.start = self.stop = None
        self._busy = False
        self._old = None

    def _tick(self, signum, frame):
        if not self._busy:  # a tick that lands inside the kernel is skipped
            self._busy = True
            try:
                self.samples.append(timed_kernel())
            finally:
                self._busy = False

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        self.start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.stop = time.perf_counter()
        signal.signal(signal.SIGALRM, self._old)
        return False

    @property
    def kernel_cpu_s(self) -> float:
        """CPU seconds the kernel took inside the block."""
        return sum(cpu for _, _, cpu, _ in self.samples)

    @property
    def wall_s(self) -> float:
        """Wall seconds of the block, less the kernel runs inside it."""
        return self.stop - self.start - sum(end - start for start, end, _, _ in self.samples)

    def reference_s(self) -> float:
        """:attr:`wall_s`, each segment between samples rescaled by the speed around it."""
        inside = list(self.samples)
        speeds = [speed for _, _, _, speed in inside]
        while len(speeds) < MIN_SAMPLES:
            speeds.append(timed_kernel()[3])
        bounds = [self.start] + [t for start, end, _, _ in inside for t in (start, end)] + [self.stop]
        total = 0.0
        for i in range(len(inside) + 1):
            lo = max(0, min(i - WINDOW, len(speeds) - 2 * WINDOW - 1))
            around = speeds[lo:lo + 2 * WINDOW + 1]
            total += (bounds[2 * i + 1] - bounds[2 * i]) * REF_KERNEL_S / statistics.median(around)
        return total
