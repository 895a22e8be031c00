"""Machine-speed calibration for the reported timings.

The machines this benchmark runs on are shared, and their speed drifts.
On the 2-vCPU machine of the baseline, one fixed 0.2 s ``bh_pmf`` call
repeated for a minute in one process spread by 39 % (quartile distance
over median) with CPU time equal to wall time, and the raw medians of
``wall_s`` and ``setup_s`` moved by 26-35 % between two sets of runs
taken twenty minutes apart.  Raw wall times cannot hold a 25 % bound
there.

So timings are reported at a reference speed.  A fixed kernel that uses
no fdrdist code is timed in the same process, often and close to the
timed work; each stretch of raw time is scaled by the kernel's reference
time over the kernel time measured around it, and the kernel's own time
is left out.  A reported second is a wall second on a machine where the
kernel takes its reference time.  Raw times are reported alongside.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
from mpmath import mpf, workprec

PERIOD_S = 0.5        # SpeedMeter sampling period
_BLOCK = np.random.default_rng(0).random((200, 500))


def _kernel():
    # the three kinds of work the workloads do: mpmath arithmetic at
    # 1024 bits (the recursions), interpreter dispatch, and numpy over a
    # block of p-values (the sampler and the fit)
    with workprec(1024):
        x, y, acc = mpf(1) / 3, mpf(2) / 7, mpf(0)
        for i in range(1, 800):
            acc = acc + x * y / i
            x = x * y + 1 / (i + x)
    s = 0.0
    for i in range(50000):
        s += i * 0.5
    for _ in range(4):
        np.sort(_BLOCK, axis=1)
        np.log(_BLOCK).sum()


REF_S = 0.02          # the kernel's time on the baseline machine, seconds


def _kernel_s() -> float:
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def sample() -> float:
    """Kernel time now: median of three runs."""
    return statistics.median(_kernel_s() for _ in range(3))


def scaled(raw_s: float, before: float, after: float) -> float:
    """raw_s expressed at the kernel's reference speed, from
    kernel times taken right before and right after it."""
    return raw_s * REF_S / (0.5 * (before + after))


class SpeedMeter:
    """Samples the kernel every PERIOD_S of wall time from a SIGALRM
    handler in the timed process itself, so a long command is split into
    half-second stretches, each scaled by the speed measured at its ends.

    Only the main thread of a single-threaded process may use it.  The
    handler runs between bytecodes; mpmath's ``workprec`` restores the
    working precision it changes, and the workload's checks would catch
    any interference.
    """

    def __init__(self):
        self._marks = []        # (start, end, kernel seconds) of each sample
        self._busy = False

    def mark(self, *_):
        """Run the kernel now and record its time.  A timer tick that
        arrives while the kernel runs is dropped, so samples never nest."""
        if self._busy:
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            _kernel()
            t1 = time.perf_counter()
            self._marks.append((t0, t1, t1 - t0))
        finally:
            self._busy = False

    def __enter__(self):
        self._marks = []
        self.mark()
        signal.signal(signal.SIGALRM, self.mark)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.mark()

    def interval(self, a: float, b: float) -> tuple:
        """(raw, scaled) seconds of [a, b] with the kernel runs left out.

        Between two consecutive samples the speed is the mean of their
        kernel times."""
        raw = scaled_s = 0.0
        for (_, end0, k0), (start1, _, k1) in zip(self._marks, self._marks[1:]):
            lo, hi = max(a, end0), min(b, start1)
            if hi > lo:
                raw += hi - lo
                scaled_s += (hi - lo) * REF_S / (0.5 * (k0 + k1))
        return raw, scaled_s
