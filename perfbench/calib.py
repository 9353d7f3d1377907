"""A fixed reference computation that tells how fast the machine is now.

Other tenants of a shared machine slow the CPU itself down, by up to 1.7x
for seconds to minutes at a time, and CPU time does not leave that out.  The
kernel below is timed between the operations of a run, at most every
``INTERVAL`` seconds.  A CPU time measured between two kernel samples is
scaled to a machine of nominal speed by ``NOMINAL_S`` over the mean of those
two samples.

The kernel is this file's own frozen copy of the work the tracer does most:
Dormand-Prince stages of ``z'' = -f(z) z'^2`` in pure-Python complex
arithmetic, with a fixed step.  It does not call the package, so no change
to the package moves it.  Do not change it: that would rescale every
calibrated figure.
"""

from __future__ import annotations

import bisect
import statistics
import time

INTERVAL = 0.5          # seconds of wall time between two samples, at least
NOMINAL_S = 0.046       # the kernel's best CPU time on a quiet 2-core Xeon VM

_A = ((), (1 / 5,), (3 / 40, 9 / 40), (44 / 45, -56 / 15, 32 / 9),
      (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
      (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
      (35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84))
_B = (35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0)
_POLES = ((0j, -0.5), (1.5 + 0.5j, -0.3), (-0.7 + 1.2j, -0.6))
_STEPS = 4000


def _f(z):
    acc = 0j
    for pos, res in _POLES:
        acc += res / (z - pos)
    return acc


def kernel() -> complex:
    z, v, h = 0.8 + 0.9j, 0.3 + 0.95j, 0.01
    for _ in range(_STEPS):
        kz = [0j] * 7
        kv = [0j] * 7
        kz[0], kv[0] = v, -_f(z) * v * v
        for i in range(1, 7):
            az, av = z, v
            for j, a in enumerate(_A[i]):
                if a:
                    az += h * a * kz[j]
                    av += h * a * kv[j]
            kz[i], kv[i] = av, -_f(az) * av * av
        z = z + h * sum(b * k for b, k in zip(_B, kz) if b)
        v = v + h * sum(b * k for b, k in zip(_B, kv) if b)
    return z


class Speed:
    """CPU times of the kernel, sampled at most every ``INTERVAL`` seconds."""

    def __init__(self):
        self.starts = []      # perf_counter() when each sample began
        self.samples = []     # its CPU time

    def tick(self, force=False):
        now = time.perf_counter()
        if force or not self.starts or now - self.starts[-1] >= INTERVAL:
            c0 = time.process_time()
            kernel()
            self.samples.append(time.process_time() - c0)
            self.starts.append(now)

    def scale(self, t: float) -> float:
        """Factor from a CPU time measured from ``t`` on to nominal seconds:
        the kernel samples just before and just after ``t`` bracket it."""
        i = bisect.bisect_right(self.starts, t)
        return NOMINAL_S / statistics.fmean(self.samples[max(0, i - 1):i + 1])
