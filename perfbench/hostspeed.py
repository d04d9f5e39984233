"""Host-speed calibration for the end-to-end timings.

On a shared 2-vCPU VM (Intel Xeon, Python 3.11, numpy 2.4) the vCPU switched,
every few seconds to tens of seconds, between two speeds 1.2x to 1.45x apart
depending on the work. Runs of the same code and inputs then gave median pass
times that differed by up to 40%, depending only on how much of each run fell
in the slow state.

A fixed kernel, which does not call the library, is timed between every two
timed calls. Each call's wall time is rescaled by REF_SECONDS over the mean of
the kernel times just before and just after it: the result is the call's wall
time on a host where the kernel takes REF_SECONDS. Over consecutive 25-s
blocks of the same calls, the rescaled median pass times ranged 3-12% (by
workload) where the raw ones ranged 9-30%. The kernel mixes the kinds of work
the library does:
an interpreted big-integer loop (the exact accumulator), numpy operations on
thousands of rows (distances, argmin, frexp) and many numpy calls on a single
point (box and radius tests); of the mixes tried, this one varied least
relative to the library's calls.

A change to the library does not move the kernel, so a faster or slower
library shows in the rescaled times in full.
"""

from __future__ import annotations

import time

import numpy as np

# About the kernel's time on the VM above in its faster state (6.1-7.0 ms
# there; up to 9.5 ms in the slower one). It only sets the scale of the
# rescaled times.
REF_SECONDS = 0.0065

_rng = np.random.default_rng(20220214)
_A = _rng.standard_normal((2000, 8))
_C = _rng.standard_normal((4, 8))
_V = _rng.standard_normal(20000)
_x = _rng.standard_normal(8)


def _kernel() -> None:
    total = 0
    for i in range(20000):
        total += (i * 7) << (i & 63)
    for _ in range(10):
        d = ((_A[:, None, :] - _C[None, :, :]) ** 2).sum(axis=2)
        d.argmin(axis=1)
        np.frexp(_V)
    lo, hi = _x - 1.0, _x + 1.0
    for _ in range(300):
        np.all((_x >= lo) & (_x <= hi))
        np.dot(_x, _x)


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


class Rescaler:
    """Rescales consecutive timed segments by the kernel times around each.

    Call `rescale(seconds)` right after each timed segment; the kernel runs
    then, outside the segment, and its time also serves the next segment.
    """

    def __init__(self):
        self.last = kernel_seconds()
        self.kernel: list[float] = [self.last]

    def rescale(self, seconds: float) -> float:
        now = kernel_seconds()
        self.kernel.append(now)
        factor = REF_SECONDS / ((self.last + now) / 2)
        self.last = now
        return seconds * factor
