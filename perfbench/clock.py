"""The clocks every timing uses, and the host-speed calibration.

Timings are CPU seconds of this process: the timed loops are single-threaded
and never block, so on an idle machine this equals wall time, while on a
shared machine it leaves out the time spent waiting for a CPU that other
tenants hold. Deadlines use wall time, so a run still ends on time.

On a shared host the CPU speed drifts as well. On the 2-vCPU x86 host these
settings were tuned on, interpreter-bound code ran at two speeds about 1.7x
apart in phases of 10-30 s, which spread the per-run median toy_train step
by 30-45% between runs; array-bound code drifted less, but still by up to
20%. So each sample is rescaled by a calibration kernel of the same kind of
work, timed just before and just after it: a sample that took t while the
kernel took c reports ``t * reference / c``, its CPU time at the speed at
which the kernel takes its reference time. ``INTERPRETER`` is small NumPy
operations and a Python loop; ``ARRAYS`` is a multiply-accumulate over a
3 MB array. Over ten seeded 25-s runs the spread (IQR over median) of each
metric was then 1-6% on toy_train, 3-5% on large_n and 3-9% on
paper_scale; the interpreter kernel alone had left the array-bound
workloads at 8-17%. Raw figures stay in the report.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

_SMALL = np.linspace(0.0, 1.0, 8 * 16 * 9).reshape(8, 16, 3, 3)
_BIG = np.linspace(0.0, 1.0, 128 * 64 * 49).reshape(128, 64, 7, 7)
_BIG_W = np.linspace(-1.0, 1.0, 64 * 8).reshape(64, 8)


def now() -> float:
    """CPU seconds of this process."""
    return time.process_time()


def wall() -> float:
    return time.perf_counter()


def _interpreter_kernel() -> None:
    acc = 0.0
    for _ in range(150):
        b = _SMALL * 1.0001 + 0.5
        acc += float(np.maximum(b, 0.7).sum(axis=1)[0, 0, 0])
        for j in range(30):
            acc += j


def _array_kernel() -> None:
    out = np.zeros(_BIG.shape)
    for c in range(_BIG_W.shape[1]):
        out += _BIG_W[None, :, c, None, None] * _BIG
    float(out.sum())


# kernel and its reference CPU seconds (about its time on the host above)
INTERPRETER = (_interpreter_kernel, 1.5e-3)
ARRAYS = (_array_kernel, 8e-3)


class Speed:
    """Tracks the host's speed between consecutive measurements with one
    calibration kernel."""

    def __init__(self, kernel):
        self.kernel, self.reference = kernel
        self.last = self.calibrate()
        self.samples = [self.last]

    def calibrate(self) -> float:
        """CPU seconds of one run of the kernel."""
        t0 = now()
        self.kernel()
        return now() - t0

    def start(self) -> None:
        """Time the kernel just before a sample whose previous kernel run
        was not just before it."""
        self.last = self.calibrate()
        self.samples.append(self.last)

    def factor(self) -> float:
        """Scale for CPU seconds measured since the previous call: the
        reference time over the mean of the kernel times around it."""
        cal = self.calibrate()
        factor = self.reference / ((self.last + cal) / 2)
        self.last = cal
        self.samples.append(cal)
        return factor

    def summary(self) -> dict:
        ms = [s * 1e3 for s in self.samples]
        return {"unit": "ms", "samples": len(ms), "min": min(ms),
                "p50": statistics.median(ms), "max": max(ms),
                "reference": self.reference * 1e3}
