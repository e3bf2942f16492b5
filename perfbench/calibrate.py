"""Machine-speed calibration for the end-to-end timings.

On a shared host the speed of a vCPU drifts by up to ~2x over minutes,
and every timing of a run moves with it.  A fixed kernel that belongs to
the benchmark (never to sombrero, so no change to the program can make it
faster) is timed between cases, and each end-to-end time is scaled by
REFERENCE_S over the kernel's median time in the same run: the metrics
read as times on a machine where the kernel takes REFERENCE_S.

The kernel mixes the two kinds of work the program does: a pure-Python
Sturm-count recurrence over floats and short numpy vector operations.
"""

import math
import statistics
import time

import numpy as np

# The kernel's median time on the 2-vCPU Xeon VM (Python 3.11.7, numpy
# 2.4.6) where the baseline was recorded.
REFERENCE_S = 0.0035
# Case time between two samples, so the samples are spread over the run
# in proportion to time and cost under a tenth of it.
SAMPLE_EVERY_S = 0.05

_N = 2000
_D = [2.0 + math.sin(i) for i in range(_N)]
_E2 = [0.25 + 0.1 * math.cos(i) for i in range(_N - 1)]
_SHIFTS = (0.51, 1.03, 1.57, 2.09, 2.53, 3.01, 0.77, 1.21)
_DA = np.array(_D)


def kernel():
    """One run of the fixed kernel; returns a check value."""
    count = 0
    for x in _SHIFTS:
        q = _D[0] - x
        for i in range(1, _N):
            q = _D[i] - x - _E2[i - 1] / q
            if q <= 0.0:
                count += 1
    total = 0.0
    for _ in range(40):
        y = np.sqrt(_DA * _DA + 1.0)
        y = np.cumsum(y)
        y.sort()
        total += float(y[-1])
    return count + total


class Calibration:
    """Samples of the kernel's time, taken as the run goes."""

    def __init__(self):
        kernel()  # warm-up, not kept
        self.samples = []
        self._since = 0.0

    def sample(self):
        t0 = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t0)
        self._since = 0.0

    def after_case(self, latency_s):
        """Take a sample once SAMPLE_EVERY_S of case time has passed."""
        self._since += latency_s
        if self._since >= SAMPLE_EVERY_S:
            self.sample()

    def median_s(self):
        return statistics.median(self.samples)

    def factor(self):
        """Multiply a measured time by this to read it at reference speed."""
        return REFERENCE_S / self.median_s()
