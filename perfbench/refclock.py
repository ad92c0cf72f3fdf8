"""Reference kernel for :class:`perfbench.harness.HostClock`.

Runs as its own process and never imports ``repro``.  Each line read
from stdin times the kernel five times and answers with the mean
seconds on stdout; the process ends when stdin closes.
"""

import statistics
import sys
import time

import numpy as np


def reference_kernel() -> float:
    """A fixed mix of small BLAS, numpy and interpreter work; seconds."""
    rng = np.random.default_rng(0)
    a = rng.random((32, 32))
    x = rng.random((3, 8, 16, 16))
    w = rng.random((8, 8))
    t0 = time.perf_counter()
    total = 0.0
    for _ in range(400):
        y = np.tensordot(w, x, axes=([1], [1]))
        z = np.maximum(y, 0.5) * 1.5 - y.mean()
        total += float((a @ a)[0, 0] + z.sum())
        for k in range(60):
            total += k * 0.5
    return time.perf_counter() - t0


def main() -> None:
    for _ in sys.stdin:
        # the mean, not the median: the host flips between fast and slow
        # states within fractions of a second, and the interval being
        # rescaled runs at their average
        seconds = statistics.fmean(reference_kernel() for _ in range(5))
        print(repr(seconds), flush=True)


if __name__ == "__main__":
    main()
