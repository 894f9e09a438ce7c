"""Host-speed calibration for timings taken on a shared, noisy machine.

On a virtual machine shared with other tenants (2 vCPUs, Python 3.11),
the same pass took up to 1.7 times as long a minute later, so raw seconds
drift far more than any change worth measuring. Every timing is
therefore paired with a fixed calibration kernel measured at the same
moments, and reported in reference seconds:

    reference_s = measured_s * REFERENCE_KERNEL_S / kernel_s

that is, seconds on a host where the kernel takes `REFERENCE_KERNEL_S`.
The kernel does the same kind of interpreter work as the package's
polynomial arithmetic: big-int convolution, `Fraction` arithmetic and
short-lived allocations. The raw seconds are kept next to the scaled ones
in the run's detail file.
"""

from __future__ import annotations

import statistics
import sys
import threading
import time
from fractions import Fraction

REFERENCE_KERNEL_S = 0.0015
SAMPLE_INTERVAL_S = 0.05


def kernel():
    """About a millisecond and a half of interpreter-bound work: big-int
    convolution, rational arithmetic and short-lived allocations."""
    a = [(i * 2654435761) ** 3 for i in range(1, 31)]
    out = [0] * (2 * len(a) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(a):
            out[i + j] += ai * bj
    f = Fraction(0)
    for i in range(1, 80):
        f += Fraction(i % 7 - 3, i % 5 + 1) * Fraction(i, 3)
    rows = sorted(((i * 7919) % 1009, i, (i,)) for i in range(1500))
    return out, f, rows[::7]


def kernel_seconds() -> float:
    """Median kernel time now, after one warm-up run."""
    kernel()
    times = []
    for _ in range(15):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def to_reference(seconds: float, kernel_s: float) -> float:
    return seconds * REFERENCE_KERNEL_S / kernel_s


class Sampler:
    """Runs the kernel every `SAMPLE_INTERVAL_S` in a background thread
    while the main thread works. A kernel run is shorter than the
    interpreter's switch interval, so it runs without interruption once
    the thread holds the lock, and its time measures the host's speed.
    Use as a context manager; `reference(t0, t1)` converts the interval
    t0..t1 to reference seconds, less the time the sampler itself took."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, duration)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        clock = time.perf_counter
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            t0 = clock()
            kernel()
            self.samples.append((t0, clock() - t0))

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        return False

    def reference(self, t0: float, t1: float) -> float:
        inside = [d for start, d in self.samples if t0 <= start < t1]
        # A run that outlasts the switch interval (the host paused it) loses
        # the lock to the main thread and also measures the main thread's
        # turn, so it is left out of the mean.
        clean = [d for d in inside if d < sys.getswitchinterval()]
        if len(clean) * 2 > len(inside):
            kernel_s = statistics.mean(clean)
        else:
            kernel_s = statistics.median(inside) if inside else kernel_seconds()
        return to_reference(t1 - t0 - sum(inside), kernel_s)
