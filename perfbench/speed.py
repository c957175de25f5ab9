"""Machine-speed sampling, so that timings on a shared host are steady.

On a host shared with other tenants a core's speed changes within
seconds: measured on a 2-core VM, the same pure-Python loop alternated
between two speeds about 1.7x apart, and the share of slow time drifted
from ~30% to ~70% over minutes. Raw pass times of identical work then
differ by 20-30% between runs.

``SpeedMeter`` samples the machine's speed every ``INTERVAL_S`` seconds
from a ``SIGALRM`` handler in the benchmark's own (single) thread: it
times a fixed calibration kernel that does not touch labelnoise,
``KERNEL_REPEATS`` times with the cyclic garbage collector off, and keeps
the fastest, so that neither a collection over the workload's heap nor a
single preemption inflates a sample. The kernel's time is taken out of the workload clock (``now``), and
``normalised(start, end)`` scales each stretch of workload time by
``REFERENCE_S / kernel seconds`` measured around it. A normalised time is
thus the time the work would take with the machine at the reference
speed; the raw times are reported beside it.
"""

from __future__ import annotations

import bisect
import gc
import json
import signal
import time

import numpy as np

perf_counter = time.perf_counter

INTERVAL_S = 0.05
KERNEL_REPEATS = 2
# The kernel's time with the machine at full speed on the reference host
# (a 2-core Xeon VM); only the ratio of two runs' normalised times matters.
REFERENCE_S = 0.001

_A = np.linspace(0.0, 1.0, 512).reshape(64, 8)
_W = np.linspace(-1.0, 1.0, 32).reshape(8, 4)
_ROWS = [[(16 * i + j) / 7.0 for j in range(16)] for i in range(40)]


def kernel() -> float:
    """A fixed mix of interpreter work, small numpy calls and a JSON round
    trip, the three kinds of work the workloads do; returns its seconds.

    Each part alone tracked the workload it resembles best when the host
    was busy (measured: op-time spread 37-42% raw, 10-15% normalised).
    """
    t0 = perf_counter()
    total = 0
    for i in range(4000):
        total += i & 7
    for _ in range(20):
        z = _A @ _W
        e = np.exp(z - z.max(axis=1, keepdims=True))
        (e / e.sum(axis=1, keepdims=True)).sum()
    json.loads(json.dumps(_ROWS))
    return perf_counter() - t0


class SpeedMeter:
    """Workload clock with the sampling time taken out, plus speed samples."""

    def __init__(self):
        self._started = perf_counter()
        self._paused = 0.0
        self._sampling = False
        self._times: list[float] = []    # workload-clock time of each sample
        self._factors: list[float] = []  # REFERENCE_S / kernel seconds

    def now(self) -> float:
        # A sample may run between any two bytecodes: retry until no sample
        # ran between reading the pause total and the counter.
        while True:
            paused = self._paused
            t = perf_counter()
            if paused == self._paused:
                return t - paused

    def sample(self, *_signal_args) -> None:
        if self._sampling:  # a signal arrived during a (stalled) sample
            return
        self._sampling = True
        t0 = perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            kernel_s = min(kernel() for _ in range(KERNEL_REPEATS))
        finally:
            if collecting:
                gc.enable()
        factor = REFERENCE_S / kernel_s
        self._times.append(t0 - self._paused)
        self._factors.append(factor)
        self._paused += perf_counter() - t0
        self._sampling = False

    def sampling_share(self) -> float:
        """Share of real time spent sampling since the meter started."""
        return self._paused / (perf_counter() - self._started)

    def __enter__(self):
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()
        return False

    def normalised(self, start: float, end: float) -> float:
        """Workload time in [start, end] scaled by the speed sampled around it.

        Between two samples the factor is their mean; before the first or
        after the last sample it is that sample's.
        """
        lo = bisect.bisect_right(self._times, start)
        hi = bisect.bisect_left(self._times, end)
        edges = [start, *self._times[lo:hi], end]
        return sum((b - a) * self._segment_factor(lo - 1 + k)
                   for k, (a, b) in enumerate(zip(edges, edges[1:])))

    def _segment_factor(self, i: int) -> float:
        """Factor for the workload time after sample ``i``."""
        factors = self._factors
        if i < 0:
            return factors[0]
        if i + 1 >= len(factors):
            return factors[-1]
        return 0.5 * (factors[i] + factors[i + 1])
