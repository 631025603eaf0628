"""Host-speed calibration: turns wall times into seconds at a fixed speed.

The benchmark runs on shared virtual machines whose speed drifts by up to
1.7x over tens of seconds, because other tenants load the same cores, and
flips between a fast and a slow state every 10 to 400 ms. A run's wall times
therefore say as much about the host as about the package. Each timed
interval is multiplied by a reference's nominal time over its measured time
around the interval, which gives the interval's length at the speed the
host had when the nominal time was recorded:

- ``Clock``, for work in the benchmark's own process, times a fixed kernel
  of the kinds of work the package does there (an interpreted loop, numpy
  arithmetic on small and on few-hundred-kilobyte arrays, and a scipy
  quadrature with a Python integrand) twenty times a second throughout the
  run;
- ``SubprocessClock``, for work in fresh interpreters (set-up and the CLI
  runs), times a fresh interpreter importing numpy between them.

Both references are benchmark code and the environment only: nothing the
package does or configures changes their cost.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import subprocess
import sys
import time

import numpy as np
from scipy import integrate

# median kernel time on a 2-vCPU x86-64 VM, CPython 3.11, numpy 2.4, scipy 1.17
NOMINAL_S = 1.4e-3
MIN_SAMPLES = 10
# the reference subprocess and its median wall time on the same VM
REFERENCE_ARGV = ("-c", "import numpy")
REFERENCE_NOMINAL_S = 0.25
_X = np.linspace(0.0, 4.0, 64)
_N = np.arange(1.0, 40_001.0)


def kernel() -> float:
    s = 0.0
    for i in range(2000):
        s += (i % 7) * 0.5
    for i in range(40):
        s += float(np.sum(np.exp(-_X * (1.0 + 0.01 * i)) / (1.0 + _X * _X)))
    s += integrate.quad(lambda t: t * t / (1.0 + t**4), 0.0, 40.0, limit=200, epsabs=1e-12)[0]
    nu = 0.07 * _N
    g = 5.0 * 100.0 / (100.0 + nu)
    den = nu**2 + 1.0 + nu * g
    s += float(np.sum(1.0 / den)) + float(np.sum((1.0 + nu * g) / den))
    return s


class Clock:
    """Samples host speed on a timer for the whole run.

    The host switches between a fast and a slow state every 10 to 400 ms, so
    timings taken only between ops (some of which last seconds) miss most of
    what the ops ran through. While the clock is entered, ``SIGALRM`` fires
    every ``period_s`` and its handler times one run of the kernel; Python
    runs the handler in the main thread between bytecodes, so it lands inside
    ops too (a C call that holds the interpreter, such as a LAPACK solve,
    delays it until the call returns). ``stolen`` is the time spent in the
    handler, which timed intervals subtract.
    """

    def __init__(self, period_s: float = 0.05):
        self.period_s = period_s
        self.times: list[float] = []
        self.costs: list[float] = []
        self.stolen = 0.0
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.times.append((t0 + t1) / 2)
        self.costs.append(t1 - t0)
        self.stolen += time.perf_counter() - t0

    def __enter__(self):
        kernel()  # first-call set-up of numpy and scipy is not speed
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def factor(self, t0: float | None = None, t1: float | None = None, least: int = MIN_SAMPLES) -> float:
        """Nominal seconds per wall second over [t0, t1] (the whole run by
        default): from the samples taken in the interval, or, when fewer
        than ``least`` were, from the ``least`` samples nearest its middle."""
        if t0 is None:
            lo, hi = 0, len(self.times)
        else:
            lo, hi = bisect.bisect_left(self.times, t0), bisect.bisect_right(self.times, t1)
            mid = (t0 + t1) / 2
            while hi - lo < min(least, len(self.times)):
                if hi == len(self.times) or (lo > 0 and mid - self.times[lo - 1] < self.times[hi] - mid):
                    lo -= 1
                else:
                    hi += 1
        return NOMINAL_S * (hi - lo) / sum(self.costs[lo:hi])

    def scale(self, t0: float, seconds: float) -> float:
        """A wall interval of ``seconds`` from ``t0``, at nominal speed."""
        return seconds * self.factor(t0, t0 + seconds)


class SubprocessClock:
    """Host speed for work done in subprocesses.

    Interpreter start, imports and the CLI's subprocess runs slow less than
    the in-process kernel does, and a sampler in a process that waits on a
    child does not see the child's speed. So subprocess work is scaled by a
    reference subprocess of the same kind, a fresh interpreter importing
    numpy, timed between the measured subprocesses (``tick``).
    """

    def __init__(self):
        self.samples: list[float] = []

    def tick(self) -> None:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, *REFERENCE_ARGV], check=True, timeout=120)
        self.samples.append(time.perf_counter() - t0)

    def factor(self) -> float:
        """Nominal seconds per wall second, from the samples so far."""
        return REFERENCE_NOMINAL_S / statistics.fmean(self.samples)
