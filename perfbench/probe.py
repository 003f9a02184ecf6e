"""A fixed reference computation that measures how fast this CPU is right now.

On a shared host the speed of one core drifts by up to 2x over seconds to
minutes.  Measured on a shared 2-vCPU Intel Xeon VM: the median time of one
thermo point moved between 13.8 and 25.7 ms across 9-second windows, while
its ratio to this probe stayed between 3.37 and 3.71.  The benchmark times
this probe next to the library's ops on the same core and scales each op's
time to a CPU where the probe takes REFERENCE_S.  The probe imports nothing
from bcsgap, so no change to the library changes it.  It imitates the
library's load: a Python loop over small vectorized numpy rules.
"""

import signal
import time

import numpy as np

REFERENCE_S = 0.005

_NODES = np.linspace(-0.99, 0.99, 15)
_WEIGHTS = np.full(15, 2.0 / 15)


def probe() -> float:
    """Wall time of the reference computation, in seconds."""
    start = time.perf_counter()
    acc = 0.0
    lo = np.array([0.0, 0.5])
    hi = np.array([0.5, 1.0])
    for i in range(300):
        x = (0.5 * (lo + hi))[:, None] + (0.5 * (hi - lo))[:, None] * _NODES[None, :]
        y = np.tanh(x * (1.0 + 1e-3 * i)) / (x + 1.0)
        acc += float((y @ _WEIGHTS).sum())
    elapsed = time.perf_counter() - start
    if not np.isfinite(acc):
        raise RuntimeError("probe arithmetic failed")
    return elapsed


class SpeedClock:
    """Runs the probe on a wall-clock timer while ops execute.

    The SIGALRM handler runs between bytecodes of whatever op is running,
    so long ops get samples from inside them.  `spent` accumulates the time
    spent probing, which callers subtract from the op's wall time.
    """

    def __init__(self, every_s):
        self.every_s = every_s
        self.samples = []
        self.spent = 0.0
        self._busy = False
        self._previous = None

    def sample(self):
        if self._busy:
            return
        self._busy = True
        try:
            start = time.perf_counter()
            self.samples.append(probe())
            self.spent += time.perf_counter() - start
        finally:
            self._busy = False

    def _tick(self, signum, frame):
        self.sample()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
