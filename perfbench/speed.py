"""CPU-speed samples taken inside a pass process, to report times at a fixed speed.

On a shared host the speed of a virtual CPU drifts by tens of percent over
seconds to minutes with the load of other tenants, and two virtual CPUs of
one machine drift apart, so the speed has to be sampled in the process being
timed. Every ``INTERVAL_S`` a timer signal times a fixed interpreter kernel
(dict lookups, float arithmetic and small numpy operations, as in latconv's
polynomial loops). A time measured in the process is reported as

    measured time * REF_KERNEL_S / mean kernel time over the same interval,

the time the work would take on a machine where the kernel takes
``REF_KERNEL_S``. The signal is handled between bytecodes, so no sample is
taken inside a long numpy or scipy call; the mean covers the rest of the run.
"""

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
REF_KERNEL_S = 5e-4

_TABLE = {i: float(i) for i in range(64)}
_ARRAY = np.arange(64.0)


def _kernel():
    acc = 0.0
    for i in range(2000):
        acc += _TABLE[i & 63] * 1.5
    for _ in range(40):
        acc += float((_ARRAY * 1.5 + 2.0).sum())
    return acc


def kernel_time():
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


class SpeedSampler:
    """Kernel times sampled on a timer signal while started."""

    def __init__(self):
        self.samples = []

    def _sample(self, signum, frame):
        self.samples.append(kernel_time())

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)

    def mark(self):
        return len(self.samples)

    def scale(self, since, until):
        """REF_KERNEL_S over the mean kernel time of samples [since, until)."""
        samples = self.samples[since:until] or [kernel_time() for _ in range(5)]
        return REF_KERNEL_S / statistics.fmean(samples)
