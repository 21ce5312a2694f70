"""Wall time scaled to a reference CPU speed, sampled during the timed block.

On a shared host the speed of one virtual CPU changes by tens of percent
within seconds, and neither CPU time nor a calibration run before and
after a pass follows it: raw wall times of one pass spread by 15-25%
from run to run.  ``SpeedSampler`` times a small fixed numpy kernel every
``INTERVAL_S`` seconds from a SIGALRM handler, so the samples interleave
with the timed block on the same CPU.  The block then takes

    ref_s = own_s * mean(REF_KERNEL_S / c_i)

reference seconds: ``own_s`` is its wall time minus the time spent in the
handler, ``c_i`` the kernel times sampled during it, and ``REF_KERNEL_S``
a fixed scale (about the kernel's time on the shared 2-core Xeon host the
benchmark was written on), so reference seconds read close to wall
seconds there.  The kernel is plain numpy on arrays of the thermal grid's
size, like the program's hot loops.

The handler runs in the main thread between bytecodes and touches no
program state, so the program's results do not change.  It costs about
1% of the block's time.

The scaling holds only while the program keeps one CPU busy.  A program
that runs threads or processes on more CPUs competes with the kernel for
them, so the kernel slows for reasons of the program's own making and
the reference figure would shrink beyond the real gain.  The sampler
therefore compares the process's CPU time over the block (children
included once they have been waited for) with its wall time: above
``CPU_PER_WALL_MAX`` the reference figure falls back to the block's own
wall seconds.  The kernel's arrays fit in L1, so a program that is
heavier on cache or memory bandwidth biases the figure too, but less;
the benchmark prints the wall times next to it for that reason.
"""

from __future__ import annotations

import resource
import signal
import time

import numpy as np

REF_KERNEL_S = 4e-4
INTERVAL_S = 0.04
CPU_PER_WALL_MAX = 1.05
_SHAPE = (64, 26)
_STEPS = 25


class SpeedSampler:
    """Context manager: samples the reference kernel while the block runs."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.random(_SHAPE)
        self._b = rng.random(_SHAPE)
        self.samples: list[float] = []
        self.cpu_per_wall = 0.0  # of the last block
        self._saved = None
        self._start = (0.0, 0.0)

    def kernel(self) -> float:
        a, b, acc = self._a, self._b, 0.0
        for _ in range(_STEPS):
            c = 0.5 * (a[1:, :] + a[:-1, :]) * (b[1:, :] - b[:-1, :])
            a = a + 1e-3 * np.exp(-c.sum() * 1e-6) * b
            acc += float(c[0, 0])
        return acc

    def _on_alarm(self, _signum, _frame):
        t0 = time.perf_counter()
        self.kernel()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self.samples = []
        self._start = (time.perf_counter(), _cpu_seconds())
        self._saved = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._saved)
        wall0, cpu0 = self._start
        wall = time.perf_counter() - wall0
        self.cpu_per_wall = (_cpu_seconds() - cpu0) / wall if wall > 0 else 0.0
        return False

    @property
    def valid(self) -> bool:
        """Whether the last block kept at most one CPU busy."""
        return self.cpu_per_wall <= CPU_PER_WALL_MAX

    def cost(self, wall_s: float) -> tuple[float, float]:
        """(own wall seconds, reference seconds) of a block that took wall_s.

        A block too short to catch a sample gets one taken now.  A block
        that kept more than one CPU busy (see ``valid``) gets its own wall
        seconds as reference seconds.
        """
        own = wall_s - sum(self.samples)
        if not self.valid:
            return own, own
        if not self.samples:
            self._on_alarm(None, None)
        c = np.asarray(self.samples)
        return own, own * float(np.mean(REF_KERNEL_S / c))


def _cpu_seconds() -> float:
    """CPU time of this process and of its children waited for so far."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        r = resource.getrusage(who)
        total += r.ru_utime + r.ru_stime
    return total
