"""Timing at the reference speed of the host.

The benchmark runs on a few cores of a shared host whose speed drifts: a
fixed piece of pure-Python work takes up to 1.8 times as long from one
stretch of seconds to the next, in CPU time as well as in wall time, so it
is the execution speed that changes, not the share of time the process
gets.  Medians over a run cannot remove a drift that lasts longer than the
run.

So every timed section is also timed against a fixed reference kernel that
does not touch ``drcflex``.  While a section runs, an interval timer
interrupts it every ``INTERVAL_S`` seconds and runs the kernel once, and the
kernel also runs ``EDGE_RUNS`` times as the section starts and as it ends.
The section's time without the kernel runs, times the kernel's nominal
duration over its mean duration in the section, is the section's time at
the reference speed: the speed at which one kernel run takes its nominal
duration.  A change to the package moves it; a change in the host's speed
during the section cancels out, to the extent that it slows the section and
the kernel alike.

The drift does not slow all code alike, so there are two kernels, one for
each kind of work the package does: ``interpreter`` (float math, a dict, a
list sort) for the design search, the simulation and the import, and
``array`` (small numpy operations shaped like the batched tour DP's) for
the calibration.

Signal handlers run between bytecodes, so during a long call into numpy the
kernel runs late, when the call returns; it then samples the speed less
often, not wrongly.  A section that starts a child process is timed inside
the child, because a kernel run in the parent would overlap the child's
work instead of pausing it, on a core whose speed may differ.
"""

from __future__ import annotations

import math
import signal
import time

INTERVAL_S = 0.025
EDGE_RUNS = 5


def interpreter_kernel() -> float:
    """Pure Python, so it can also time an import of numpy."""
    acc = 0.0
    table: dict[int, float] = {}
    items: list[float] = []
    for i in range(800):
        x = (i * 0.618034) % 1.0
        acc += math.sqrt(x) * 2.0 - x
        table[i & 63] = acc
        items.append(x)
    items.sort()
    return acc + items[-1] + table[0]


class ArrayKernel:
    """Twelve DP steps over a batch of 250 instances with 11 free nodes."""

    def __init__(self) -> None:
        import numpy as np  # here, so the interpreter kernel needs no numpy

        self.table = np.linspace(0.0, 1.0, 250 * 16 * 11, dtype=np.float32).reshape(250, 16, 11)
        self.step = np.linspace(1.0, 0.0, 250 * 11 * 4, dtype=np.float32).reshape(250, 11, 4)
        self.out = np.empty_like(self.table)
        self()  # once before timing, so no timed run pays for a cold start

    def __call__(self) -> float:
        table, step, out = self.table, self.step, self.out
        for mask in range(1, 4):
            for j in range(4):
                cand = table[:, mask ^ (1 << j)] + step[:, :, j]
                out[:, mask, j] = cand.min(axis=1)
        return float(out[0, 1, 0])


# Each kernel's duration at the reference speed.  They are fixed constants,
# so that timings from different runs and commits stay comparable; each is
# of the order of its kernel's duration on the host the baselines were taken
# on, where that duration varies by a factor of two with the host's speed.
NOMINAL_S = {"interpreter": 0.0004, "array": 0.0006}


class Section:
    """One timed section: its wall time and the kernel runs inside it."""

    def __init__(self, kernel: str) -> None:
        self.nominal_s = NOMINAL_S[kernel]
        self.kernel = interpreter_kernel if kernel == "interpreter" else ArrayKernel()
        self.wall_s = 0.0
        self.kernel_s = 0.0
        self.kernel_runs = 0

    def run_kernel(self) -> None:
        t0 = time.perf_counter()
        self.kernel()
        self.kernel_s += time.perf_counter() - t0
        self.kernel_runs += 1

    @property
    def speed(self) -> float:
        """The host's speed in the section, relative to the reference speed."""
        return self.nominal_s * self.kernel_runs / self.kernel_s

    @property
    def ref_s(self) -> float:
        """The section's time without the kernel runs, at the reference speed."""
        return (self.wall_s - self.kernel_s) * self.speed


class timed:
    """Context manager that times a section at the reference speed."""

    def __init__(self, kernel: str = "interpreter") -> None:
        self.section = Section(kernel)
        self._busy = False
        self._t0 = 0.0

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:
            self._busy = True
            try:
                self.section.run_kernel()
            finally:
                self._busy = False

    def __enter__(self) -> Section:
        self._t0 = time.perf_counter()
        for _ in range(EDGE_RUNS):
            self.section.run_kernel()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self.section

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(EDGE_RUNS):
            self.section.run_kernel()
        self.section.wall_s = time.perf_counter() - self._t0
