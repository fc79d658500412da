"""Machine-speed reference for the zmclab benchmark.

A shared host changes the speed of each of its CPUs for seconds at a time:
a fixed kernel runs up to 1.7 times as long on one CPU as on the other, and
a run of the same operation half an hour later can take 1.7 times as long.
No averaging inside one run removes a change that lasts longer than the
run.  So the benchmark measures the speed of the CPU while it times an
operation, and reports each timing in *reference seconds*:

    reported = (measured - sampling) * mean(REF_S / kernel)

A short reference kernel runs right before and right after the operation,
and every ``SAMPLE_EVERY_S`` during it, from a SIGALRM handler on the
operation's own thread, so on the CPU it is running on; ``kernel`` are
those runs' times, ``sampling`` the time the handler took, and ``REF_S``
the kernel's typical time on the machine the benchmark was written on
(Intel Xeon, 2 vCPUs, Python 3.11, numpy 2.4).  Because the samples are
spread evenly over the operation's wall time, the mean of REF_S / kernel
is its mean relative speed.  A change to zmclab moves a reported time as
much as it moves the measured one, because the kernel uses only Python
and numpy and never calls the program; a change of the host's speed moves
the operation and the kernel alike, and cancels.

The kernel mixes what zmclab spends its time on: interpreted Python
arithmetic and calls, and numpy ufuncs on small arrays.  Memory-bound
kernels tracked the program worse and are left out.

Set-up times are scaled the same way by another reference, a cold
interpreter that imports zmclab's dependencies (``time_cold_starts``).
"""

from __future__ import annotations

import gc
import math
import os
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

#: typical reference-kernel time, seconds
REF_S = 0.001
#: period of the speed samples taken while an operation runs
SAMPLE_EVERY_S = 0.05
#: what the reference for cold starts runs, and its typical time, seconds
COLD_REF_CODE = "import numpy, scipy.sparse"
COLD_REF_S = 0.35


def _kernel() -> None:
    s = 0.0
    seen = {}
    for i in range(2400):
        s += math.sin(i * 0.001) * (i % 7)
        seen[i & 255] = s
    a = np.linspace(0.0, 1.0, 8)
    for _ in range(240):
        a = np.sqrt(a * a + 1.0) - 0.5 * a


def reference() -> float:
    """Wall time of one run of the reference kernel.  The cyclic garbage
    collector is off meanwhile, so that the kernel never pays for garbage
    the timed calls left behind."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class SpeedClock:
    """Times calls in reference seconds (see the module docstring)."""

    def __init__(self):
        for _ in range(20):  # warm the kernel's code paths
            reference()
        self.kernels: list = []
        self.sampling = 0.0

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.kernels.append(reference())
        self.sampling += time.perf_counter() - t0

    def time(self, fn):
        """``(result, error, measured_s, scaled_s)`` of one call of fn;
        measured_s excludes the sampling, scaled_s is in reference
        seconds."""
        self.kernels = [reference()]
        self.sampling = 0.0
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        t0 = time.perf_counter()
        try:
            out = (fn(), None)
        except Exception as exc:  # the caller records it as a failure
            out = (None, exc)
        finally:
            dt = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        self.kernels.append(reference())
        measured = dt - self.sampling
        return out[0], out[1], measured, measured * self.speed()

    def speed(self) -> float:
        """Mean speed relative to the reference over the last call."""
        return statistics.fmean(REF_S / k for k in self.kernels)


def cold_reference() -> float:
    """Wall time of a fresh interpreter that imports zmclab's dependencies
    and exits."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", COLD_REF_CODE], check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def time_cold_starts(fn, n: int) -> tuple:
    """Measured times and times in reference seconds of n calls of fn, a
    call that starts a child interpreter and returns its own measured time.

    Start-up work (reading files, loading extension modules, filling pages)
    slows less than the reference kernel when a CPU is slow, so each call
    is scaled by ``cold_reference`` runs right before and after it instead:
    reported = measured * COLD_REF_S / mean(cold reference).  This process
    and so every child stays on one CPU meanwhile, so that the program and
    its reference run on the same one.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    measured, scaled = [], []
    try:
        last = cold_reference()
        for _ in range(n):
            dt = fn()
            ref = cold_reference()
            measured.append(dt)
            scaled.append(dt * COLD_REF_S / (0.5 * (last + ref)))
            last = ref
    finally:
        os.sched_setaffinity(0, allowed)
    return measured, scaled
