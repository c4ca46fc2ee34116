"""Host-speed calibration: a fixed stdlib kernel timed during every command.

Other tenants of a shared host slow this process by up to a factor of 2,
in bursts of a second and in stretches that fill a whole run, so that even
the fastest of a command's runs within one run moves by 40% from one run
to the next.  The kernel below is timed before the first command, after
every command, and every SAMPLE_INTERVAL seconds within a command, from a
SIGALRM handler whose time is taken out of the command's.  A command's
calibrated time is its wall time times QUIET_KERNEL_S over the mean kernel
time during and around it: the time the command takes when the host runs
at its quiet speed.  A fixed quiet time, rather than the fastest kernel
time of the run, because whole seconds pass on a busy host in which the
kernel never once runs at full speed.

The kernel is Fraction arithmetic on growing integers.  Of the kernels
tried (Fraction, complex floats, small numpy matrix products, dict and
str churn) it tracked the slowdown of every workload best.  On a 2-vCPU
Xeon under load, a 60-second run of decay-float gave command wall times
whose logarithm rose 0.97 times as fast as that of the kernel times
sampled within them (0.85 with only the kernel runs around each command),
and the interquartile spread of each command's samples fell from 0.36 of
their median for wall time to 0.08 calibrated.  The kernel uses no
gamowkit code, so a change to gamowkit never moves it.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from time import perf_counter

REPEATS = 4
TERMS = 150
WEIGHT = Fraction(3, 7)
WARMUP = 20
# Fastest kernel time on a quiet 2-vCPU Xeon (Sapphire Rapids, Python
# 3.11): 2.60-2.74 ms in ten fresh processes of 400 kernel runs each.
QUIET_KERNEL_S = 2.65e-3
# about 5% of a command's time goes to the kernel
SAMPLE_INTERVAL = 0.05


def kernel_seconds() -> float:
    """Wall time of one run of the kernel, QUIET_KERNEL_S on a quiet host."""
    start = perf_counter()
    for _ in range(REPEATS):
        total = Fraction(0)
        for k in range(1, TERMS):
            total += Fraction(k, k * k + 1) * WEIGHT
    return perf_counter() - start


class Calibration:
    """Kernel times of one run, and the samples timed between them."""

    def __init__(self):
        self.kernels = [kernel_seconds() for _ in range(WARMUP)]

    def timed(self, fn, sample_within: bool = True):
        """Run fn; return (its result, its wall time without the kernel
        runs inside it, the mean kernel time during and around it).
        With sample_within false the kernel runs only after fn, for calls
        that wait on a child process."""
        inside = [self.kernels[-1]]
        paused = 0.0

        def sample(signum, frame):
            nonlocal paused
            start = perf_counter()
            inside.append(kernel_seconds())
            paused += perf_counter() - start

        previous = signal.signal(signal.SIGALRM, sample) if sample_within else None
        try:
            if sample_within:
                signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
            start = perf_counter()
            result = fn()
            wall = perf_counter() - start - paused
        finally:
            if sample_within:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        inside.append(kernel_seconds())
        self.kernels.extend(inside[1:])
        return result, wall, sum(inside) / len(inside)

    def slowdown(self) -> float:
        """Median kernel time over the quiet one: how loaded the host was."""
        ordered = sorted(self.kernels)
        return ordered[len(ordered) // 2] / QUIET_KERNEL_S
