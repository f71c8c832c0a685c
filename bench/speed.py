"""The machine's speed of the moment, sampled while the program runs.

On a shared host the same code runs 20-60% slower while other tenants
load the machine, in phases that change within a second and last longer
than a benchmark run, and CPU time slows with wall time.  A timed stretch
of an untraced pass therefore runs under a `Sampler`: every PERIOD_S of
wall time a timer signal runs a fixed reference loop (interpreted float
arithmetic, the kind of work most of the program does) in the main
thread and records how long it took.  The benchmark reports

    time at reference speed = (wall time - sampler time) * REFERENCE_S
                              / median reference time,

the median taken over the samples of the stretch and a few taken just
before it.  That is the time the stretch would take on this machine while
the loop takes REFERENCE_S.  The time the handler spends is taken out of
the stretch; the handler runs between bytecodes, so long numpy calls
delay it and the stretch's interpreted parts get most of the samples.

This module imports nothing but the standard library, so a pass can start
the sampler before it imports the program and sample the imports too.
"""

from __future__ import annotations

import signal
import statistics
import time

# Median reference loop time over benchmark runs on a shared 2-vCPU Intel
# Xeon host; it only scales the reported values, and every run on one
# machine shares it.
REFERENCE_S = 0.0008
PERIOD_S = 0.025
PRE_SAMPLES = 5


def reference_s(clock=time.perf_counter, span=range(10_000)) -> float:
    """One timing of the reference loop, in seconds."""
    start = clock()
    x = 0.3
    for _ in span:
        x = 3.9 * x * (1.0 - x)
    return clock() - start


class Sampler:
    """Reference timings taken by a timer signal, and the time they cost."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent_s = 0.0

    def _on_alarm(self, signum, frame, clock=time.perf_counter) -> None:
        start = clock()
        self.samples.append(reference_s())
        self.spent_s += clock() - start

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def take(self) -> tuple[list[float], float]:
        """Samples and sampler time since the last take, then clears both."""
        out = (self.samples, self.spent_s)
        self.samples, self.spent_s = [], 0.0
        return out


def pre_samples(n: int = PRE_SAMPLES) -> list[float]:
    return [reference_s() for _ in range(n)]


def at_reference_speed(seconds: float, samples: list[float]) -> float:
    """`seconds` measured at the speeds `samples` show, scaled to REFERENCE_S."""
    return seconds * REFERENCE_S / statistics.median(samples)
