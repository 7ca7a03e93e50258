"""Measured times scaled to one nominal processor speed ("reference seconds").

On a small shared virtual machine the speed at which one Python process runs
fixed code is not steady: a short fixed loop takes 6.5 ms or 12 ms from one
moment to the next, and the share of slow moments changes over seconds and
over hours, so a 3 s pass of one workload took from 2.2 s to 3.8 s and the
medians of two sets of runs an hour apart differed by 26%.  Process time
moves with wall-clock time there, and the machine exposes no hardware
counters.

So while a measurement runs, a SIGALRM handler times one run of a fixed
pure-Python reference loop, which calls nothing of the library, every
PERIOD_S of wall-clock time.  An interval is then reported in reference
seconds: its length less the time its samples took, times NOMINAL_S over the
mean duration of its samples.  That is the time the interval would take on
a processor that runs the reference loop in NOMINAL_S.  A change to the
library moves reference seconds as it moves wall-clock time; the speed of
the processor mostly cancels.
"""

from __future__ import annotations

import itertools
import signal
import time

# The reference loop's typical time on a 2-core x86-64 virtual machine with
# Python 3.11, so that reference seconds read close to wall-clock seconds.
NOMINAL_S = 0.0006
PERIOD_S = 0.02
LOOP = 6000


def reference_loop() -> int:
    """Fixed interpreter work that allocates nothing (every integer stays in
    the interpreter's small-integer cache), so that its speed depends on the
    processor alone and not on the state of the library's heap."""
    acc = 0
    for _ in itertools.repeat(None, LOOP):
        acc = (acc * 3 + 1) & 63
        acc = (acc ^ 21) + (acc >> 2)
    return acc


class Sampler:
    """Times the reference loop every `period` seconds while installed."""

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.samples: list[tuple[float, float]] = []  # (start, duration)
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_loop()
        self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def inside(self, start: float, end: float) -> list[float]:
        return [d for t, d in self.samples if start <= t and t + d <= end]

    def scaled(self, start: float, end: float) -> float:
        """The interval from start to end (perf_counter seconds) in reference
        seconds, from the samples taken inside it."""
        return scale(end - start, self.inside(start, end))


def scale(seconds: float, durations: list[float]) -> float:
    """An interval of `seconds` that held samples of these durations, in
    reference seconds."""
    if not durations:
        raise ValueError(f"no speed sample in an interval of {seconds:.4f} s")
    total = sum(durations)
    return (seconds - total) * NOMINAL_S * len(durations) / total
