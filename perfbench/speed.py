"""Correct pass times for the speed the shared machine gives this process.

On a shared core the same pure-Python loop runs anywhere from 1x to 1.6x its
fastest time, in spells that last from a fraction of a second to more than
a run.  Raw pass times then spread by 15 to 35% between runs of the same
code, wider than any useful bound.  ``SpeedProbe`` times a fixed loop every
``INTERVAL`` seconds from a SIGALRM handler, and once right before each
operation, so it samples the machine's speed during each operation, not
only between them.  An operation's time divided by the mean loop time
during it is its cost in loops; pass medians of that moved by 3 to 5%
between runs where raw ones moved by 15 to 35%, because contention slows
lahbell and the loop alike.  Times are reported as that cost times
``REF_LOOP_S``: comparable between runs and commits, and below the raw
seconds, since the machine rarely runs the loop at its fastest.  The loop
times the same inside lahbell calls as between them, so a change to
lahbell does not move the probe.
The probe's own time is excluded from every operation it interrupts.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL = 0.01
LOOP_ITERATIONS = 3000
# Fastest standalone time of the loop below on the machine the baseline was
# recorded on (2.1 GHz x86-64 virtual machine, CPython 3.11.7).
REF_LOOP_S = 0.00031


def _loop() -> None:
    table: dict[int, int] = {}
    for i in range(LOOP_ITERATIONS):
        table[i % 97] = table.get(i % 97, 0) + i * i


class SpeedProbe:
    """Timer-driven samples of the loop's time, and the time they took."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        # Called with the seconds each sample took, so a tracer can keep
        # them out of the span that the sample interrupted.
        self.exclude = None
        self._busy = False
        self._previous = None

    def sample(self, *_signal_args) -> None:
        if self._busy:  # the timer fired inside a direct call
            return
        self._busy = True
        start = time.perf_counter()
        _loop()
        self.samples.append(time.perf_counter() - start)
        spent = time.perf_counter() - start
        self.spent += spent
        if self.exclude is not None:
            self.exclude(spent)
        self._busy = False

    def factor(self, since: int) -> float:
        """REF_LOOP_S over the mean loop time of the samples from ``since`` on."""
        return REF_LOOP_S / statistics.fmean(self.samples[since:])

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
