"""Host speed, sampled while the program runs, and a clock that runs at reference speed.

On a shared host the same code runs up to twice as fast at one moment as a
few seconds later.  A :class:`Speedometer` interrupts the program every
``PERIOD_S`` seconds of wall-clock time (``SIGALRM``) and times ``sample()``,
a fixed mix of dict updates, hashing and sorting that never changes with the
program.  Its *slowness* is that time over ``REFERENCE_S``.  The program's
time between two samples is divided by their mean slowness, and the samples'
own time is left out.  :meth:`Speedometer.clock` maps ``time.perf_counter``
readings onto that reference-speed clock, so the difference of two mapped
readings is the time the program spent between them, at reference speed.
"""

from __future__ import annotations

import hashlib
import signal
import time
from bisect import bisect_right
from typing import List

#: seconds of wall-clock time between samples
PERIOD_S = 0.2
#: ``sample()`` takes this long on a host at reference speed
REFERENCE_S = 0.005


def sample() -> float:
    """Seconds taken by a fixed mix of dict updates, sha256 hashing and sorting."""
    started = time.perf_counter()
    table = {}
    for i in range(3000):
        key = (i * 2654435761) & 0xFFFFF
        table[key] = table.get(key, 0) + 1
        hashlib.sha256(b"%d" % key).digest()
    sorted(table)
    return time.perf_counter() - started


class Speedometer:
    """Samples host speed from ``__enter__`` to ``__exit__``; the main thread only."""

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.ends: List[float] = []
        #: reference-speed clock at each sample's end
        self.marks: List[float] = []
        self.slowness: List[float] = []
        self._sampling = False

    def _sample(self, *_) -> None:
        if self._sampling:
            return  # a slow sample outlasted the period
        self._sampling = True
        started = time.perf_counter()
        slowness = sample() / REFERENCE_S
        ended = time.perf_counter()
        self._sampling = False
        if self.slowness:
            gap = started - self.ends[-1]
            self.marks.append(self.marks[-1] + 2.0 * gap / (self.slowness[-1] + slowness))
        else:
            self.marks.append(0.0)
        self.starts.append(started)
        self.ends.append(ended)
        self.slowness.append(slowness)

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *_) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def clock(self, t: float) -> float:
        """Reference-speed clock at ``perf_counter`` reading ``t``, from the first sample's end.

        It stands still while a sample runs and outside the samples' span.
        """
        i = bisect_right(self.ends, t) - 1
        if i < 0:
            return 0.0
        if i + 1 == len(self.ends):
            return self.marks[i]
        gap_end = min(t, self.starts[i + 1])
        return self.marks[i] + 2.0 * (gap_end - self.ends[i]) / (self.slowness[i] + self.slowness[i + 1])

    def mean_slowness(self) -> float:
        """The host's slowness over the whole run: wall-clock time over reference time, samples left out."""
        wall = self.starts[-1] - self.ends[0] - sum(e - s for s, e in zip(self.starts[1:-1], self.ends[1:-1]))
        return wall / self.marks[-1] if self.marks[-1] else 1.0
