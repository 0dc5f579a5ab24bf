"""A clock that runs at a fixed reference speed of the host.

The benchmark runs on a few cores of a shared host whose speed for
single-threaded Python swings by up to 2x over seconds to minutes, as
other work comes and goes.  Raw seconds of the same pass then spread by
20% or more between runs, and a long job's speed changes while it runs.
To report times that follow the program and not the host, :class:`RefClock`
samples the host's speed all through a run: a wall-clock timer interrupts
the process every :data:`INTERVAL_S` seconds and times one
:func:`reference_unit` in the signal handler.  Each stretch between two
samples is credited at the speed the last samples measured, so the clock
reads the seconds the same work takes on a host that runs one reference
unit in :data:`REF_UNIT_S` seconds.  The samples' own time is not
credited.

The reference computation uses only the standard library (``Fraction``
arithmetic, integer and dict operations, like equiloc's own inner loops),
so a change to equiloc cannot change it.  Wall and CPU time are scaled
separately, each by the reference unit's own wall or CPU time.
"""

from __future__ import annotations

import signal
from collections import deque
from fractions import Fraction
from statistics import median
from time import perf_counter, process_time

#: Seconds one reference unit takes at the reference speed: about what it
#: took on a 2-vCPU Xeon VM with CPython 3.11.7 while the host was quiet.
REF_UNIT_S = 0.002
#: Wall seconds between two samples of the host's speed.
INTERVAL_S = 0.05
#: The speed credited is the median of this many latest samples, so that
#: one sample the process was descheduled in does not count alone.
WINDOW = 3


def reference_unit() -> int:
    """A fixed amount of interpreter work that does not touch equiloc."""
    acc: dict = {}
    x = Fraction(1)
    for i in range(1, 400):
        x = x * Fraction(i % 7 + 1, i % 5 + 2) + Fraction(1, i)
        acc[i % 37] = acc.get(i % 37, 0) + x.numerator % 1000003
    return len(acc)


def unit_seconds(count: int) -> float:
    """Median wall seconds of one reference unit over ``count`` units."""
    times = []
    for _ in range(count):
        start = perf_counter()
        reference_unit()
        times.append(perf_counter() - start)
    return median(times)


class RefClock:
    """Wall and CPU seconds at the reference speed, while started.

    Only one clock may run in a process at a time: it owns ``SIGALRM``."""

    def __init__(self):
        self._walls: deque = deque(maxlen=WINDOW)
        self._cpus: deque = deque(maxlen=WINDOW)
        self.samples = 0
        self._wall_ref = self._cpu_ref = 0.0
        self._sample()  # the first speed and the origin of the clock

    def _sample(self, *_):
        wall0, cpu0 = perf_counter(), process_time()
        if self.samples:  # credit the stretch since the last sample
            self._wall_ref += (wall0 - self._wall) * self._wall_speed
            self._cpu_ref += (cpu0 - self._cpu) * self._cpu_speed
        reference_unit()
        self._wall, self._cpu = perf_counter(), process_time()
        self._walls.append(self._wall - wall0)
        self._cpus.append(self._cpu - cpu0)
        self._wall_speed = REF_UNIT_S / median(self._walls)
        self._cpu_speed = REF_UNIT_S / median(self._cpus)
        self.samples += 1

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def now(self) -> tuple[float, float]:
        """Wall and CPU seconds at the reference speed since the clock was
        made, with the time of its own samples left out."""
        held = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:  # no sample may run between reading the clocks and the state
            wall, cpu = perf_counter(), process_time()
            return (self._wall_ref + (wall - self._wall) * self._wall_speed,
                    self._cpu_ref + (cpu - self._cpu) * self._cpu_speed)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, held)
