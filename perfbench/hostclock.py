"""Host-speed normalisation of the time an op takes.

The reference host is a virtual machine whose speed swings by up to a
factor of two, over anything from a second to minutes, with the load of
other machines on the same hardware.  Process CPU time swings with it, so
neither clock alone gives steady numbers.  While an op runs,
:class:`Normalised` interrupts it every ``TICK_S`` seconds with an interval
timer and times a fixed reference loop: small complex numpy operations on
a length-3 vector, the same kind of work as cnlight's right-hand side.
The op's own time is its wall time minus those interruptions.  Its
host-normalised time scales that by ``REFERENCE_S`` over the mean
reference-loop time during the op: the time the op would take on the host
at the speed at which the loop takes ``REFERENCE_S``.

The reference loop is benchmark code and never changes with cnlight, so a
change that makes cnlight slower or faster moves the normalised time by
the same factor as the wall time.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

TICK_S = 0.1
REFERENCE_ITERATIONS = 300
# median reference-loop time inside ops on the reference host (2 vCPU Intel
# Xeon VM at 2.0 GHz, Python 3.11.7, numpy 2.4.6); a constant, so that
# normalised times read as seconds on that host at its median speed
REFERENCE_S = 1.6e-3

_X = np.ones(3, dtype=complex)


def reference_loop() -> float:
    """Seconds the fixed reference work takes now."""
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(REFERENCE_ITERATIONS):
        acc += float(np.abs(np.exp(-0.1j * _X) @ _X))
    return time.perf_counter() - t0


class Normalised:
    """Times the block it wraps, with reference-loop samples taken inside it.

    Not re-entrant: it owns SIGALRM while the block runs.
    """

    def __init__(self) -> None:
        self.samples: list = []
        self.paused = 0.0
        self.wall = 0.0
        self._start = 0.0
        self._previous = None

    def _tick(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        self.samples.append(reference_loop())
        self.paused += time.perf_counter() - t0

    def __enter__(self) -> "Normalised":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._start = time.perf_counter()
        self._tick()  # at least one sample, however short the block
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.wall = time.perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._previous)
        return False

    @property
    def seconds(self) -> float:
        """Wall time of the block without the reference-loop interruptions."""
        return self.wall - self.paused

    @property
    def speed(self) -> float:
        """Host speed during the block; above 1 is faster than nominal."""
        return REFERENCE_S / statistics.fmean(self.samples)

    @property
    def normalised_s(self) -> float:
        return self.seconds * self.speed
