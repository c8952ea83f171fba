"""Machine-speed probe sampled while a timed pass runs.

On a shared host the same single-threaded work can take up to twice as
long from one minute to the next, because other tenants take CPU time from
this one.  While a pass runs, a SIGALRM handler on an interval timer times
a fixed pure-Python loop in the benchmark's own (only) thread.  Its
speed relative to ``REFERENCE_S`` tracks the host's slowdown.  Because
samples are uniform in wall time, a pass's wall time multiplied by the mean
relative speed estimates the time the same work takes on a host running at
the reference speed.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

PROBE_STEPS = 10_000
PROBE_INT = (1 << 700) - 12345
# Duration of one probe on an uncontended host: the fastest tenth of 300
# probes on a near-idle 2-core x86-64 host with CPython 3.11.7 took at
# most 2.1 ms.  Normalized times are in seconds of a host running at that
# speed.
REFERENCE_S = 0.0021
# Samples every 20 ms: a slowed host alternates between full and reduced
# speed many times a second, so the estimate needs many samples per pass.
INTERVAL_S = 0.02


def spin() -> float:
    """Duration of one probe: a fixed loop of big-integer shifts and xors."""
    t0 = perf_counter()
    x = 0
    for i in range(PROBE_STEPS):
        x ^= PROBE_INT >> (i & 63)
    return perf_counter() - t0


def burst(count: int = 10) -> list[float]:
    return [spin() for _ in range(count)]


class Probe:
    """Context manager that samples the probe every ``INTERVAL_S`` of wall time."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._previous = None

    def _handler(self, signum, frame) -> None:
        self.samples.append(spin())

    def __enter__(self) -> "Probe":
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def spent_s(self) -> float:
        """Wall time the probe itself took."""
        return sum(self.samples)


def relative_speed(samples: list[float]) -> float:
    """Mean speed of the probe relative to the reference host; 1.0 at the reference."""
    return statistics.fmean(REFERENCE_S / s for s in samples)
