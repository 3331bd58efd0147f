"""The host's speed during a round, sampled by a fixed piece of the benchmark's own work.

On a shared host the same round of the same jobs can take 0.7 to 1.5 times
its usual time, and the speed drifts over minutes, so two sets of runs of
the same code can disagree by more than a benchmark's bound.  A timer
signal interrupts the round every INTERVAL_S seconds; its handler runs
`probe_work`, a fixed mix of the kinds of work perckit does (interpreted
integer and float loops, small numpy boolean and float arrays, big-integer
products).  It imports nothing from perckit, so no change to the program
moves it.

`Sampler.scaled(wall_s)` returns a round's time without the handler's
time, scaled by REFERENCE_PROBE_S / (mean probe time in the round): the
round's time at the host speed where one probe takes REFERENCE_PROBE_S.
Set-up time is not scaled: a probe run during or right after set-up
(imports, page faults, first calls) did not follow its time.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.1
# Median probe time on the 2-core host the reference figures in README.md
# come from; it only sets the scale of the scaled times.
REFERENCE_PROBE_S = 0.005

_FIELD = np.random.default_rng(0).random((64, 64))
_GRID = _FIELD[:24, :24] < 0.5
_MODULUS = 2**521 - 1


def probe_work() -> int:
    """A fixed amount of work; returns a value so that none of it is skipped."""
    total = 0
    for i in range(16000):
        total += (i * i) % 7
    x = 0.5
    for _ in range(8000):
        x = x * 0.999 + 0.001
    big = 3**300
    for _ in range(240):
        big = (big * big) % _MODULUS
    grid = _GRID
    for _ in range(240):
        nxt = grid.copy()
        nxt[1:] |= grid[:-1]
        nxt[:, 1:] &= grid[:, :-1]
        grid = nxt
    field = _FIELD
    hits = 0
    for _ in range(40):
        below = field < 0.5
        hits += int(np.logical_or(below[1:], below[:-1]).sum())
        field = np.roll(field, 1, axis=0)
    return total + int(x * 1000) + big % 97 + int(grid.sum()) + hits


class Sampler:
    """Probe samples from a SIGALRM timer while a round runs (main thread only)."""

    def __init__(self):
        self.samples = []
        self.spent_s = 0.0
        self._previous = None

    def _handler(self, signum, frame):
        start = time.perf_counter()
        probe_work()
        end = time.perf_counter()
        self.samples.append(end - start)
        self.spent_s += time.perf_counter() - start

    def start(self):
        self.samples, self.spent_s = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, wall_s: float) -> float:
        """The round's wall time less the probes', at the reference speed."""
        work_s = wall_s - self.spent_s
        if not self.samples:
            return work_s
        return work_s * REFERENCE_PROBE_S * len(self.samples) / sum(self.samples)
