"""Deterministic seed derivation for reproducible experiments.

Per-point seeds come from a splitmix64 stream over the master seed: point
i uses finalize(master + (i+1) * GOLDEN), the reference splitmix64 output
function.  Per-trial randomness then uses numpy's counter-based Philox
keyed by the point seed, trial t starting at counter [0, 0, t, 0] (the
block that `Philox(key=point_seed).jumped(t)` reaches, built without the
jump), so any trial's draws are reproducible regardless of scheduling or
worker count.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

__all__ = ["splitmix64", "derive_seed", "trial_generator"]


def splitmix64(state: int) -> int:
    z = state & _MASK
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


def derive_seed(master: int, index: int) -> int:
    """Seed for grid point `index` under `master`."""
    if index < 0:
        raise ValueError("index must be nonnegative")
    return splitmix64((master + (index + 1) * _GOLDEN) & _MASK)


def trial_generator(point_seed: int, trial: int) -> np.random.Generator:
    """An independent counter-based stream for one trial of one point.

    The stream of `Philox(key=point_seed, counter=[0, 0, trial, 0])`; trial
    0 is the stream of `Philox(key=point_seed)`.  A new `Philox` costs more
    than the draws of a small trial (it gathers OS entropy for a
    `SeedSequence` that a keyed Philox never uses), so one generator serves
    every call: its state is set to that key and counter, with an empty
    buffer.

    The result is shared, not owned: the next call, from anywhere, resets
    it, and a generator still held from an earlier call silently restarts
    on the new stream.  Draw all of one trial before asking for the next,
    with no call in between that may reach `trial_generator`.  A stream
    that must outlive the next call needs a `Philox` of its own.
    """
    key = operator.index(point_seed)
    if not 0 <= key < 1 << 128:
        raise ValueError(f"seed {key} must lie in [0, 2**128)")
    generator, state = _shared()
    state["state"]["key"][:] = key & _MASK, key >> 64
    state["state"]["counter"][2] = trial
    generator.bit_generator.state = state
    return generator


@functools.lru_cache(maxsize=None)
def _shared():
    generator = np.random.Generator(np.random.Philox(key=0))
    return generator, generator.bit_generator.state  # counter 0, buffer empty
