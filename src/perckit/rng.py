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
    """An independent counter-based stream for one trial of one point."""
    return np.random.Generator(np.random.Philox(key=point_seed, counter=[0, 0, trial, 0]))
