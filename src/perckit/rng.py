"""Deterministic seed derivation for reproducible experiments.

Per-point seeds come from a splitmix64 stream over the master seed: point
i uses finalize(master + (i+1) * GOLDEN), the reference splitmix64 output
function.  Per-trial randomness then uses numpy's counter-based Philox
keyed by the point seed, trial t starting at counter [0, 0, t, 0] (the
block that `Philox(key=point_seed).jumped(t)` reaches, built without the
jump), so any trial's draws are reproducible regardless of scheduling or
worker count.  A growth trial reads its `Philox(key=seed)` stream as raw
words instead (`PhiloxReader`), drawing the values a `Generator` would.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

__all__ = ["splitmix64", "derive_seed", "trial_generator", "PhiloxReader"]


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

    The result is shared, not owned, also by a `PhiloxReader`: the next call
    of either, from anywhere, resets it, and a generator or reader from an
    earlier call silently restarts on the new stream.  Draw all of one trial
    before asking for the next, with no call in between that may reach
    either.  A stream that must outlive the next call needs its own `Philox`.
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


_LOW = (1 << 32) - 1
_UNIT = 2.0 ** -53


class PhiloxReader:
    """The draws of `Generator(Philox(key=seed))`, read off raw 64-bit words.

    `random()` and `integers(n)` return what the `Generator` methods of the
    same name return, in the same order, from one `random_raw(bound)`
    block; a trial that needs more (a rejection in `integers`) tops the
    block up from the same stream (shared: see `trial_generator`).  As in numpy:
    - `random()` is the top 53 bits of the next word, times 2^-53;
    - `integers(n)` is Lemire's method on 32-bit halves, low half first,
      the high half kept for the next `integers` call (`random()` leaves it
      alone), and n = 1 draws nothing.  n >= 2^32 takes another path in
      numpy and is refused.
    """

    __slots__ = ("_bitgen", "_words", "_pos", "_half")

    def __init__(self, seed: int, bound: int):
        self._bitgen = trial_generator(seed, 0).bit_generator
        self._words = self._bitgen.random_raw(bound).tolist()
        self._pos = 0
        self._half = None

    def _take(self, m: int) -> list:
        """The next m words."""
        start, self._pos = self._pos, self._pos + m
        if self._pos > len(self._words):
            self._words += self._bitgen.random_raw(self._pos - len(self._words)).tolist()
        return self._words[start:self._pos]

    def _word(self) -> int:
        pos = self._pos
        if pos == len(self._words):
            return self._take(1)[0]
        self._pos = pos + 1
        return self._words[pos]

    def random(self) -> float:
        return (self._word() >> 11) * _UNIT

    def below(self, p: float, m: int) -> list:
        """`(Generator.random(m) < p).tolist()` for a finite p.

        With x = word >> 11, x 2^-53 < p iff x < ceil(p 2^53), since scaling
        by 2^53 is exact, iff word < ceil(p 2^53) 2^11: one int compare.
        """
        limit = math.ceil(p * 2.0**53) << 11
        return [word < limit for word in self._take(m)]

    def _uint32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        word = self._word()
        self._half = word >> 32
        return word & _LOW

    def integers(self, n: int) -> int:
        if not 0 < n <= _LOW:
            raise ValueError(f"integers(n) reads n in [1, 2**32), got {n}")
        if n == 1:
            return 0
        m = self._uint32() * n
        if m & _LOW < n:
            threshold = (1 << 32) % n  # (2^32 - n) mod n: the biased low products
            while m & _LOW < threshold:
                m = self._uint32() * n
        return m >> 32
