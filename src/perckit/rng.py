"""Deterministic seeds and the one Philox stream that every draw reads.

Per-point seeds come from a splitmix64 stream over the master seed: point
i uses finalize(master + (i+1) * GOLDEN), the reference splitmix64 output
function.  Trial t under a seed reads the raw 64-bit words of numpy's
counter-based Philox4x64-10 keyed by the seed from counter [0, 0, t, 0]
(the block that `Philox(key=seed).jumped(t)` reaches, built without the
jump), so any trial's draws are reproducible regardless of scheduling or
worker count.  Only this module holds a bit generator (`philox_words`) or
turns words into draws (`below`, `uniforms`, `first_words`, `PhiloxReader`).
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_UNIT = 2.0 ** -53

__all__ = ["splitmix64", "derive_seed", "philox_words", "below", "uniforms", "first_words",
           "PhiloxReader"]


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


def _philox_key(seed: int) -> int:
    key = operator.index(seed)
    if not 0 <= key < 1 << 128:
        raise ValueError(f"seed {key} must lie in [0, 2**128)")
    return key


@functools.lru_cache(maxsize=None)
def _bitgen():
    bitgen = np.random.Philox(key=0)  # numpy.random loads here, on the first draw, not on import
    return bitgen, bitgen.state  # counter 0, buffer empty


def philox_words(seed: int, trial: int, count: int) -> np.ndarray:
    """The first `count` words of `Philox(key=seed, counter=[0, 0, trial, 0])`, owned, as uint64.

    One private bit generator is reset to the key and counter on each call, as a new `Philox`
    costs more than a small trial's words (it gathers OS entropy for an unused `SeedSequence`).
    """
    key = _philox_key(seed)
    bitgen, state = _bitgen()
    state["state"]["key"][:] = key & _MASK, key >> 64
    state["state"]["counter"][2] = trial
    bitgen.state = state
    return bitgen.random_raw(count)


def _limit(p: float) -> int:
    """ceil(p 2^53) 2^11 for p in (0, 1), 2^64 at p >= 1, and 0 at p <= 0 or NaN."""
    return 0 if not p > 0.0 else 1 << 64 if p >= 1.0 else math.ceil(p * 2.0**53) << 11


def below(words: np.ndarray, p: float) -> np.ndarray:
    """`Generator.random(n) < p` on the words' stream: word < `_limit(p)`.

    With x = word >> 11, x 2^-53 < p iff x < ceil(p 2^53) (scaling by 2^53 is
    exact) iff word < ceil(p 2^53) 2^11; at p >= 1 that is 2^64, past uint64.
    """
    limit = _limit(p)
    return np.full(np.shape(words), True) if limit >> 64 else words < np.uint64(limit)


def uniforms(words: np.ndarray) -> np.ndarray:
    """`Generator.random(n)`, also `Generator.uniform(0.0, 1.0, n)`: (word >> 11) 2^-53."""
    return (words >> np.uint64(11)) * _UNIT


_LOW = (1 << 32) - 1

# Philox4x64 round multipliers and key increments (Salmon et al., SC 2011)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10


def _mulhilo(m: int, x: np.ndarray):
    """(high, low) 64-bit words of the 128-bit products m * x, on 32-bit halves."""
    m_lo, m_hi = np.uint64(m & _LOW), np.uint64(m >> 32)
    x_lo, x_hi = x & np.uint64(_LOW), x >> np.uint64(32)
    lh, hl = m_lo * x_hi, m_hi * x_lo
    mid = (m_lo * x_lo >> np.uint64(32)) + (lh & np.uint64(_LOW)) + (hl & np.uint64(_LOW))
    high = m_hi * x_hi + (lh >> np.uint64(32)) + (hl >> np.uint64(32)) + (mid >> np.uint64(32))
    return high, x * np.uint64(m)  # uint64 products wrap: the low word


def first_words(seed: int, trials: np.ndarray) -> np.ndarray:
    """`philox_words(seed, t, 1)[0]` for every trial index t in `trials`, as uint64.

    numpy's Philox increments its counter before each block of four
    words, so the first word of trial t is word 0 of the Philox4x64-10
    block at counter [1, 0, t, 0].  The ten rounds run on uint64 arrays
    over `trials`; numpy has no 64 x 64 -> 128-bit product, so `_mulhilo`
    builds the high word from 32-bit halves.
    """
    key = _philox_key(seed)
    k0, k1 = key & _MASK, key >> 64
    c2 = np.asarray(trials, dtype=np.uint64)
    c0, c1, c3 = np.ones_like(c2), np.zeros_like(c2), np.zeros_like(c2)
    for r in range(_PHILOX_ROUNDS):
        if r:
            k0, k1 = (k0 + _PHILOX_W[0]) & _MASK, (k1 + _PHILOX_W[1]) & _MASK
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(k0), lo1, hi0 ^ c3 ^ np.uint64(k1), lo0
    return c0


class PhiloxReader:
    """The draws of `Generator(Philox(key=seed))`, read off raw 64-bit words.

    `random()`, `below(p, m)` and `integers(n)` return, in the same order, what
    `Generator.random()`, `Generator.random(m) < p` and `Generator.integers(n)`
    would, from the first `bound` words of the stream, re-reading a longer
    prefix if a trial needs more (a rejection in `integers`).  `random()` and
    `below` follow `uniforms` and `below`; `integers(n)` is numpy's Lemire
    method on 32-bit halves, low half first, the high half kept for the next
    `integers` call (`random()` leaves it alone), and n = 1 draws nothing;
    n >= 2^32 takes another path in numpy and is refused.
    """

    __slots__ = ("_seed", "_words", "_pos", "_half")

    def __init__(self, seed: int, bound: int):
        self._seed = seed
        self._words = philox_words(seed, 0, bound).tolist()
        self._pos = 0
        self._half = None

    def _take(self, m: int) -> list:
        """The next m words."""
        start, self._pos = self._pos, self._pos + m
        if self._pos > len(self._words):
            self._words = philox_words(self._seed, 0, 2 * self._pos).tolist()
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
        """`below(words, p).tolist()` for the next m words."""
        limit = _limit(p)
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
