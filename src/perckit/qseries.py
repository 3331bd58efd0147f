"""Exact truncated q-series arithmetic and partitions without k-sequences.

Everything here is integer-exact modulo q^(N+1), with Python ints as
coefficients.  The products and quotients behind the identities below are
built by sparse in-place kernels on one coefficient list: multiply or
divide by 1 +- q^e and by 1 - q^n + q^{2n} in O(N) each, and by an
infinite product (q^m;q^m)_inf in O(N^1.5) through Euler's pentagonal
series.  `IntSeries` keeps the dense schoolbook multiplication (which
truncates, never silently extends the order) and power-series inversion
for unit constant term; the tests use them as the oracle of the kernels.
`partition_no_ksequences` counts p_k(n) by a run-length DP on packed
integers that shares no code with the kernels, so that it can check them.

The headline identities:

  * G_k(q) = sum_n p_k(n) q^n, where p_k(n) counts partitions of n with no
    k consecutive integers among the parts, equals Andrews' double series

        (1/(q;q)_inf) sum_{r,s>=0} (-1)^s
            q^{binom(k+1,2)(s+r)^2 + (k+1) binom(r+1,2)}
            / ((q^k;q^k)_s (q^{k+1};q^{k+1})_r).

  * G_2(q) = ((-q^3;q^3)_inf / (q^2;q^2)_inf) * chi(q) with chi one of
    Ramanujan's third-order mock theta functions,
    chi(q) = 1 + sum_{n>=1} q^{n^2} / prod_{j=1}^{n} (1 - q^j + q^{2j}).

Pochhammer convention: (a;q)_n = prod_{j=0}^{n-1} (1 - a q^j), so
(q^k;q^k)_s = prod_{j=1}^{s} (1 - q^{kj}).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from operator import add, sub
from typing import List, Optional, Sequence

__all__ = [
    "IntSeries",
    "PartitionTable",
    "partition_count",
    "partition_no_ksequences",
    "pochhammer",
    "andrews_gk_series",
    "mock_theta_chi",
    "euler_product_inverse",
    "pak_bridge_residual",
]


@dataclass(frozen=True)
class IntSeries:
    """A power series in q truncated at order N, with exact int coefficients."""

    coeffs: tuple
    order: int

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("truncation order must be nonnegative")
        c = tuple(int(v) for v in self.coeffs)
        if len(c) < self.order + 1:
            c = c + (0,) * (self.order + 1 - len(c))
        elif len(c) > self.order + 1:
            c = c[: self.order + 1]
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def from_coeffs(cls, coeffs: Sequence[int], order: int) -> "IntSeries":
        return cls(coeffs=tuple(coeffs), order=order)

    @classmethod
    def one(cls, order: int) -> "IntSeries":
        return cls(coeffs=(1,), order=order)

    @classmethod
    def monomial(cls, exponent: int, order: int, coeff: int = 1) -> "IntSeries":
        c = [0] * (order + 1)
        if 0 <= exponent <= order:
            c[exponent] = coeff
        return cls(coeffs=tuple(c), order=order)

    def __getitem__(self, n: int) -> int:
        return self.coeffs[n]

    def _check_order(self, other: "IntSeries"):
        if self.order != other.order:
            raise ValueError("operands have different truncation orders")

    def __add__(self, other: "IntSeries") -> "IntSeries":
        self._check_order(other)
        return IntSeries(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)), self.order)

    def __sub__(self, other: "IntSeries") -> "IntSeries":
        self._check_order(other)
        return IntSeries(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)), self.order)

    def __neg__(self) -> "IntSeries":
        return IntSeries(tuple(-a for a in self.coeffs), self.order)

    def __mul__(self, other) -> "IntSeries":
        if isinstance(other, int):
            return IntSeries(tuple(a * other for a in self.coeffs), self.order)
        self._check_order(other)
        n = self.order
        out = [0] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs[: n + 1 - i]):
                if b:
                    out[i + j] += a * b
        return IntSeries(tuple(out), n)

    __rmul__ = __mul__

    def shift(self, e: int) -> "IntSeries":
        """Multiply by q^e (truncating)."""
        if e < 0:
            raise ValueError("shift exponent must be nonnegative")
        return IntSeries((0,) * e + self.coeffs[: self.order + 1 - e], self.order)

    def inverse(self) -> "IntSeries":
        """Multiplicative inverse modulo q^(N+1); requires constant term 1."""
        if self.coeffs[0] != 1:
            raise ValueError("series inversion requires constant term 1")
        n = self.order
        b = [0] * (n + 1)
        b[0] = 1
        for m in range(1, n + 1):
            acc = 0
            for j in range(1, m + 1):
                if self.coeffs[j]:
                    acc += self.coeffs[j] * b[m - j]
            b[m] = -acc
        return IntSeries(tuple(b), n)

    def evaluate(self, q: float) -> float:
        """Float evaluation of the truncated polynomial (Horner)."""
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * q + c
        return acc


@dataclass(frozen=True)
class PartitionTable:
    """p_k(0)..p_k(N); k = 0 encodes the unrestricted p(n)."""

    k: int
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(int(v) for v in self.values))
        if self.values[0] != 1:
            raise ValueError("p(0) must be 1")

    def __getitem__(self, n: int) -> int:
        return self.values[n]

    def __len__(self) -> int:
        return len(self.values)

    @property
    def order(self) -> int:
        return len(self.values) - 1

    def as_series(self) -> IntSeries:
        return IntSeries(self.values, self.order)


def partition_count(n_max: int) -> PartitionTable:
    """Unrestricted partition numbers p(0)..p(n_max), exact."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    p = [0] * (n_max + 1)
    p[0] = 1
    for part in range(1, n_max + 1):
        for n in range(part, n_max + 1):
            p[n] += p[n - part]
    return PartitionTable(k=0, values=tuple(p))


def partition_no_ksequences(k: int, n_max: int) -> PartitionTable:
    """p_k(0)..p_k(n_max): partitions with no k consecutive integers as parts.

    DP over part values v = 1..n_max.  Row f_r counts the partitions of n
    into values < v whose run of trailing consecutive used values has
    length r (r < k, since reaching k is forbidden).  Value v either goes
    unused, g_0 = sum_r f_r, or is used at least once after a run of r,
    g_{r+1} = q^v f_r / (1 - q^v) for r < k - 1.

    Each row is packed into one int (Kronecker substitution): the field in
    bits [nW, (n+1)W) holds coefficient n.  W is a multiple of 8 with
    2^W > p(n_max), from p(n) < e^{pi sqrt(2n/3)} (Apostol, Thm 14.5) plus
    2 bits of margin.  Every intermediate field counts a subset of the
    partitions of some n <= n_max, so it is nonnegative and at most
    p(n_max): no field ever carries into the next, and the packed adds and
    shifts are the coefficientwise ones.  The division by 1 - q^v is done
    by doubling, d += (d << step) & mask with step = vW, 2vW, 4vW, ...,
    about log2(n_max / v) big-int operations per row and value.

    A run of r consecutive values sums to at least r(r+1)/2, so k is first
    capped at the smallest k' with k'(k'+1)/2 > n_max; the table is the
    same.  The DP shares no code with the series kernels, which it checks.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    runs = 1
    while runs * (runs + 1) // 2 <= n_max:
        runs += 1
    runs = min(k, runs)
    width = 8 * math.ceil((math.pi * math.sqrt(2 * n_max / 3) / math.log(2) + 2) / 8)
    f = [1] + [0] * (runs - 1)
    for v in range(1, n_max + 1):
        bits = (n_max - v + 1) * width  # fields 0..n_max - v, before the shift by q^v
        mask = (1 << bits) - 1
        g = [sum(f)]  # v unused: run resets
        for src in f[: runs - 1]:  # v used at least once: run r -> r + 1
            d = src & mask
            step = v * width
            while step < bits:
                d += (d << step) & mask
                step *= 2
            g.append(d << (v * width))
        f = g
    nbytes = width // 8
    packed = sum(f).to_bytes((n_max + 1) * nbytes, "little")
    return PartitionTable(k=k, values=tuple(
        int.from_bytes(packed[i : i + nbytes], "little") for i in range(0, len(packed), nbytes)
    ))


# --- sparse in-place kernels -------------------------------------------------
#
# Each kernel rewrites a coefficient list c in place (c[i] is the coefficient
# of q^i, truncated at len(c) - 1) with exact int arithmetic, in O(len(c))
# work per binomial factor instead of the dense O(len(c)^2) product.  The
# inner loops run in C: a shifted add or subtract is one `map` over two
# slices, and a division by 1 - q^e is a running sum along each residue
# class mod e.


def _mul_binomial(c: List[int], e: int, sign: int) -> None:
    """c *= 1 + sign q^e."""
    if e < len(c):
        c[e:] = map(add if sign > 0 else sub, c[e:], c[: len(c) - e])


def _div_binomial(c: List[int], e: int, sign: int, low: int = 0) -> None:
    """c /= 1 + sign q^e, using 1/(1 + x) = (1 - x)/(1 - x^2).

    `low` is an index below which c is zero.  The quotient is zero there
    too, so each running sum starts at `low` or later.
    """
    if e >= len(c):
        return
    if sign > 0:
        _mul_binomial(c, e, -1)
        e *= 2
    for r in range(low, min(low + e, len(c))):
        c[r::e] = accumulate(c[r::e])  # 1/(1 - q^e): running sum with stride e


def _div_trinomial(c: List[int], n: int) -> None:
    """c /= 1 - q^n + q^{2n}, using (1 - x + x^2)(1 + x) = 1 + x^3."""
    _mul_binomial(c, n, 1)
    _div_binomial(c, 3 * n, 1)


def _pentagonal(order: int) -> List[tuple]:
    """(g, sign) with (q;q)_inf = 1 + sum sign q^g over g <= order, ascending.

    Euler's pentagonal number theorem: the exponents are the generalized
    pentagonal numbers j(3j -+ 1)/2, both with sign (-1)^j.
    """
    terms = []
    j = 1
    while j * (3 * j - 1) // 2 <= order:
        sign = -1 if j % 2 else 1
        terms.append((j * (3 * j - 1) // 2, sign))
        if j * (3 * j + 1) // 2 <= order:
            terms.append((j * (3 * j + 1) // 2, sign))
        j += 1
    return terms


def _mul_euler(c: List[int], m: int) -> None:
    """c *= (q^m;q^m)_inf: O(len(c)^1.5) through the pentagonal series."""
    n = len(c)
    old = c[:]
    for g, sign in _pentagonal((n - 1) // m):
        e = g * m
        c[e:] = map(add if sign > 0 else sub, c[e:], old[: n - e])


def _div_euler(c: List[int], m: int) -> None:
    """c /= (q^m;q^m)_inf: d_i = c_i - sum_g sign_g d_{i-gm}, O(len(c)^1.5).

    Only indices in one residue class mod m are coupled, so each class is
    divided by (x;x)_inf in x = q^m.
    """
    taps = [(g, sign < 0) for g, sign in _pentagonal((len(c) - 1) // m)]
    for r in range(min(m, len(c))):
        d = c[r::m]
        for i in range(1, len(d)):
            acc = d[i]
            for g, plus in taps:
                if g > i:
                    break
                if plus:
                    acc += d[i - g]
                else:
                    acc -= d[i - g]
            d[i] = acc
        c[r::m] = d


def pochhammer(
    a_exponent: int,
    q_step: int,
    terms: Optional[int],
    order: int,
    negate: bool = False,
) -> IntSeries:
    """(±q^a; q^step)_terms truncated at `order`.

    Factors are (1 - q^{a + j step}) for j = 0..terms-1, or with negate
    (1 + q^{a + j step}), i.e. the base -q^a.  terms=None is the infinite
    product, which stabilizes once the exponent passes the order.  The
    leading factor must have unit constant term (a_exponent + 0*step >= 1).
    """
    if a_exponent < 1:
        raise ValueError("a_exponent must be >= 1 so every factor has constant term 1")
    if q_step < 1:
        raise ValueError("q_step must be a positive integer")
    if terms is not None and terms < 0:
        raise ValueError("terms must be nonnegative")
    out = [1] + [0] * order
    sign = 1 if negate else -1
    j = 0
    while terms is None or j < terms:
        e = a_exponent + j * q_step
        if e > order:
            break  # every remaining factor is 1 modulo q^(order+1)
        _mul_binomial(out, e, sign)
        j += 1
    return IntSeries(tuple(out), order)


def euler_product_inverse(order: int) -> IntSeries:
    """1/(q;q)_inf truncated: the generating function of p(n)."""
    out = [1] + [0] * order
    _div_euler(out, 1)
    return IntSeries(tuple(out), order)


def andrews_gk_series(k: int, order: int) -> IntSeries:
    """Andrews' double hypergeometric series for G_k(q), truncated.

    The (r, s) sum is finite: the exponent binom(k+1,2)(s+r)^2 +
    (k+1) binom(r+1,2) only grows with r and s, so pairs stop once it
    passes the order.  Both sums are taken in Horner form, from the largest
    index down, so every denominator is one in-place division by a binomial:

        S_r = sum_s (-1)^s q^{binom(k+1,2)(s+r)^2} / (q^k;q^k)_s
            = a_0 + (a_1 + (a_2 + ...) / (1 - q^{2k})) / (1 - q^k),

    then sum_r q^{(k+1) binom(r+1,2)} S_r / (q^{k+1};q^{k+1})_r the same way
    with the factors 1 - q^{(k+1) r}, and one pentagonal division by (q;q)_inf.
    All arithmetic is exact.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    if order < 0:
        raise ValueError("order must be nonnegative")
    tri = k * (k + 1) // 2  # binom(k+1, 2)
    total = [0] * (order + 1)
    r_stop = 0
    while tri * r_stop**2 + (k + 1) * r_stop * (r_stop + 1) // 2 <= order:
        r_stop += 1
    for r in reversed(range(r_stop)):
        base = (k + 1) * r * (r + 1) // 2
        inner = [0] * (order + 1 - base)  # S_r, to be shifted by q^base
        s_stop = 0
        while tri * (s_stop + r) ** 2 <= order - base:
            s_stop += 1
        for s in reversed(range(s_stop)):
            inner[tri * (s + r) ** 2] += -1 if s % 2 else 1
            if s:  # the term just added is the lowest nonzero one
                _div_binomial(inner, k * s, -1, tri * (s + r) ** 2)
        total[base:] = map(add, total[base:], inner)
        if r:
            _div_binomial(total, (k + 1) * r, -1, base + tri * r**2)
    _div_euler(total, 1)
    return IntSeries(tuple(total), order)


def _chi_coeffs(order: int) -> List[int]:
    if order < 0:
        raise ValueError("order must be nonnegative")
    c = [0] * (order + 1)
    # chi - 1 = sum_n q^{n^2} / prod_{j<=n} (1 - q^j + q^{2j}), in Horner form
    for n in range(math.isqrt(order), 0, -1):
        c[n * n] += 1
        _div_trinomial(c, n)
    c[0] += 1
    return c


def mock_theta_chi(order: int) -> IntSeries:
    """Ramanujan's third-order mock theta function chi(q), truncated."""
    return IntSeries(tuple(_chi_coeffs(order)), order)


def g2_mock_theta_product(order: int) -> IntSeries:
    """((-q^3;q^3)_inf / (q^2;q^2)_inf) * chi(q): the G_2 product form.

    (-q^3;q^3)_inf = (q^6;q^6)_inf / (q^3;q^3)_inf, so this is chi times one
    pentagonal multiplication and two pentagonal divisions.
    """
    c = _chi_coeffs(order)
    _mul_euler(c, 6)
    _div_euler(c, 3)
    _div_euler(c, 2)
    return IntSeries(tuple(c), order)


def pak_bridge_residual(k: int, s: float, order: int, pak_log_value: float) -> float:
    """Relative residual of P(A_k) ~ G_k(q) * (q;q)_inf at q = e^{-s}, truncated.

    Cross-check only: the truncation makes this an approximation, so the
    residual is reported, never asserted.  Uses log-space to survive small s.
    """
    q = math.exp(-s)
    gk_val = andrews_gk_series(k, order).evaluate(q)
    euler_val = pochhammer(1, 1, None, order).evaluate(q)
    approx_log = math.log(gk_val) + math.log(euler_val)
    return abs(approx_log - pak_log_value) / abs(pak_log_value)
