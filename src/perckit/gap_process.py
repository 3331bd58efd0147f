"""No-k-gap probabilities of independent event sequences.

Events A_1, ..., A_n occur independently with probabilities u_i; the
sequence has a k-gap when some k consecutive events all fail.  Writing
rho_n for the probability of no k-gap among the first n events,
conditioning on the last occurring event gives the k-term recurrence

    rho_{n+k} = sum_{i=1}^{k} rho_{n+k-i} u_{n+k-i+1}
                prod_{j=n+k-i+2}^{n+k} (1 - u_j),

with rho_0 = ... = rho_{k-1} = 1.  `rho_exact` runs it in state form:
a_m[r] is the probability of no k-gap in 1..m with exactly r trailing
failures, so a_m[0] = u_m sum_r a_{m-1}[r], a_m[r] = (1 - u_m) a_{m-1}[r-1]
and rho_m = sum_r a_m[r].  Every quantity is a sum of products of
nonnegative numbers, so the float rounding stays relative and small
(`prob_ak` bounds it), and the k linear values are rescaled by an exact
power of two whenever they fall below 1e-100, so log rho_m =
log(mantissa) + e ln 2 needs no per-step log-space arithmetic.  For
monotone u the two-sided product bounds hold:

    prod_{i=1}^{n} f_k(1-u_i)  <=  rho_n  <=  prod_{i=k}^{n} f_k(1-u_i),

the lower for increasing or decreasing u, the upper for increasing u
(an empty upper product, n < k, is 1).

The parametric family u_i = 1 - e^{-i s} drives everything percolation
related; its n -> infinity limit P(A_k) is bracketed rigorously here, and
satisfies exp(-lambda_k/s) <= P(A_k) <= s^{-(2k-1)/(2k)} exp(-lambda_k/s)
up to the multiplicative 1+o(1) of the upper bound.  At small s that takes
N ~ 20/s to 30/s terms, so `prob_ak` runs the same state form as products
of k x k step matrices: blocks of about sqrt(N) steps built at once in
numpy, then folded into the state (`_log_rho_blocked`, with its own
rounding bound).  `rho_exact` stays the engine for explicit sequences;
`prob_ak` runs it too below 1024 terms, where it is faster, where only its
smaller rounding bound meets the tolerance, and wherever the block
products would meet a subnormal number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .rng import philox_words, uniforms
from .special_fn import fk_eval, lambda_k

__all__ = [
    "GapProcess",
    "SandwichBounds",
    "PakResult",
    "MonotonicityError",
    "rho_exact",
    "rho_rounding_bound",
    "rho_sandwich",
    "prob_ak",
    "prob_ak_bounds",
    "prob_ak_log_bounds",
    "rho_montecarlo",
    "lower_bound_conjecture_gap",
]

# Fixed chunk width for Monte Carlo trial streams; part of the determinism
# contract (trial t always lives in chunk t // _MC_CHUNK of the keyed
# Philox sequence, whatever the scheduling).
_MC_CHUNK = 4096

# rho_exact builds its probability tables this many indices at a time.
# Full-length Python float lists would cost tens of MiB at small s, and even
# 4096-long chunks left about 1 MiB of freed heap that raised the peak RSS
# of a later `prob_ak` tail sum.
_TABLE_CHUNK = 1024
# rho_exact rescales its state by a power of two once rho falls below this.
_RESCALE_BELOW = 1e-100
_LN2 = math.log(2.0)
# The smallest normal double; `_log_rho_blocked` refuses anything below it.
_TINY = 2.0**-1022
# `_log_rho_blocked` never cuts its blocks shorter than this.
_MIN_BLOCK = 16
# `prob_ak` runs `rho_exact` below this many terms, where it is faster.
_BLOCKED_FROM = 1024


class MonotonicityError(ValueError):
    """A product bound was requested for a sequence that does not support it."""


@dataclass(frozen=True)
class GapProcess:
    """A finite or s-parameterized sequence of independent event probabilities.

    Exactly one of `u` (explicit probabilities u_1..u_n) or `s` (the
    parametric family u_i = 1 - e^{-i s}) is set.  Monotonicity is computed
    from the data, never asserted by the caller.
    """

    k: int
    u: Optional[tuple] = None
    s: Optional[float] = None

    def __post_init__(self):
        if not isinstance(self.k, (int, np.integer)) or self.k < 1:
            raise ValueError("k must be a positive integer")
        if (self.u is None) == (self.s is None):
            raise ValueError("exactly one of u (explicit) or s (parametric) is required")
        if self.u is not None:
            vals = tuple(float(v) for v in self.u)
            if not all(0.0 <= v <= 1.0 for v in vals):
                raise ValueError("all u_i must lie in [0, 1]")
            object.__setattr__(self, "u", vals)
        elif not (math.isfinite(self.s) and self.s > 0):
            raise ValueError("s must be positive and finite")

    @classmethod
    def explicit(cls, k: int, u: Sequence[float]) -> "GapProcess":
        return cls(k=k, u=tuple(u))

    @classmethod
    def parametric(cls, k: int, s: float) -> "GapProcess":
        return cls(k=k, s=float(s))

    @property
    def is_parametric(self) -> bool:
        return self.s is not None

    def probabilities(self, n: int) -> np.ndarray:
        """u_1..u_n as an array (index 0 holds u_1)."""
        if self.is_parametric:
            i = np.arange(1, n + 1, dtype=float)
            return -np.expm1(-i * self.s)
        if n > len(self.u):
            raise ValueError(f"process holds {len(self.u)} probabilities, {n} requested")
        return np.asarray(self.u[:n], dtype=float)

    def table_chunks(self, n: int) -> Iterator[Tuple[list, list]]:
        """(u_i, 1 - u_i) for i = 1..n as float lists, _TABLE_CHUNK at a time.

        Parametric: u_i = -expm1(-i s) and 1 - u_i = exp(-i s), one libm
        call each on the rounded product i*s, so 1 - u_i keeps its full
        relative accuracy when u_i is near 1.  Explicit: 1 - u_i is the
        rounded difference (exact for u_i in {0, 1}).
        """
        if not self.is_parametric and n > len(self.u):
            raise ValueError(f"process holds {len(self.u)} probabilities, {n} requested")
        for lo in range(0, n, _TABLE_CHUNK):
            hi = min(n, lo + _TABLE_CHUNK)
            if self.is_parametric:
                neg_x = (np.arange(lo + 1, hi + 1, dtype=float) * -self.s).tolist()
                yield [-v for v in map(math.expm1, neg_x)], list(map(math.exp, neg_x))
            else:
                u = self.u[lo:hi]
                yield u, [1.0 - v for v in u]

    def monotonicity(self, n: Optional[int] = None) -> str:
        """'increasing', 'decreasing', or 'neither'; ties count as monotone."""
        if self.is_parametric:
            return "increasing"
        u = self.probabilities(n if n is not None else len(self.u))
        inc = bool(np.all(u[1:] >= u[:-1]))
        dec = bool(np.all(u[1:] <= u[:-1]))
        if inc:
            return "increasing"
        if dec:
            return "decreasing"
        return "neither"


class RhoResult(NamedTuple):
    """rho_n and log rho_n, as `rho_exact` returns them."""

    final: float
    log_final: float


def rho_exact(process: GapProcess, n: int) -> RhoResult:
    """rho_n by the k-term recurrence, in linear and log space.

    Runs the state form of the module docstring on a scaled state: the true
    a_m[r] is the held value times 2^e.  Whenever rho falls below 1e-100 the
    state is multiplied by the power of two that brings its largest entry
    into [1/2, 1), which is exact (it only scales up), and e keeps the
    exponent.  The linear value is exact up to float rounding (0 or
    subnormal once rho underflows); the log value stays meaningful long
    after that.  An exact zero stays exact (log -inf), and n < k gives
    exactly 1.  Memory stays bounded in n: the state holds k floats and the
    tables come one `_TABLE_CHUNK` at a time.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    k = process.k
    state = [1.0] + [0.0] * (k - 1)
    exponent = 0
    shift = range(k - 1, 0, -1)
    for us, vs in process.table_chunks(n):
        for u, v in zip(us, vs):
            t = 0.0
            for a in state:
                t += a
            for r in shift:
                state[r] = v * state[r - 1]
            state[0] = u * t
            if t < _RESCALE_BELOW:
                e = math.frexp(max(state))[1]
                if e:  # 0 only for an all-zero state, which stays zero
                    state = [math.ldexp(a, -e) for a in state]
                    exponent += e
    if n < k:  # after the loop, so that too short an explicit u still raises
        return RhoResult(1.0, 0.0)
    t = 0.0
    for a in state:
        t += a
    with np.errstate(divide="ignore"):
        log_t = float(np.log(t))
    return RhoResult(math.ldexp(t, exponent), log_t + exponent * _LN2)


@dataclass(frozen=True)
class SandwichBounds:
    """The two-sided f_k product bounds around rho_n."""

    lower: float
    upper: float
    log_lower: float
    log_upper: float


def rho_sandwich(process: GapProcess, n: int) -> SandwichBounds:
    """(prod_{i=1}^{n} f_k(1-u_i), prod_{i=k}^{n} f_k(1-u_i)).

    The lower bound needs u monotone (either direction); the upper bound
    needs u increasing.  Violations raise MonotonicityError naming the
    bound that loses its guarantee.
    """
    k = process.k
    mono = process.monotonicity(n)
    if mono == "neither":
        raise MonotonicityError(
            "probabilities are not monotone: both the lower bound "
            "(needs increasing or decreasing u) and the upper bound "
            "(needs increasing u) are invalidated"
        )
    if mono == "decreasing":
        raise MonotonicityError(
            "probabilities are decreasing: the upper product bound requires "
            "increasing u (the lower bound alone remains valid)"
        )
    return _sandwich_unchecked(process, n)


def rho_lower_product(process: GapProcess, n: int) -> SandwichBounds:
    """Lower product bound only, valid for increasing or decreasing u."""
    if process.monotonicity(n) == "neither":
        raise MonotonicityError(
            "probabilities are not monotone: the lower product bound is invalidated"
        )
    return _sandwich_unchecked(process, n)


def _sandwich_unchecked(process: GapProcess, n: int) -> SandwichBounds:
    k = process.k
    u = process.probabilities(n)
    f = np.asarray(fk_eval(k, 1.0 - u)) if n else np.ones(0)
    with np.errstate(divide="ignore"):
        log_f = np.log(f)
    log_lower = float(np.sum(log_f))
    log_upper = float(np.sum(log_f[k - 1 :])) if n >= k else 0.0
    return SandwichBounds(
        lower=float(np.exp(log_lower)) if n else 1.0,
        upper=float(np.exp(log_upper)),
        log_lower=log_lower,
        log_upper=log_upper,
    )


@dataclass(frozen=True)
class PakResult:
    """A rigorous bracket around P(A_k) = lim rho_n for u_i = 1 - e^{-i s}.

    `value` is the geometric midpoint of the bracket (0.0 if it underflows
    double precision); `log_value` is always meaningful.  `error_bound` is
    the half-width of the log-bracket, i.e. a relative half-width.
    """

    value: float
    error_bound: float
    log_value: float
    log_lower: float
    log_upper: float
    n_terms: int


# Unit roundoff of double arithmetic, and the error budget in ulps of each
# libm exp/expm1 value in the parametric tables (glibc documents <= 1 ulp).
_EPS = 2.0**-53
_LIBM_ULPS = 2


def rho_rounding_bound(k: int, s: float, n: int) -> float:
    """R with |log rho_hat_N - log rho_N| <= R for rho_exact on u_i = 1 - e^{-is}.

    rho_hat_N = mantissa * 2^e is what `rho_exact` holds, rho_N the exact
    value; eps = 2^-53 and c = _LIBM_ULPS.  The four parts:

    1. Tables.  x_i = fl(i s) = i s (1 + d), |d| <= eps, so exp(-x_i) is
       within i s eps of e^{-is} in log, and libm adds c ulps = 2c eps.
       Since d log(1 - e^{-x})/dx = 1/(e^x - 1) <= 1/x, -expm1(-x_i) is
       within about eps of u_i in log, plus 2c eps.  Every table entry is
       within l_i = 1.001 eps (2c + 1 + i s) of the exact one, in log.
    2. Tables to result.  rho_N is a sum, over the gap-free outcome strings,
       of products holding exactly one of u_i, 1 - u_i for every i.  So
       computed tables move log rho_N by at most sum_i l_i =
       1.001 eps ((2c + 1) N + s N (N + 1) / 2).
    3. Arithmetic.  Each step forms a_m[0] = u (sum of k entries), k
       roundings, and every other entry with one product; rho_N is a final
       sum of k entries.  All terms are nonnegative, so by induction every
       entry stays within a factor (1 +- eps)^{k m} of its exact-arithmetic
       value on the same tables, and rho_hat_N within (1 +- eps)^{kN + k - 1}:
       1.001 eps (k N + k - 1) in log.  The rescaling multiplies by powers
       of two >= 1 and is exact.
    4. Underflow.  A product or table entry below 2^-1022 is off by up to
       2^-1074 absolutely, at most k + 2 per step.  The held sum t of the
       state never falls below 1e-100 u_1 / 2 (one step shrinks it at most
       by u_m >= u_1, and a rescale lifts it to >= 1/2), and changing a
       state entry by delta changes rho_N by at most delta / (u_1 t) of
       itself (an occurring next event makes the trailing count
       irrelevant): (k + 2) N 2^-1074 / (1e-100 u_1^2 / 2) in all.

    The log of the result, log(mantissa) + e ln 2, adds a few ulps, which
    `prob_ak` covers separately.
    """
    u1 = -math.expm1(-s)
    arith = k * n + k - 1
    tables = (2 * _LIBM_ULPS + 1) * n + s * n * (n + 1) / 2.0
    underflow = (k + 2) * n * 2.0**-1074 / (0.5 * _RESCALE_BELOW * u1 * u1)
    return 1.001 * _EPS * (arith + tables) + underflow


def _block_length(n: int) -> int:
    """Steps per block of `_log_rho_blocked`: about sqrt(n), at least _MIN_BLOCK."""
    return max(_MIN_BLOCK, math.isqrt(n - 1) + 1 if n else 0)


def _log_rho_blocked(k: int, s: float, n: int) -> Optional[float]:
    """log rho_n for u_i = 1 - e^{-is} by block products; None if it underflows.

    One step of the state form is a_m = M(u_m, v_m) a_{m-1} with v = 1 - u:
    row 0 of M is u times the column sums, row r is v times row r - 1.  The
    indices 1..n are cut into nb = ceil(n/B) blocks of B steps (B from
    `_block_length`); the last block is padded with steps u = 1, v = 0,
    which turn a state into (its sum, 0, ..., 0) and leave its sum alone.
    All blocks' products are built at once, B numpy steps vectorised over
    the block axis; a block whose first column sum (the largest, since fewer
    trailing failures never hurt) falls below 1e-100 is scaled up by an
    exact power of two, with one exponent per block.  A Python loop then
    folds the nb products into the state (k products and k - 1 sums per
    entry) with `rho_exact`'s rescale.

    Tables, every value from libm (numpy's exp/expm1 carry no documented
    error bound): with i = bB + j, v_i = fl(e^{-fl(bB s)} e^{-fl(j s)}), an
    outer product of two libm tables of length nb and B; u_i = fl(1 - v_i)
    where v_i <= 1/2, and u_i = -expm1(-fl(i s)) elsewhere.

    Returns None, and the caller runs `rho_exact` instead, when a libm table
    value is below the smallest normal double or a numpy product underflows
    (numpy reports it from the floating-point status flags), so no
    subnormal intermediate ever enters the result.  The rounding is bounded
    by `_blocked_rounding_bound`.
    """
    if n < k:
        return 0.0  # rho_n = 1 exactly
    block = _block_length(n)
    nb = -(-n // block)
    step = list(map(math.exp, (np.arange(1, block + 1, dtype=float) * -s).tolist()))
    base = list(map(math.exp, (np.arange(0, nb * block, block, dtype=float) * -s).tolist()))
    if min(step) < _TINY or min(base) < _TINY:
        return None
    try:
        with np.errstate(under="raise"):
            v = np.multiply.outer(step, base)  # v[j - 1, b] is v_i, i = bB + j
            fill = n - (nb - 1) * block
            v[fill:, -1] = 0.0
            u = 1.0 - v
            near_one = np.nonzero(v > 0.5)
            i = near_one[1] * block + near_one[0] + 1
            u[near_one] = [-x for x in map(math.expm1, (i * -s).tolist())]
            if u.min() < _TINY:
                return None

            prod = np.zeros((k, k, nb))  # prod[r, c, b]: block b's matrix
            for r in range(k):
                prod[r, r] = 1.0
            spare = np.empty_like(prod)
            exps = np.zeros(nb, dtype=np.int64)
            for uj, vj in zip(u, v):
                total = prod.sum(axis=0)
                if total[0].min() < _RESCALE_BELOW:
                    low = total[0] < _RESCALE_BELOW
                    e = np.frexp(total[0, low])[1]
                    prod[:, :, low] = np.ldexp(prod[:, :, low], -e)
                    total[:, low] = np.ldexp(total[:, low], -e)
                    exps[low] += e
                np.multiply(prod[:-1], vj, out=spare[1:])
                np.multiply(total, uj, out=spare[0])
                prod, spare = spare, prod

            state = np.zeros(k)
            state[0] = 1.0
            exponent = 0
            for matrix, e in zip(np.moveaxis(prod, 2, 0), exps.tolist()):
                state = (matrix * state).sum(axis=1)
                exponent += e
                if state.sum() < _RESCALE_BELOW:
                    shift = math.frexp(state.max())[1]
                    state = np.ldexp(state, -shift)
                    exponent += shift
            return math.log(state.sum()) + exponent * _LN2
    except FloatingPointError:
        return None


def _blocked_rounding_bound(k: int, s: float, n: int) -> float:
    """R with |log rho_hat_N - log rho_N| <= R for `_log_rho_blocked`.

    The parts as in `rho_rounding_bound`, eps = 2^-53, c = _LIBM_ULPS:

    1. Tables.  fl(bB s) and fl(j s) are within bB s eps and j s eps of
       the exact products, so e^{-fl(bB s)} e^{-fl(j s)} is within i s eps
       of e^{-is} in log; the two libm values add 2c eps each and their
       product eps.  Where v_i <= 1/2, 1 - v_i >= v_i, so fl(1 - v_i) is
       within the same log distance plus eps of u_i; -expm1(-fl(i s)) is
       within (2c + 1) eps (see `rho_rounding_bound`).  Every table entry
       is within 1.001 eps (4c + 2 + i s) of the exact one, in log, and
       rho_N moves by at most the sum over i: 1.001 eps ((4c + 2) N +
       s N (N + 1) / 2).
    2. Arithmetic.  A step costs every product entry at most k roundings
       (a sum of k nonnegative entries, then one product) and a fold k
       more (k products summed).  The final sum of the state costs k - 1,
       unless there is padding: then the first padding step costs those
       k - 1 (one sum; its products by 1 and 0 are exact), later padding
       steps and the final sum add only zeros.  All terms are
       nonnegative, so by induction rho_hat_N is within
       (1 +- eps)^{k (N + nb) + k - 1} of its exact-arithmetic value on
       the same tables: 1.001 eps (k (N + nb) + k - 1) in log.
       Power-of-two rescales are exact.
    3. Underflow: none.  `_log_rho_blocked` returns None instead of a value
       built on a subnormal table entry or an underflowed product; a sum of
       nonnegative normal numbers cannot underflow.

    The final log(mantissa) + e ln 2 is covered by `prob_ak`, as for
    `rho_exact`.
    """
    nb = -(-n // _block_length(n)) if n else 0
    tables = (4 * _LIBM_ULPS + 2) * n + s * n * (n + 1) / 2.0
    arith = k * (n + nb) + k - 1
    return 1.001 * _EPS * (tables + arith)


def _tail_bound(k: int, s: float, n: int) -> float:
    """The closed-form bound on sum_{j>n} g_k(js) of `prob_ak`; needs (n + 1) s > 1."""
    t = s * (n + 1)
    x_k = math.exp(-k * t)  # x^k at x = e^{-(n+1)s}
    h_first = x_k * -math.expm1(-t)
    sum_h = x_k / -math.expm1(-k * s) - x_k * math.exp(-t) / -math.expm1(-(k + 1) * s)
    return (1.0 + 2.0**-40) * sum_h / (1.0 - 2.72 * h_first) ** (k + 1)


def prob_ak(k: int, s: float, tol: float = 1e-8, max_terms: int = 20_000_000) -> PakResult:
    """Bracket P(A_k) for the parametric family to relative width <= tol.

    Runs the exact recurrence to N and closes the tail with

        rho_N * u_N * exp(-sum_{j>N} g_k(js))  <=  P(A_k)  <=  rho_N.

    The lower bracket is rigorous: a k-gap straddling index N would need
    A_N to fail, so P(A_k) >= P(no gap in 1..N and A_N occurs) * P(fresh
    suffix has no gap); the first factor is >= rho_N u_N by the Harris
    inequality (both events increasing), the second is bounded below by the
    f_k product of the suffix.  N is chosen so that the tail sum and the
    u_N correction each stay under tol/4, sized by g_k(z) <= 2 e^{-kz} (a
    sizing rule only); `_tail_bound` bounds the tail in closed form.
    Lemma: N >= fl(1/s), so every j > N has js > 1 and x = e^{-js} < 1/e <
    k/(k+1).  By the f_k equation (Holroyd-Liggett-Romik 2004),
    u = 1 - f_k(x) lies in (0, 1/(k+1)] and solves u (1 - u)^k = h = x^k (1 - x);
    (1 - u)^k >= (k/(k+1))^k > 1/e gives u < e h < 2.72 h < 0.64, so
    g_k(js) = -log(1 - u) <= u/(1 - u) = h/(1 - u)^{k+1} <= h/(1 - 2.72 h)^{k+1}.
    h falls with j, so the tail is at most sum_{j>N} h_j / (1 - 2.72 h_{N+1})^{k+1},
    and sum_{j>N} h_j = e^{-ks(N+1)}/(1 - e^{-ks}) - e^{-(k+1)s(N+1)}/(1 - e^{-(k+1)s})
    exactly, the second term below 1/e times the first (about two bits lost).
    The exp arguments are within 2 eps, so while e^{-ks(N+1)} is normal the
    float closed form is within a few thousand eps, inside its factor
    1 + 2^-40; past that the tail is far inside the 2^-50 below.

    The recurrence runs on block products (`_log_rho_blocked`) from
    _BLOCKED_FROM terms on, when their rounding bound R =
    `_blocked_rounding_bound` is at most tol/4.  Otherwise, and wherever the
    block products give up on underflow, it runs on `rho_exact`, with R =
    `rho_rounding_bound`, which is the smaller of the two bounds.
    Float rounding goes outward on both ends: R of the engine that ran,
    plus 8 ulps of |log rho_N| and 2^-50 for the final log(mantissa) +
    e ln 2 (a log of a number in [1/2, 1), fl(ln 2) times e, their product
    and sum) and the float sums that form the two ends; the tail sum and
    log u_N are below tol/4 in size, so their own rounding is far inside
    the 2^-50.
    If `rho_exact`'s R exceeds tol/4 where it has to run, the bracket cannot
    meet the tolerance and a ValueError says so, as it does when N exceeds
    max_terms; so does a half-width that the outward rounding pushes past
    tol/2 (possible only with R near tol/4).  The reported midpoint and half-width contain the
    bracket exactly.
    """
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError("k must be a positive integer")
    if not (math.isfinite(s) and s > 0):
        raise ValueError("s must be positive and finite")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be positive and finite")

    ks = k * s
    # 2 e^{-ks(N+1)} / (1 - e^{-ks}) <= tol/4; no N serves once the divisor underflows
    scale = tol * -math.expm1(-ks)
    n_tail = math.log(8.0 / scale) / ks if scale > 0 else math.inf
    n_un = math.log(4.0 / tol) / s  # e^{-Ns} <= tol/4
    n = max(n_tail, n_un, 1.0 / s, k + 1)
    if n == math.inf:  # s or tol so small that the sizing overflows
        raise ValueError(f"tol {tol} at s={s} needs an unbounded N > budget {max_terms}")
    n = int(math.ceil(n))
    if n > max_terms:
        raise ValueError(f"tol {tol} at s={s} needs N={n} > budget {max_terms}")
    log_rho_n = None
    rounding = _blocked_rounding_bound(k, s, n)
    if n >= _BLOCKED_FROM and rounding <= tol / 4:
        log_rho_n = _log_rho_blocked(k, s, n)
    if log_rho_n is None:  # short, too wide a block bound, or a subnormal
        rounding = rho_rounding_bound(k, s, n)
        if rounding > tol / 4:
            raise ValueError(
                f"tol {tol} at s={s}: the rounding bound {rounding:.3g} of the recurrence "
                f"to N={n} exceeds tol/4"
            )
        log_rho_n = rho_exact(GapProcess.parametric(k, s), n).log_final

    tail = _tail_bound(k, s, n)  # overestimated: it only lowers the lower end
    log_un = float(np.log(-np.expm1(-n * s)))
    outward = rounding + 8.0 * math.ulp(abs(log_rho_n)) + 2.0**-50
    log_lower = log_rho_n + log_un - tail - outward
    log_upper = log_rho_n + outward
    log_mid = 0.5 * (log_lower + log_upper)
    half = math.nextafter(max(log_upper - log_mid, log_mid - log_lower), math.inf)
    if half > tol / 2:
        raise ValueError(f"tol {tol} at s={s}: rounding widens the bracket past tol/2")
    return PakResult(
        value=float(np.exp(log_mid)),
        error_bound=half,
        log_value=log_mid,
        log_lower=log_lower,
        log_upper=log_upper,
        n_terms=n,
    )


def prob_ak_bounds(k: int, s: float) -> tuple:
    """The theorem's (lower, upper) = (e^{-lambda_k/s}, s^{-(2k-1)/2k} e^{-lambda_k/s}).

    Linear-space values; they underflow for small s, see prob_ak_log_bounds.
    """
    lo, hi = prob_ak_log_bounds(k, s)
    return math.exp(lo) if lo > -745 else 0.0, math.exp(hi) if hi > -745 else 0.0


def prob_ak_log_bounds(k: int, s: float) -> tuple:
    if s <= 0:
        raise ValueError("s must be positive")
    lam = lambda_k(k)
    log_lower = -lam / s
    log_upper = -lam / s - (2.0 * k - 1.0) / (2.0 * k) * math.log(s)
    return log_lower, log_upper


def rho_montecarlo(process: GapProcess, n: int, trials: int, seed: int) -> tuple:
    """Monte Carlo estimate of rho_n; returns (estimate, stderr).

    Bernoulli sequences are drawn from counter-based Philox streams in
    fixed-size chunks keyed by (seed, chunk index), so the draw for trial t
    never depends on scheduling.  The aggregate is an integer success
    count; estimate = count / trials.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if n < 0:
        raise ValueError("n must be nonnegative")
    k = process.k
    u = process.probabilities(n)
    count = 0
    for chunk, done in enumerate(range(0, trials, _MC_CHUNK)):
        take = min(_MC_CHUNK, trials - done)
        draws = uniforms(philox_words(seed, chunk, take * n)).reshape(take, n)
        fail = draws >= u  # event i fails with probability 1 - u_i
        run = np.zeros(take, dtype=np.int32)
        gap = np.zeros(take, dtype=bool)
        for j in range(n):
            run = np.where(fail[:, j], run + 1, 0)
            gap |= run >= k
        count += int(np.sum(~gap))
    est = count / trials
    return est, math.sqrt(est * (1.0 - est) / trials)


def lower_bound_conjecture_gap(k: int, u: Sequence[float]) -> float:
    """rho_n - prod f_k(1-u_i) for an arbitrary (possibly non-monotone) u.

    Fuzzing hook for the conjecture that the lower product bound needs no
    monotonicity; a negative return is a counterexample.  Exploratory only,
    nothing in the library assumes the conjecture.
    """
    process = GapProcess.explicit(k, u)
    n = len(process.u)
    rho = rho_exact(process, n).final
    return rho - _sandwich_unchecked(process, n).lower
