"""Evaluation of the k-gap special function family.

For each integer k >= 1, f_k is the unique decreasing solution on [0,1] of

    f^k - f^(k+1) = x^k - x^(k+1),

with f_k(0) = 1 and f_k(1) = 0.  Writing h_k(y) = y^k - y^(k+1), which
increases on [0, k/(k+1)] and decreases on [k/(k+1), 1], the decreasing
branch swaps sides of the fixed point m = k/(k+1): for x <= m the root
lies in [m, 1], otherwise in [0, m].

Derived quantities:

    g_k(z)      = -log f_k(exp(-z))            (z > 0)
    lambda_k    = pi^2 / (3 k (k+1))           = integral of g_k over (0, inf)
    T_j(y)      = (1-y) y^(j-1) / f_k(y)^j     (1 <= j <= k)
    D_j(y)      = T_1(y) + ... + T_j(y),       D_k == 1
    H_k, tilde H_k : the alternating sums controlling the two-sided
                     no-k-gap product bounds (nonnegative resp. nonpositive
                     on sorted arguments).

g_k behaves like (1/k) log(1/z) as z -> 0 and like exp(-k z) as z -> inf;
both regimes get dedicated numerical branches below.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "QuadratureError",
    "fk_eval",
    "gk_eval",
    "gk_derivative",
    "lambda_k",
    "integrate_gk",
    "tj_eval",
    "dj_eval",
    "hk_eval",
    "hk_tilde_eval",
]

DEFAULT_ROOT_TOL = 1e-14
DEFAULT_INTEGRAL_TOL = 1e-8

# Branch cut points for g_k: below _SMALL_Z the double-precision 1 - e^{-z}
# inside the main solver loses everything; above kz = _TAIL_KZ the root sits
# closer to 1 than bisection on f can resolve relative to 1 - f.
_SMALL_Z = 1e-12
_TAIL_KZ = 20.0

_BISECT_ITERS = 80


class QuadratureError(RuntimeError):
    """Raised when integrate_gk cannot certify the requested tolerance."""


def _check_k(k) -> int:
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    return int(k)


def _hk(y, k):
    return y**k * (1.0 - y)


def fk_eval(k: int, x, tol: float = DEFAULT_ROOT_TOL):
    """Decreasing-branch solution f of h_k(f) = h_k(x) on [0, 1].

    Accepts a scalar or ndarray x; scalars come back as float.

    The bisection runs on the long form

        f^k - (1-x)(f^{k-1} + x f^{k-2} + ... + x^{k-1}),

    which divides the trivial root f = x out of the short form: it changes
    sign exactly once on [0, 1] and its f-derivative stays bounded away from
    zero at the fixed point m = k/(k+1), where h_k(f) - h_k(x) is
    quadratically flat and would surrender half the significant digits.
    The decreasing branch lies in [m, 1] for x below m and in [0, m] above
    it, so the long form's sign is read only in that half: at large k its
    terms underflow outside it (f, x = 1/2 at k = 10^4), and a zero read
    there picks the wrong branch.  Starting from [0, 1] keeps every root
    found before bit for bit.  `tol` gates the post-hoc residual check;
    bisection itself runs to machine resolution.
    """
    k = _check_k(k)
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    x_arr = np.asarray(x, dtype=float)
    if not np.all((0.0 <= x_arr) & (x_arr <= 1.0)):
        raise ValueError("x must lie in [0, 1]")

    xp = [x_arr**i for i in range(k)]
    one_minus_x = 1.0 - x_arr
    m = k / (k + 1.0)
    below = x_arr < m

    def long_form(f):
        s = np.ones_like(f) if k == 1 else xp[0].copy()
        for i in range(1, k):
            s = s * f + xp[i]
        return f**k - one_minus_x * s

    lo = np.zeros_like(x_arr)
    hi = np.ones_like(x_arr)
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        negative = long_form(mid) < 0.0
        move_lo = np.where(below, (mid <= m) | negative, (mid < m) & negative)
        lo = np.where(move_lo, mid, lo)
        hi = np.where(move_lo, hi, mid)
    f = 0.5 * (lo + hi)

    # pin the exactly-known values
    f = np.where(x_arr == 0.0, 1.0, f)
    f = np.where(x_arr == 1.0, 0.0, f)
    f = np.where(x_arr == m, m, f)

    if np.any(np.abs(_hk(f, k) - _hk(x_arr, k)) > tol):
        raise ArithmeticError("f_k root residual exceeded tol")
    return float(f) if np.isscalar(x) or x_arr.ndim == 0 else f


def _fk_smallz(k: int, z):
    """f_k(e^{-z}) for tiny z via f^k = t * S(f), t = 1 - e^{-z}.

    Three fixed-point refinements of f = (t S(f))^{1/k} with
    S(f) = sum_{i<k} f^i x^{k-1-i}; returns (f, log_f).  Stable because t is
    computed as -expm1(-z) rather than through 1 - x.
    """
    t = -np.expm1(-z)
    x = np.exp(-z)
    log_t = np.log(t)
    log_f = (log_t - (k - 1) * z) / k  # f ~ (t x^{k-1})^{1/k}
    for _ in range(3):
        f = np.exp(log_f)
        s = np.zeros_like(f)
        for i in range(k):
            s += f**i * x ** (k - 1 - i)
        log_f = (log_t + np.log(s)) / k
    return np.exp(log_f), log_f


def _one_minus_fk_tail(k: int, z):
    """u = 1 - f_k(e^{-z}) for large kz, via u (1-u)^{-k} = h_k(x)."""
    x = np.exp(-z)
    h = x**k * (-np.expm1(-z))
    u = h
    for _ in range(3):
        u = h / (1.0 - u) ** k
    return u


def gk_eval(k: int, z, tol: float = DEFAULT_ROOT_TOL):
    """g_k(z) = -log f_k(e^{-z}) for z > 0, with asymptotic branches.

    Branches: z < 1e-12 solves the functional equation in 1 - x (the main
    solver would see e^{-z} rounded to 1); k z > 20 solves for 1 - f (the
    main solver cannot resolve f relative to 1).  Elsewhere the f_k root is
    used directly.
    """
    k = _check_k(k)
    z_arr = np.asarray(z, dtype=float)
    if np.any(z_arr <= 0.0) or not np.all(np.isfinite(z_arr)):
        raise ValueError("z must be positive and finite")

    g = np.empty_like(z_arr)
    small = z_arr < _SMALL_Z
    tail = (k * z_arr >= _TAIL_KZ) & ~small
    mid = ~small & ~tail
    if np.any(small):
        _, log_f = _fk_smallz(k, z_arr[small])
        g[small] = -log_f
    if np.any(tail):
        g[tail] = -np.log1p(-_one_minus_fk_tail(k, z_arr[tail]))
    if np.any(mid):
        f = fk_eval(k, np.exp(-z_arr[mid]), tol)
        g[mid] = -np.log(f)
    return float(g) if np.isscalar(z) or z_arr.ndim == 0 else g


def _fk_derivative(k: int, x, f):
    """f_k'(x) from the differentiated functional equation.

    h_k'(f) f' = h_k'(x); both derivatives vanish at the fixed point
    m = k/(k+1), where the expansion f' = -1 - (4(k-1)/(3m)) (x - m) + ...
    takes over.
    """
    m = k / (k + 1.0)
    x = np.asarray(x, dtype=float)
    f = np.asarray(f, dtype=float)
    near = np.abs(x - m) < 1e-5
    hp = lambda y: y ** (k - 1) * (k - (k + 1.0) * y)
    with np.errstate(divide="ignore", invalid="ignore"):
        fp = hp(x) / hp(f)
    series = -1.0 - (4.0 * (k - 1) / (3.0 * m)) * (x - m)
    return np.where(near, series, fp)


def gk_derivative(k: int, z, tol: float = DEFAULT_ROOT_TOL):
    """dg_k/dz, computed analytically (never by finite differencing).

    g_k(z) = -log f_k(x) with x = e^{-z} gives g' = x f_k'(x) / f_k(x).
    Strictly negative.  For f below the fixed point, f^k is replaced by
    t * S(f) (t = 1 - x evaluated as -expm1(-z)) so the small-z regime
    g' ~ -1/(kz) comes out at full precision.
    """
    k = _check_k(k)
    z_arr = np.asarray(z, dtype=float)
    if np.any(z_arr <= 0.0) or not np.all(np.isfinite(z_arr)):
        raise ValueError("z must be positive and finite")

    m = k / (k + 1.0)
    x = np.exp(-z_arr)
    t = -np.expm1(-z_arr)

    small = z_arr < _SMALL_Z
    f = np.empty_like(z_arr)
    if np.any(small):
        f[small] = _fk_smallz(k, z_arr[small])[0]
    if np.any(~small):
        big = ~small & (k * z_arr >= _TAIL_KZ)
        rest = ~small & ~big
        if np.any(big):
            f[big] = 1.0 - _one_minus_fk_tail(k, z_arr[big])
        if np.any(rest):
            f[rest] = fk_eval(k, x[rest], tol)

    # z below the fixed point: use f^k = t S(f); near it `_fk_derivative` takes its series
    low = (f < m) & ~(np.abs(x - m) < 1e-5)

    out = np.empty_like(z_arr)
    if np.any(low):
        s = np.zeros_like(f[low])
        for i in range(k):
            s += f[low] ** i * x[low] ** (k - 1 - i)
        out[low] = (x[low] ** k * (k - (k + 1.0) * x[low])) / (
            t[low] * s * (k - (k + 1.0) * f[low])
        )
    high = ~low
    out[high] = x[high] * _fk_derivative(k, x[high], f[high]) / f[high]
    return float(out) if np.isscalar(z) or z_arr.ndim == 0 else out


def lambda_k(k: int) -> float:
    """The threshold constant pi^2 / (3 k (k+1))."""
    k = _check_k(k)
    return math.pi**2 / (3.0 * k * (k + 1))


def integrate_gk(k: int, tol: float = DEFAULT_INTEGRAL_TOL) -> float:
    """Numerically integrate g_k over (0, inf).

    Adaptive quadrature on [eps, Z] with eps = 1e-8 and Z = max(50/k, 30),
    plus the analytic head (eps/k)(log eps^{-1} + 1) from the logarithmic
    asymptote and tail e^{-kZ}/k from the exponential one.  Raises
    QuadratureError if the certified error budget exceeds tol.  The exact
    value is lambda_k(k); the agreement is a test target, not an input.

    scipy is imported here, not at module level: this is its only use, and
    no CLI command reaches it, so `import perckit` stays free of scipy.
    """
    from scipy.integrate import quad

    k = _check_k(k)
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    eps = 1e-8
    z_top = max(50.0 / k, 30.0)
    m = k / (k + 1.0)
    z_fix = -math.log(m)
    pts = sorted({1e-6, 1e-4, 1e-2, z_fix, 1.0, 5.0, min(15.0, z_top / 2)})
    body, quad_err = quad(
        lambda z: gk_eval(k, z),
        eps,
        z_top,
        points=pts,
        limit=300,
        epsabs=tol * 0.05,
        epsrel=1e-12,
    )
    head = (eps / k) * (math.log(1.0 / eps) + 1.0)
    tail = math.exp(-k * z_top) / k
    # neglected pieces: O(eps^{1+1/k}) under the head asymptote and the
    # e^{-(k+1)Z} refinement of the tail
    err_budget = quad_err + 3.0 * eps ** (1.0 + 1.0 / k) + math.exp(-(k + 1) * z_top)
    if err_budget > tol:
        raise QuadratureError(
            f"integrate_gk(k={k}): certified error {err_budget:.3e} > tol {tol:.3e}"
        )
    return body + head + tail


def tj_eval(k: int, j: int, y, tol: float = DEFAULT_ROOT_TOL):
    """T_j(y) = (1-y) y^(j-1) / f_k(y)^j for 1 <= j <= k, y in [0, 1)."""
    k = _check_k(k)
    if not 1 <= j <= k:
        raise ValueError(f"j must lie in [1, {k}], got {j}")
    y_arr = np.asarray(y, dtype=float)
    if not np.all((0.0 <= y_arr) & (y_arr < 1.0)):
        raise ValueError("y must lie in [0, 1); T_j has a pole at y = 1")
    f = np.asarray(fk_eval(k, y_arr, tol))
    out = (1.0 - y_arr) * y_arr ** (j - 1) / f**j
    return float(out) if np.isscalar(y) or y_arr.ndim == 0 else out


def dj_eval(k: int, j: int, y, tol: float = DEFAULT_ROOT_TOL):
    """D_j(y) = T_1(y) + ... + T_j(y); D_k is identically 1."""
    k = _check_k(k)
    if not 1 <= j <= k:
        raise ValueError(f"j must lie in [1, {k}], got {j}")
    y_arr = np.asarray(y, dtype=float)
    if not np.all((0.0 <= y_arr) & (y_arr < 1.0)):
        raise ValueError("y must lie in [0, 1)")
    f = np.asarray(fk_eval(k, y_arr, tol))
    ratio = y_arr / f
    term = (1.0 - y_arr) / f  # T_1
    total = term.copy()
    for _ in range(2, j + 1):
        term = term * ratio
        total += term
    return float(total) if np.isscalar(y) or y_arr.ndim == 0 else total


def _as_tuple_batch(y, width: int):
    arr = np.asarray(y, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
        squeeze = True
    elif arr.ndim == 2:
        squeeze = False
    else:
        raise ValueError("y must be a vector or a batch of vectors")
    if arr.shape[1] != width:
        raise ValueError(f"expected vectors of length {width}, got {arr.shape[1]}")
    if not np.all((0.0 <= arr) & (arr <= 1.0)):
        raise ValueError("entries must lie in [0, 1]")
    return arr, squeeze


def hk_eval(k: int, y, tol: float = DEFAULT_ROOT_TOL):
    """The alternating sum H_k(y_1, ..., y_k).

    H_k = sum_{i=1}^{k} (1-y_i) y_{i+1}...y_k f_k(y_1)...f_k(y_{i-1})
          - f_k(y_1)...f_k(y_k).

    Vanishes on equal arguments and is nonnegative on sorted increasing
    ones.  Accepts a length-k vector or an (n, k) batch.
    """
    k = _check_k(k)
    arr, squeeze = _as_tuple_batch(y, k)
    f = np.asarray(fk_eval(k, arr, tol))
    # prefix[:, i] = f(y_1)...f(y_i), suffix[:, i] = y_{i+1}...y_k
    prefix = np.cumprod(f, axis=1)
    suffix = np.cumprod(arr[:, ::-1], axis=1)[:, ::-1]
    total = np.zeros(arr.shape[0])
    for i in range(1, k + 1):
        term = 1.0 - arr[:, i - 1]
        if i < k:
            term = term * suffix[:, i]
        if i > 1:
            term = term * prefix[:, i - 2]
        total += term
    total -= prefix[:, -1]
    return float(total[0]) if squeeze else total


def hk_tilde_eval(k: int, y, tol: float = DEFAULT_ROOT_TOL):
    """The decoupled sum tilde-H_k(y_1, ..., y_{2k-1}).

    tilde-H_k = sum_{i=0}^{k-1} (1-y_{k+i}) y_{k+i+1}...y_{2k-1}
                                f_k(y_1)...f_k(y_i)
                - f_k(y_1)...f_k(y_k).

    Nonpositive on sorted increasing arguments; linear in each of
    y_{k+1}, ..., y_{2k-1}.  Accepts a vector of length 2k-1 or a batch.
    """
    k = _check_k(k)
    arr, squeeze = _as_tuple_batch(y, 2 * k - 1)
    f = np.asarray(fk_eval(k, arr[:, :k], tol))
    prefix = np.cumprod(f, axis=1)
    suffix = np.cumprod(arr[:, ::-1], axis=1)[:, ::-1]
    total = np.zeros(arr.shape[0])
    for i in range(k):
        term = 1.0 - arr[:, k + i - 1]  # y_{k+i} (1-based)
        if k + i < 2 * k - 1:
            term = term * suffix[:, k + i]
        if i > 0:
            term = term * prefix[:, i - 1]
        total += term
    total -= prefix[:, k - 1]
    return float(total[0]) if squeeze else total
