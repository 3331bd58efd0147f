"""Computations made apart from perckit, used to check its outputs.

Nothing here imports perckit.  Each function follows a documented contract
or a mathematical identity, not the program's code:

* the Monte Carlo draw contract (splitmix64 point seeds, then Philox keyed
  by the point seed and jumped by the trial index) and a queue-based
  monotone closure of the localized growth rules;
* exact log P(A_k) in mpmath: the Dedekind-eta closed form for k = 1, the
  mock-theta product form of G_2 for k = 2, and a high-precision run of
  the no-k-gap recurrence for any k;
* partitions without k-sequences by brute-force enumeration and by an
  exact subset-product recurrence.
"""

from __future__ import annotations

import math
from collections import deque

import mpmath as mp
import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


# --- Monte Carlo boundary reach --------------------------------------------


def splitmix64(state: int) -> int:
    """The reference splitmix64 output function."""
    z = state & MASK64
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & MASK64
    return z ^ (z >> 31)


def point_seed(master: int, index: int) -> int:
    """Seed of grid point `index` under `master`: finalize(master + (index+1) * GOLDEN)."""
    return splitmix64((master + (index + 1) * GOLDEN) & MASK64)


def _neighbourhoods(rule: str, k: int):
    """(cells an occupied site looks at, cells whose rule reads a given site)."""
    if rule == "local":
        ball = [(dx, dy) for dx in range(-k, k + 1) for dy in range(-k, k + 1)
                if 0 < abs(dx) + abs(dy) <= k]
        return ball, ball
    square = [(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1) if dx or dy]
    if rule == "modified":
        return square, square
    if rule == "frobose":
        return [(1, 0), (-1, 0), (0, 1), (0, -1)], square
    raise ValueError(f"unknown rule {rule!r}")


def closure_reaches_far_edge(occupied, rule: str, k: int) -> bool:
    """Whether the monotone closure from an active origin reaches x = L-1 or y = L-1.

    `occupied[y][x]` is the initial occupied pattern of an L x L window
    whose origin (0, 0) is active.  Rules: "local" (k >= 2: occupied sites
    with an active site within l1-distance k, empty sites with >= k active
    sites on the (k-1)-cross), "modified" and "frobose" (k = 1).  All
    rules are monotone, so the closure is the same for any update order;
    every active site descends from the origin, so the cluster reaches the
    far edge exactly when some far-edge site becomes active.
    """
    L = len(occupied)
    act = [[False] * L for _ in range(L)]
    act[0][0] = True
    look, dependents = _neighbourhoods(rule, k)
    cross = [(v * sx, 0) for v in range(1, k) for sx in (1, -1)]
    cross += [(0, v * sy) for v in range(1, k) for sy in (1, -1)]

    def active(x, y):
        return 0 <= x < L and 0 <= y < L and act[y][x]

    def fires(x, y):
        if occupied[y][x]:
            return any(active(x + dx, y + dy) for dx, dy in look)
        if rule == "local":
            return sum(active(x + dx, y + dy) for dx, dy in cross) >= k
        vert = (active(x, y + 1), active(x, y - 1))
        horiz = (active(x + 1, y), active(x - 1, y))
        if rule == "modified":
            return any(vert) and any(horiz)
        return any(
            vert[iy] and horiz[ix] and active(x + dx, y + dy)
            for iy, dy in enumerate((1, -1))
            for ix, dx in enumerate((1, -1))
        )

    stack = [(0, 0)]
    while stack:
        x, y = stack.pop()
        for dx, dy in dependents:
            nx, ny = x + dx, y + dy
            if 0 <= nx < L and 0 <= ny < L and not act[ny][nx] and fires(nx, ny):
                if nx == L - 1 or ny == L - 1:
                    return True
                act[ny][nx] = True
                stack.append((nx, ny))
    return False


def boundary_successes(seed: int, rule: str, k: int, q: float, L: int, trials: int) -> int:
    """Successes of trials 0..trials-1 of a point with the given point seed.

    Trial t draws U = Philox(key=seed).jumped(t).random((L, L)); a site is
    nonempty when U < 1 - q, and the trial is skipped when the origin is
    empty.
    """
    p = 1.0 - q
    wins = 0
    for t in range(trials):
        draws = np.random.Generator(np.random.Philox(key=seed).jumped(t)).random((L, L))
        if draws[0, 0] >= p:
            continue
        if closure_reaches_far_edge((draws < p).tolist(), rule, k):
            wins += 1
    return wins


# --- exact log P(A_k) -------------------------------------------------------

DPS = 50


def _mpf(s) -> mp.mpf:
    return mp.mpf(s)  # exact for a binary float


def log_euler(s) -> mp.mpf:
    """log (q;q)_inf at q = e^{-s}, by the Dedekind-eta transformation.

    log (e^{-s}; e^{-s})_inf = -pi^2/(6s) + log(2 pi/s)/2 + s/24
                               + log (r; r)_inf,   r = e^{-4 pi^2/s}.
    """
    s = _mpf(s)
    r = mp.exp(-4 * mp.pi**2 / s)
    return -mp.pi**2 / (6 * s) + mp.log(2 * mp.pi / s) / 2 + s / 24 + mp.log(mp.qp(r, r))


def log_chi(s) -> mp.mpf:
    """log chi(q) at q = e^{-s}, chi(q) = 1 + sum_n q^{n^2} / prod_{j<=n} (1 - q^j + q^{2j}).

    The term ratio q^{2n+1}/(1 - q^{n+1} + q^{2n+2}) is at most 4/3 q^{2n+1};
    the sum stops once that bound is below 1/2 and the term is below
    10^-(dps+5) of the sum, so the dropped tail is below twice the term.
    """
    q = mp.exp(-_mpf(s))
    eps = mp.mpf(10) ** (-mp.mp.dps - 5)
    total = mp.mpf(1)
    term = mp.mpf(1)
    qn = mp.mpf(1)  # q^(n-1)
    while True:
        q_prev = qn
        qn = qn * q
        term = term * q_prev * q_prev * q / (1 - qn + qn * qn)  # q^{2n-1} / factor_n
        total += term
        # every later term ratio is at most 4/3 q^{2n+1}
        if 4 * qn * qn * q < 1.5 and term < eps * total:
            return mp.log(total)


def log_g2(s) -> mp.mpf:
    """log G_2(q) = log((-q^3;q^3)_inf chi(q) / (q^2;q^2)_inf), (-q^3;q^3) = (q^6;q^6)/(q^3;q^3)."""
    s = _mpf(s)
    return log_euler(6 * s) - log_euler(3 * s) - log_euler(2 * s) + log_chi(s)


def log_pak_closed(k: int, s) -> mp.mpf:
    """Exact log P(A_k) for k = 1 (Euler product) and k = 2 ((q;q)_inf G_2(q))."""
    with mp.workdps(DPS):
        if k == 1:
            return log_euler(s)
        if k == 2:
            return log_euler(s) + log_g2(s)
    raise ValueError("closed forms exist for k = 1 and k = 2 only")


def recurrence_terms(k: int, s: float, rel: float = 1e-45) -> int:
    """N with rho_N / P(A_k) - 1 <= rel for u_i = 1 - e^{-is}.

    By the Harris inequality (no gap in 1..N is increasing, a failing window
    is decreasing), rho_N - P(A_k) <= rho_N * sum_w P(window w fails) over
    the k-windows reaching past N, which is <= q^{k(N-k+2)} / (1 - q^k).
    """
    ks = k * s
    return int(math.ceil((math.log(1.0 / rel) - math.log(-math.expm1(-ks))) / ks)) + k


def log_pak_recurrence(k: int, s, n_terms: int | None = None) -> mp.mpf:
    """log rho_N for u_i = 1 - q^i in mpmath, N = recurrence_terms(k, s) by default.

    rho_m = sum_{i=1}^{k} rho_{m-i} (1 - q^{m-i+1}) prod_{j=m-i+2}^{m} q^j,
    rescaled whenever it gets small, with the log scale accumulated.
    """
    n = recurrence_terms(k, float(s)) if n_terms is None else n_terms
    with mp.workdps(DPS):
        q = mp.exp(-_mpf(s))
        rho = deque([mp.mpf(1)] * k, maxlen=k)  # rho_{m-k} .. rho_{m-1}
        powers = deque([q ** (j + 1) for j in range(k - 1)], maxlen=k)  # q^{m-k+1}..q^{m-1}
        qm = powers[-1] if powers else mp.mpf(1)
        log_scale = mp.mpf(0)
        tiny = mp.mpf(2) ** -512
        for m in range(k, n + 1):
            qm = qm * q
            powers.append(qm)  # powers[-i] = q^{m-i+1}
            tot = mp.mpf(0)
            prod = mp.mpf(1)
            for i in range(1, k + 1):
                if i > 1:
                    prod *= powers[-(i - 1)]
                tot += rho[-i] * (1 - powers[-i]) * prod
            rho.append(tot)
            if tot < tiny:
                for j in range(len(rho)):
                    rho[j] /= tot
                log_scale += mp.log(tot)
        return log_scale + mp.log(rho[-1])


# --- partitions without k-sequences ----------------------------------------


def partitions_bruteforce(k: int, n_max: int) -> list:
    """p_k(n) for n <= n_max by enumerating every partition of n."""
    counts = [0] * (n_max + 1)

    def walk(remaining, largest, parts):
        if remaining == 0:
            values = sorted(set(parts))
            run = longest = 1 if values else 0
            for a, b in zip(values, values[1:]):
                run = run + 1 if b == a + 1 else 1
                longest = max(longest, run)
            if longest < k:
                counts[n] += 1
            return
        for part in range(min(remaining, largest), 0, -1):
            parts.append(part)
            walk(remaining - part, part, parts)
            parts.pop()

    for n in range(n_max + 1):
        walk(n, n, [])
    return counts


def partitions_subset_product(k: int, n_max: int) -> list:
    """p_k(n) for n <= n_max, exactly, from G_k = sum_S prod_{v in S} q^v / (1 - q^v).

    S runs over sets of part values with no k consecutive integers.  The
    recurrence walks v = 1, 2, ... with the state r = length of the run of
    used values ending at v - 1; multiplying by q^v/(1 - q^v) is a shift by
    v followed by a running sum with stride v.
    """
    size = n_max + 1
    state = [[1] + [0] * n_max] + [[0] * size for _ in range(k - 1)]
    for v in range(1, size):
        unused = [sum(col) for col in zip(*state)]
        nxt = [unused] + [[0] * size for _ in range(k - 1)]
        for r in range(k - 1):
            src = state[r]
            dest = nxt[r + 1]
            for n in range(v, size):
                dest[n] = src[n - v] + dest[n - v]
        state = nxt
    return [sum(col) for col in zip(*state)]


def partition_tail_bound(n_max: int, s: float) -> mp.mpf:
    """An upper bound on sum_{n > n_max} p(n) e^{-ns}, from p(n) <= e^{pi sqrt(2n/3)}.

    The terms t_n = e^{pi sqrt(2n/3) - ns} fall by at least the factor
    rho = e^{pi/sqrt(6(n_max+1)) - s} from n_max + 1 on, so the sum is at
    most t_{n_max+1} / (1 - rho).
    """
    n = n_max + 1
    s = _mpf(s)
    rho = mp.exp(mp.pi / mp.sqrt(6 * n) - s)
    if rho >= 1:
        raise ValueError("s too small for the geometric tail bound")
    return mp.exp(mp.pi * mp.sqrt(mp.mpf(2 * n) / 3) - n * s) / (1 - rho)


def least_squares_slope(x, y):
    """(slope, intercept) of the ordinary least-squares line through (x_i, y_i)."""
    n = len(x)
    mx = math.fsum(x) / n
    my = math.fsum(y) / n
    sxx = math.fsum((a - mx) ** 2 for a in x)
    slope = math.fsum((a - mx) * (b - my) for a, b in zip(x, y)) / sxx
    return slope, my - slope * mx

