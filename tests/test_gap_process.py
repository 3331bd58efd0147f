"""Tests for no-k-gap probabilities: recurrence, bounds, P(A_k)."""

import json
import math
import tracemalloc
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perckit.gap_process import (
    GapProcess,
    _BLOCKED_FROM,
    _block_length,
    _blocked_rounding_bound,
    _log_rho_blocked,
    _tail_bound,
    MonotonicityError,
    lower_bound_conjecture_gap,
    prob_ak,
    prob_ak_bounds,
    prob_ak_log_bounds,
    rho_exact,
    rho_lower_product,
    rho_montecarlo,
    rho_rounding_bound,
    rho_sandwich,
)
from perckit.special_fn import fk_eval, lambda_k


def rho_prefixes(process, n):
    """(rho_0..rho_n, log rho_0..log rho_n), one `rho_exact` call per index."""
    return np.array([rho_exact(process, m) for m in range(n + 1)]).T


def rho_bruteforce(k, u):
    """Sum the probability of every outcome without k consecutive failures."""
    n = len(u)
    total = 0.0
    for mask in range(1 << n):
        run = 0
        ok = True
        p = 1.0
        for i in range(n):
            occurs = (mask >> i) & 1
            p *= u[i] if occurs else 1.0 - u[i]
            run = 0 if occurs else run + 1
            if run >= k:
                ok = False
                break
        if ok:
            total += p
    return total


def _log_rho_mp(k, s, n):
    """log rho_n for u_i = 1 - e^{-i s} in 40-digit arithmetic (state form)."""
    with mp.workdps(40):
        q = mp.exp(-mp.mpf(s))  # s is a binary float: exact
        state = [mp.mpf(1)] + [mp.mpf(0)] * (k - 1)
        log_scale = mp.mpf(0)
        qi = mp.mpf(1)
        for _ in range(n):
            qi *= q
            state = [(1 - qi) * mp.fsum(state)] + [qi * a for a in state[:-1]]
            total = mp.fsum(state)
            if total < mp.mpf(2) ** -300:
                log_scale += mp.log(total)
                state = [a / total for a in state]
        return log_scale + mp.log(mp.fsum(state))


def _log_euler_mp(s):
    """log (q;q)_inf at q = e^{-s} by the Dedekind eta transformation."""
    r = mp.exp(-4 * mp.pi**2 / s)
    return -mp.pi**2 / (6 * s) + mp.log(2 * mp.pi / s) / 2 + s / 24 + mp.log(mp.qp(r, r))


def _log_chi_mp(s):
    """log chi(q) at q = e^{-s}; later term ratios are <= 4/3 q^{2n+1}."""
    q = mp.exp(-s)
    total = term = qn = mp.mpf(1)
    while True:
        term *= qn * qn * q / (1 - qn * q + (qn * q) ** 2)  # q^{2n-1} / (1 - q^n + q^{2n})
        qn *= q
        total += term
        if 4 * qn * qn * q < 1.5 and term < mp.mpf(10) ** (-mp.mp.dps - 5) * total:
            return mp.log(total)


_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"

# the benchmark's 23 P(A_k) points: pak at s = 1e-4 and the sweep-pak grid
_BENCH_POINTS = [(k, 1e-4) for k in (1, 2, 3)] + [
    (k, s) for k in (1, 2, 3, 4) for s in (0.1, 0.05, 0.02, 0.01, 0.005)
]


def _exact_log_pak(k, s):
    """Exact log P(A_k): the Euler product (k = 1), (q;q)_inf G_2 with G_2 the
    mock-theta product (k = 2), stored 45-digit recurrence values (k >= 3)."""
    with mp.workdps(50):
        s = mp.mpf(s)
        if k == 1:
            return _log_euler_mp(s)
        if k == 2:
            return (_log_euler_mp(s) + _log_euler_mp(6 * s) - _log_euler_mp(3 * s)
                    - _log_euler_mp(2 * s) + _log_chi_mp(s))
        rows = json.loads(_REFERENCE.read_text())["log_pak"]
        return next(mp.mpf(r["value"]) for r in rows if r["k"] == k and r["s"] == float(s))


def _tail_direct_mp(k, s, n):
    """sum_{j>n} g_k(js) term by term in 40 digits, independent of `special_fn`.

    g_k(js) = -log(1 - u), with u = h / (1 - u)^k iterated from u = h,
    where h = x^k (1 - x) and x = e^{-js} < k/(k+1).
    """
    with mp.workdps(40):
        q = mp.exp(-mp.mpf(s))
        x = q ** (n + 1)
        total = mp.mpf(0)
        while True:
            h = x**k * (1 - x)
            u, prev = h, mp.mpf(0)
            while abs(u - prev) > mp.eps * u:
                u, prev = h / (1 - u) ** k, u
            term = -mp.log1p(-u)
            total += term
            if term < mp.mpf(10) ** -45 * total:
                return total
            x *= q


def _tail_series_mp(k, s, n):
    """sum_{j>n} g_k(js) from the Lagrange series g_k = sum_m C((k+1)m-1, m-1)/m h^m.

    Each sum_j h_j^m is closed: the binomial expansion of x^{km} (1 - x)^m
    gives geometric series.  80 digits absorb their cancellation.
    """
    with mp.workdps(80):
        s = mp.mpf(s)
        t = s * (n + 1)
        total = mp.mpf(0)
        m = 1
        while True:
            power_sum = mp.fsum(
                mp.binomial(m, i) * (-1) ** i * mp.exp(-(k * m + i) * t) / -mp.expm1(-(k * m + i) * s)
                for i in range(m + 1)
            )
            term = mp.binomial((k + 1) * m - 1, m - 1) / m * power_sum
            total += term
            if abs(term) < mp.mpf(10) ** -45 * total:
                return total
            m += 1


# k = 1 is where the closed-form tail has the most slack: (k+1) e h_{N+1} relative
# prob_ak(k, s, 1e-8) at _BENCH_POINTS as (value, log_value, error_bound,
# log_lower, log_upper) in float.hex, and n_terms
_BENCH_PINS = {
    (1, 0.0001): ("0x0.0p+0", "-0x1.00ef4427266cfp+14", "0x1.9f00000000001p-30", "-0x1.00ef44272686ep+14", "-0x1.00ef442726530p+14", 297106),
    (2, 0.0001): ("0x0.0p+0", "-0x1.56647a9c7bbf8p+12", "0x1.de40000000001p-30", "-0x1.56647a9c7c370p+12", "-0x1.56647a9c7b47fp+12", 198070),
    (3, 0.0001): ("0x0.0p+0", "-0x1.5623ca9207f12p+11", "0x1.e340000000001p-30", "-0x1.5623ca9208e2bp+11", "-0x1.5623ca9206ff8p+11", 198070),
    (1, 0.1): ("0x1.32d6f3a0b01c5p-21", "-0x1.cbff884c48c20p+3", "0x1.47d7c00000001p-31", "-0x1.cbff884c9ab7ep+3", "-0x1.cbff884bf6cc1p+3", 229),
    (1, 0.05): ("0x1.04d3e47cf7ed7p-44", "-0x1.e7ad3bc6282c6p+4", "0x1.4e39000000001p-31", "-0x1.e7ad3bc651f38p+4", "-0x1.e7ad3bc5fe654p+4", 471),
    (1, 0.02): ("0x1.68074cc03e059p-115", "-0x1.3d7bd271fe7aap+6", "0x1.5350000000001p-31", "-0x1.3d7bd27209151p+6", "-0x1.3d7bd271f3e02p+6", 1222),
    (1, 0.01): ("0x1.42ca6b45fdfd6p-233", "-0x1.428afda491a0cp+7", "0x1.5808000000001p-31", "-0x1.428afda49700ep+7", "-0x1.428afda48c40bp+7", 2512),
    (1, 0.005): ("0x1.6f2d5b21167b0p-470", "-0x1.456b235414a84p+8", "0x1.5e00000000001p-31", "-0x1.456b235417644p+8", "-0x1.456b235411ec5p+8", 5161),
    (2, 0.1): ("0x1.25a90e70b425ap-6", "-0x1.01627e84fb118p+2", "0x1.392e700000001p-30", "-0x1.01627e86343ffp+2", "-0x1.01627e83c1e31p+2", 199),
    (2, 0.05): ("0x1.af184dae85d9ep-14", "-0x1.25da6550a459ep+3", "0x1.4956800000001p-30", "-0x1.25da655149051p+3", "-0x1.25da654fffaeap+3", 397),
    (2, 0.02): ("0x1.91a4a3799980fp-37", "-0x1.93230ef7017cap+4", "0x1.53ac000000001p-30", "-0x1.93230ef75667ap+4", "-0x1.93230ef6ac91bp+4", 991),
    (2, 0.01): ("0x1.7f1538374554fp-76", "-0x1.a2357a17e4ed8p+5", "0x1.57e7800000001p-30", "-0x1.a2357a180fea6p+5", "-0x1.a2357a17b9f09p+5", 1981),
    (2, 0.005): ("0x1.f3f28a5c81c65p-155", "-0x1.ab12ee62839eep+6", "0x1.5940000000001p-30", "-0x1.ab12ee629932ep+6", "-0x1.ab12ee626e0afp+6", 3962),
    (3, 0.1): ("0x1.9b8e8faea4517p-3", "-0x1.9acbc48e2fdcdp+0", "0x1.392fa80000001p-30", "-0x1.9acbc493149b7p+0", "-0x1.9acbc4894b1e3p+0", 199),
    (3, 0.05): ("0x1.204de37f7ca94p-6", "-0x1.0290156f0df29p+2", "0x1.4959000000001p-30", "-0x1.02901570574b9p+2", "-0x1.0290156dc4999p+2", 397),
    (3, 0.02): ("0x1.e1c28e7f16437p-18", "-0x1.7b052a957e64cp+3", "0x1.53b2c00000001p-30", "-0x1.7b052a96283e2p+3", "-0x1.7b052a94d48b7p+3", 991),
    (3, 0.01): ("0x1.85d624e4c07c3p-37", "-0x1.939d44d033762p+4", "0x1.57f5400000001p-30", "-0x1.939d44d089737p+4", "-0x1.939d44cfdd78dp+4", 1981),
    (3, 0.005): ("0x1.7241ce471bdcdp-76", "-0x1.a27b38228a5ccp+5", "0x1.595b000000001p-30", "-0x1.a27b3822b5881p+5", "-0x1.a27b38225f316p+5", 3962),
    (4, 0.1): ("0x1.ee40287265110p-2", "-0x1.74f4a887aa8b0p-1", "0x1.3931280000001p-30", "-0x1.74f4a89174143p-1", "-0x1.74f4a87de101cp-1", 199),
    (4, 0.05): ("0x1.fffd83c841786p-4", "-0x1.0a2bc3020d2bcp+1", "0x1.495bd80000001p-30", "-0x1.0a2bc3049fe37p+1", "-0x1.0a2bc2ff7a741p+1", 397),
    (4, 0.02): ("0x1.62707210a8943p-10", "-0x1.a6ca8b4d4c0cap+2", "0x1.53b9e00000001p-30", "-0x1.a6ca8b4e9fc68p+2", "-0x1.a6ca8b4bf852cp+2", 991),
    (4, 0.01): ("0x1.0baeb8426145fp-21", "-0x1.d05def55d1b3ep+3", "0x1.5804200000001p-30", "-0x1.d05def567db5fp+3", "-0x1.d05def5525b1dp+3", 1981),
    (4, 0.005): ("0x1.bea29797b24dap-45", "-0x1.ea29333018142p+4", "0x1.5978000000001p-30", "-0x1.ea2933306e722p+4", "-0x1.ea29332fc1b62p+4", 3962),
}

_TAIL_POINTS = [(k, s, 1e-8) for k, s in _BENCH_POINTS] + [
    (1, s, tol) for s in (0.9, 0.2, 0.05) for tol in (1e-6, 1e-4)
]


class TestGapProcess:
    def test_validation(self):
        with pytest.raises(ValueError):
            GapProcess(k=2)  # neither u nor s
        with pytest.raises(ValueError):
            GapProcess(k=2, u=(0.5,), s=0.1)
        with pytest.raises(ValueError):
            GapProcess.explicit(2, [1.5])
        with pytest.raises(ValueError):
            GapProcess.explicit(2, [0.5, math.nan])
        with pytest.raises(ValueError):
            GapProcess.parametric(2, -1.0)
        with pytest.raises(ValueError):
            GapProcess.explicit(0, [0.5])

    def test_parametric_values(self):
        p = GapProcess.parametric(2, 0.5)
        u = p.probabilities(3)
        assert u == pytest.approx([1 - math.exp(-0.5), 1 - math.exp(-1.0), 1 - math.exp(-1.5)])
        assert p.monotonicity() == "increasing"

    def test_monotonicity_detection(self):
        assert GapProcess.explicit(2, [0.1, 0.1, 0.3]).monotonicity() == "increasing"
        assert GapProcess.explicit(2, [0.3, 0.1, 0.1]).monotonicity() == "decreasing"
        assert GapProcess.explicit(2, [0.1, 0.3, 0.2]).monotonicity() == "neither"
        assert GapProcess.explicit(2, [0.2, 0.2]).monotonicity() == "increasing"

    def test_insufficient_probabilities(self):
        with pytest.raises(ValueError):
            GapProcess.explicit(2, [0.5, 0.5]).probabilities(3)


class TestRhoExact:
    def test_half_half_half(self):
        rho = rho_exact(GapProcess.explicit(2, [0.5] * 3), 3)
        assert rho.final == pytest.approx(5 / 8, abs=1e-15)
        assert rho.log_final == pytest.approx(math.log(5 / 8), abs=1e-12)

    def test_initial_values_are_one(self):
        values, _ = rho_prefixes(GapProcess.explicit(3, [0.2, 0.4, 0.6]), 2)
        assert list(values) == [1.0, 1.0, 1.0]
        # the state sums to 1 - 2^-53 here after three steps; rho_3 is still 1
        values, logs = rho_prefixes(GapProcess.explicit(4, [0.24, 0.54, 0.37]), 3)
        assert list(values) == [1.0] * 4 and list(logs) == [0.0] * 4

    def test_parametric_tables(self):
        s = 0.5
        u, v = next(GapProcess.parametric(2, s).table_chunks(200))
        for i in (1, 2, 60, 100, 200):  # e^{-i s} far below 2^-53 keeps its value
            assert v[i - 1] == math.exp(-i * s) > 0.0
            assert u[i - 1] == -math.expm1(-i * s)
        chunks = list(GapProcess.parametric(1, 1e-3).table_chunks(2500))
        assert [len(c[0]) for c in chunks] == [1024, 1024, 452]
        assert chunks[2][1][0] == math.exp(-2049 * 1e-3)

    def test_k1_is_product(self):
        u = [0.3, 0.9, 0.5, 0.7]
        rho = rho_exact(GapProcess.explicit(1, u), 4)
        assert rho.final == pytest.approx(np.prod(u), rel=1e-14)

    def test_nonincreasing_in_range(self):
        rng = np.random.default_rng(5)
        for k in (1, 2, 3):
            u = rng.uniform(0, 1, 40)
            values, _ = rho_prefixes(GapProcess.explicit(k, u), 40)
            assert np.all(np.diff(values) <= 1e-15)
            assert np.all((values >= -1e-15) & (values <= 1.0 + 1e-15))

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_bruteforce(self, k):
        rng = np.random.default_rng(40 + k)
        for _ in range(8):
            n = int(rng.integers(k, 13))
            u = rng.uniform(0, 1, n)
            rho = rho_exact(GapProcess.explicit(k, u), n)
            assert rho.final == pytest.approx(rho_bruteforce(k, list(u)), abs=1e-12)

    def test_log_agrees_with_linear(self):
        rng = np.random.default_rng(6)
        u = rng.uniform(0.05, 0.95, 60)
        values, logs = rho_prefixes(GapProcess.explicit(2, u), 60)
        assert np.exp(logs) == pytest.approx(values, rel=1e-10)

    def test_degenerate_probabilities(self):
        # u = 1 forces occurrence, u = 0 forces failure
        rho = rho_exact(GapProcess.explicit(1, [1.0, 1.0]), 2)
        assert rho.final == 1.0
        rho = rho_exact(GapProcess.explicit(1, [1.0, 0.0]), 2)
        assert rho.final == 0.0
        assert rho.log_final == -math.inf
        rho = rho_exact(GapProcess.explicit(2, [0.0, 0.0, 1.0]), 3)
        assert rho.final == 0.0

    def test_exact_zero_and_one_entries(self):
        # a forced failure run of length k zeroes rho exactly, for good
        u = [0.5, 0.0, 0.0, 1.0, 0.3]
        values, logs = rho_prefixes(GapProcess.explicit(2, u), 5)
        assert list(values) == [1.0, 1.0, 0.5, 0.0, 0.0, 0.0]
        assert list(logs[3:]) == [-math.inf] * 3
        # u = 1 resets the failure run: k = 3 never sees three failures
        rho = rho_exact(GapProcess.explicit(3, u), 5)
        assert rho.final == pytest.approx(rho_bruteforce(3, u), abs=1e-15)
        assert rho.final > 0.0
        # zeros after a long run that has been rescaled many times
        process = GapProcess.explicit(3, [1e-3] * 300 + [0.0] * 3)
        rho = rho_exact(process, 303)
        assert rho.final == 0.0 and rho.log_final == -math.inf
        log_300 = rho_exact(process, 300).log_final
        assert math.isfinite(log_300) and log_300 < -600
        # only ones: nothing can fail
        values, logs = rho_prefixes(GapProcess.explicit(2, [1.0] * 500), 500)
        assert np.all(values == 1.0) and np.all(logs == 0.0)

    def test_log_values_below_underflow(self):
        # k = 1: rho_n = prod u_i, far below the smallest double
        values, logs = rho_prefixes(GapProcess.explicit(1, [0.01] * 1000), 1000)
        n = np.arange(1001)
        assert logs == pytest.approx(n * math.log(0.01), rel=1e-13)
        assert values[200] == 0.0 and values[100] == pytest.approx(1e-200, rel=1e-12)

    def test_memory_does_not_grow_with_n(self):
        # 200_000 terms; a per-index float64 array alone would take 1.5 MiB
        process = GapProcess.parametric(2, 1e-5)
        tracemalloc.start()
        try:
            rho_exact(process, 200_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("k,s,n", [(1, 1e-3, 30_000), (2, 0.01, 3000), (3, 0.003, 8000)])
    def test_rounding_bound_holds(self, k, s, n):
        got = rho_exact(GapProcess.parametric(k, s), n).log_final
        exact = _log_rho_mp(k, s, n)
        bound = rho_rounding_bound(k, s, n)
        assert abs(mp.mpf(got) - exact) <= bound
        assert bound < 1e-9

    @given(st.integers(1, 3), st.lists(st.floats(0.0, 1.0), min_size=0, max_size=9))
    @settings(max_examples=60, deadline=None)
    def test_bruteforce_property(self, k, u):
        rho = rho_exact(GapProcess.explicit(k, u), len(u))
        assert rho.final == pytest.approx(rho_bruteforce(k, u), abs=1e-12)


class TestBlockedKernel:
    @pytest.mark.parametrize("k,s,n", [(1, 1e-3, 30_000), (2, 0.01, 3000), (3, 0.003, 8000)])
    def test_rounding_bound_holds(self, k, s, n):
        got = _log_rho_blocked(k, s, n)
        exact = _log_rho_mp(k, s, n)
        bound = _blocked_rounding_bound(k, s, n)
        assert abs(mp.mpf(got) - exact) <= bound
        assert bound < 1e-9

    def test_block_length(self):
        assert [_block_length(n) for n in (0, 1, 5, 256, 400, 4999)] == [16, 16, 16, 16, 20, 71]

    @given(st.integers(1, 4), st.floats(1e-3, 2.0), st.integers(0, 5000))
    @example(2, 0.3, 5)  # one block, padded: N < B = 16
    @example(3, 0.01, 400)  # 20 full blocks of 20 steps
    @example(4, 0.002, 4999)  # 71 blocks of 71 steps, the last of 29
    @example(1, 0.5, 1)
    @settings(max_examples=80, deadline=None)
    def test_matches_rho_exact(self, k, s, n):
        want = rho_exact(GapProcess.parametric(k, s), n).log_final
        got = _log_rho_blocked(k, s, n)
        if got is None:  # given up on a subnormal; not while every e^{-is} >= e^{-100}
            assert n * s > 100
            return
        # both rounding bounds, plus prob_ak's allowance for each final log
        tol = (_blocked_rounding_bound(k, s, n) + rho_rounding_bound(k, s, n)
               + 2 * (8.0 * math.ulp(abs(want)) + 2.0**-50))
        assert abs(got - want) <= tol

    def test_gives_up_on_underflow(self):
        # e^{-2i} is below the smallest normal double from i = 355 on: a libm table
        assert _log_rho_blocked(1, 2.0, 1000) is None
        # e^{-50 i} is 0 from i = 15 on, and every product stays normal or 0
        assert _log_rho_blocked(2, 50.0, 20) is None
        # normal tables, but v_i v_{i-1} v_{i-2} times an entry underflows in numpy
        assert _log_rho_blocked(4, 0.5, 600) is None
        assert np.geterr()["under"] == "ignore"  # the caller's error state is back


class TestSandwich:
    def test_point_example(self):
        process = GapProcess.explicit(2, [0.5] * 3)
        b = rho_sandwich(process, 3)
        f = fk_eval(2, 0.5)
        assert b.lower == pytest.approx(f**3, rel=1e-12)
        assert b.upper == pytest.approx(f**2, rel=1e-12)
        assert b.lower <= 5 / 8 <= b.upper

    def test_k1_equality(self):
        u = [0.2, 0.4, 0.9]
        process = GapProcess.explicit(1, u)
        b = rho_sandwich(process, 3)
        rho = rho_exact(process, 3).final
        assert b.lower == pytest.approx(rho, rel=1e-12)
        assert b.upper == pytest.approx(rho, rel=1e-12)

    def test_empty_upper_product(self):
        process = GapProcess.explicit(3, [0.3, 0.5])
        b = rho_sandwich(process, 2)
        assert b.upper == 1.0

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_sandwich_random_increasing(self, k):
        rng = np.random.default_rng(60 + k)
        for trial in range(40):
            n = int(rng.integers(k, 200))
            u = np.sort(rng.uniform(0, 1, n))
            process = GapProcess.explicit(k, u)
            rho = rho_exact(process, n)
            b = rho_sandwich(process, n)
            assert b.lower - 1e-10 <= rho.final <= b.upper + 1e-10
            if rho.final > 0:
                assert b.log_lower <= rho.log_final * (1 - 1e-8) + 1e-8
                assert rho.log_final <= b.log_upper * (1 - 1e-8) + 1e-8

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_lower_bound_decreasing(self, k):
        rng = np.random.default_rng(80 + k)
        for trial in range(40):
            n = int(rng.integers(k, 120))
            u = np.sort(rng.uniform(0, 1, n))[::-1]
            process = GapProcess.explicit(k, u)
            rho = rho_exact(process, n).final
            assert rho_lower_product(process, n).lower <= rho + 1e-10

    def test_monotonicity_errors(self):
        dec = GapProcess.explicit(2, [0.9, 0.5, 0.1])
        with pytest.raises(MonotonicityError, match="upper"):
            rho_sandwich(dec, 3)
        mixed = GapProcess.explicit(2, [0.1, 0.9, 0.5])
        with pytest.raises(MonotonicityError, match="lower"):
            rho_sandwich(mixed, 3)
        with pytest.raises(MonotonicityError):
            rho_lower_product(mixed, 3)


class TestProbAk:
    def test_k1_closed_product(self):
        for s in (0.3, 0.1):
            res = prob_ak(1, s, tol=1e-10)
            exact = math.fsum(
                math.log1p(-math.exp(-i * s)) for i in range(1, int(80 / s) + 1)
            )
            assert res.log_value == pytest.approx(exact, abs=1e-8)
            assert res.error_bound <= 1e-10

    def test_bracket_width_and_order(self):
        for k in (1, 2, 3, 4):
            for s in (0.1, 0.05):
                res = prob_ak(k, s, tol=1e-8)
                assert res.error_bound <= 1e-8
                assert res.log_lower <= res.log_value <= res.log_upper

    def test_theorem_lower_bound(self):
        for k in (1, 2, 3, 4):
            for s in (0.1, 0.05, 0.02):
                res = prob_ak(k, s, tol=1e-8)
                lo, hi = prob_ak_log_bounds(k, s)
                assert res.log_value >= lo

    def test_large_s_limit(self):
        # all u_i -> 1, so P(A_k) -> 1; bracketed below by the f_k product
        res = prob_ak(2, 8.0, tol=1e-8)
        assert res.value > 0.99

    def test_bounds_shape(self):
        lo, hi = prob_ak_bounds(1, 0.1)
        assert lo == pytest.approx(math.exp(-(math.pi**2 / 6) / 0.1))
        lo2, hi2 = prob_ak_bounds(2, 0.1)
        assert hi2 / lo2 == pytest.approx(0.1 ** (-3 / 4), rel=1e-12)
        for k in (1, 2, 5):
            lo3, hi3 = prob_ak_log_bounds(k, 0.5)
            assert lo3 < hi3

    def test_interval_containment_recorded(self):
        # recorded (not asserted) containment: the bracket sits above the
        # theorem lower bound; the upper side with its 50% slack absorbs
        # the unquantified (1+o(1)) factor and is printed for the record
        for k in (1, 2, 3, 4):
            for s in (0.1, 0.05):
                res = prob_ak(k, s, tol=1e-8)
                lo, hi = prob_ak_log_bounds(k, s)
                assert res.log_lower >= lo + math.log1p(-1e-9)  # theorem side
                ratio = math.exp(res.log_upper - hi)
                print(f"recorded: k={k} s={s} upper-side ratio {ratio:.3f} (1.5 slack)")

    def test_monotone_decreasing_in_k(self):
        # more allowed gap patterns for larger k
        vals = [prob_ak(k, 0.1, 1e-8).log_value for k in (1, 2, 3)]
        assert vals[0] < vals[1] < vals[2]

    def test_errors(self):
        with pytest.raises(ValueError):
            prob_ak(2, -0.1)
        with pytest.raises(ValueError):
            prob_ak(2, 0.1, tol=-1)
        with pytest.raises(ValueError):
            prob_ak(2, 1e-6, tol=1e-10, max_terms=100)

    @pytest.mark.parametrize("k,s,tol", [(1, 1e-300, 1e-8), (2, 5e-324, 1e-8), (1, 0.1, 1e-320)])
    def test_unbounded_n_is_refused(self, k, s, tol):
        # the N sizing overflows to inf (or divides by an underflowed zero)
        with pytest.raises(ValueError, match=f"s={s!r} needs an unbounded N"):
            prob_ak(k, s, tol)

    @pytest.mark.parametrize("k,s,tol", [
        (0, 0.1, 1e-8), (-1, 0.1, 1e-8), (1.5, 0.1, 1e-8),
        (2, math.nan, 1e-8), (2, math.inf, 1e-8), (2, 0.0, 1e-8),
        (2, 0.1, math.nan), (2, 0.1, math.inf), (2, 0.1, 0.0),
    ])
    def test_rejects_bad_input(self, k, s, tol):
        with pytest.raises(ValueError, match=r"^(k|s|tol) must be"):
            prob_ak(k, s, tol)

    @pytest.mark.parametrize("k,s", [(1, 0.01), (2, 0.005), (3, 1e-3)])
    def test_rounding_goes_outward(self, k, s):
        res = prob_ak(k, s, 1e-8)
        assert res.n_terms >= _BLOCKED_FROM
        log_rho = _log_rho_blocked(k, s, res.n_terms)
        rounding = _blocked_rounding_bound(k, s, res.n_terms)
        assert res.log_upper - log_rho >= rounding
        assert log_rho - res.log_lower >= rounding

    @pytest.mark.parametrize("k,s,tol", [
        (30, 0.01, 1e-8),  # runs of 29 failures late in the sequence underflow in the kernel
        (2, 0.5, 1e-8),  # N = 40: too short for the kernel
        (1, 0.01, 10**-10.5),  # the kernel's bound 9.1e-12 is above tol/4, rho_exact's 7.4e-12 not
        (1, 3e-5, 1e-8),  # the same at N = 1030482: 3.0e-9 against 2.5e-9
    ])
    def test_runs_rho_exact_where_the_kernel_does_not(self, k, s, tol):
        res = prob_ak(k, s, tol)
        n = res.n_terms
        assert (n < _BLOCKED_FROM or _blocked_rounding_bound(k, s, n) > tol / 4
                or _log_rho_blocked(k, s, n) is None)
        assert res.error_bound <= tol / 2
        log_rho = rho_exact(GapProcess.parametric(k, s), n).log_final
        rounding = rho_rounding_bound(k, s, n)
        assert res.log_upper - log_rho >= rounding
        assert log_rho - res.log_lower >= rounding

    def test_rounding_floor_above_tolerance(self):
        # N ~ 3.2e6 terms: the rounding bound alone passes tol/4
        with pytest.raises(ValueError, match="rounding bound"):
            prob_ak(1, 1e-5, tol=1e-8)

    @pytest.mark.parametrize("k,s", _BENCH_POINTS)
    def test_bracket_contains_exact_value(self, k, s):
        tol = 1e-8
        res = prob_ak(k, s, tol)
        exact = _exact_log_pak(k, s)
        with mp.workdps(60):
            mid, half = mp.mpf(res.log_value), mp.mpf(res.error_bound)
            assert mid - half <= mp.mpf(res.log_lower) <= exact
            assert exact <= mp.mpf(res.log_upper) <= mid + half
        assert 0.0 < res.error_bound <= tol / 2

    @pytest.mark.parametrize("k,s", _BENCH_POINTS)
    def test_bench_points_pinned(self, k, s):
        # pinned (x86-64, glibc) before the tail sum became a closed form; the
        # slack of 4 ulps of the log lets the final log/exp differ in the last
        # bits, since each field is formed from log rho_N at that scale
        value, log_value, error_bound, log_lower, log_upper, n_terms = _BENCH_PINS[k, s]
        r = prob_ak(k, s, 1e-8)
        assert r.n_terms == n_terms
        slack = 4.0 * math.ulp(float.fromhex(log_value))
        for got, want in (
            (r.log_value, log_value),
            (r.error_bound, error_bound),
            (r.log_lower, log_lower),
            (r.log_upper, log_upper),
        ):
            assert abs(got - float.fromhex(want)) <= slack
        want = float.fromhex(value)
        assert abs(r.value - want) <= (slack + 4.0 * math.ulp(1.0)) * want

    @pytest.mark.parametrize("k,s,tol", _TAIL_POINTS)
    def test_closed_tail_bounds_the_sum(self, k, s, tol):
        n = prob_ak(k, s, tol).n_terms
        with mp.workdps(40):
            t = mp.mpf(s) * (n + 1)
            assert t > 1  # the lemma's premise: every x = e^{-js} < 1/e
            x = mp.exp(-t)
            assert mp.mpf(2.72) * x**k * (1 - x) < 1
        assert mp.mpf(_tail_bound(k, s, n)) >= _tail_series_mp(k, s, n)

    # the direct sum takes ~100/(ks) terms, too many at s = 1e-4
    @pytest.mark.parametrize("k,s,tol", _TAIL_POINTS[-6:] + [(2, 0.1, 1e-8), (3, 0.01, 1e-8)])
    def test_tail_series_matches_iterated_sum(self, k, s, tol):
        n = prob_ak(k, s, tol).n_terms
        direct = _tail_direct_mp(k, s, n)
        assert abs(_tail_series_mp(k, s, n) - direct) <= mp.mpf(10) ** -35 * direct


class TestMonteCarlo:
    def test_matches_oracle(self):
        process = GapProcess.explicit(2, [0.5] * 3)
        est, err = rho_montecarlo(process, 3, trials=200_000, seed=42)
        assert abs(est - 5 / 8) <= 4 * err

    def test_certain_events(self):
        est, err = rho_montecarlo(GapProcess.explicit(1, [1.0] * 5), 5, 1000, seed=1)
        assert est == 1.0
        est, _ = rho_montecarlo(GapProcess.explicit(3, [0.1, 0.1]), 2, 1000, seed=1)
        assert est == 1.0  # n < k: no k-gap possible

    def test_deterministic(self):
        process = GapProcess.parametric(2, 0.4)
        a = rho_montecarlo(process, 50, trials=10_000, seed=7)
        b = rho_montecarlo(process, 50, trials=10_000, seed=7)
        assert a == b
        c = rho_montecarlo(process, 50, trials=10_000, seed=8)
        assert a != c

    @pytest.mark.parametrize("seed,parametric,explicit", [
        (7, 0.5971, 0.4), (20240, 0.5963, 0.40044444444444444),
    ])
    def test_pinned_estimates(self, seed, parametric, explicit):
        # three chunks of 4096 trials each, chunk c reading rng.philox_words(seed, c, ...)
        est, _ = rho_montecarlo(GapProcess.parametric(2, 0.4), 50, trials=10_000, seed=seed)
        assert est == parametric
        u = [0.2, 0.5, 0.1, 0.3, 0.6, 0.4, 0.2]
        est, _ = rho_montecarlo(GapProcess.explicit(3, u), 7, trials=9_000, seed=seed)
        assert est == explicit


class TestConjectureFuzz:
    def test_no_counterexample_found(self):
        # exploratory fuzz of the conjecture that the lower product bound
        # needs no monotonicity; record violations (none expected)
        rng = np.random.default_rng(123)
        worst = math.inf
        for _ in range(300):
            k = int(rng.integers(1, 4))
            n = int(rng.integers(1, 12))
            gap = lower_bound_conjecture_gap(k, rng.uniform(0, 1, n))
            worst = min(worst, gap)
        assert worst >= -1e-12, f"conjecture counterexample found: gap={worst}"
