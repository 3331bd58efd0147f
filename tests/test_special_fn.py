"""Tests for the f_k/g_k special-function family."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perckit.special_fn import (
    QuadratureError,
    dj_eval,
    fk_eval,
    gk_derivative,
    gk_eval,
    hk_eval,
    hk_tilde_eval,
    integrate_gk,
    lambda_k,
    tj_eval,
)


def f2_closed(x):
    return (1.0 - x + np.sqrt((1.0 - x) * (1.0 + 3.0 * x))) / 2.0


def fk_mp(k, x):
    """f_k(x) by bisection of h_k(f) = h_k(x) in 40 digits on the decreasing branch."""
    with mpmath.workdps(40):
        x, m = mpmath.mpf(x), mpmath.mpf(k) / (k + 1)
        target = x**k * (1 - x)
        lo, hi = (m, mpmath.mpf(1)) if x < m else (mpmath.mpf(0), m)
        for _ in range(140):
            mid = (lo + hi) / 2
            # h_k falls on [m, 1] and rises on [0, m]
            if (mid**k * (1 - mid) > target) == (x < m):
                lo = mid
            else:
                hi = mid
        return float((lo + hi) / 2)


class TestFk:
    def test_f1_is_one_minus_x(self):
        x = np.linspace(0.0, 1.0, 501)
        assert np.max(np.abs(fk_eval(1, x) - (1.0 - x))) < 1e-12

    def test_f2_closed_form(self):
        x = np.linspace(0.0, 1.0, 501)
        assert np.max(np.abs(fk_eval(2, x) - f2_closed(x))) < 1e-12

    def test_paper_point_values(self):
        assert fk_eval(1, 0.3) == pytest.approx(0.7, abs=1e-14)
        assert fk_eval(5, 0.0) == 1.0
        assert fk_eval(5, 1.0) == 0.0
        # f_2(0.5) from the closed form
        assert fk_eval(2, 0.5) == pytest.approx(0.8090169943749474, abs=1e-12)

    def test_fixed_point_exact(self):
        for k in range(1, 9):
            m = k / (k + 1.0)
            assert fk_eval(k, m) == m

    @pytest.mark.parametrize("k", range(1, 9))
    def test_functional_equation_residual(self, k):
        x = np.linspace(0.0, 1.0, 10_000)
        f = fk_eval(k, x)
        res = np.abs(f**k - f ** (k + 1) - (x**k - x ** (k + 1)))
        assert np.max(res) < 1e-12

    @pytest.mark.parametrize("k", range(1, 9))
    def test_long_form_identity(self, k):
        x = np.linspace(0.0, 1.0, 10_000)
        f = fk_eval(k, x)
        rhs = np.zeros_like(x)
        for i in range(k):
            rhs += f ** (k - 1 - i) * x**i
        rhs *= 1.0 - x
        assert np.max(np.abs(f**k - rhs)) < 1e-10

    # both sides of m = k/(k+1); at k = 10^4 and x = 0.5 or 0.9 the long
    # form's f^k and x^i underflow, which once sent the root to the wrong branch
    @pytest.mark.parametrize("k,x", [
        (1000, 0.1), (1000, 0.5), (1000, 0.9), (1000, 0.999), (1000, 0.99999),
        (10_000, 0.5), (10_000, 0.9), (10_000, 0.999), (10_000, 0.99999), (10_000, 1 - 1e-7),
    ])
    def test_large_k_matches_mpmath(self, k, x):
        assert fk_eval(k, x) == pytest.approx(fk_mp(k, x), rel=1e-14)

    def test_decreasing(self):
        x = np.linspace(0.0, 1.0, 2000)
        for k in (1, 2, 3, 6):
            f = fk_eval(k, x)
            assert np.all(np.diff(f) <= 1e-15)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            fk_eval(2, -0.1)
        with pytest.raises(ValueError):
            fk_eval(2, 1.1)
        with pytest.raises(ValueError):
            fk_eval(0, 0.5)
        with pytest.raises(ValueError):
            fk_eval(2, 0.5, tol=0.0)

    @given(st.integers(1, 8), st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_range_property(self, k, x):
        f = fk_eval(k, x)
        assert 0.0 <= f <= 1.0

    def test_y_over_f_increasing(self):
        y = np.linspace(0.0, 0.999, 3000)
        for k in (1, 2, 3, 5):
            r = y / fk_eval(k, y)
            assert np.all(np.diff(r) > -1e-12)

    def test_log_derivative_bound(self):
        # f'_k/f_k >= -1/(1-y) away from the endpoint
        y = np.linspace(0.001, 0.995, 800)
        for k in (1, 2, 3, 5):
            f = fk_eval(k, y)
            h = 1e-7
            fp = (fk_eval(k, y + h) - fk_eval(k, y - h)) / (2 * h)
            assert np.all(fp / f >= -1.0 / (1.0 - y) - 1e-5)


class TestGk:
    def test_k1_closed_form(self):
        z = np.linspace(0.05, 15.0, 400)
        expected = -np.log(-np.expm1(-z))
        assert np.max(np.abs(gk_eval(1, z) - expected)) < 1e-12

    def test_paper_point_value(self):
        assert gk_eval(1, 1.0) == pytest.approx(-math.log(1 - math.exp(-1)), rel=1e-13)

    def test_large_z_asymptotic(self):
        # g_k(z) ~ e^{-kz}; at z = 8/k the (1 - e^{-z}) prefactor stays
        # inside 5% only for k <= 2, so larger k probe at z >= 3
        for k in (1, 2):
            z = 8.0 / k
            assert abs(gk_eval(k, z) / math.exp(-k * z) - 1.0) <= 0.05
        for k in (3, 4, 6):
            z = max(8.0 / k, 3.5)
            assert abs(gk_eval(k, z) / math.exp(-k * z) - 1.0) <= 0.05
        assert gk_eval(2, 10.0) == pytest.approx(math.exp(-20.0), rel=0.05)

    def test_small_z_asymptotic(self):
        # g_k(z) ~ (1/k) log(1/z)
        for k in (1, 2, 3, 6):
            z = 1e-6
            assert abs(k * gk_eval(k, z) / math.log(1.0 / z) - 1.0) <= 0.05

    def test_tiny_z_branch(self):
        # below the 1e-12 switchover the asymptotic branch takes over smoothly
        for k in (1, 3, 8):
            lo = gk_eval(k, 9.9e-13)
            hi = gk_eval(k, 1.01e-12)
            assert lo > hi > 0
            assert abs(lo / hi - 1.0) < 1e-3

    def test_monotone_convex(self):
        for k in (1, 2, 4):
            z = np.linspace(0.01, 12.0, 1500)
            g = gk_eval(k, z)
            assert np.all(np.diff(g) <= 1e-10)
            mid = 0.5 * (g[:-2] + g[2:])
            assert np.all(g[1:-1] <= mid + 1e-10)

    def test_positive_finite(self):
        z = np.geomspace(1e-14, 50.0, 300)
        for k in (1, 2, 5):
            g = gk_eval(k, z)
            assert np.all(np.isfinite(g)) and np.all(g > 0)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            gk_eval(2, 0.0)
        with pytest.raises(ValueError):
            gk_eval(2, -1.0)


class TestGkDerivative:
    def test_k1_closed_form(self):
        z = 1.0
        expected = -math.exp(-z) / (1.0 - math.exp(-z))
        assert gk_derivative(1, z) == pytest.approx(expected, rel=1e-12)

    def test_small_z_asymptotic(self):
        for k in (1, 2, 3, 6):
            z = 1e-6
            assert abs(k * z * gk_derivative(k, z) + 1.0) <= 0.05
        assert gk_derivative(2, 0.001) == pytest.approx(-1.0 / 0.002, rel=0.05)

    def test_always_negative(self):
        z = np.geomspace(1e-13, 40.0, 400)
        for k in (1, 2, 3, 8):
            assert np.all(gk_derivative(k, z) < 0)

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_matches_finite_differences(self, k):
        z = np.geomspace(1e-3, 10.0, 120)
        h = 1e-6 * np.maximum(z, 1.0)
        fd = (gk_eval(k, z + h) - gk_eval(k, z - h)) / (2 * h)
        an = gk_derivative(k, z)
        tol = np.maximum(1e-6, 1e-4 * np.abs(an))
        assert np.all(np.abs(an - fd) <= tol)

    def test_near_fixed_point(self):
        # z_m = -log(k/(k+1)) is where both h' factors vanish
        for k in (1, 2, 4):
            zm = -math.log(k / (k + 1.0))
            for z in (zm, zm * (1 + 1e-7), zm * (1 - 1e-7)):
                v = gk_derivative(k, z)
                h = 1e-5
                fd = (gk_eval(k, z + h) - gk_eval(k, z - h)) / (2 * h)
                assert v == pytest.approx(fd, rel=1e-3)


class TestLambdaIntegral:
    def test_lambda_values(self):
        assert lambda_k(1) == pytest.approx(math.pi**2 / 6)
        assert lambda_k(2) == pytest.approx(math.pi**2 / 18)
        vals = [lambda_k(k) for k in range(1, 12)]
        assert all(a > b > 0 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("k", range(1, 7))
    def test_integral_matches_lambda(self, k):
        assert integrate_gk(k, tol=1e-8) == pytest.approx(lambda_k(k), abs=1e-8)

    def test_point_values(self):
        assert integrate_gk(1) == pytest.approx(1.6449340668482264, abs=1e-8)
        assert integrate_gk(2) == pytest.approx(0.5483113556160755, abs=1e-8)
        assert integrate_gk(4) == pytest.approx(math.pi**2 / 60, abs=1e-8)

    def test_unreachable_tolerance(self):
        with pytest.raises(QuadratureError):
            integrate_gk(1, tol=1e-16)


class TestTjDj:
    def test_t1_at_zero(self):
        assert tj_eval(2, 1, 0.0) == pytest.approx(1.0, abs=1e-14)
        assert dj_eval(3, 1, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_t1_decreasing_tk_increasing(self):
        y = np.linspace(0.0, 0.98, 600)
        for k in (1, 2, 3, 5):
            t1 = tj_eval(k, 1, y)
            assert np.all(np.diff(t1) <= 1e-12)
            tk = tj_eval(k, k, y)
            assert np.all(np.diff(tk) >= -1e-12)

    def test_dk_is_one(self):
        y = np.linspace(0.0, 0.99, 500)
        for k in (1, 2, 3, 4, 6):
            assert np.max(np.abs(dj_eval(k, k, y) - 1.0)) < 1e-10
        assert dj_eval(3, 3, 0.4) == pytest.approx(1.0, abs=1e-10)

    def test_dj_decreasing(self):
        y = np.linspace(0.0, 0.98, 500)
        for k in (2, 3, 5):
            for j in range(1, k + 1):
                d = dj_eval(k, j, y)
                assert np.all(np.diff(d) <= 1e-12)

    def test_pole_rejected(self):
        with pytest.raises(ValueError):
            tj_eval(2, 1, 1.0)
        with pytest.raises(ValueError):
            tj_eval(2, 3, 0.5)

    def test_tj_interior_unimodal_exploratory(self):
        # the unproven remark: T_j rises then falls for 2 <= j <= k-1;
        # recorded here as a smoke observation, not an invariant
        y = np.linspace(0.0, 0.995, 2000)
        t = tj_eval(4, 2, y)
        d = np.diff(t)
        sign_changes = np.sum(np.diff(np.sign(d[np.abs(d) > 1e-14])) != 0)
        assert sign_changes <= 2


class TestHkFamilies:
    def test_equal_arguments_vanish(self):
        rng = np.random.default_rng(7)
        for k in (1, 2, 3, 5):
            for y in rng.uniform(0.0, 0.99, 20):
                assert abs(hk_eval(k, [y] * k)) < 1e-12
                assert abs(hk_tilde_eval(k, [y] * (2 * k - 1))) < 1e-12

    def test_k1_identities(self):
        rng = np.random.default_rng(8)
        ys = rng.uniform(0.0, 1.0, 50)
        for y in ys:
            assert abs(hk_eval(1, [y])) < 1e-12
            assert abs(hk_tilde_eval(1, [y])) < 1e-12

    @pytest.mark.parametrize("k", range(1, 7))
    def test_signs_on_sorted_tuples(self, k):
        rng = np.random.default_rng(100 + k)
        yh = np.sort(rng.uniform(0.0, 1.0, (10_000, k)), axis=1)
        assert np.min(hk_eval(k, yh)) >= -1e-10
        yt = np.sort(rng.uniform(0.0, 1.0, (10_000, 2 * k - 1)), axis=1)
        assert np.max(hk_tilde_eval(k, yt)) <= 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            hk_eval(3, [0.1, 0.2])
        with pytest.raises(ValueError):
            hk_tilde_eval(2, [0.1, 0.2])


@pytest.mark.parametrize("call", [
    lambda: fk_eval(2, math.nan),
    lambda: fk_eval(2, [0.5, math.nan]),
    lambda: fk_eval(2, 0.5, tol=math.nan),
    lambda: tj_eval(2, 1, math.nan),
    lambda: dj_eval(2, 1, math.nan),
    lambda: hk_eval(2, [0.5, math.nan]),
    lambda: hk_tilde_eval(2, [0.1, 0.2, math.nan]),
], ids=["fk", "fk-array", "fk-tol", "tj", "dj", "hk", "hk-tilde"])
def test_nan_rejected(call):
    with pytest.raises(ValueError):
        call()
