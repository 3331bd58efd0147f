"""Tests for exact q-series arithmetic and partition counts."""

import math
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perckit import qseries
from perckit.gap_process import prob_ak
from perckit.qseries import (
    IntSeries,
    andrews_gk_series,
    euler_product_inverse,
    g2_mock_theta_product,
    mock_theta_chi,
    pak_bridge_residual,
    partition_count,
    partition_no_ksequences,
    pochhammer,
)


def partitions_of(n):
    """All partitions of n as weakly decreasing tuples, by brute force."""
    if n == 0:
        yield ()
        return
    def rec(rest, most):
        if rest == 0:
            yield ()
            return
        for part in range(min(rest, most), 0, -1):
            for tail in rec(rest - part, part):
                yield (part,) + tail
    yield from rec(n, n)


def has_k_sequence(parts, k):
    values = set(parts)
    return any(all(v + i in values for i in range(k)) for v in values)


def partition_no_ksequences_per_element(k, n_max):
    """The per-element form of the same run-length DP: the reference for the blockwise one."""
    f = [[0] * (n_max + 1) for _ in range(k)]
    f[0][0] = 1
    for v in range(1, n_max + 1):
        g = [[0] * (n_max + 1) for _ in range(k)]
        for r in range(k):
            for n in range(n_max + 1):
                g[0][n] += f[r][n]  # v unused: run resets
        for r in range(k - 1):  # v used at least once: run r -> r+1
            for n in range(v, n_max + 1):
                g[r + 1][n] += f[r][n - v] + (g[r + 1][n - v] if n - v >= v else 0)
        f = g
    return tuple(sum(f[r][n] for r in range(k)) for n in range(n_max + 1))


class TestIntSeries:
    def test_truncation_and_padding(self):
        s = IntSeries((1, 2), 4)
        assert s.coeffs == (1, 2, 0, 0, 0)
        t = IntSeries((1, 2, 3, 4, 5, 6), 3)
        assert t.coeffs == (1, 2, 3, 4)

    def test_multiplication_truncates(self):
        a = IntSeries((1, 1), 2)  # 1 + q
        b = IntSeries((1, 0, 1), 2)  # 1 + q^2
        assert (a * b).coeffs == (1, 1, 1)  # q^3 dropped

    def test_inverse_requires_unit(self):
        with pytest.raises(ValueError):
            IntSeries((2, 1), 3).inverse()

    def test_inverse_roundtrip(self):
        a = IntSeries((1, -3, 7, 0, 2), 4)
        assert (a * a.inverse()).coeffs == (1, 0, 0, 0, 0)

    def test_shift(self):
        s = IntSeries((1, 1, 1), 2).shift(1)
        assert s.coeffs == (0, 1, 1)

    @given(
        st.lists(st.integers(-9, 9), min_size=1, max_size=8),
        st.lists(st.integers(-9, 9), min_size=1, max_size=8),
        st.lists(st.integers(-9, 9), min_size=1, max_size=8),
    )
    @settings(max_examples=80, deadline=None)
    def test_ring_laws(self, xs, ys, zs):
        n = 7
        a, b, c = (IntSeries(tuple(v), n) for v in (xs, ys, zs))
        assert ((a * b) * c).coeffs == (a * (b * c)).coeffs
        assert (a * (b + c)).coeffs == (a * b + a * c).coeffs

    @given(st.lists(st.integers(-9, 9), min_size=0, max_size=7))
    @settings(max_examples=60, deadline=None)
    def test_unit_inverse_property(self, tail):
        n = 8
        a = IntSeries((1, *tail), n)
        assert (a * a.inverse()).coeffs == IntSeries.one(n).coeffs


class TestPartitionCount:
    def test_small_values(self):
        table = partition_count(10)
        assert table[0] == 1 and table[1] == 1
        assert table[5] == 7
        assert [table[n] for n in range(8)] == [1, 1, 2, 3, 5, 7, 11, 15]

    def test_against_bruteforce(self):
        table = partition_count(12)
        for n in range(13):
            assert table[n] == sum(1 for _ in partitions_of(n))

    def test_matches_euler_product(self):
        table = partition_count(100)
        inv = euler_product_inverse(100)
        assert tuple(table.values) == inv.coeffs


class TestPartitionNoKSequences:
    def test_k1_only_empty_partition(self):
        table = partition_no_ksequences(1, 12)
        assert table[0] == 1
        assert all(table[n] == 0 for n in range(1, 13))

    def test_k2_hand_values(self):
        table = partition_no_ksequences(2, 6)
        assert table[3] == 2  # {3}, {1,1,1}; {2,1} contains the pair 1,2
        assert table[4] == 4  # all but {2,1,1}

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_against_bruteforce(self, k):
        table = partition_no_ksequences(k, 14)
        for n in range(15):
            expected = sum(1 for p in partitions_of(n) if not has_k_sequence(p, k))
            assert table[n] == expected

    def test_monotone_in_k_and_saturation(self):
        n_max = 30
        plain = partition_count(n_max)
        tables = {k: partition_no_ksequences(k, n_max) for k in range(1, 6)}
        for n in range(n_max + 1):
            for k in range(1, 5):
                assert tables[k][n] <= tables[k + 1][n]
            assert tables[k + 1][n] <= plain[n]
        # once k > n no partition of n can contain a k-sequence
        big = partition_no_ksequences(31, n_max)
        assert tuple(big.values) == tuple(plain.values)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_blockwise_matches_per_element_dp(self, k):
        assert partition_no_ksequences(k, 300).values == partition_no_ksequences_per_element(k, 300)

    @pytest.mark.parametrize("n_max", [0, 1, 2, 7, 40])
    def test_k_above_n_max_is_partition_count(self, n_max):
        for k in (n_max + 1, n_max + 2, n_max + 5):
            assert partition_no_ksequences(k, n_max).values == partition_count(n_max).values


class TestPochhammer:
    def test_euler_pentagonal(self):
        s = pochhammer(1, 1, None, 10)
        assert s.coeffs == (1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0)

    def test_empty_product(self):
        assert pochhammer(2, 2, 0, 5).coeffs == IntSeries.one(5).coeffs

    def test_negated_constant_term(self):
        s = pochhammer(3, 3, None, 9, negate=True)
        assert s[0] == 1
        assert s.coeffs == (1, 0, 0, 1, 0, 0, 1, 0, 0, 2)

    def test_finite_matches_manual(self):
        # (q^2;q^2)_3 = (1-q^2)(1-q^4)(1-q^6)
        manual = (
            IntSeries((1, 0, -1), 12)
            * IntSeries((1, 0, 0, 0, -1), 12)
            * IntSeries((1, 0, 0, 0, 0, 0, -1), 12)
        )
        assert pochhammer(2, 2, 3, 12).coeffs == manual.coeffs

    def test_rejects_nonunit(self):
        with pytest.raises(ValueError):
            pochhammer(0, 1, None, 5)


class TestAndrewsSeries:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_partition_dp(self, k):
        n = 60
        series = andrews_gk_series(k, n)
        table = partition_no_ksequences(k, n)
        assert series.coeffs == tuple(table.values)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_dense_double_sum(self, k):
        # the (r, s) double sum term by term in dense IntSeries arithmetic,
        # no Horner form and no in-place division
        n = 70
        tri = k * (k + 1) // 2
        total = IntSeries((), n)
        for r in range(n + 1):
            for s in range(n + 1):
                e = tri * (s + r) ** 2 + (k + 1) * r * (r + 1) // 2
                if e > n:
                    break
                den = pochhammer(k, k, s, n) * pochhammer(k + 1, k + 1, r, n)
                total = total + IntSeries.monomial(e, n, (-1) ** s) * den.inverse()
        want = total * pochhammer(1, 1, None, n).inverse()
        assert andrews_gk_series(k, n).coeffs == want.coeffs

    def test_constant_term(self):
        assert andrews_gk_series(3, 5)[0] == 1

    def test_k2_q3_coefficient(self):
        assert andrews_gk_series(2, 3)[3] == 2


# A random truncated series: its coefficient list, order = len - 1 in 0..300.
_series = st.integers(0, 300).flatmap(
    lambda order: st.lists(st.integers(-10**6, 10**6), min_size=order + 1, max_size=order + 1)
)


def _binomial(e, sign, order):
    """1 + sign q^e as a dense IntSeries (the oracle's factor)."""
    return IntSeries.one(order) + IntSeries.monomial(e, order, sign)


def _euler_finite(m, order):
    """(q^m;q^m)_inf mod q^(order+1) as the finite product of binomials."""
    return pochhammer(m, m, order // m, order)


class TestSparseKernels:
    """Each in-place kernel against the dense IntSeries multiply / inverse."""

    @given(_series, st.integers(1, 320), st.sampled_from([1, -1]))
    @settings(max_examples=60, deadline=None)
    def test_mul_binomial(self, c, e, sign):
        order = len(c) - 1
        want = (IntSeries(tuple(c), order) * _binomial(e, sign, order)).coeffs
        qseries._mul_binomial(c, e, sign)
        assert tuple(c) == want

    @given(_series, st.integers(1, 320), st.sampled_from([1, -1]))
    @settings(max_examples=60, deadline=None)
    def test_div_binomial(self, c, e, sign):
        order = len(c) - 1
        want = (IntSeries(tuple(c), order) * _binomial(e, sign, order).inverse()).coeffs
        qseries._div_binomial(c, e, sign)
        assert tuple(c) == want

    @given(_series, st.integers(1, 320), st.sampled_from([1, -1]), st.integers(0, 320))
    @settings(max_examples=60, deadline=None)
    def test_div_binomial_from_lowest_nonzero(self, c, e, sign, low):
        c[:low] = [0] * min(low, len(c))
        order = len(c) - 1
        want = (IntSeries(tuple(c), order) * _binomial(e, sign, order).inverse()).coeffs
        qseries._div_binomial(c, e, sign, low)
        assert tuple(c) == want

    @given(_series, st.integers(1, 160))
    @settings(max_examples=60, deadline=None)
    def test_div_trinomial(self, c, n):
        order = len(c) - 1
        factor = _binomial(n, -1, order) + IntSeries.monomial(2 * n, order)
        want = (IntSeries(tuple(c), order) * factor.inverse()).coeffs
        qseries._div_trinomial(c, n)
        assert tuple(c) == want

    @given(_series, st.integers(1, 7))
    @settings(max_examples=40, deadline=None)
    def test_mul_euler(self, c, m):
        order = len(c) - 1
        want = (IntSeries(tuple(c), order) * _euler_finite(m, order)).coeffs
        qseries._mul_euler(c, m)
        assert tuple(c) == want

    @given(_series, st.integers(1, 7))
    @settings(max_examples=40, deadline=None)
    def test_div_euler(self, c, m):
        order = len(c) - 1
        want = (IntSeries(tuple(c), order) * _euler_finite(m, order).inverse()).coeffs
        qseries._div_euler(c, m)
        assert tuple(c) == want

    def test_pentagonal_division_matches_dense_inverse(self):
        for n in (0, 1, 2, 5, 7, 300):
            dense = pochhammer(1, 1, None, n).inverse()
            assert euler_product_inverse(n).coeffs == dense.coeffs


class TestMockTheta:
    def test_low_coefficients(self):
        chi = mock_theta_chi(8)
        assert chi[0] == 1
        assert chi[1] == 1  # q/(1-q+q^2) = q + q^2 - q^4 - ...

    def test_g2_product_identity(self):
        n = 80
        product = g2_mock_theta_product(n)
        table = partition_no_ksequences(2, n)
        assert product.coeffs == tuple(table.values)

    def test_chi_against_dense_definition(self):
        n = 150
        dense = IntSeries.one(n)
        den = IntSeries.one(n)
        j = 1
        while j * j <= n:
            den = den * (_binomial(j, -1, n) + IntSeries.monomial(2 * j, n))
            dense = dense + IntSeries.monomial(j * j, n) * den.inverse()
            j += 1
        assert mock_theta_chi(n).coeffs == dense.coeffs

    def test_negative_order_rejected(self):
        for fn in (mock_theta_chi, g2_mock_theta_product):
            with pytest.raises(ValueError):
                fn(-1)
        with pytest.raises(ValueError):
            andrews_gk_series(2, -1)


class TestLargeOrder:
    """The sparse kernels against the partition DP well past the dense reach."""

    N = 1500

    @pytest.fixture(scope="class")
    def tables(self):
        return {k: partition_no_ksequences(k, self.N) for k in (1, 2, 3, 4)}

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_andrews_series(self, tables, k):
        assert andrews_gk_series(k, self.N).coeffs == tuple(tables[k].values)

    def test_g2_product(self, tables):
        assert g2_mock_theta_product(self.N).coeffs == tuple(tables[2].values)


class TestBridge:
    def test_pak_bridge_residual_small(self):
        # P(A_k) ~ G_k(e^{-s}) * (q;q)_inf, truncated: reported cross-check
        res = prob_ak(2, 0.9, tol=1e-10)
        rel = pak_bridge_residual(2, 0.9, order=120, pak_log_value=res.log_value)
        assert rel < 1e-6  # truncation error at q = e^{-0.9} ~ 0.4^121
