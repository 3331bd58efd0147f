"""Tests for the diagonal/skew growth events and their probabilities."""

import functools
import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perckit import growth_events
from perckit.gap_process import GapProcess, rho_exact
from perckit.growth_events import (
    EMPTY,
    NO_GAP,
    NONEMPTY,
    CaseResult,
    Condition,
    EventChain,
    SkewGeometry,
    StairGeometry,
    dk_paper_lower_bound,
    jk_paper_lower_bound,
    prob_dk,
    prob_jk,
    sample_conditioned,
    validate_chain,
    verify_growth_guarantee,
    _fill,
    _gap_table,
    _plan,
    _run_case,
    _statuses,
)
from perckit.lattice import (
    CellState, Lattice, ModelSpec, Variant, bitboard_closure, pack_board, reference_fixpoint,
    run_to_fixpoint, to_text,
)
from perckit.rng import PhiloxReader

E, O, A = CellState.EMPTY, CellState.OCCUPIED, CellState.ACTIVE


class TestGoldenGeometry:
    """The frozen cell lists for k=2, a=4, b=9 (coordinates are (x, y))."""

    def test_stair_columns(self):
        geom = StairGeometry(2, 4, 9)
        assert list(geom.labels) == [5, 6, 7, 8, 9]
        golden = {
            5: [(4, 0), (4, 1), (4, 2)],
            6: [(5, 0), (5, 1), (5, 2), (5, 3)],
            7: [(6, 0), (6, 1), (6, 2), (6, 3), (6, 4)],
            8: [(7, 0), (7, 1), (7, 2), (7, 3), (7, 4), (7, 5)],
            9: [(8, 0), (8, 1), (8, 2), (8, 3), (8, 4), (8, 5), (8, 6)],
        }
        for label, cells in golden.items():
            assert geom.column_cells(label) == cells
            assert geom.row_cells(label) == [(y, x) for x, y in cells]

    def test_stair_families_disjoint(self):
        geom = StairGeometry(2, 4, 9)
        cols = {c for l in geom.labels for c in geom.column_cells(l)}
        rows = {c for l in geom.labels for c in geom.row_cells(l)}
        assert not cols & rows

    def test_skew_lines(self):
        geom = SkewGeometry(2, 4, 9)
        assert geom.column_cells(5) == [(4, 0), (4, 1), (4, 2)]
        assert geom.column_cells(6) == [(5, 0), (5, 1), (5, 2), (5, 3)]
        for label in (7, 8, 9):
            assert geom.column_cells(label) == [(label - 1, y) for y in range(5)]
        assert geom.row_cells(5) == [(0, 4), (1, 4), (2, 4)]
        assert geom.row_cells(6) == [(x, 5) for x in range(8)]
        assert geom.row_cells(7) == [(x, 6) for x in range(8)]
        assert geom.row_cells(8) == [(x, 7) for x in range(9)]
        assert geom.row_cells(9) == [(x, 8) for x in range(9)]
        assert geom.occupied_cell == (8, 6)
        assert list(geom.empty_rows) == [6, 7]
        assert list(geom.gap_family_columns) == [6, 7, 8]
        assert list(geom.gap_family_rows) == [8]

    def test_conditions_in_product_order(self):
        geom = SkewGeometry(2, 4, 9)
        assert [(c.rule, c.kind, c.labels) for c in geom.conditions] == [
            (NONEMPTY, "column", (5,)), (NONEMPTY, "row", (5,)),
            (NONEMPTY, "column", (9,)), (NONEMPTY, "row", (9,)),
            (EMPTY, "row", (6, 7)), (NONEMPTY, "cell", (9,)),
            (NO_GAP, "column", (6, 7, 8)), (NO_GAP, "row", (8,)),
        ]
        assert geom.conditions[5].lines == ((geom.occupied_cell,),)
        assert geom.conditions[4].lines == (tuple(geom.row_cells(6)), tuple(geom.row_cells(7)))
        # b - a = k + 2 leaves the row family empty, and it is left out
        assert [c.rule for c in SkewGeometry(2, 4, 8).conditions][-2:] == [NONEMPTY, NO_GAP]
        stair = StairGeometry(2, 4, 9)
        assert [(c.rule, c.kind, c.labels) for c in stair.conditions] == [
            (NO_GAP, "column", (5, 6, 7, 8, 9)), (NO_GAP, "row", (5, 6, 7, 8, 9)),
        ]

    def test_overlapping_factors_raise(self, monkeypatch):
        # widening the empty rows by one cell runs the last one through the turn cell
        real = SkewGeometry.row_width
        monkeypatch.setattr(
            SkewGeometry, "row_width",
            lambda self, l: self.b if l in self.empty_rows else real(self, l),
        )
        with pytest.raises(AssertionError, match="overlap"):
            SkewGeometry(2, 4, 9)

    def test_invalid_geometries(self):
        with pytest.raises(ValueError):
            StairGeometry(2, 1, 5)  # a < k
        with pytest.raises(ValueError):
            StairGeometry(2, 5, 5)  # b <= a
        with pytest.raises(ValueError):
            SkewGeometry(2, 4, 7)  # b - a < k + 2


def _mc_nonempty(rng, q, trials, size):
    """Per trial: does a line of `size` i.i.d. cells hold an occupied one?"""
    return (rng.random((trials, size)) < 1 - q).any(axis=1)


def _mc_no_gap(lines, k, trials):
    """Per trial: no k consecutive empty lines, given each line's per-trial nonemptiness."""
    run = np.zeros(trials, dtype=int)
    ok = np.ones(trials, dtype=bool)
    for nonempty in lines:
        run = np.where(nonempty, 0, run + 1)
        ok &= run < k
    return ok


def mc_prob_dk(geom, q, trials, seed):
    rng = np.random.default_rng(seed)
    sizes = [geom.line_size(l) for l in geom.labels]
    hits = np.ones(trials, dtype=bool)
    for _family in ("columns", "rows"):
        hits &= _mc_no_gap([_mc_nonempty(rng, q, trials, h) for h in sizes], geom.k, trials)
    return hits.mean()


def mc_prob_jk(geom, q, trials, seed):
    rng = np.random.default_rng(seed)
    a, b = geom.a, geom.b

    def nonempty(size):
        return _mc_nonempty(rng, q, trials, size)

    ok = nonempty(geom.col_height(a + 1))
    ok &= nonempty(geom.row_width(a + 1))
    ok &= nonempty(geom.col_height(b))
    ok &= nonempty(geom.row_width(b))
    for l in geom.empty_rows:
        ok &= ~nonempty(geom.row_width(l))
    ok &= nonempty(1)  # the turn cell
    ok &= _mc_no_gap([nonempty(geom.col_height(l)) for l in geom.gap_family_columns], geom.k, trials)
    ok &= _mc_no_gap([nonempty(geom.row_width(l)) for l in geom.gap_family_rows], geom.k, trials)
    return ok.mean()


class TestProbabilities:
    def test_dk_single_line(self):
        # b = a + 1: one column and one row; a single line is a k-gap only
        # for k = 1
        q = 0.4
        assert prob_dk(StairGeometry(1, 5, 6), q) == pytest.approx((1 - q**5) ** 2)
        assert prob_dk(StairGeometry(2, 5, 6), q) == 1.0

    def test_dk_limits(self):
        geom = StairGeometry(2, 4, 9)
        assert prob_dk(geom, 1e-9) == pytest.approx(1.0, abs=1e-6)
        assert prob_dk(geom, 1 - 1e-12) == pytest.approx(0.0, abs=1e-6)

    def test_jk_q_to_one_vanishes(self):
        geom = SkewGeometry(2, 4, 9)
        assert prob_jk(geom, 1 - 1e-9) == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("k,a,b", [(1, 3, 8), (2, 4, 9), (2, 12, 20), (3, 5, 12), (3, 14, 20)])
    def test_dk_exact_vs_mc(self, k, a, b):
        for q in (0.3, 0.5, 0.7):
            geom = StairGeometry(k, a, b)
            exact = prob_dk(geom, q)
            trials = 40_000
            est = mc_prob_dk(geom, q, trials, seed=k * 100 + a)
            # stderr from the exact p: the estimate can sit at 1.0 when the
            # failure rate is a few per hundred thousand
            stderr = math.sqrt(max(exact * (1 - exact), 1.0 / trials) / trials)
            assert abs(est - exact) <= 4 * stderr

    @pytest.mark.parametrize("k,a,b", [(1, 4, 9), (2, 4, 9), (2, 6, 12), (2, 13, 20), (3, 5, 12), (3, 12, 20)])
    def test_jk_exact_vs_mc(self, k, a, b):
        for q in (0.3, 0.5, 0.7):
            geom = SkewGeometry(k, a, b)
            exact = prob_jk(geom, q)
            trials = 60_000
            est = mc_prob_jk(geom, q, trials, seed=k * 31 + b)
            stderr = math.sqrt(max(exact * (1 - exact), 1.0 / trials) / trials)
            assert abs(est - exact) <= 4 * stderr

    def test_dk_dominates_paper_bound(self):
        for k in (1, 2, 3):
            for a in (k, k + 3, k + 7):
                for b in (a + 2, a + 6, a + 12):
                    for q in (0.3, 0.5, 0.7):
                        geom = StairGeometry(k, a, b)
                        assert prob_dk(geom, q) >= dk_paper_lower_bound(geom, q) - 1e-12

    def test_jk_dominates_paper_bound(self):
        for k in (1, 2, 3):
            for a in (2 * k, 2 * k + 3):
                for b in (a + k + 2, a + k + 5):
                    for q in (0.3, 0.5, 0.7):
                        geom = SkewGeometry(k, a, b)
                        assert prob_jk(geom, q) >= jk_paper_lower_bound(geom, q) - 1e-12

    def test_rho_family_matches_direct(self):
        # the column family of D_k is literally a no-k-gap process with
        # u_i = 1 - q^{i-k}
        geom = StairGeometry(2, 4, 9)
        q = 0.45
        u = geom.conditions[0].u(q)
        assert u == pytest.approx([1 - q**3, 1 - q**4, 1 - q**5, 1 - q**6, 1 - q**7])
        rho = rho_exact(GapProcess.explicit(2, u), 5).final
        assert prob_dk(geom, q) == pytest.approx(rho**2, rel=1e-12)


class TestEventChain:
    def test_validation(self):
        EventChain(2, 24, ((4, 9), (12, 17)))
        with pytest.raises(ValueError):
            EventChain(2, 24, ())
        with pytest.raises(ValueError):
            EventChain(2, 24, ((4, 7),))  # b - a < k + 2
        with pytest.raises(ValueError):
            EventChain(2, 24, ((9, 14), (4, 9)))  # decreasing
        with pytest.raises(ValueError):
            EventChain(2, 24, ((1, 6),))  # a < k
        with pytest.raises(ValueError):
            EventChain(2, 12, ((4, 13),))  # beyond window

    def test_contradictory_corner_chain_rejected(self):
        # b_m = L with minimal skew puts a required-empty row through the
        # occupied corner cell (0, L-2)
        with pytest.raises(ValueError, match="contradictory"):
            EventChain(2, 20, ((16, 20),))

    def test_components(self):
        chain = EventChain(2, 24, ((4, 9), (12, 17)))
        kinds = [(kind, g.a, g.b) for g, kind in chain.components()]
        assert kinds == [
            ("dk", 2, 4),
            ("jk", 4, 9),
            ("dk", 9, 12),
            ("jk", 12, 17),
            ("dk", 17, 23),
        ]

    def test_degenerate_trailing_dk_dropped(self):
        chain = EventChain(2, 12, ((4, 9),))
        kinds = [kind for _, kind in chain.components()]
        assert kinds == ["dk", "jk", "dk"]
        chain2 = EventChain(2, 10, ((4, 9),))  # L - 1 = b_m: no trailing dk
        assert [kind for _, kind in chain2.components()] == ["dk", "jk"]


class TestConditionedSampling:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_samples_always_validate(self, k):
        chain = EventChain(k, 4 * k + 18, ((k + 2, 2 * k + 5),))
        for seed in range(60):
            lat = sample_conditioned(chain, q=0.5, seed=seed)
            assert validate_chain(lat, chain) == []

    def test_two_pair_chain_validates(self):
        chain = EventChain(2, 26, ((4, 9), (12, 17)))
        for seed in range(40):
            lat = sample_conditioned(chain, q=0.6, seed=seed)
            assert validate_chain(lat, chain) == []

    def test_chain_disjointness(self):
        # samples satisfying chain X never satisfy a different chain Y
        x = EventChain(2, 26, ((4, 9),))
        y = EventChain(2, 26, ((5, 10),))
        z = EventChain(2, 26, ((4, 9), (12, 17)))
        cross = 0
        for seed in range(1000):
            lat = sample_conditioned(x, q=0.5, seed=seed)
            assert validate_chain(lat, x) == []
            cross += not validate_chain(lat, y)
            cross += not validate_chain(lat, z)
        assert cross == 0

    def test_background_empty(self):
        chain = EventChain(2, 26, ((4, 9),))
        lat = sample_conditioned(chain, q=0.5, seed=0, background="empty")
        assert validate_chain(lat, chain) == []
        # adversarial mode leaves unconstrained regions empty: count is small
        occupied = int(np.sum(lat.cells != E))
        lat2 = sample_conditioned(chain, q=0.5, seed=0, background="sample")
        assert int(np.sum(lat2.cells != E)) > occupied

    def test_corner_cells_present(self):
        chain = EventChain(2, 26, ((4, 9),))
        lat = sample_conditioned(chain, q=0.5, seed=3)
        L = chain.L
        assert lat.cells[L - 2, 0] != E
        assert lat.cells[0, L - 2] != E
        assert lat.cells[0, 0] == A  # origin active
        assert lat.cells[1, 1] == O  # rest of the k x k block occupied


    def test_each_rule_is_reported(self):
        chain = EventChain(2, 26, ((4, 9),))
        lat = sample_conditioned(chain, q=0.5, seed=1)
        assert validate_chain(lat, chain) == []
        jk = SkewGeometry(2, 4, 9)

        def problems(cells, state):
            broken = Lattice(cells=lat.cells.copy())
            for x, y in cells:
                broken.cells[y, x] = state
            return validate_chain(broken, chain)

        assert problems(jk.column_cells(5), E) == ["jk(4,9) column 5 must be nonempty"]
        assert problems([(0, 5)], O) == ["jk(4,9) row 6 must be empty"]
        assert problems([jk.occupied_cell], E) == ["jk(4,9) cell 9 must be nonempty"]
        assert problems(jk.column_cells(6) + jk.column_cells(7), E) == [
            "jk(4,9) columns have a 2-gap ending at label 7"
        ]
        assert problems([(chain.L - 2, 0)], E) == ["corner cell (24, 0) is empty"]


def _line_draws(n, q, trials, already_nonempty, seed=0):
    """`trials` fills of one nonempty line of n free cells, one stream across them.

    With `already_nonempty` the line holds one more cell, a fixed occupied one.
    """
    line = tuple((x, 0) for x in range(n + already_nonempty))
    fixed = {line[-1]: O} if already_nonempty else {}
    plan = _plan([Condition(NONEMPTY, "row", (1,), (line,))], 1, q, n + 1, fixed)
    reader = PhiloxReader(seed, trials * n)
    return np.array([_fill(plan, q, reader) for _ in range(trials)], dtype=np.uint8)


class TestSampleLine:
    @pytest.mark.parametrize("q", [0.3, 0.7, 0.95])
    @pytest.mark.parametrize("already_nonempty", [False, True])
    def test_pattern_law(self, q, already_nonempty):
        """Each occupancy pattern of a 3-cell line at its i.i.d. law, given nonempty or not."""
        n, trials = 3, 20_000
        draws = _line_draws(n, q, trials, already_nonempty)
        assert set(np.unique(draws)) <= {E, O}
        counts = {}
        for row in draws.tolist():
            counts[tuple(row)] = counts.get(tuple(row), 0) + 1
        for pattern in np.ndindex(*(2,) * n):
            m = sum(pattern)
            p = (1 - q) ** m * q ** (n - m)
            if not already_nonempty:
                p = 0.0 if m == 0 else p / (1 - q**n)
            est = counts.get(pattern, 0) / trials
            assert abs(est - p) <= 4 * math.sqrt(max(p * (1 - p), 1 / trials) / trials)

    def test_extreme_q(self):
        # one line in 10^12 is empty at this q: retrying until a cell is
        # occupied would not end, the inverted geometric draw does
        draws = _line_draws(4, 1 - 1e-12, 4000, already_nonempty=False)
        assert (draws.sum(axis=1) == O).all()
        first = draws.argmax(axis=1)
        assert all(abs(np.mean(first == j) - 0.25) < 0.04 for j in range(4))
        assert (_line_draws(4, 1e-300, 50, already_nonempty=False) == O).all()

    def test_empty_status_and_skipped_cells(self):
        reader = PhiloxReader(3, 0)
        fixed = {(2, 0): O}
        grid = np.full(5, O, dtype=np.uint8)
        line = tuple((x, 0) for x in range(5))
        plan = _plan([Condition(EMPTY, "row", (1,), (line,))], 1, 0.5, 5, fixed)
        grid[plan.cells] = _fill(plan, 0.5, reader)
        grid[plan.fixed_cells] = plan.fixed_states
        assert grid.tolist() == [E, E, O, E, E]
        plan = _plan([Condition(NONEMPTY, "cell", (3,), (((2, 0),),))], 1, 0.5, 5, fixed)
        assert _fill(plan, 0.5, reader) == []  # nothing left to draw
        assert reader.random() == np.random.Generator(np.random.Philox(key=3)).random()


class TestGrowthGuarantee:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_zero_violations_smoke(self, k):
        report = verify_growth_guarantee(k, trials=40, seed=11, q=0.5)
        assert report.total_violations == 0, "\n" + report.summary()

    def test_report_structure(self):
        report = verify_growth_guarantee(2, trials=5, seed=1, q=0.5)
        kinds = {c.kind.split("[")[0] for c in report.cases}
        assert kinds == {"dk", "jk", "ek"}
        assert all(c.trials == 5 for c in report.cases)
        assert "TOTAL" in report.summary()

    def test_ek_growth_reaches_full_block(self):
        # conditioned sample + evolution reaches R(L-1, L-1) even with an
        # adversarial empty background
        chain = EventChain(2, 26, ((4, 9), (12, 17)))
        spec = ModelSpec(Variant.LOCAL_K, k=2, q=0.5)
        for seed in range(25):
            lat = sample_conditioned(chain, q=0.5, seed=seed, background="empty")
            fixed, _, converged = run_to_fixpoint(lat, spec)
            assert converged
            side = chain.L - 1
            assert np.all(fixed.cells[:side, :side] == A)


def _gap_pattern(u, k, forced, reader):
    """One draw of the gap-free sampler: the table, then the forward pass."""
    return _statuses((True, _gap_table(u, k, forced), ()), reader)


def _gap_pattern_numpy(u, k, forced, rng):
    """The gap-free sampler as it was written with a numpy backward table."""
    n = len(u)
    log_u = [0.0 if i in forced else (math.log(u[i]) if u[i] > 0 else -math.inf) for i in range(n)]
    log_1mu = [
        -math.inf if i in forced else (math.log1p(-u[i]) if u[i] < 1 else -math.inf)
        for i in range(n)
    ]
    NEG = -math.inf
    suffix = np.zeros((n + 1, k))
    for j in range(n - 1, -1, -1):
        for r in range(k):
            succ = log_u[j] + suffix[j + 1][0]
            fail = NEG if r + 1 >= k else log_1mu[j] + suffix[j + 1][r + 1]
            hi = max(succ, fail)
            suffix[j][r] = hi if hi == NEG else hi + math.log(
                math.exp(succ - hi) + math.exp(fail - hi)
            )
    if suffix[0][0] == NEG:
        raise ValueError("conditioning event has probability zero")
    out = []
    r = 0
    for j in range(n):
        log_p1 = log_u[j] + suffix[j + 1][0] - suffix[j][r]
        occur = math.log(max(rng.random(), 1e-300)) < log_p1
        out.append(bool(occur))
        r = 0 if occur else r + 1
    return out


class TestGapPattern:
    def test_same_draws_as_the_numpy_table(self):
        gen = np.random.default_rng(12)
        for case in range(400):
            k = int(gen.integers(1, 6))
            n = int(gen.integers(0, 30))
            u = gen.random(n)
            pick = gen.random(n)
            u[pick < 0.15] = 1.0 - 0.5**40  # a line that is empty about once in 10^12
            u[pick < 0.1] = 1.0
            u[pick < 0.05] = 0.0
            u = list(u)
            forced = {int(i) for i in np.flatnonzero(gen.random(n) < 0.1)}
            results = []
            for sampler, rng in ((_gap_pattern, PhiloxReader(case, n)),
                                 (_gap_pattern_numpy, np.random.Generator(np.random.Philox(key=case)))):
                try:
                    results.append((sampler(u, k, forced, rng), rng.random()))
                except ValueError as exc:
                    results.append(str(exc))
            assert results[0] == results[1]


def _planted_trial(width, height, seed):
    """Fully occupied 8 x 8 windows, except that at seed 3 only R(width, height) is occupied."""
    cells = np.full((8, 8), O, dtype=np.uint8)
    if seed == 3:
        cells[:, width:] = cells[height:, :] = E
    cells[0, 0] = A
    return cells


class TestTrialRunner:
    model = ModelSpec(Variant.LOCAL_K, k=2, q=0.5)

    @pytest.mark.parametrize("width,height", [(6, 6), (7, 6), (6, 7)])
    def test_planted_violation_reports_the_oracle_snapshot(self, width, height):
        build = functools.partial(_planted_trial, width, height)
        res = CaseResult("dk", 2, "local", 4, 9, 6, 0)
        _run_case([res], [self.model], build, side=7, seeds=range(6))
        assert res.violations == 1
        fixed, _, _ = run_to_fixpoint(Lattice(cells=build(3)), self.model)
        assert res.counterexample == to_text(fixed)
        assert res.counterexample.count("A") == width * height

    def test_first_counterexample_is_kept(self):
        def build(seed):
            return _planted_trial(6 if seed == 3 else 5, 6, min(seed, 3))

        res = CaseResult("dk", 2, "local", 4, 9, 6, 0)
        _run_case([res], [self.model], build, side=7, seeds=range(6))
        assert res.violations == 3
        assert res.counterexample.count("A") == 36

    def test_case_table_seeds_and_squares(self, monkeypatch):
        calls = []

        def record(results, models, build, side, seeds):
            (res,) = results
            calls.append((res.kind, res.a, res.b, side, seeds))

        monkeypatch.setattr(growth_events, "_run_case", record)
        verify_growth_guarantee(2, trials=3, seed=5, q=0.5)
        dk, jk, ek = (
            range(5 * stride, 5 * stride + 3) for stride in (1_000_003, 7_000_003, 13_000_003)
        )
        assert calls == [
            ("dk", 4, 9, 8, dk), ("dk", 6, 13, 12, dk),
            ("jk[s=0,t=0]", 6, 12, 12, jk), ("jk[s=1,t=1]", 6, 12, 12, jk),
            ("jk[s=0,t=0]", 8, 16, 16, jk), ("jk[s=1,t=1]", 8, 16, 16, jk),
            ("jk[s=0,t=0]", 6, 10, 10, jk), ("jk[s=1,t=1]", 6, 10, 10, jk),
            ("ek", 4, 9, 25, ek), ("ek", 5, 17, 25, ek),
        ]

    def test_oracle_disagreement_raises(self, monkeypatch):
        monkeypatch.setattr(growth_events, "bitboard_closure", lambda *args, **kwargs: (0, 0))
        build = functools.partial(_planted_trial, 6, 6)
        with pytest.raises(AssertionError, match="disagree"):
            _run_case([CaseResult("dk", 2, "local", 4, 9, 1, 0)], [self.model], build,
                      side=7, seeds=[0])

    def test_k1_builds_each_trial_once_for_both_variants(self, monkeypatch):
        builds = []

        real_cases = growth_events._growth_cases

        def counting_cases(k, q):
            def wrap(build):
                return lambda seed: builds.append(seed) or build(seed)
            return [(*case[:4], wrap(case[4]), case[5]) for case in real_cases(k, q)]

        monkeypatch.setattr(growth_events, "_growth_cases", counting_cases)
        report = verify_growth_guarantee(1, trials=4, seed=3, q=0.5)
        n_cases = len(real_cases(1, 0.5))
        assert len(builds) == 4 * n_cases
        variants = [c.variant for c in report.cases]
        assert variants == ["modified"] * n_cases + ["frobose"] * n_cases
        per_variant = [
            verify_growth_guarantee(1, trials=4, seed=3, q=0.5, variant=var).cases
            for var in (Variant.LOCAL_MODIFIED, Variant.LOCAL_FROBOSE)
        ]
        assert report.cases == per_variant[0] + per_variant[1]

    def test_each_model_keeps_its_own_counts_and_first_counterexample(self):
        def build(seed):
            """Seed 2: an empty 2-column gap that only k = 3 jumps; seed 4: R(6, 6) occupied."""
            cells = np.full((8, 8), O, dtype=np.uint8)
            if seed == 2:
                cells[:, 3:5] = E
            if seed == 4:
                cells[:, 6:] = cells[6:, :] = E
            cells[0, 0] = A
            return cells

        models = [self.model, ModelSpec(Variant.LOCAL_K, k=3, q=0.5)]
        results = [CaseResult("dk", m.k, "local", 4, 9, 6, 0) for m in models]
        _run_case(results, models, build, side=7, seeds=range(6))
        assert [res.violations for res in results] == [2, 1]
        for res, model, first in zip(results, models, (2, 4)):
            fixed, _, _ = run_to_fixpoint(Lattice(cells=build(first)), model)
            assert res.counterexample == to_text(fixed)
            single = CaseResult("dk", model.k, "local", 4, 9, 6, 0)
            _run_case([single], [model], build, side=7, seeds=range(6))
            assert res == single

    @pytest.mark.parametrize("kwargs", [{"q": 0.0}, {"q": 1.0}, {"q": 1.5}, {"q": math.nan},
                                        {"trials": 0}, {"k": 0}])
    def test_bad_input_rejected_before_any_trial(self, kwargs, monkeypatch):
        monkeypatch.setattr(growth_events, "_run_case", None)  # any trial would fail loudly
        args = {"k": 2, "trials": 3, "seed": 1, "q": 0.5, **kwargs}
        with pytest.raises(ValueError):
            verify_growth_guarantee(**args)


def _run_case_per_trial(results, models, build, side, seeds):
    """`_run_case` as it was written before the trials shared a board: one closure each.

    One change: a square that does not fit its window counts as unfilled.
    The old loop read such a square off the row-major board, where it wraps
    into the next row.
    """
    for seed in seeds:
        lat = Lattice(cells=build(seed))
        W, cells = lat.width, lat.cells.reshape(-1)
        fit = side <= min(lat.width, lat.height)
        square = sum(((1 << side) - 1) << (y * W) for y in range(side))  # R(side, side)
        start = pack_board(cells == CellState.ACTIVE)
        occupied = pack_board(cells == CellState.OCCUPIED)
        for res, model in zip(results, models):
            active, _ = bitboard_closure(model, W, lat.height, start, occupied,
                                         stop=lambda board: board & square == square)
            if fit and active & square == square:
                continue
            fixed, _ = reference_fixpoint(lat, model)
            if fit and np.all(fixed.cells[:side, :side] == CellState.ACTIVE):
                raise AssertionError(
                    f"bitboard closure and reference_fixpoint disagree on {res.kind} seed {seed}"
                )
            res.violations += 1
            if res.counterexample is None:
                res.counterexample = to_text(fixed)


_MODEL_SETS = [
    [ModelSpec(Variant.LOCAL_MODIFIED, k=1, q=0.5), ModelSpec(Variant.LOCAL_FROBOSE, k=1, q=0.5)],
    [ModelSpec(Variant.LOCAL_K, k=2, q=0.5)],
    [ModelSpec(Variant.LOCAL_K, k=3, q=0.5)],
    [ModelSpec(Variant.LOCAL_K, k=4, q=0.5)],
    [ModelSpec(Variant.LOCAL_K, k=2, q=0.5), ModelSpec(Variant.LOCAL_K, k=3, q=0.5)],
]


@st.composite
def _trial_batches(draw):
    """(models, trial windows by seed, side): windows of mixed sizes, often filled at their edges."""
    models = draw(st.sampled_from(_MODEL_SETS))
    trials = {}
    for seed in draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=6, unique=True)):
        W, H = draw(st.integers(1, 10)), draw(st.integers(1, 10))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        cells = np.where(rng.random((H, W)) < draw(st.floats(0.0, 1.0)), O, E).astype(np.uint8)
        cells[rng.random((H, W)) < draw(st.floats(0.0, 0.2))] = A
        for x in draw(st.sets(st.sampled_from([0, W - 1]))):  # a whole edge column set
            cells[:, x] = draw(st.sampled_from([O, A]))
        if draw(st.booleans()):
            cells[0, 0] = A
        trials[seed] = cells
    return models, trials, draw(st.integers(1, 11))


class TestBatchedTrials:
    @given(_trial_batches())
    @settings(max_examples=200, deadline=None)
    def test_matches_one_closure_per_trial(self, batch):
        models, trials, side = batch
        outcomes = []
        for runner, per_board in ((_run_case, 128), (_run_case, 2), (_run_case_per_trial, None)):
            results = [CaseResult("dk", m.k, m.variant.value, 4, 9, len(trials), 0) for m in models]
            with mock.patch.object(growth_events, "_BOARD_TRIALS", per_board):
                runner(results, models, trials.__getitem__, side, list(trials))
            outcomes.append(results)
        assert outcomes[0] == outcomes[1] == outcomes[2]

    def test_square_larger_than_its_window_is_a_violation(self):
        # R(9, 9) does not fit an 8 x 8 window, though the whole window fills
        build = functools.partial(_planted_trial, 8, 8)
        res = CaseResult("dk", 2, "local", 4, 9, 2, 0)
        _run_case([res], [TestTrialRunner.model], build, side=9, seeds=range(2))
        assert res.violations == 2
        assert res.counterexample == ("A" * 8 + "\n") * 8

    def test_trials_do_not_reach_across_the_separator(self):
        # a lone Active cell at the right edge of one window and a fully
        # Occupied neighbour: under local k the l1 ball of radius k would
        # reach across a gap narrower than k + 1 columns
        k = 3
        model = ModelSpec(Variant.LOCAL_K, k=k, q=0.5)
        left = np.zeros((4, 4), dtype=np.uint8)
        left[0, 3] = A
        right = np.full((4, 4), O, dtype=np.uint8)
        trials = [left, right]
        res = CaseResult("dk", k, "local", 4, 9, 2, 0)
        _run_case([res], [model], trials.__getitem__, side=1, seeds=range(2))
        assert res.violations == 2


class TestTrialGridDigest:
    def test_trial_grids_are_pinned(self):
        # the cells of every trial builder over k, q and seed, pinned by one
        # SHA-256 taken before the samplers read raw Philox words
        digest = hashlib.sha256()

        def add(cells):
            digest.update(f"{cells.shape}".encode())
            digest.update(cells.tobytes())

        for k in (1, 2, 3):
            chain = EventChain(k, 4 * k + 18, ((k + 2, 2 * k + 5), (2 * k + 7, 3 * k + 10)))
            for q in (0.3, 0.5, 0.9):
                for *_, build, _side in growth_events._growth_cases(k, q):
                    for seed in range(30):
                        add(build(seed))
                for background in ("sample", "empty"):
                    for seed in range(30):
                        add(sample_conditioned(chain, q, seed, background=background).cells)
        assert digest.hexdigest() == (
            "029448a054b8edaac0d85618cf8cd8aed9256189215e95e43ea717df1efe74cc"
        )


class TestChainCaching:
    def test_geometry_built_once(self):
        chain = EventChain(2, 26, ((4, 9), (12, 17)))
        assert chain.components() is chain.components()
        assert chain.fixed_cells() is chain.fixed_cells()
        assert chain == EventChain(2, 26, ((4, 9), (12, 17)))
