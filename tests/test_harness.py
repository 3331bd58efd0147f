"""Tests for the experiment harness."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perckit import harness
from perckit.harness import (
    ExperimentConfig,
    MCResult,
    _boundary_trials,
    default_trend_window,
    results_to_csv,
    scan_threshold,
    sweep_pak_bounds,
    trend_check_theorem1,
    write_results,
)
from perckit.lattice import (
    CellState,
    Lattice,
    ModelSpec,
    Variant,
    _board_masks,
    bitboard_reaches_far_edge,
    pack_board,
    reaches_boundary,
    run_to_fixpoint,
)
from perckit.rng import PhiloxReader, derive_seed, first_uniforms, splitmix64, trial_generator
from perckit.special_fn import lambda_k


class TestRng:
    def test_splitmix_vectors(self):
        # values differ and are stable across calls
        a = splitmix64(0)
        b = splitmix64(1)
        assert a != b
        assert splitmix64(0) == a
        assert 0 <= a < 2**64

    def test_derive_seed_distinct(self):
        seeds = {derive_seed(42, i) for i in range(1000)}
        assert len(seeds) == 1000
        with pytest.raises(ValueError):
            derive_seed(42, -1)

    @pytest.mark.parametrize("trial", [0, 1, 7, 2**32 + 3])
    def test_trial_generator_is_the_jumped_stream(self, trial):
        seed = derive_seed(42, 3)
        jumped = np.random.Generator(np.random.Philox(key=seed).jumped(trial))
        assert np.array_equal(trial_generator(seed, trial).random(64), jumped.random(64))

    def test_trial_generator_starts_every_trial_afresh(self):
        # one generator serves every call: a half-used buffer must not leak
        # into the next trial, whichever key came in between
        for seed, trial in [(5, 0), (5, 1), (9, 1), (5, 1), (2**64 - 1, 3)]:
            used = trial_generator(seed, trial)
            used.integers(7)  # leaves half a 64-bit word buffered
            used.random()
            fresh = np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, trial, 0]))
            got = trial_generator(seed, trial)
            assert got.integers(1000) == fresh.integers(1000)
            assert np.array_equal(got.random(5), fresh.random(5))
        assert trial_generator(11, 0).random() == np.random.Generator(np.random.Philox(key=11)).random()

    # n = 1 draws nothing; at 3 * 2^30 about a quarter of the 32-bit draws are rejected
    READER_NS = [1, 2, 3, 7, 1000, 3 * 2**30, 2**32 - 1]

    def test_reader_matches_the_generator(self):
        gen = np.random.default_rng(2024)
        for key in [0, 1, 2**32 + 5, 2**64 - 1, 2**128 - 1, *gen.integers(0, 2**63, size=150)]:
            key = int(key)
            ref = np.random.Generator(np.random.Philox(key=key))
            reader = PhiloxReader(key, int(gen.integers(0, 40)))
            for op in gen.integers(-2, len(self.READER_NS), size=120):
                if op == -2:
                    assert reader.random() == ref.random()
                elif op == -1:
                    m, p = int(gen.integers(0, 9)), float(gen.random())
                    assert reader.below(p, m) == (ref.random(m) < p).tolist()
                else:
                    n = self.READER_NS[op]
                    assert reader.integers(n) == int(ref.integers(n))
            assert reader.random() == ref.random()

    def test_reader_rejections_follow_the_generator(self):
        # 3 * 2^30 rejects about a quarter of the draws, so a block of 8
        # words is topped up many times over 400 calls
        ref = np.random.Generator(np.random.Philox(key=77))
        reader = PhiloxReader(77, 8)
        assert [reader.integers(3 * 2**30) for _ in range(400)] == ref.integers(
            3 * 2**30, size=400).tolist()
        assert reader.integers(5) == ref.integers(5)  # the same buffered half, if any
        assert reader.random() == ref.random()

    def test_reader_below_at_the_draw(self):
        # p equal to the draw, and the next float up: below 1/2 that is less
        # than a step of 2^-53 above it
        draws = np.random.Generator(np.random.Philox(key=4)).random(40)
        for step_up, want in ((False, False), (True, True)):
            reader = PhiloxReader(4, 40)
            got = [reader.below(np.nextafter(u, 1.0) if step_up else u, 1)[0] for u in draws]
            assert got == [want] * 40

    def test_reader_tops_up_past_its_block(self):
        ref = np.random.Generator(np.random.Philox(key=9))
        reader = PhiloxReader(9, 3)
        assert reader.below(0.5, 5) == (ref.random(5) < 0.5).tolist()
        assert [reader.random() for _ in range(10)] == ref.random(10).tolist()
        assert reader.integers(2**32 - 1) == ref.integers(2**32 - 1)

    @pytest.mark.parametrize("n", [0, -1, 2**32, 2**40])
    def test_reader_refuses_n_outside_32_bits(self, n):
        with pytest.raises(ValueError):
            PhiloxReader(1, 4).integers(n)

    @given(
        st.integers(0, 2**128 - 1),
        st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=40),
    )
    @example(0, [0, 1, 2])
    @example(2**128 - 1, [2**63 - 1, 2**32, 2**32 - 1])
    @settings(max_examples=150, deadline=None)
    def test_first_uniforms_match_the_generator(self, seed, trials):
        want = [trial_generator(seed, t).random() for t in trials]
        assert first_uniforms(seed, np.array(trials, dtype=np.uint64)).tolist() == want

    @pytest.mark.parametrize("q", [0.0, 1.0, 1.0 - 2.0**-53, 2.0**-53, 0.5])
    def test_active_origins_match_the_per_trial_loop(self, q):
        # q = 1 - 2^-53 leaves only a draw of exactly 0 active; q = 2^-53 puts
        # 1 - q one float below 1, so a draw of 1 - 2^-53 is not below it
        for seed in (3, 2**64 + 7):
            want = [t for t in range(2000) if trial_generator(seed, t).random() < 1.0 - q]
            assert list(harness._active_origins(seed, 2000, 1.0 - q)) == want
        assert (first_uniforms(3, np.arange(2000)) < 1.0).all()

    @pytest.mark.parametrize("seed", [-1, 2**128, 2**130 + 5])
    def test_first_uniforms_refuse_the_seeds_trial_generator_refuses(self, seed):
        with pytest.raises(ValueError) as kernel:
            first_uniforms(seed, np.arange(3))
        with pytest.raises(ValueError) as stream:
            trial_generator(seed, 0)
        assert str(kernel.value) == str(stream.value)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(model="local", k_values=(), L_values=(8,), q_values=(0.5,), seed=0)
        with pytest.raises(ValueError):
            ExperimentConfig(model="local", k_values=(2,), L_values=(8,), seed=0)
        with pytest.raises(ValueError):
            ExperimentConfig(
                model="local", k_values=(2,), L_values=(8,), q_values=(0.5,), s_values=(0.1,),
                seed=0,
            )
        with pytest.raises(ValueError):
            ExperimentConfig(
                model="global", k_values=(2,), L_values=(8,), q_values=(0.5,), seed=0
            )
        with pytest.raises(ValueError):
            ExperimentConfig(
                model="local", k_values=(2,), L_values=(8,), q_values=(0.5,), trials=0, seed=0
            )

    def test_points_grid_order(self):
        cfg = ExperimentConfig(
            model="local", k_values=(2, 3), L_values=(8, 16), s_values=(0.5,), seed=1
        )
        pts = cfg.points()
        assert [(k, L) for k, _, _, L in pts] == [(2, 8), (2, 16), (3, 8), (3, 16)]
        assert pts[0][1] == pytest.approx(math.exp(-0.5))

    def test_q_one_gives_s_zero(self):
        cfg = ExperimentConfig(model="local", k_values=(2,), L_values=(8,), q_values=(1.0,), seed=1)
        s = cfg.points()[0][2]
        assert s == 0.0 and math.copysign(1.0, s) == 1.0

    def test_unknown_model(self):
        with pytest.raises(ValueError, match="foo"):
            ExperimentConfig(model="foo", k_values=(2,), L_values=(8,), q_values=(0.5,), seed=1)

    def test_json_roundtrip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps(
                {
                    "model": "modified",
                    "k_values": [1],
                    "L_values": [12],
                    "q_values": [0.7, 0.8],
                    "trials": 50,
                    "seed": 7,
                }
            )
        )
        cfg = ExperimentConfig.from_json(str(path))
        assert cfg.model == "modified" and cfg.q_values == (0.7, 0.8)


class TestScan:
    def test_degenerate_rows(self):
        cfg = ExperimentConfig(
            model="local", k_values=(2,), L_values=(9,), q_values=(1.0, 0.0), trials=40, seed=3
        )
        rows = scan_threshold(cfg)
        assert rows[0].estimate == 0.0  # q=1: everything empty
        assert rows[1].estimate == 1.0  # q=0: origin active, all occupied

    def test_deterministic_and_csv_stable(self):
        cfg = ExperimentConfig(
            model="local", k_values=(2,), L_values=(12,), q_values=(0.55, 0.6), trials=60, seed=5
        )
        a = results_to_csv(scan_threshold(cfg))
        b = results_to_csv(scan_threshold(cfg))
        assert a == b
        assert a.splitlines()[0] == "k,model,q,s,L,trials,successes,estimate,stderr,seed"

    def test_monotone_in_q_with_shared_randomness(self):
        # couple the q values through one uniform grid per trial: emptiness
        # sets are then nested in q, so boundary reach is pointwise monotone
        from perckit.lattice import (
            CellState, Lattice, ModelSpec, Variant, reaches_boundary, run_to_fixpoint,
        )
        from perckit.rng import trial_generator

        qs = (0.45, 0.55, 0.65, 0.75)
        spec_for = {q: ModelSpec(Variant.LOCAL_K, 2, q) for q in qs}
        L = 16
        counts = {q: 0 for q in qs}
        for t in range(120):
            draws = trial_generator(17, t).random((L, L))
            prev = None
            for q in qs:
                cells = np.where(
                    draws < 1.0 - q, np.uint8(CellState.OCCUPIED), np.uint8(CellState.EMPTY)
                )
                if draws[0, 0] < 1.0 - q:
                    cells[0, 0] = CellState.ACTIVE
                lat = Lattice(cells=cells, origin=(0, 0))
                fixed, _, _ = run_to_fixpoint(lat, spec_for[q])
                hit = reaches_boundary(fixed, spec_for[q])
                counts[q] += hit
                if prev is not None:
                    assert not (hit and not prev)  # success at larger q forces it at smaller
                prev = hit
        ests = [counts[q] for q in qs]
        assert all(a >= b for a, b in zip(ests, ests[1:]))

    def test_write_json(self, tmp_path):
        cfg = ExperimentConfig(
            model="frobose", k_values=(1,), L_values=(8,), q_values=(0.6,), trials=20, seed=2
        )
        rows = scan_threshold(cfg)
        out = tmp_path / "rows.json"
        write_results(rows, str(out), "json")
        data = json.loads(out.read_text())
        assert data[0]["model"] == "frobose"
        assert "wall_time" not in data[0]

    def test_mcresult_validation(self):
        with pytest.raises(ValueError):
            MCResult(k=2, model="local", q=0.5, s=0.7, L=8, trials=10, successes=11, seed=0)


def _fixpoint_trials(spec, L, trials, point_seed):
    """Boundary-reach successes by `run_to_fixpoint` + `reaches_boundary` on each trial's grid."""
    successes = 0
    p_active = 1.0 - spec.q
    for t in range(trials):
        draws = trial_generator(point_seed, t).random((L, L))
        if draws[0, 0] >= p_active:
            continue
        cells = np.where(draws < p_active, np.uint8(CellState.OCCUPIED), np.uint8(CellState.EMPTY))
        cells[0, 0] = CellState.ACTIVE
        fixed, _, converged = run_to_fixpoint(Lattice(cells=cells), spec)
        successes += converged and reaches_boundary(fixed, spec)
    return successes


def _solo_trials(spec, L, trials, point_seed):
    """Boundary-reach successes by `bitboard_reaches_far_edge`, one trial at a time."""
    successes = 0
    p_active = 1.0 - spec.q
    for t in range(trials):
        rng = trial_generator(point_seed, t)
        if rng.random() >= p_active:
            continue
        nonempty = pack_board(rng.random(L * L - 1) < p_active) << 1 | 1
        successes += bitboard_reaches_far_edge(spec, L, nonempty)
    return successes


_VARIANT_K = [(Variant.LOCAL_K, k) for k in (2, 3, 4, 5)] + [
    (Variant.LOCAL_MODIFIED, 1),
    (Variant.LOCAL_FROBOSE, 1),
]


class TestBoundaryTrials:
    @given(
        st.sampled_from(_VARIANT_K),
        # the endpoints, anything, and the range where growth is near critical
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0), st.floats(0.4, 0.85)),
        st.integers(1, 70),
        st.integers(0, 2**64 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_fixpoint_and_bfs(self, variant_k, q, L, seed):
        variant, k = variant_k
        spec = ModelSpec(variant, k=k, q=q)
        trials = 3
        assert _boundary_trials(spec, L, trials, seed) == _fixpoint_trials(spec, L, trials, seed)

    @given(
        st.sampled_from(_VARIANT_K),
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0), st.floats(0.4, 0.85)),
        st.integers(1, 70),
        st.integers(150, 300),
        st.integers(0, 2**128 - 1),
    )
    # windows full to their edges: every trial survives its first blocks, on two or three boards
    @example((Variant.LOCAL_K, 2), 0.0, 70, 300, 1)
    @example((Variant.LOCAL_MODIFIED, 1), 0.0, 40, 260, 2)
    @example((Variant.LOCAL_FROBOSE, 1), 0.0, 12, 150, 3)
    # odd L: the gap is widened past max(k, 2) to a whole-byte stride
    @example((Variant.LOCAL_K, 3), 0.0, 37, 200, 2**70 + 3)
    @example((Variant.LOCAL_K, 2), 0.55, 33, 300, 2**64)
    @example((Variant.LOCAL_FROBOSE, 1), 0.45, 9, 300, 2**128 - 1)
    @settings(max_examples=60, deadline=None)
    def test_matches_solo_trials(self, variant_k, q, L, trials, seed):
        variant, k = variant_k
        spec = ModelSpec(variant, k=k, q=q)
        assert _boundary_trials(spec, L, trials, seed) == _solo_trials(spec, L, trials, seed)

    @pytest.mark.parametrize("L", [*range(1, 12), 37, 56, 8000])
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_board_layout(self, L, k):
        gap, windows = harness._board_layout(L, k)
        assert max(k, 2) <= gap < max(k, 2) + 8 and (L + gap) * L % 8 == 0
        assert windows == 1 or windows * (L + gap) * L <= harness._BOARD_BITS
        assert windows & (windows - 1) == 0 and 1 <= windows <= harness._BOARD_TRIALS

    def test_board_cap_by_bits(self):
        # no trial runs: the cap comes from L and k alone
        assert {harness._board_layout(L, 2)[1] for L in range(32, 57)} == {128}
        assert harness._board_layout(8000, 2)[1] == 1

    @pytest.mark.parametrize("variant_k,q,L,trials", [
        ((Variant.LOCAL_K, 3), 0.0, 50, 300),
        ((Variant.LOCAL_K, 2), 0.45, 60, 300),
        ((Variant.LOCAL_FROBOSE, 1), 0.2, 48, 300),
        ((Variant.LOCAL_MODIFIED, 1), 0.5, 37, 600),
    ])
    def test_survivors_fill_several_boards(self, monkeypatch, variant_k, q, L, trials):
        blocks = []
        run_block = harness._run_block

        def spy(spec, L, gap, windows):
            after, generations = run_block(spec, L, gap, windows)
            blocks.append((list(windows), after, generations))
            return after, generations

        monkeypatch.setattr(harness, "_run_block", spy)
        spec = ModelSpec(variant_k[0], k=variant_k[1], q=q)
        assert _boundary_trials(spec, L, trials, 17) == _solo_trials(spec, L, trials, 17)
        assert len(blocks) >= 2 and any(len(w) == harness._BOARD_TRIALS for w, *_ in blocks)
        gap = harness._board_layout(L, spec.k)[0]
        far = _board_masks(L, L, max(spec.k - 1, 1))[1]
        origin = (1).to_bytes((L + gap) * L // 8, "little")
        # a window enters as a fresh trial (only its origin Active) or as a
        # survivor: far edge not Active, changed through a block of G
        # generations; every survivor comes back exactly once, nothing else does
        survivors, resumed = [], []
        for windows, after, generations in blocks:
            for (a_in, cells), a_out in zip(windows, after):
                if a_in != origin:
                    resumed.append((a_in, cells))
                if (generations == harness._BLOCK_GENERATIONS
                        and not int.from_bytes(a_out, "little") & far and a_out != a_in):
                    survivors.append((a_out, cells))
        assert survivors and sorted(resumed) == sorted(survivors)

    def test_mask_cache_stays_bounded(self):
        # one window size, a survivor count per point: the padded board
        # heights give at most eight mask shapes, the L x L window among them
        _board_masks.cache_clear()
        s_grid = [0.5 - 0.015 * i for i in range(24)]
        report = trend_check_theorem1(2, s_grid, trials=300, seed=5, L_rule=lambda s: 24)
        assert len(set(report.successes)) > 8
        assert _board_masks.cache_info().currsize <= 8

    def test_pinned_trend_counts(self):
        # trend --k 2 --s 0.25 0.2 0.167 0.143 --trials 1000 --seed 7, as
        # counted by run_to_fixpoint + reaches_boundary before the bitboards
        report = trend_check_theorem1(2, (0.25, 0.2, 0.167, 0.143), trials=1000, seed=7)
        assert report.successes == [95, 59, 19, 20]


class TestTrend:
    def test_window_rule(self):
        assert default_trend_window(0.25) == 32
        assert default_trend_window(0.143) == 56

    def test_small_trend_run(self):
        report = trend_check_theorem1(
            2, (0.5, 0.4, 0.3), trials=400, seed=9, L_rule=lambda s: 12
        )
        assert report.lambda_k == pytest.approx(lambda_k(2))
        assert report.model == "local"  # the default local variant for k >= 2
        assert len(report.estimates) == 3
        if not report.degenerate:
            assert report.slope < 0

    def test_requires_decreasing_grid(self):
        with pytest.raises(ValueError):
            trend_check_theorem1(2, (0.3, 0.4), trials=10, seed=0)

    def test_frobose_not_above_modified(self):
        s, L, trials = 0.55, 14, 400
        rep_m = trend_check_theorem1(
            1, (s, s * 0.9), trials=trials, seed=13, L_rule=lambda _: L, model="modified"
        )
        rep_f = trend_check_theorem1(
            1, (s, s * 0.9), trials=trials, seed=13, L_rule=lambda _: L, model="frobose"
        )
        for pf, pm, ef, em in zip(
            rep_f.estimates, rep_m.estimates, rep_f.stderrs, rep_m.stderrs
        ):
            assert pf <= pm + 4 * math.hypot(ef, em)
        rep_default = trend_check_theorem1(
            1, (s, s * 0.9), trials=trials, seed=13, L_rule=lambda _: L
        )
        assert rep_default.model == "modified"  # the default local variant for k = 1
        assert rep_default.successes == rep_m.successes

    @pytest.mark.parametrize("model,k", [("global", 2), ("local", 1), ("frobose", 2), ("foo", 2)])
    def test_rejects_a_model_that_does_not_run(self, model, k):
        with pytest.raises(ValueError):
            trend_check_theorem1(k, (0.5, 0.4), trials=2, seed=0, model=model)

    def test_validate_trend_window_script(self):
        # the script reruns the trend at 2L; its default grid is s = 0.25, 0.2
        root = Path(__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, str(root / "scripts" / "validate_trend_window.py"),
             "--trials", "50", "--seed", "1"],
            env={**os.environ, "PYTHONPATH": str(root / "src")},
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == "s,L,estimate,L2,estimate2,agree_2se"
        assert [line.split(",")[:2] for line in lines[1:]] == [["0.25", "32"], ["0.2", "40"]]
        for line in lines[1:]:
            assert line.split(",")[3] == str(2 * int(line.split(",")[1]))


class TestSweep:
    def test_rows_and_lower_bound(self):
        rows = sweep_pak_bounds([1, 2], [0.2, 0.1], tol=1e-8)
        assert len(rows) == 4
        for r in rows:
            assert r.inside_lower
            assert r.error_bound <= 1e-8

    def test_k1_matches_closed_product(self):
        rows = sweep_pak_bounds([1], [0.15], tol=1e-10)
        exact = math.fsum(math.log1p(-math.exp(-i * 0.15)) for i in range(1, 600))
        assert rows[0].log_value == pytest.approx(exact, abs=1e-8)

    def test_ratio_decreasing_toward_one(self):
        rows = sweep_pak_bounds([2], [0.2, 0.1, 0.05], tol=1e-8)
        ratios = [r.ratio_to_upper for r in rows]
        assert ratios[0] > ratios[1] > ratios[2]

    def test_s_domain(self):
        with pytest.raises(ValueError):
            sweep_pak_bounds([2], [1.5])
