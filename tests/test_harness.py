"""Tests for the experiment harness."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perckit import growth_events, harness, lattice
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
    far_edge,
    pack_board,
    reaches_boundary,
    run_to_fixpoint,
)
from perckit.rng import (
    PhiloxReader,
    below,
    derive_seed,
    first_words,
    philox_words,
    splitmix64,
    uniforms,
)
from perckit.special_fn import lambda_k


def _stream(seed, trial):
    """A fresh `Generator` on trial `trial`'s stream under `seed`: the oracle of `rng`."""
    return np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, trial, 0]))


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
        # `philox_words`, which replaced `trial_generator`, reads the jumped stream
        for seed in (0, 11, 2**64 - 1, 2**128 - 1, derive_seed(42, 3)):
            for count in (0, 1, 3, 4, 5, 64, 1001):
                words = philox_words(seed, trial, count)
                assert words.dtype == np.uint64 and words.shape == (count,)
                jumped = np.random.Philox(key=seed).jumped(trial)
                assert np.array_equal(words, jumped.random_raw(count))

    def test_philox_words_start_every_trial_afresh(self):
        # one bit generator serves every call: a part-read block must not leak
        # into the next trial, whichever key came in between, and an earlier
        # result stays the caller's own
        earlier = []
        for seed, trial, count in [(5, 0, 3), (5, 1, 1), (9, 1, 6), (5, 1, 2), (2**64 - 1, 3, 5)]:
            words = philox_words(seed, trial, count)
            assert np.array_equal(words, _stream(seed, trial).bit_generator.random_raw(count))
            earlier.append((seed, trial, words, words.copy()))
        for seed, trial, words, copy in earlier:
            assert np.array_equal(words, copy)
            assert np.array_equal(words, philox_words(seed, trial, len(copy)))

    @pytest.mark.parametrize("p", [0.0, 2.0**-53, 0.3, float(np.nextafter(1.0, 0.0)), 1.0])
    def test_below_matches_the_generator(self, p):
        for seed in (0, 3, 2**100 + 1):
            words = philox_words(seed, 2, 500)
            assert np.array_equal(below(words, p), _stream(seed, 2).random(500) < p)
            assert below(words.reshape(20, 25), p).shape == (20, 25)

    def test_below_at_a_drawn_value(self):
        # p one ulp either side of a draw u, and u itself: random() < p flips
        # between u and the next float up
        words = philox_words(4, 0, 40)
        for u, word in zip(_stream(4, 0).random(40), words):
            one = word.reshape(1)
            assert not below(one, np.nextafter(u, 0.0))[0]
            assert not below(one, u)[0]
            assert below(one, np.nextafter(u, 1.0))[0]

    @pytest.mark.parametrize("p", [-0.5, -0.0, 1.5, math.inf, -math.inf, math.nan])
    def test_below_out_of_range(self, p):
        words = philox_words(8, 0, 300)
        assert np.array_equal(below(words, p), _stream(8, 0).random(300) < p)

    def test_uniforms_match_the_generator(self):
        for seed, trial in [(0, 0), (7, 3), (2**128 - 1, 2**63)]:
            draws = uniforms(philox_words(seed, trial, 999))
            assert np.array_equal(draws, _stream(seed, trial).random(999))
            assert np.array_equal(draws, _stream(seed, trial).uniform(0.0, 1.0, 999))
        assert uniforms(philox_words(1, 0, 0)).shape == (0,)

    def test_numpy_random_is_named_only_in_rng(self):
        # one module holds the bit generator and turns its words into draws
        src = Path(__file__).resolve().parent.parent / "src" / "perckit"
        named = re.compile(r"\b(numpy|np)\.random\b|from numpy import random|import numpy\.random")
        users = sorted(p.name for p in src.glob("*.py") if named.search(p.read_text()))
        assert users == ["rng.py"]

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

    def test_reader_tops_up_its_own_stream(self):
        # words read for other seeds and trials in between do not leak into a top-up
        ref = np.random.Generator(np.random.Philox(key=12))
        reader = PhiloxReader(12, 2)
        assert reader.random() == ref.random()
        for seed, trial in [(13, 0), (12, 5), (2**127, 1)]:
            philox_words(seed, trial, 7)
            assert reader.below(0.4, 3) == (ref.random(3) < 0.4).tolist()
            assert [reader.integers(3 * 2**30) for _ in range(20)] == ref.integers(
                3 * 2**30, size=20).tolist()

    @pytest.mark.parametrize("p", [0.0, -1.0, 1.0, 2.0, math.nan])
    def test_reader_below_out_of_range(self, p):
        ref = np.random.Generator(np.random.Philox(key=6))
        assert PhiloxReader(6, 2).below(p, 6) == (ref.random(6) < p).tolist()

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
    def test_first_words_match_the_generator(self, seed, trials):
        words = first_words(seed, np.array(trials, dtype=np.uint64))
        assert words.dtype == np.uint64
        assert words.tolist() == [int(philox_words(seed, t, 1)[0]) for t in trials]
        assert uniforms(words).tolist() == [_stream(seed, t).random() for t in trials]

    @pytest.mark.parametrize("q", [0.0, 1.0, 1.0 - 2.0**-53, 2.0**-53, 0.5])
    def test_active_origins_match_the_per_trial_loop(self, q):
        # q = 1 - 2^-53 leaves only a draw of exactly 0 active; q = 2^-53 puts
        # 1 - q one float below 1, so a draw of 1 - 2^-53 is not below it
        for seed in (3, 2**64 + 7):
            want = [t for t in range(2000) if _stream(seed, t).random() < 1.0 - q]
            assert list(harness._active_origins(seed, 2000, 1.0 - q)) == want
        assert (uniforms(first_words(3, np.arange(2000))) < 1.0).all()

    @pytest.mark.parametrize("seed", [-1, 2**128, 2**130 + 5])
    def test_first_uniforms_refuse_the_seeds_trial_generator_refuses(self, seed):
        # now `first_words` and `philox_words`, which replaced them
        with pytest.raises(ValueError) as kernel:
            first_words(seed, np.arange(3))
        with pytest.raises(ValueError) as stream:
            philox_words(seed, 0, 3)
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
        qs = (0.45, 0.55, 0.65, 0.75)
        spec_for = {q: ModelSpec(Variant.LOCAL_K, 2, q) for q in qs}
        L = 16
        counts = {q: 0 for q in qs}
        for t in range(120):
            draws = _stream(17, t).random((L, L))
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
        draws = _stream(point_seed, t).random((L, L))
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
        rng = _stream(point_seed, t)
        if rng.random() >= p_active:
            continue
        nonempty = pack_board(rng.random(L * L - 1) < p_active) << 1 | 1
        successes += bitboard_reaches_far_edge(spec, L, nonempty)
    return successes


def _check_board_layout(width, height, k):
    gap, windows = lattice._board_layout(width, height, k)
    assert max(k, 2) <= gap < max(k, 2) + 8 and (height + gap) * width % 8 == 0
    assert windows == 1 or windows * (height + gap) * width <= lattice._BOARD_BITS
    assert windows & (windows - 1) == 0 and 1 <= windows <= lattice._BOARD_TRIALS


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
        _check_board_layout(L, L, k)

    @pytest.mark.parametrize("k", [1, 2, 3, 40])
    def test_growth_board_layout(self, k):
        shapes = {build(0).shape for *_, build, _ in growth_events._growth_cases(k, 0.5)}
        for height, width in shapes:
            _check_board_layout(width, height, k)
        if k == 40:  # the E_k window is 178 x 178: the bit cap, not the count cap, binds
            assert (178, 178) in shapes and lattice._board_layout(178, 178, 40)[1] < 128

    def test_board_cap_by_bits(self):
        # no trial runs: the cap comes from L and k alone
        assert {lattice._board_layout(L, L, 2)[1] for L in range(32, 57)} == {128}
        assert lattice._board_layout(8000, 8000, 2)[1] == 1

    @pytest.mark.parametrize("variant_k,q,L,trials", [
        ((Variant.LOCAL_K, 3), 0.0, 50, 300),
        ((Variant.LOCAL_K, 2), 0.45, 60, 300),
        ((Variant.LOCAL_FROBOSE, 1), 0.2, 48, 300),
        ((Variant.LOCAL_MODIFIED, 1), 0.5, 37, 600),
    ])
    def test_survivors_fill_several_boards(self, monkeypatch, variant_k, q, L, trials):
        spec = ModelSpec(variant_k[0], k=variant_k[1], q=q)
        gap = lattice._board_layout(L, L, spec.k)[0]
        nbytes = (L + gap) * L // 8
        blocks = []
        closure = lattice.bitboard_closure

        def strides(board, count):
            raw = board.to_bytes(count * nbytes, "little")
            return [raw[i:i + nbytes] for i in range(0, len(raw), nbytes)]

        def spy(spec, width, height, active, occupied, budget):
            board, generations = closure(spec, width, height, active, occupied, budget=budget)
            count = (height + gap) // (L + gap)
            # padding windows are blank; every trial window has an Active origin
            windows = [(a, o) for a, o in zip(strides(active, count), strides(occupied, count))
                       if a.strip(b"\0")]
            blocks.append((windows, strides(board, len(windows)), generations))
            return board, generations

        solo = _solo_trials(spec, L, trials, 17)
        monkeypatch.setattr(lattice, "bitboard_closure", spy)
        assert _boundary_trials(spec, L, trials, 17) == solo
        assert len(blocks) >= 2 and any(len(w) == lattice._BOARD_TRIALS for w, *_ in blocks)
        far = far_edge(L, L)
        origin = (1).to_bytes(nbytes, "little")
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

    def test_no_board_shaped_far_mask_is_cached(self, monkeypatch):
        # only the L x L window's far edge is read, and no board shape keeps
        # one: the masks cached for a board are (all cells, plus, minus)
        shapes = set()
        closure = lattice.bitboard_closure

        def spy(spec, width, height, *args, **kwargs):
            shapes.add((width, height, max(spec.k - 1, 1)))
            return closure(spec, width, height, *args, **kwargs)

        monkeypatch.setattr(lattice, "bitboard_closure", spy)
        _board_masks.cache_clear()
        trend_check_theorem1(2, [0.5, 0.4, 0.3], trials=300, seed=5, L_rule=lambda s: 24)
        assert len(shapes) > 1 and _board_masks.cache_info().currsize == len(shapes)
        for width, height, reach in shapes:
            assert far_edge(width, height) not in _board_masks(width, height, reach)
        assert _board_masks.cache_info().misses == len(shapes)

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
