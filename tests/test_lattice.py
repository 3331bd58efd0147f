"""Tests for the cellular-automaton engine."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perckit import lattice
from perckit.lattice import (
    CellState,
    Lattice,
    ModelSpec,
    Variant,
    bitboard_closure,
    bitboard_reaches_far_edge,
    extract_growth_sequence,
    from_text,
    is_good_configuration,
    read_snapshot,
    reaches_boundary,
    reference_fixpoint,
    run_to_fixpoint,
    sample_initial,
    spans,
    step,
    step_reference,
    to_text,
    write_snapshot,
)

E, O, A = CellState.EMPTY, CellState.OCCUPIED, CellState.ACTIVE


def grid(rows):
    """Build a cells array from a list of rows given top-down (visual order)."""
    return np.array(rows[::-1], dtype=np.uint8)


class TestModelSpec:
    def test_variant_consistency(self):
        with pytest.raises(ValueError):
            ModelSpec(Variant.LOCAL_MODIFIED, k=2, q=0.5)
        with pytest.raises(ValueError):
            ModelSpec(Variant.LOCAL_FROBOSE, k=3, q=0.5)
        with pytest.raises(ValueError):
            ModelSpec(Variant.LOCAL_K, k=1, q=0.5)
        with pytest.raises(ValueError):
            ModelSpec(Variant.GLOBAL_K, k=2, q=1.5)
        ModelSpec(Variant.GLOBAL_K, k=1, q=0.5)  # fine


class TestSampling:
    def test_q_zero_localized(self):
        spec = ModelSpec(Variant.LOCAL_K, k=2, q=0.0)
        lat = sample_initial(spec, 5, 5, seed=1, localized=True)
        ox, oy = lat.origin
        assert lat.cells[oy, ox] == A
        others = lat.cells.copy()
        others[oy, ox] = O
        assert np.all(others == O)

    def test_q_one_all_empty(self):
        spec = ModelSpec(Variant.GLOBAL_K, k=2, q=1.0)
        lat = sample_initial(spec, 4, 4, seed=3)
        assert np.all(lat.cells == E)

    def test_deterministic(self):
        spec = ModelSpec(Variant.LOCAL_K, k=2, q=0.4)
        a = sample_initial(spec, 16, 16, seed=9, localized=True)
        b = sample_initial(spec, 16, 16, seed=9, localized=True)
        assert np.array_equal(a.cells, b.cells)
        c = sample_initial(spec, 16, 16, seed=10, localized=True)
        assert not np.array_equal(a.cells, c.cells)

    def test_localized_global_rejected(self):
        spec = ModelSpec(Variant.GLOBAL_K, k=2, q=0.5)
        with pytest.raises(ValueError):
            sample_initial(spec, 4, 4, seed=0, localized=True)


class TestHandDerivedFixpoints:
    def test_bootstrap_diagonal_pair(self):
        # two diagonal actives close under threshold-2 to the 2x2 block
        spec = ModelSpec(Variant.GLOBAL_K, k=2, q=0.5)
        cells = np.zeros((4, 4), dtype=np.uint8)
        cells[0, 0] = A
        cells[1, 1] = A
        lat = Lattice(cells=cells)
        nxt, changed = step(lat, spec)
        assert changed
        assert nxt.cells[0, 1] == A and nxt.cells[1, 0] == A
        fixed, steps, converged = run_to_fixpoint(lat, spec)
        assert converged
        expected = np.zeros((4, 4), dtype=np.uint8)
        expected[:2, :2] = A
        assert np.array_equal(fixed.cells, expected)

    def test_single_active_is_fixed(self):
        spec = ModelSpec(Variant.GLOBAL_K, k=2, q=0.5)
        cells = np.zeros((5, 5), dtype=np.uint8)
        cells[2, 2] = A
        fixed, steps, converged = run_to_fixpoint(Lattice(cells=cells), spec)
        assert converged and steps == 0
        assert np.array_equal(fixed.cells, cells)

    def test_fixpoint_budget(self):
        # one pending activation: the middle of a 3 x 1 strip sees 2 Active neighbours
        spec = ModelSpec(Variant.GLOBAL_K, k=2, q=0.5)
        lat = Lattice(cells=np.array([[A, E, A]], dtype=np.uint8))
        fixed, steps, converged = run_to_fixpoint(lat, spec, max_steps=0)
        assert (steps, converged, fixed.converged) == (0, False, False)
        assert np.all(fixed.cells == A)  # the generation that found the change is kept
        with pytest.raises(ValueError):
            run_to_fixpoint(lat, spec, max_steps=-1)
        fixed, steps, converged = run_to_fixpoint(lat, spec)
        assert (steps, converged, fixed.converged) == (1, True, True)
        # an occupied row grows one cell a generation under the modified rule
        spec = ModelSpec(Variant.LOCAL_MODIFIED, k=1, q=0.5)
        cells = np.full((1, 8), O, dtype=np.uint8)
        cells[0, 0] = A
        fixed, steps, converged = run_to_fixpoint(Lattice(cells=cells), spec, max_steps=3)
        assert (steps, converged) == (3, False)
        assert np.sum(fixed.cells == A) == 5
        assert run_to_fixpoint(Lattice(cells=cells), spec, max_steps=7)[1:] == (7, True)

    def test_frobose_corner_rule(self):
        # active at (1,0), (0,1), and corner (0,0): empty (1,1) fires
        spec = ModelSpec(Variant.LOCAL_FROBOSE, k=1, q=0.5)
        cells = np.zeros((3, 3), dtype=np.uint8)
        cells[0, 1] = A  # (x=1, y=0)
        cells[1, 0] = A  # (x=0, y=1)
        cells[0, 0] = A
        nxt, changed = step(Lattice(cells=cells), spec)
        assert changed and nxt.cells[1, 1] == A

    def test_frobose_needs_corner(self):
        spec = ModelSpec(Variant.LOCAL_FROBOSE, k=1, q=0.5)
        cells = np.zeros((3, 3), dtype=np.uint8)
        cells[0, 1] = A
        cells[1, 0] = A  # corner (0,0) stays empty
        nxt, changed = step(Lattice(cells=cells), spec)
        assert not changed

    def test_modified_empty_rule(self):
        # vertical + horizontal active neighbors, no corner needed
        spec = ModelSpec(Variant.LOCAL_MODIFIED, k=1, q=0.5)
        cells = np.zeros((3, 3), dtype=np.uint8)
        cells[0, 1] = A
        cells[1, 0] = A
        nxt, changed = step(Lattice(cells=cells), spec)
        assert changed and nxt.cells[1, 1] == A

    def test_modified_occupied_diagonal(self):
        # occupied activates across a diagonal only in the modified model
        mod = ModelSpec(Variant.LOCAL_MODIFIED, k=1, q=0.5)
        fro = ModelSpec(Variant.LOCAL_FROBOSE, k=1, q=0.5)
        cells = np.zeros((3, 3), dtype=np.uint8)
        cells[0, 0] = A
        cells[1, 1] = O
        nxt, changed = step(Lattice(cells=cells), mod)
        assert changed and nxt.cells[1, 1] == A
        nxt, changed = step(Lattice(cells=cells), fro)
        assert not changed

    def test_local_k_occupied_within_l1(self):
        spec = ModelSpec(Variant.LOCAL_K, k=3, q=0.5)
        cells = np.zeros((7, 7), dtype=np.uint8)
        cells[0, 0] = A
        cells[2, 1] = O  # l1 distance 3 = k: fires
        cells[0, 4] = O  # l1 distance 4 > k: does not
        nxt, _ = step(Lattice(cells=cells), spec)
        assert nxt.cells[2, 1] == A
        assert nxt.cells[0, 4] == O


class TestDifferentialAndMonotone:
    @pytest.mark.parametrize(
        "spec",
        [
            ModelSpec(Variant.GLOBAL_K, k=2, q=0.5),
            ModelSpec(Variant.GLOBAL_K, k=3, q=0.5),
            ModelSpec(Variant.LOCAL_K, k=2, q=0.5),
            ModelSpec(Variant.LOCAL_K, k=3, q=0.5),
            ModelSpec(Variant.LOCAL_MODIFIED, k=1, q=0.5),
            ModelSpec(Variant.LOCAL_FROBOSE, k=1, q=0.5),
        ],
        ids=lambda s: f"{s.variant.value}-k{s.k}",
    )
    def test_step_matches_reference(self, spec):
        rng = np.random.default_rng(11)
        for _ in range(60):
            cells = rng.choice(
                [0, 1, 2], size=(12, 12), p=[0.45, 0.35, 0.2]
            ).astype(np.uint8)
            if not spec.is_local:
                cells[cells == O] = E
            lat = Lattice(cells=cells)
            fast, ch_fast = step(lat, spec)
            slow, ch_slow = step_reference(lat, spec)
            assert ch_fast == ch_slow
            assert np.array_equal(fast.cells, slow.cells)

    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_step_matches_reference_on_tiny_windows(self, size):
        # neighbourhoods wider than the window shift wholly outside it
        specs = [ModelSpec(Variant.GLOBAL_K, k=k, q=0.5) for k in (1, 2, 3, 4)]
        specs += [ModelSpec(Variant.LOCAL_K, k=k, q=0.5) for k in (2, 3, 4)]
        specs += [ModelSpec(v, k=1, q=0.5) for v in (Variant.LOCAL_MODIFIED, Variant.LOCAL_FROBOSE)]
        rng = np.random.default_rng(size)
        for spec in specs:
            for _ in range(20):
                cells = rng.choice([0, 1, 2], size=(size, size)).astype(np.uint8)
                if not spec.is_local:
                    cells[cells == O] = E
                lat = Lattice(cells=cells)
                fast, ch_fast = step(lat, spec)
                slow, ch_slow = step_reference(lat, spec)
                assert ch_fast == ch_slow
                assert np.array_equal(fast.cells, slow.cells)

    def test_monotone_active_growth(self):
        spec = ModelSpec(Variant.LOCAL_K, k=2, q=0.5)
        lat = sample_initial(spec, 24, 24, seed=2, localized=True)
        prev = lat.active_mask()
        cur = lat
        for _ in range(50):
            cur, changed = step(cur, spec)
            now = cur.active_mask()
            assert np.all(now[prev])  # active set only grows
            prev = now
            if not changed:
                break

    def test_fixpoint_sweep_order_independence(self):
        # row-major vs column-major internal order: transpose symmetry of
        # the rules means the fixpoint of the transposed input transposes
        spec = ModelSpec(Variant.GLOBAL_K, k=2, q=0.5)
        rng = np.random.default_rng(21)
        for _ in range(25):
            cells = (rng.random((10, 10)) < 0.35).astype(np.uint8) * 2
            f1, _, _ = run_to_fixpoint(Lattice(cells=cells), spec)
            f2, _, _ = run_to_fixpoint(Lattice(cells=cells.T.copy()), spec)
            assert np.array_equal(f1.cells, f2.cells.T)

    def test_frobose_subset_of_modified(self):
        # 10^4 random 16x16 lattices, tiled into one grid with 1-cell empty
        # separators: both k=1 rules have influence radius 1 and an empty
        # separator line can never activate (it would need an active
        # neighbor along the line, and the line starts empty), so the tiles
        # evolve independently and one fixpoint run covers them all
        rng = np.random.default_rng(31)
        fro = ModelSpec(Variant.LOCAL_FROBOSE, k=1, q=0.5)
        mod = ModelSpec(Variant.LOCAL_MODIFIED, k=1, q=0.5)
        side, tile, sep = 100, 16, 1
        span = tile + sep
        big = np.zeros((side * span + sep, side * span + sep), dtype=np.uint8)
        for ty in range(side):
            for tx in range(side):
                y0, x0 = sep + ty * span, sep + tx * span
                big[y0 : y0 + tile, x0 : x0 + tile] = rng.choice(
                    [0, 1, 2], size=(tile, tile), p=[0.5, 0.4, 0.1]
                )
        lat = Lattice(cells=big)
        f_fro, _, c1 = run_to_fixpoint(lat, fro, max_steps=4 * tile)
        f_mod, _, c2 = run_to_fixpoint(lat.copy(), mod, max_steps=4 * tile)
        assert c1 and c2
        assert np.all(f_mod.active_mask()[f_fro.active_mask()])
        # the two rules genuinely differ somewhere in the batch
        assert f_fro.active_mask().sum() < f_mod.active_mask().sum()


class TestSpansReaches:
    def test_all_active(self):
        spec = ModelSpec(Variant.GLOBAL_K, k=2, q=0.5)
        cells = np.full((4, 4), A, dtype=np.uint8)
        fixed, _, _ = run_to_fixpoint(Lattice(cells=cells), spec)
        assert spans(fixed, spec)
        assert reaches_boundary(fixed, spec)

    def test_lonely_origin(self):
        spec = ModelSpec(Variant.LOCAL_K, k=2, q=1.0)
        cells = np.zeros((5, 5), dtype=np.uint8)
        cells[2, 2] = A
        fixed, _, _ = run_to_fixpoint(Lattice(cells=cells, origin=(2, 2)), spec)
        assert not spans(fixed, spec)
        assert not reaches_boundary(fixed, spec)

    def test_requires_fixpoint(self):
        spec = ModelSpec(Variant.GLOBAL_K, k=2, q=0.5)
        lat = Lattice(cells=np.zeros((3, 3), dtype=np.uint8))
        with pytest.raises(ValueError):
            spans(lat, spec)
        with pytest.raises(ValueError):
            reaches_boundary(lat, spec)

    def test_disconnected_boundary_not_counted(self):
        # a separately active far corner does not connect the origin cluster
        spec = ModelSpec(Variant.GLOBAL_K, k=2, q=0.5)
        cells = np.zeros((9, 9), dtype=np.uint8)
        cells[4, 4] = A
        cells[8, 8] = A
        fixed, _, _ = run_to_fixpoint(Lattice(cells=cells, origin=(4, 4)), spec)
        assert not reaches_boundary(fixed, spec)


def _pack(nonempty: np.ndarray) -> int:
    """Bitboard of a boolean [y, x] grid, bit y*L + x."""
    return int.from_bytes(np.packbits(nonempty.ravel(), bitorder="little").tobytes(), "little")


_LOCAL_SPECS = [(Variant.LOCAL_K, k) for k in (2, 3, 4, 5)] + [
    (Variant.LOCAL_MODIFIED, 1),
    (Variant.LOCAL_FROBOSE, 1),
]


class TestBitboardClosure:
    @pytest.mark.parametrize("variant_k", _LOCAL_SPECS, ids=lambda vk: f"{vk[0].value}-k{vk[1]}")
    def test_matches_fixpoint_and_bfs_on_many_small_windows(self, variant_k):
        # empty-cell activations decide reach only in rare small patterns;
        # many cheap windows near the critical density find them
        variant, k = variant_k
        rng = np.random.default_rng(k)
        for _ in range(400):
            L = int(rng.integers(2, 11))
            q = float(rng.uniform(0.3, 0.9))
            spec = ModelSpec(variant, k=k, q=q)
            nonempty = rng.random((L, L)) < 1.0 - q
            nonempty[0, 0] = True
            cells = np.where(nonempty, np.uint8(O), np.uint8(E))
            cells[0, 0] = A
            fixed, _ = reference_fixpoint(Lattice(cells=cells), spec)
            assert bitboard_reaches_far_edge(spec, L, _pack(nonempty)) == reaches_boundary(
                fixed, spec
            )

    def test_fully_occupied_reaches(self):
        for variant, k in _LOCAL_SPECS:
            spec = ModelSpec(variant, k=k, q=0.0)
            assert bitboard_reaches_far_edge(spec, 9, (1 << 81) - 1)

    def test_lonely_origin_and_single_cell_window(self):
        for variant, k in _LOCAL_SPECS:
            spec = ModelSpec(variant, k=k, q=1.0)
            assert not bitboard_reaches_far_edge(spec, 9, 1)
            assert not bitboard_reaches_far_edge(spec, 1, 1)  # no far edge at L = 1

    def test_row_end_does_not_wrap(self):
        # (0, 1) and the far cell (L-1, 0) are adjacent bits of the row-major
        # board, but further apart in the window than any rule reaches
        L = 8
        bits = np.zeros((L, L), dtype=bool)
        bits[0:2, 0] = True
        bits[0, L - 1] = True
        for variant, k in _LOCAL_SPECS:
            spec = ModelSpec(variant, k=k, q=0.5)
            assert not bitboard_reaches_far_edge(spec, L, _pack(bits))

    def test_rejects_global(self):
        # Active cells of a global sample need not join the origin's cluster
        with pytest.raises(ValueError):
            bitboard_reaches_far_edge(ModelSpec(Variant.GLOBAL_K, k=2, q=0.5), 4, 1)


_GLOBAL_SPECS = [(Variant.GLOBAL_K, k) for k in (1, 2, 3, 4)]


@st.composite
def _closure_windows(draw):
    """(spec, cells, side): a random W x H window with a random or rectangular Active start set.

    Global windows keep their Occupied cells, which the global rule counts as Empty.
    """
    variant, k = draw(st.sampled_from(_LOCAL_SPECS + _GLOBAL_SPECS))
    W, H = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    # the endpoints, anything, and the range where growth is near critical
    q = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0), st.floats(0.3, 0.9)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = np.where(rng.random((H, W)) < 1.0 - q, np.uint8(O), np.uint8(E))
    if draw(st.booleans()):  # a forced Active rectangle at the origin
        cells[: draw(st.integers(1, H)), : draw(st.integers(1, W))] = A
    else:
        cells[rng.random((H, W)) < draw(st.floats(0.0, 0.1))] = A
    return ModelSpec(variant, k=k, q=q), cells, draw(st.integers(1, min(W, H)))


class TestGeneralClosure:
    @given(_closure_windows())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_fixpoint(self, window):
        spec, cells, side = window
        H, W = cells.shape
        fixed, steps = reference_fixpoint(Lattice(cells=cells), spec)
        active = fixed.cells == A
        start = (_pack(cells == A), _pack(cells == O))
        assert bitboard_closure(spec, W, H, *start) == (_pack(active), steps)
        packed, packed_steps, converged = run_to_fixpoint(Lattice(cells=cells), spec)
        assert np.array_equal(packed.cells, fixed.cells)
        assert (packed_steps, converged) == (steps, True)

        in_square = np.zeros((H, W), dtype=bool)
        in_square[:side, :side] = True
        square = _pack(in_square)
        board, _ = bitboard_closure(spec, W, H, *start, stop=lambda b: b & square == square)
        assert (board & square == square) == bool(active[in_square].all())

        on_far_edge = np.zeros((H, W), dtype=bool)
        if H > 1:
            on_far_edge[H - 1, :] = True
        if W > 1:
            on_far_edge[:, W - 1] = True
        far = _pack(on_far_edge)
        board, _ = bitboard_closure(spec, W, H, *start, stop=lambda b: b & far)
        assert bool(board & far) == bool(active[on_far_edge].any())

    def test_stops_once_the_test_holds(self):
        # a fully occupied row grows one cell a generation under the
        # modified rule; stopping at (3, 0) leaves (4, 0) untouched
        spec = ModelSpec(Variant.LOCAL_MODIFIED, k=1, q=0.5)
        L = 8
        cells = np.zeros((L, L), dtype=np.uint8)
        cells[0, :] = O
        cells[0, 0] = A
        target = 1 << 3
        start = (_pack(cells == A), _pack(cells == O))
        assert bitboard_closure(spec, L, L, *start, stop=lambda b: b & target) == (0b1111, 3)
        assert bitboard_closure(spec, L, L, *start) == (0xFF, 7)


class TestGrowthSequence:
    def test_empty_origin(self):
        spec = ModelSpec(Variant.LOCAL_K, k=2, q=0.5)
        cells = np.zeros((8, 8), dtype=np.uint8)
        lat = Lattice(cells=cells, origin=(4, 4))
        assert extract_growth_sequence(lat, spec) == []
        assert not is_good_configuration(lat, spec)

    def test_lonely_active_origin_stalls(self):
        spec = ModelSpec(Variant.LOCAL_K, k=2, q=0.5)
        cells = np.zeros((16, 16), dtype=np.uint8)
        cells[8, 8] = A
        lat = Lattice(cells=cells, origin=(8, 8))
        seq = extract_growth_sequence(lat, spec)
        x0, y0, x1, y1 = seq[-1]
        # single gap lines are allowed for k=2; the second ring is not
        assert (x1 - x0 + 1, y1 - y0 + 1) == (3, 3)
        assert not is_good_configuration(lat, spec)

    def test_fully_occupied_grows_to_window(self):
        spec = ModelSpec(Variant.LOCAL_K, k=2, q=0.5)
        cells = np.full((10, 10), O, dtype=np.uint8)
        cells[5, 5] = A
        lat = Lattice(cells=cells, origin=(5, 5))
        seq = extract_growth_sequence(lat, spec)
        assert seq[-1] == (0, 0, 9, 9)
        assert is_good_configuration(lat, spec)

    def test_rejects_global(self):
        spec = ModelSpec(Variant.GLOBAL_K, k=2, q=0.5)
        lat = Lattice(cells=np.zeros((4, 4), dtype=np.uint8))
        with pytest.raises(ValueError):
            extract_growth_sequence(lat, spec)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_boundary_reach_implies_good(self, k):
        # Lemma: indefinite growth (finite proxy: the fixpoint reaches the
        # window edge) forces an unbounded maximal growth sequence.
        # Near-critical 64x64 windows; sample count trimmed to keep the
        # suite fast, the implication is checked on every boundary hit.
        variant = Variant.LOCAL_K if k >= 2 else Variant.LOCAL_MODIFIED
        qc = {1: 0.78, 2: 0.62, 3: 0.45}[k]
        spec = ModelSpec(variant, k=k, q=qc)
        hits = 0
        for seed in range(1200):
            lat = sample_initial(spec, 64, 64, seed=seed, localized=True)
            fixed, _, converged = run_to_fixpoint(lat, spec)
            assert converged
            if reaches_boundary(fixed, spec):
                hits += 1
                assert is_good_configuration(lat, spec)
        assert hits > 10  # the regime actually exercises the implication


def _line_nonempty(cells, x0, y0, x1, y1):
    """(row_nonempty, col_nonempty) boolean vectors for the rectangle."""
    sub = cells[y0 : y1 + 1, x0 : x1 + 1] != CellState.EMPTY
    return sub.any(axis=1), sub.any(axis=0)


def _has_k_gap(nonempty, k):
    run = 0
    for flag in nonempty:
        run = 0 if flag else run + 1
        if run >= k:
            return True
    return False


def _rect_ok(cells, k, x0, y0, x1, y1):
    """The rectangle test as it was written on numpy slices: the oracle of `_rect_test`."""
    rows, cols = _line_nonempty(cells, x0, y0, x1, y1)
    return not (_has_k_gap(rows, k) or _has_k_gap(cols, k))


class TestRectangleTest:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_the_slicing_oracle(self, k):
        gen = np.random.default_rng(40 + k)
        for _ in range(60):
            h, w = (int(v) for v in gen.integers(1, 13, size=2))
            cells = gen.choice([E, O, A], size=(h, w), p=gen.dirichlet([1, 1, 1])).astype(np.uint8)
            ok = lattice._rect_test(cells, k)
            for _ in range(40):
                x0, x1 = sorted(int(v) for v in gen.integers(0, w, size=2))
                y0, y1 = sorted(int(v) for v in gen.integers(0, h, size=2))
                assert ok(x0, y0, x1, y1) == _rect_ok(cells, k, x0, y0, x1, y1)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_same_growth_sequences_as_the_slicing_oracle(self, k, monkeypatch):
        # random local windows and their near-critical fixpoints, whose
        # sequences run long; the oracle goes through the same extension loop
        variant = Variant.LOCAL_K if k >= 2 else Variant.LOCAL_MODIFIED
        qc = {1: 0.78, 2: 0.62, 3: 0.45, 4: 0.3}[k]
        gen = np.random.default_rng(k)
        lats = []
        for seed in range(40):
            L = int(gen.integers(2, 33))
            spec = ModelSpec(variant, k=k, q=float(gen.uniform(qc - 0.15, qc + 0.1)))
            ox, oy = (int(v) for v in gen.integers(0, L, size=2))
            lat = sample_initial(spec, L, L, seed=seed, localized=True, origin=(ox, oy))
            lat.cells[oy, ox] = A
            lats += [lat, run_to_fixpoint(lat, spec)[0]]
        spec = ModelSpec(variant, k=k, q=0.5)
        fast = [extract_growth_sequence(lat, spec) for lat in lats]
        monkeypatch.setattr(lattice, "_rect_test",
                            lambda cells, k: functools.partial(_rect_ok, cells, k))
        assert fast == [extract_growth_sequence(lat, spec) for lat in lats]
        assert max(len(seq) for seq in fast) > 5


class TestSnapshots:
    def test_text_roundtrip(self):
        cells = grid(
            [
                [E, O, A],
                [A, E, O],
            ]
        )
        lat = Lattice(cells=cells)
        text = to_text(lat)
        assert text == ".oA\nA.o\n"  # top printed line is the highest row
        back = from_text(text)
        assert np.array_equal(back.cells, lat.cells)

    def test_text_rejects_garbage(self):
        with pytest.raises(ValueError):
            from_text("..X\n...\n")

    def test_binary_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        cells = rng.integers(0, 3, size=(13, 7)).astype(np.uint8)
        lat = Lattice(cells=cells, origin=(3, 5))
        path = tmp_path / "snap.bin"
        write_snapshot(lat, path)
        back = read_snapshot(path, origin=(3, 5))
        assert np.array_equal(back.cells, cells)
        assert back.origin == (3, 5)

    def test_binary_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError):
            read_snapshot(path)
