"""Cellular-automaton engine for k-percolation on finite windows of Z^2.

Cells are Empty, Occupied, or Active (global models use only Empty/Active).
The neighborhood N_k(x) is the (k-1)-cross: the 4(k-1) sites offset from x
by (v, 0) or (0, v) with 1 <= |v| <= k-1.

Growth rules (all monotone; Active never reverts):

  GlobalK       an inactive cell with >= k Active cells in N_k activates.
  LocalK (k>1)  an Occupied cell with an Active cell within l1-distance k
                activates; an Empty cell with >= k Active in N_k activates.
  LocalModified (k=1) Occupied + Active within linf-distance 1 activates;
                Empty activates with an Active vertical neighbor AND an
                Active horizontal neighbor.
  LocalFrobose  (k=1) Occupied + Active within l1-distance 1 activates;
                Empty activates with an Active vertical neighbor, an Active
                horizontal neighbor, and the corner cell between them
                Active.

Updates are synchronous: every activation in a step reads only the
previous generation, so the fixpoint is the monotone closure and is
independent of any internal sweep order.  Cells outside the window are
permanently Empty, making the finite window a conservative proxy for
growth claims.

Coordinates are (x, y) with x the column and y the row; grids are stored
as uint8 arrays indexed [y, x].

Two engines compute the same closure.  `step` / `run_to_fixpoint` /
`reaches_boundary` work on a `Lattice` with shifted numpy arrays; they
serve `simulate`, the counterexample snapshots of the growth-event
checks, and the tests as the oracle, with `step_reference` (a
deliberately naive per-cell step) as the oracle for `step` itself.
`bitboard_closure` is the Monte Carlo path for the local variants: the
window packed into Python-int bitboards, each generation a few dozen
shifts, ANDs and ORs, from any Active start set, with an optional stop
test after each generation.  `harness` runs its boundary-reach trials
through `bitboard_reaches_far_edge` (stop at the first far-edge
activation), and `growth_events` its D_k/J_k/E_k trials (stop once the
target square is Active).
"""

from __future__ import annotations

import enum
import functools
import struct
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

__all__ = [
    "CellState",
    "Variant",
    "ModelSpec",
    "Lattice",
    "sample_initial",
    "step",
    "step_reference",
    "run_to_fixpoint",
    "spans",
    "reaches_boundary",
    "pack_board",
    "bitboard_closure",
    "bitboard_reaches_far_edge",
    "extract_growth_sequence",
    "is_good_configuration",
    "to_text",
    "from_text",
    "write_snapshot",
    "read_snapshot",
]

SNAPSHOT_MAGIC = b"PKL2"


class CellState(enum.IntEnum):
    EMPTY = 0
    OCCUPIED = 1
    ACTIVE = 2


class Variant(enum.Enum):
    GLOBAL_K = "global"
    LOCAL_K = "local"
    LOCAL_MODIFIED = "modified"
    LOCAL_FROBOSE = "frobose"


@dataclass(frozen=True)
class ModelSpec:
    """Automaton variant, threshold k, and empty-probability q = e^{-s}."""

    variant: Variant
    k: int
    q: float

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be a positive integer")
        if self.variant in (Variant.LOCAL_MODIFIED, Variant.LOCAL_FROBOSE) and self.k != 1:
            raise ValueError(f"{self.variant.value} model forces k = 1")
        if self.variant is Variant.LOCAL_K and self.k < 2:
            raise ValueError("the local k-model requires k > 1 (k = 1 is modified/Frobose)")
        if not 0.0 <= self.q <= 1.0:
            raise ValueError("q must lie in [0, 1]")

    @property
    def is_local(self) -> bool:
        return self.variant is not Variant.GLOBAL_K


@dataclass
class Lattice:
    """A bounded window of Z^2 with per-cell state and growth history.

    `cells[y, x]` holds a CellState value; `generation` counts synchronous
    steps taken; `gen_stamp[y, x]` records the step at which a cell became
    Active (-1 if never).  `origin` is the distinguished localized-growth
    site in (x, y) coordinates.
    """

    cells: np.ndarray
    origin: Tuple[int, int] = (0, 0)
    generation: int = 0
    gen_stamp: Optional[np.ndarray] = None
    converged: bool = False

    def __post_init__(self):
        self.cells = np.asarray(self.cells, dtype=np.uint8)
        if self.cells.ndim != 2 or self.cells.size == 0:
            raise ValueError("cells must be a nonempty 2-D grid")
        if int(self.cells.max()) > 2:
            raise ValueError("cell values must encode Empty/Occupied/Active")
        ox, oy = self.origin
        if not (0 <= ox < self.width and 0 <= oy < self.height):
            raise ValueError("origin out of bounds")
        if self.gen_stamp is None:
            stamp = np.full(self.cells.shape, -1, dtype=np.int32)
            stamp[self.cells == CellState.ACTIVE] = 0
            self.gen_stamp = stamp

    @property
    def width(self) -> int:
        return self.cells.shape[1]

    @property
    def height(self) -> int:
        return self.cells.shape[0]

    def active_mask(self) -> np.ndarray:
        return self.cells == CellState.ACTIVE

    def copy(self) -> "Lattice":
        return Lattice(
            cells=self.cells.copy(),
            origin=self.origin,
            generation=self.generation,
            gen_stamp=self.gen_stamp.copy(),
            converged=self.converged,
        )


def sample_initial(
    spec: ModelSpec,
    width: int,
    height: int,
    seed: int,
    localized: bool = False,
    origin: Optional[Tuple[int, int]] = None,
) -> Lattice:
    """Draw an initial configuration.

    Global: every cell Active with probability 1-q, else Empty.  Localized
    (local variants only): the origin is Active with probability 1-q else
    Empty, every other cell Occupied with probability 1-q else Empty.
    Deterministic for a fixed seed.
    """
    if width < 1 or height < 1:
        raise ValueError("dimensions must be >= 1")
    if localized and not spec.is_local:
        raise ValueError("localized sampling requires a local model variant")
    rng = np.random.Generator(np.random.Philox(key=seed))
    nonempty = rng.random((height, width)) < (1.0 - spec.q)
    if origin is None:
        origin = (width // 2, height // 2) if localized else (0, 0)
    ox, oy = origin
    cells = np.zeros((height, width), dtype=np.uint8)
    if localized:
        cells[nonempty] = CellState.OCCUPIED
        cells[oy, ox] = CellState.ACTIVE if nonempty[oy, ox] else CellState.EMPTY
    else:
        cells[nonempty] = CellState.ACTIVE
    return Lattice(cells=cells, origin=origin)


def _shift(mask: np.ndarray, dx: int, dy: int) -> np.ndarray:
    """mask translated by (dx, dy), zero-filled (outside the window is Empty)."""
    h, w = mask.shape
    out = np.zeros_like(mask)
    if abs(dx) >= w or abs(dy) >= h:
        return out  # shifted wholly outside; the slices below would wrap
    # branches, not max(): this runs hundreds of thousands of times per verify
    if dy >= 0:
        ys_src, ys_dst = slice(0, h - dy), slice(dy, h)
    else:
        ys_src, ys_dst = slice(-dy, h), slice(0, h + dy)
    if dx >= 0:
        xs_src, xs_dst = slice(0, w - dx), slice(dx, w)
    else:
        xs_src, xs_dst = slice(-dx, w), slice(0, w + dx)
    out[ys_dst, xs_dst] = mask[ys_src, xs_src]
    return out


def _cross_count(active: np.ndarray, k: int) -> np.ndarray:
    """Number of Active cells in the (k-1)-cross N_k around each cell."""
    count = np.zeros(active.shape, dtype=np.int16)
    for v in range(1, k):
        for dx, dy in ((v, 0), (-v, 0), (0, v), (0, -v)):
            count += _shift(active, dx, dy)
    return count


def _ball_hit(active: np.ndarray, radius: int, norm: str) -> np.ndarray:
    """Whether any Active cell lies within the given ball (center excluded)."""
    hit = np.zeros(active.shape, dtype=bool)
    for dx in range(-radius, radius + 1):
        for dy in range(-radius, radius + 1):
            if dx == 0 and dy == 0:
                continue
            if norm == "l1" and abs(dx) + abs(dy) > radius:
                continue
            hit |= _shift(active, dx, dy)
    return hit


def _newly_active(cells: np.ndarray, spec: ModelSpec) -> np.ndarray:
    active = cells == CellState.ACTIVE
    empty = cells == CellState.EMPTY
    occupied = cells == CellState.OCCUPIED
    k = spec.k
    if spec.variant is Variant.GLOBAL_K:
        new = ~active & (_cross_count(active, k) >= k)
    elif spec.variant is Variant.LOCAL_K:
        occ_rule = occupied & _ball_hit(active, k, "l1")
        empty_rule = empty & (_cross_count(active, k) >= k)
        new = occ_rule | empty_rule
    elif spec.variant is Variant.LOCAL_MODIFIED:
        occ_rule = occupied & _ball_hit(active, 1, "linf")
        vert = _shift(active, 0, 1) | _shift(active, 0, -1)
        horiz = _shift(active, 1, 0) | _shift(active, -1, 0)
        new = occ_rule | (empty & vert & horiz)
    elif spec.variant is Variant.LOCAL_FROBOSE:
        occ_rule = occupied & _ball_hit(active, 1, "l1")
        corner = np.zeros(cells.shape, dtype=bool)
        for dy in (1, -1):
            for dx in (1, -1):
                corner |= (
                    _shift(active, 0, dy) & _shift(active, dx, 0) & _shift(active, dx, dy)
                )
        new = occ_rule | (empty & corner)
    else:  # pragma: no cover
        raise ValueError(f"unknown variant {spec.variant}")
    return new


def step(lattice: Lattice, spec: ModelSpec) -> Tuple[Lattice, bool]:
    """One synchronous generation; returns (next lattice, anything changed)."""
    new = _newly_active(lattice.cells, spec)
    changed = bool(new.any())
    out = lattice.copy()
    out.converged = False
    if changed:
        out.generation = lattice.generation + 1
        out.cells[new] = CellState.ACTIVE
        out.gen_stamp[new] = out.generation
    return out, changed


def step_reference(lattice: Lattice, spec: ModelSpec) -> Tuple[Lattice, bool]:
    """Naive per-cell synchronous step; differential oracle for `step`."""
    h, w = lattice.cells.shape
    grid = lattice.cells.tolist()
    k = spec.k

    def is_active(x, y):
        return 0 <= x < w and 0 <= y < h and grid[y][x] == CellState.ACTIVE

    def cross_count(x, y):
        c = 0
        for v in range(1, k):
            c += is_active(x + v, y) + is_active(x - v, y)
            c += is_active(x, y + v) + is_active(x, y - v)
        return c

    def any_in_l1(x, y, r):
        for dx in range(-r, r + 1):
            for dy in range(-r + abs(dx), r - abs(dx) + 1):
                if (dx or dy) and is_active(x + dx, y + dy):
                    return True
        return False

    def any_in_linf(x, y):
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                if (dx or dy) and is_active(x + dx, y + dy):
                    return True
        return False

    new: List[Tuple[int, int]] = []
    for y in range(h):
        for x in range(w):
            state = grid[y][x]
            if state == CellState.ACTIVE:
                continue
            if spec.variant is Variant.GLOBAL_K:
                fire = cross_count(x, y) >= k
            elif spec.variant is Variant.LOCAL_K:
                if state == CellState.OCCUPIED:
                    fire = any_in_l1(x, y, k)
                else:
                    fire = cross_count(x, y) >= k
            elif spec.variant is Variant.LOCAL_MODIFIED:
                if state == CellState.OCCUPIED:
                    fire = any_in_linf(x, y)
                else:
                    fire = (is_active(x, y + 1) or is_active(x, y - 1)) and (
                        is_active(x + 1, y) or is_active(x - 1, y)
                    )
            else:  # LOCAL_FROBOSE
                if state == CellState.OCCUPIED:
                    fire = any_in_l1(x, y, 1)
                else:
                    fire = any(
                        is_active(x, y + dy) and is_active(x + dx, y) and is_active(x + dx, y + dy)
                        for dy in (1, -1)
                        for dx in (1, -1)
                    )
            if fire:
                new.append((x, y))

    out = lattice.copy()
    out.converged = False
    if new:
        out.generation = lattice.generation + 1
        for x, y in new:
            out.cells[y, x] = CellState.ACTIVE
            out.gen_stamp[y, x] = out.generation
    return out, bool(new)


def run_to_fixpoint(
    lattice: Lattice, spec: ModelSpec, max_steps: Optional[int] = None
) -> Tuple[Lattice, int, bool]:
    """Iterate `step` until nothing changes or the budget runs out.

    The rules are monotone, so the fixpoint is unique; any window converges
    within width*height productive steps, the default budget.
    """
    if max_steps is None:
        max_steps = lattice.width * lattice.height + 1
    if max_steps < 0:
        raise ValueError("max_steps must be nonnegative")
    cur = lattice
    for taken in range(max_steps):
        cur, changed = step(cur, spec)
        if not changed:
            cur.converged = True
            return cur, taken, True
    cur, changed = step(cur, spec)
    if not changed:
        cur.converged = True
        return cur, max_steps, True
    return cur, max_steps, False


def _require_fixpoint(lattice: Lattice):
    if not lattice.converged:
        raise ValueError("lattice is not at a fixpoint; call run_to_fixpoint first")


def spans(lattice: Lattice, spec: ModelSpec) -> bool:
    """Every cell Active."""
    _require_fixpoint(lattice)
    return bool(np.all(lattice.cells == CellState.ACTIVE))


def _influence_radius(spec: ModelSpec) -> Tuple[int, str]:
    if spec.variant is Variant.GLOBAL_K:
        return max(spec.k - 1, 1), "cross"
    if spec.variant is Variant.LOCAL_K:
        return spec.k, "l1"
    if spec.variant is Variant.LOCAL_MODIFIED:
        return 1, "linf"
    return 1, "l1"


def reaches_boundary(lattice: Lattice, spec: ModelSpec) -> bool:
    """A far boundary cell is Active and connected to the origin's cluster.

    "Far" excludes window edges that pass through the origin itself, so a
    corner-origin quadrant window asks for growth across the full span
    while a centered origin counts all four edges.  Connectivity is a BFS
    over Active cells using the model's influence neighborhood; in
    localized models all growth emanates from the origin, so this reduces
    to 'origin active and some far-edge cell active', but the cluster walk
    also gives the right answer for global samples where unrelated
    boundary cells may be active from the start.
    """
    _require_fixpoint(lattice)
    ox, oy = lattice.origin
    active = lattice.active_mask()
    if not active[oy, ox]:
        return False
    h, w = active.shape
    radius, norm = _influence_radius(spec)
    offsets = []
    for dx in range(-radius, radius + 1):
        for dy in range(-radius, radius + 1):
            if dx == 0 and dy == 0:
                continue
            if norm == "l1" and abs(dx) + abs(dy) > radius:
                continue
            if norm == "cross" and dx != 0 and dy != 0:
                continue
            offsets.append((dx, dy))

    def on_far_edge(x, y):
        return (
            (x == 0 and ox != 0)
            or (x == w - 1 and ox != w - 1)
            or (y == 0 and oy != 0)
            or (y == h - 1 and oy != h - 1)
        )

    seen = np.zeros_like(active)
    seen[oy, ox] = True
    frontier = [(ox, oy)]
    while frontier:
        nxt = []
        for x, y in frontier:
            if on_far_edge(x, y):
                return True
            for dx, dy in offsets:
                nx, ny = x + dx, y + dy
                if 0 <= nx < w and 0 <= ny < h and active[ny, nx] and not seen[ny, nx]:
                    seen[ny, nx] = True
                    nxt.append((nx, ny))
        frontier = nxt
    return False


@functools.lru_cache(maxsize=64)
def _board_masks(L: int, reach: int) -> Tuple[int, int, List[int], List[int]]:
    """(all cells, far-edge cells, plus, minus) for an L x L bitboard.

    plus[v] / minus[v] keep the columns that a horizontal shift by +v / -v
    may land in; masking with them drops the bits that the row-major shift
    carries across a row end instead of out of the window.
    """
    if L < 1:
        raise ValueError("L must be >= 1")
    full = (1 << (L * L)) - 1
    first_column = full // ((1 << L) - 1)  # bit y*L of every row y
    row = (1 << L) - 1
    plus = [first_column * (row & ~((1 << v) - 1)) for v in range(reach + 1)]
    minus = [first_column * ((1 << max(L - v, 0)) - 1) for v in range(reach + 1)]
    far = (full ^ ((1 << (L * (L - 1))) - 1)) | (first_column << (L - 1)) if L > 1 else 0
    return full, far, plus, minus


def pack_board(mask: np.ndarray) -> int:
    """A boolean array as a Python int, element i at bit i (row-major for a grid)."""
    return int.from_bytes(np.packbits(mask, axis=None, bitorder="little").tobytes(), "little")


def bitboard_closure(
    spec: ModelSpec,
    L: int,
    active: int,
    occupied: int,
    stop: Optional[Callable[[int], object]] = None,
) -> int:
    """The Active board of the localized closure on an L x L window.

    The window is packed row-major into Python ints, bit y*L + x for cell
    (x, y) (see `pack_board`).  `active` and `occupied` are the start
    boards; every other cell is Empty.  Each synchronous generation applies
    the rule to whole boards (Active, Occupied-not-active, Empty):

    * local k: an Occupied cell fires when the l1 ball of radius k around
      it holds an Active cell (k dilations by the l1 unit ball); an Empty
      cell fires on at least k Active cells among its 4(k-1) cross
      neighbours, counted by a saturating bit-sliced counter;
    * modified and Frobose: boolean algebra on the shifted boards.

    Without `stop` the result is the Active set of `run_to_fixpoint` on
    the same window.  `stop(active)` is tested on the start board and
    after every generation, and ends the loop once true.  The rules are
    monotone, so for a test that stays true once it holds (some cell of a
    set Active, every cell of a set Active) the test reads the same on the
    returned board as on the fixpoint.  The loop also ends at the first
    generation that activates nothing; every generation before that
    activates at least one of the L*L cells, so no step budget is needed.
    """
    variant, k = spec.variant, spec.k
    if not spec.is_local:
        raise ValueError("the bitboard closure needs a localized model variant")
    full, _, plus, minus = _board_masks(L, max(k - 1, 1))

    def shift(board, dx, dy):
        """board translated by (dx, dy); cells leaving the window are dropped."""
        if dx > 0:
            board = (board << dx) & plus[dx]
        elif dx < 0:
            board = (board >> -dx) & minus[-dx]
        if dy > 0:
            board = (board << (dy * L)) & full
        elif dy < 0:
            board >>= -dy * L
        return board

    active &= full
    occupied &= full & ~active
    empty = full & ~(active | occupied)
    while stop is None or not stop(active):
        if variant is Variant.LOCAL_K:
            ball = active
            for _ in range(k):
                ball |= (
                    shift(ball, 1, 0) | shift(ball, -1, 0) | shift(ball, 0, 1) | shift(ball, 0, -1)
                )
            at_least = [0] * (k + 1)  # at_least[j]: j or more Active cross neighbours seen
            for v in range(1, k):
                for dx, dy in ((v, 0), (-v, 0), (0, v), (0, -v)):
                    hit = shift(active, dx, dy)
                    for j in range(k, 1, -1):
                        at_least[j] |= at_least[j - 1] & hit
                    at_least[1] |= hit
            new = (occupied & ball) | (empty & at_least[k])
        else:
            right, left = shift(active, 1, 0), shift(active, -1, 0)
            up, down = shift(active, 0, 1), shift(active, 0, -1)
            if variant is Variant.LOCAL_MODIFIED:
                row = active | right | left
                near = row | shift(row, 0, 1) | shift(row, 0, -1)
                fire = (up | down) & (right | left)
            else:  # LOCAL_FROBOSE: a vertical, a horizontal and the corner between them
                near = right | left | up | down
                fire = 0
                for side in (right, left):
                    fire |= (up & side & shift(side, 0, 1)) | (down & side & shift(side, 0, -1))
            new = (occupied & near) | (empty & fire)
        if not new:
            break
        active |= new
        occupied &= ~new
        empty &= ~new
    return active


def bitboard_reaches_far_edge(spec: ModelSpec, L: int, nonempty: int) -> bool:
    """Whether the localized closure from an Active origin at (0, 0) reaches a far edge.

    `nonempty` marks the nonempty cells of the packed window (see
    `bitboard_closure`); the origin (bit 0) is Active and every other
    nonempty cell Occupied.  The answer equals `reaches_boundary` after
    `run_to_fixpoint` on the same window, because reach equals far-edge
    activity: in a localized model every Active cell is joined to the
    origin through the influence neighbourhood (each activation is
    triggered by Active cells within it), so the cluster reaches a far edge
    iff some far-edge cell is Active.  The far edges are the top row and
    the right column; edges through the origin do not count, so at L = 1
    there is no far cell.  The closure stops at the first generation that
    activates a far-edge cell.
    """
    far = _board_masks(L, max(spec.k - 1, 1))[1]
    active = bitboard_closure(spec, L, 1, nonempty & ~1, stop=lambda board: board & far)
    return bool(active & far)


# --- rectangle growth sequences -------------------------------------------

def _line_nonempty(cells: np.ndarray, x0: int, y0: int, x1: int, y1: int):
    """(row_nonempty, col_nonempty) boolean vectors for the rectangle."""
    sub = cells[y0 : y1 + 1, x0 : x1 + 1] != CellState.EMPTY
    return sub.any(axis=1), sub.any(axis=0)


def _has_k_gap(nonempty: np.ndarray, k: int) -> bool:
    run = 0
    for flag in nonempty:
        run = 0 if flag else run + 1
        if run >= k:
            return True
    return False


def _rect_ok(cells: np.ndarray, k: int, x0: int, y0: int, x1: int, y1: int) -> bool:
    rows, cols = _line_nonempty(cells, x0, y0, x1, y1)
    return not (_has_k_gap(rows, k) or _has_k_gap(cols, k))


def extract_growth_sequence(lattice: Lattice, spec: ModelSpec) -> List[Tuple[int, int, int, int]]:
    """The maximal rectangle growth sequence of the configuration.

    Returns rectangles as (x0, y0, x1, y1) bounds, starting from the origin
    cell (empty list if the origin is not active).  Each rectangle has no k
    consecutive empty rows or columns, and each extends the previous one
    only into its width-1 shell.  Maximality comes from joining: every side
    whose one-line extension keeps the no-k-gap property is extended at
    once (extending on more sides only adds cells to each line, so the
    joint rectangle inherits the property).
    """
    if not spec.is_local:
        raise ValueError("growth sequences are defined for the local models")
    k = spec.k
    cells = lattice.cells
    h, w = cells.shape
    ox, oy = lattice.origin
    if cells[oy, ox] != CellState.ACTIVE:
        return []
    seq = [(ox, oy, ox, oy)]
    x0 = x1 = ox
    y0 = y1 = oy
    while True:
        # A valid extension may need several sides at once (a lone occupied
        # shell corner makes the joint right+up extension gap-free while
        # both single-side extensions stall), so all side subsets are
        # tried; the join of valid extensions is itself valid because a
        # k-gap of the joined rectangle restricts to a k-gap of one of them.
        union = [0, 0, 0, 0]  # left, right, down, up
        found = False
        for mask in range(1, 16):
            le, ri, do, up = mask & 1, (mask >> 1) & 1, (mask >> 2) & 1, (mask >> 3) & 1
            if (le and x0 == 0) or (ri and x1 == w - 1) or (do and y0 == 0) or (up and y1 == h - 1):
                continue
            if _rect_ok(cells, k, x0 - le, y0 - do, x1 + ri, y1 + up):
                found = True
                union = [max(u, v) for u, v in zip(union, (le, ri, do, up))]
        if not found:
            return seq
        x0 -= union[0]
        x1 += union[1]
        y0 -= union[2]
        y1 += union[3]
        seq.append((x0, y0, x1, y1))


def is_good_configuration(lattice: Lattice, spec: ModelSpec) -> bool:
    """Finite-window proxy for 'the maximal growth sequence is infinite'.

    True iff the final rectangle of the maximal sequence, together with its
    width-1 shell, touches the window boundary: a sequence that stalls
    strictly inside the window is finite, and (by the shell argument) no
    activation ever escapes the stalled rectangle's shell.
    """
    seq = extract_growth_sequence(lattice, spec)
    if not seq:
        return False
    x0, y0, x1, y1 = seq[-1]
    return x0 <= 1 or y0 <= 1 or x1 >= lattice.width - 2 or y1 >= lattice.height - 2


# --- snapshots -------------------------------------------------------------

_TEXT_CHARS = {CellState.EMPTY: ".", CellState.OCCUPIED: "o", CellState.ACTIVE: "A"}
_TEXT_VALUES = {v: k for k, v in _TEXT_CHARS.items()}


def to_text(lattice: Lattice) -> str:
    """Portable text grid; the top printed line is the highest row."""
    rows = []
    for y in range(lattice.height - 1, -1, -1):
        rows.append("".join(_TEXT_CHARS[CellState(v)] for v in lattice.cells[y]))
    return "\n".join(rows) + "\n"


def from_text(text: str, origin: Tuple[int, int] = (0, 0)) -> Lattice:
    lines = [ln for ln in text.splitlines() if ln]
    h = len(lines)
    w = len(lines[0])
    if any(len(ln) != w for ln in lines):
        raise ValueError("ragged text grid")
    cells = np.zeros((h, w), dtype=np.uint8)
    for i, ln in enumerate(lines):
        y = h - 1 - i
        for x, ch in enumerate(ln):
            try:
                cells[y, x] = _TEXT_VALUES[ch]
            except KeyError:
                raise ValueError(f"bad cell character {ch!r}") from None
    return Lattice(cells=cells, origin=origin)


def write_snapshot(lattice: Lattice, path) -> None:
    """Compact binary snapshot: magic, u32 width/height (LE), packed 2-bit cells.

    Cells are packed row-major from (x=0, y=0), four per byte, low bits
    first.
    """
    flat = lattice.cells.reshape(-1)
    pad = (-len(flat)) % 4
    quads = np.concatenate([flat, np.zeros(pad, dtype=np.uint8)]).reshape(-1, 4)
    packed = quads[:, 0] | quads[:, 1] << 2 | quads[:, 2] << 4 | quads[:, 3] << 6
    with open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(struct.pack("<II", lattice.width, lattice.height))
        fh.write(packed.astype(np.uint8).tobytes())


def read_snapshot(path, origin: Tuple[int, int] = (0, 0)) -> Lattice:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != SNAPSHOT_MAGIC:
            raise ValueError("not a lattice snapshot (bad magic)")
        width, height = struct.unpack("<II", fh.read(8))
        packed = fh.read()
    n = width * height
    if len(packed) < (n + 3) // 4:
        raise ValueError("snapshot truncated")
    raw = np.frombuffer(packed, dtype=np.uint8)
    cells = np.empty(len(raw) * 4, dtype=np.uint8)
    for lane in range(4):
        cells[lane::4] = (raw >> (lane * 2)) & 3
    cells = cells[:n]
    if int(cells.max()) == 3:
        raise ValueError("invalid 2-bit cell encoding")
    return Lattice(cells=cells.reshape(height, width), origin=origin)
