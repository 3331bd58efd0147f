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

One engine implements the rules.  `bitboard_closure` packs a W x H window
into Python-int bitboards, bit y*W + x for cell (x, y), and runs each
synchronous generation as a few dozen shifts, ANDs and ORs on whole
boards, from any Active start set, with an optional stop test and a
generation budget.  `step` (one generation) and `run_to_fixpoint` pack a
`Lattice`, run the closure and unpack the result; they serve `simulate`
and the tests.  `run_windows` runs a batch of trial windows on shared
boards, stacked with blank rows between them, and scores each window
alone; `harness` (boundary reach, in blocks of a few generations) and
`growth_events` (the D_k/J_k/E_k growth guarantees) run their trials
through it.

The oracles share no code with the engine: `step_reference` is a
deliberately naive per-cell step, `reference_fixpoint` iterates it to the
fixpoint, and `reaches_boundary` walks the origin's Active cluster.
"""

from __future__ import annotations

import enum
import functools
import itertools
import struct
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Tuple

import numpy as np

from .rng import below, philox_words

__all__ = [
    "CellState",
    "Variant",
    "ModelSpec",
    "Lattice",
    "sample_initial",
    "step",
    "step_reference",
    "run_to_fixpoint",
    "reference_fixpoint",
    "spans",
    "reaches_boundary",
    "pack_board",
    "unpack_board",
    "bitboard_closure",
    "bitboard_reaches_far_edge",
    "far_edge",
    "run_windows",
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

    @classmethod
    def local_for(cls, k: int) -> Tuple["Variant", ...]:
        """The local variants that accept threshold k, the default first."""
        return (cls.LOCAL_K,) if k >= 2 else (cls.LOCAL_MODIFIED, cls.LOCAL_FROBOSE)


@dataclass(frozen=True)
class ModelSpec:
    """Automaton variant, threshold k, and empty-probability q = e^{-s}."""

    variant: Variant
    k: int
    q: float

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be a positive integer")
        allowed = Variant.local_for(self.k)
        if self.variant is not Variant.GLOBAL_K and self.variant not in allowed:
            raise ValueError(
                f"the {self.variant.value} model does not take k = {self.k}; "
                f"the local models there are {[v.value for v in allowed]}"
            )
        if not 0.0 <= self.q <= 1.0:
            raise ValueError("q must lie in [0, 1]")

    @property
    def is_local(self) -> bool:
        return self.variant is not Variant.GLOBAL_K


@dataclass
class Lattice:
    """A bounded window of Z^2 with per-cell state.

    `cells[y, x]` holds a CellState value.  `origin` is the distinguished
    localized-growth site in (x, y) coordinates.  `converged` marks a
    lattice that `run_to_fixpoint` or `reference_fixpoint` left at its
    fixpoint.
    """

    cells: np.ndarray
    origin: Tuple[int, int] = (0, 0)
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

    @property
    def width(self) -> int:
        return self.cells.shape[1]

    @property
    def height(self) -> int:
        return self.cells.shape[0]

    def active_mask(self) -> np.ndarray:
        return self.cells == CellState.ACTIVE

    def copy(self) -> "Lattice":
        return Lattice(cells=self.cells.copy(), origin=self.origin, converged=self.converged)


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
    Deterministic for a fixed seed: cell i reads word i of `philox_words(seed, 0, width * height)`.
    """
    if width < 1 or height < 1:
        raise ValueError("dimensions must be >= 1")
    if localized and not spec.is_local:
        raise ValueError("localized sampling requires a local model variant")
    nonempty = below(philox_words(seed, 0, width * height), 1.0 - spec.q).reshape(height, width)
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


def step_reference(lattice: Lattice, spec: ModelSpec) -> Tuple[Lattice, bool]:
    """Naive per-cell synchronous step; the oracle for `step` and the closure."""
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
    for x, y in new:
        out.cells[y, x] = CellState.ACTIVE
    return out, bool(new)


def reference_fixpoint(lattice: Lattice, spec: ModelSpec) -> Tuple[Lattice, int]:
    """Iterate `step_reference` until nothing changes: (fixpoint, productive steps).

    The oracle for `run_to_fixpoint` and the closure.  The rules are
    monotone, so the loop ends within width*height productive steps.
    """
    cur, changed = step_reference(lattice, spec)
    steps = 0
    while changed:
        steps += 1
        cur, changed = step_reference(cur, spec)
    cur.converged = True
    return cur, steps


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

    # nested lists: the walk reads one cell at a time, which numpy indexing makes slow
    active = active.tolist()
    seen = [[False] * w for _ in range(h)]
    seen[oy][ox] = True
    frontier = [(ox, oy)]
    while frontier:
        nxt = []
        for x, y in frontier:
            if on_far_edge(x, y):
                return True
            for dx, dy in offsets:
                nx, ny = x + dx, y + dy
                if 0 <= nx < w and 0 <= ny < h and active[ny][nx] and not seen[ny][nx]:
                    seen[ny][nx] = True
                    nxt.append((nx, ny))
        frontier = nxt
    return False


def _first_column(width: int, height: int) -> int:
    """Bit y*width of every row y: `full // row` by doubling shifts, not a quadratic division."""
    column = 1
    for n in range((height - 1).bit_length()):  # 2^n rows to 2^(n+1)
        column |= column << (width << n)
    return column & ((1 << (width * height)) - 1)


@functools.lru_cache(maxsize=64)
def _board_masks(width: int, height: int, reach: int) -> Tuple[int, List[int], List[int]]:
    """(all cells, plus, minus) for a width x height bitboard.

    plus[v] / minus[v] keep the columns that a horizontal shift by +v / -v
    may land in; masking with them drops the bits that the row-major shift
    carries across a row end instead of out of the window.
    """
    if width < 1 or height < 1:
        raise ValueError("window dimensions must be >= 1")
    row = (1 << width) - 1
    full = (1 << (width * height)) - 1
    first_column = _first_column(width, height)
    # a shift by 0 keeps every column: plus[0] and minus[0] are `full` itself
    plus = [full] + [first_column * (row & ~((1 << v) - 1)) for v in range(1, reach + 1)]
    minus = [full] + [first_column * ((1 << max(width - v, 0)) - 1) for v in range(1, reach + 1)]
    return full, plus, minus


def far_edge(width: int, height: int) -> int:
    """The top row and right column of a width x height bitboard.

    Edges through the origin (0, 0) do not count (see
    `bitboard_reaches_far_edge`), so a 1 x 1 window has no far cell.
    """
    row = (1 << width) - 1
    top = row << (width * (height - 1)) if height > 1 else 0
    right = _first_column(width, height) << (width - 1) if width > 1 else 0
    return top | right


def pack_board(mask: np.ndarray) -> int:
    """A boolean array as a Python int, element i at bit i (row-major for a grid)."""
    return int.from_bytes(np.packbits(mask, axis=None, bitorder="little").tobytes(), "little")


def unpack_board(board: int, shape: Tuple[int, int]) -> np.ndarray:
    """The inverse of `pack_board` for a grid of `shape`: a boolean array."""
    n = shape[0] * shape[1]
    bits = np.unpackbits(
        np.frombuffer(board.to_bytes((n + 7) // 8, "little"), dtype=np.uint8),
        count=n, bitorder="little",
    )
    return bits.reshape(shape).astype(bool)


def bitboard_closure(
    spec: ModelSpec,
    width: int,
    height: int,
    active: int,
    occupied: int,
    stop: Optional[Callable[[int], object]] = None,
    budget: Optional[int] = None,
) -> Tuple[int, int]:
    """(Active board, generations run) of the closure on a width x height window.

    The window is packed row-major into Python ints, bit y*width + x for
    cell (x, y) (see `pack_board`).  `active` and `occupied` are the start
    boards; every other cell is Empty, and the global rule counts Occupied
    cells as Empty too.  Each synchronous generation applies the rule to
    whole boards (Active, Occupied-not-active, Empty):

    * global and local k: an Empty cell fires on at least k Active cells
      among its 4(k-1) cross neighbours, counted by a saturating bit-sliced
      counter; under local k an Occupied cell fires when the l1 ball of
      radius k around it holds an Active cell (k dilations by the l1 unit
      ball);
    * modified and Frobose: boolean algebra on the shifted boards.

    The loop ends at the first generation that activates nothing (the
    fixpoint), after `budget` generations that each activated something, or
    once `stop(active)` holds; the test is tried on the start board and
    after every generation.  The rules are monotone, so for a test that
    stays true once it holds (some cell of a set Active, every cell of a set
    Active) the test reads the same on the returned board as on the
    fixpoint.  The default budget never binds: every generation that is run
    activates at least one of the width*height cells.
    """
    variant, k = spec.variant, spec.k
    full, plus, minus = _board_masks(width, height, max(k - 1, 1))
    if budget is None:
        budget = width * height
    elif budget < 0:
        raise ValueError("budget must be nonnegative")

    def shift(board, dx, dy):
        """board translated by (dx, dy); cells leaving the window are dropped."""
        if dx > 0:
            board = (board << dx) & plus[dx]
        elif dx < 0:
            board = (board >> -dx) & minus[-dx]
        if dy > 0:
            board = (board << (dy * width)) & full
        elif dy < 0:
            board >>= -dy * width
        return board

    active &= full
    occupied = 0 if variant is Variant.GLOBAL_K else occupied & full & ~active
    empty = full & ~(active | occupied)
    counts_cross = variant is Variant.GLOBAL_K or variant is Variant.LOCAL_K
    for generations in range(budget):
        if stop is not None and stop(active):
            break
        if counts_cross:
            at_least = [0] * (k + 1)  # at_least[j]: j or more Active cross neighbours seen
            for v in range(1, k):
                for dx, dy in ((v, 0), (-v, 0), (0, v), (0, -v)):
                    hit = shift(active, dx, dy)
                    for j in range(k, 1, -1):
                        at_least[j] |= at_least[j - 1] & hit
                    at_least[1] |= hit
            new = empty & at_least[k]
            if variant is Variant.LOCAL_K:
                ball = active
                for _ in range(k):
                    ball |= (shift(ball, 1, 0) | shift(ball, -1, 0)
                             | shift(ball, 0, 1) | shift(ball, 0, -1))
                new |= occupied & ball
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
    else:  # each of the `budget` generations activated something
        generations = budget
    return active, generations


def _run_closure(lattice: Lattice, spec: ModelSpec, budget: int) -> Tuple[Lattice, int]:
    """`bitboard_closure` on a `Lattice`: (the lattice it leaves, generations run)."""
    cells = lattice.cells
    active, generations = bitboard_closure(
        spec, lattice.width, lattice.height,
        pack_board(cells == CellState.ACTIVE), pack_board(cells == CellState.OCCUPIED),
        budget=budget,
    )
    out = cells.copy()
    out[unpack_board(active, cells.shape)] = CellState.ACTIVE
    return Lattice(cells=out, origin=lattice.origin), generations


def step(lattice: Lattice, spec: ModelSpec) -> Tuple[Lattice, bool]:
    """One synchronous generation; returns (next lattice, anything changed)."""
    out, generations = _run_closure(lattice, spec, budget=1)
    return out, generations == 1


def run_to_fixpoint(
    lattice: Lattice, spec: ModelSpec, max_steps: Optional[int] = None
) -> Tuple[Lattice, int, bool]:
    """Run generations until one changes nothing or the budget runs out.

    Returns (lattice, steps, converged), `steps` counting the generations
    that changed something.  The rules are monotone, so the fixpoint is
    unique; any window converges within width*height productive steps, the
    default budget.  If the generation after `max_steps` productive ones
    still changes something, the lattice includes it, `steps` is
    `max_steps` and `converged` is False.
    """
    if max_steps is None:
        max_steps = lattice.width * lattice.height + 1
    if max_steps < 0:
        raise ValueError("max_steps must be nonnegative")
    out, generations = _run_closure(lattice, spec, budget=max_steps + 1)
    out.converged = generations <= max_steps
    return out, min(generations, max_steps), out.converged


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
    if not spec.is_local:
        raise ValueError("far-edge reach by closure needs a localized model variant")
    far = far_edge(L, L)
    active, _ = bitboard_closure(spec, L, L, 1, nonempty & ~1, stop=lambda board: board & far)
    return bool(active & far)


# At most this many windows share a board, and more than one only while
# their strides fit in _BOARD_BITS bits.  A closure holds a dozen or so
# board-sized ints at once, and past 2^19 bits the interpreter's cost per
# operation no longer counts: on scans at L = 150 and 400, a budget of 2^22
# bits ran 20-85 % slower and peaked 6-7 MiB higher.
_BOARD_TRIALS = 128
_BOARD_BITS = 1 << 19


def _board_layout(width: int, height: int, k: int) -> Tuple[int, int]:
    """(gap, windows per board) for the width x height windows of a rule of range k.

    The gap is the fewest blank rows, at least max(k, 2), that make a
    window's stride of (height + gap) * width bits a whole number of bytes.
    A board holds the largest power of two of strides that fits in
    _BOARD_BITS, capped at _BOARD_TRIALS and never below one.
    """
    gap = max(k, 2)
    while (height + gap) * width % 8:
        gap += 1
    fit = _BOARD_BITS // ((height + gap) * width)
    return gap, min(_BOARD_TRIALS, 1 << max(fit.bit_length() - 1, 0))


def run_windows(
    spec: ModelSpec,
    width: int,
    height: int,
    windows: Iterable[Tuple[bytes, bytes]],
    done: Callable[[int], object],
    budget: Optional[int] = None,
) -> List[bool]:
    """Whether `done` holds on the closure of each window alone, in input order.

    A window is a pair (Active cells, Occupied cells) of `bytes` in
    `pack_board`'s bit order for a width x height grid; its other cells are
    Empty.  `done` tests a window's Active board and stays true once it
    holds.  Windows are pulled as board slots free up, up to
    `_board_layout`'s count to a board, stacked with g >= max(k, 2) blank
    rows between them, so that window i is byte slice i of the board; the
    count is padded to a power of two with blank windows, which keeps the
    cached `_board_masks` to eight shapes per window shape.  Each board
    runs one closure of at most `budget` generations (to its fixpoint if
    None).  Then a window where `done` holds succeeds; one whose Active
    cells did not change, or whose board stopped early, is at its fixpoint
    and fails; the rest are repacked with the next windows.  This is the
    verdict of a closure on each window alone:

    * Blocks are sound.  A generation is a function of the current boards
      alone, so a window resumed from the end of a block retraces its own
      run.  The rules are monotone, so `done` holds at the fixpoint iff it
      holds at the end of some block.  A window that did not change in a
      block had a generation that activated nothing in it, its fixpoint;
      a board that stopped early had one for every window.
    * The windows cannot interact.  By induction on generations, no blank
      cell (in a gap row or a padding window) is ever Active, so a window
      cell sees what it sees alone, where the cells outside stay Empty.
    * Local k: a blank cell's row is blank, so it sees Active cells along
      its column only.  j >= 1 rows above a window it sees at most
      max(k - j, 0) of that window's cells and, for j <= g, at most
      max(j + k - 1 - g, 0) of the window above; each count, and their sum
      2k - 1 - g, is at most k - 1 as g >= k, so it never fires.  An Empty
      window cell's cross reaches k - 1 < g rows out, and the l1 ball of
      radius k around an Occupied cell stops g + 1 > k rows short of the
      next window.
    * Modified and Frobose fire an Empty cell only with an Active
      horizontal neighbour, which a gap-row cell lacks.  The cells that a
      window cell reads lie at most one row out, in a gap row; the next
      window is g + 1 >= 3 rows away.
    * Widening the gap past max(k, 2) to whole bytes keeps every bound:
      more blank rows only move the next window farther.  Horizontal
      shifts are masked per row, so nothing wraps from one row to the next.
    """
    gap, per_board = _board_layout(width, height, spec.k)
    nbytes = (height + gap) * width // 8
    windows = iter(windows)
    verdicts: List[bool] = []
    live = []  # (input index, Active stride, Occupied stride) of the windows still growing
    while True:
        for active, occupied in itertools.islice(windows, per_board - len(live)):
            live.append((len(verdicts), active.ljust(nbytes, b"\0"), occupied.ljust(nbytes, b"\0")))
            verdicts.append(False)
        if not live:
            return verdicts
        padded = 1 << (len(live) - 1).bit_length()
        board, generations = bitboard_closure(
            spec, width, padded * (height + gap) - gap,
            int.from_bytes(b"".join(active for _, active, _ in live), "little"),
            int.from_bytes(b"".join(occupied for _, _, occupied in live), "little"),
            budget=budget,
        )
        # gap rows and padding windows stay blank, so the board fits in the live windows' strides
        after = board.to_bytes(len(live) * nbytes, "little")
        survivors = []
        for start, (index, active, occupied) in zip(range(0, len(after), nbytes), live):
            active_after = after[start:start + nbytes]
            if done(int.from_bytes(active_after, "little")):
                verdicts[index] = True
            elif generations == budget and active_after != active:
                survivors.append((index, active_after, occupied))
            # else unchanged in the block, or on a board that stopped early: at the fixpoint
        live = survivors


# --- rectangle growth sequences -------------------------------------------

def _rect_test(cells: np.ndarray, k: int) -> Callable[[int, int, int, int], bool]:
    """Whether a rectangle (x0, y0, x1, y1) of `cells` has no k consecutive empty lines.

    A line is nonempty where it holds a non-Empty cell.  Row and column
    prefix counts are built once, and the nonempty flags of every row over
    one column range (of every column over one row range) once per range,
    as bytes; a rectangle is then a k-gap search in two slices.
    """
    nonempty = cells != CellState.EMPTY
    # rows[y, x]: non-Empty cells of row y left of column x; cols[y, x]: below row y
    rows = np.pad(np.cumsum(nonempty, axis=1), ((0, 0), (1, 0)))
    cols = np.pad(np.cumsum(nonempty, axis=0), ((1, 0), (0, 0)))
    gap = bytes(k)

    @functools.lru_cache(maxsize=None)
    def row_flags(x0: int, x1: int) -> bytes:
        return (rows[:, x1 + 1] > rows[:, x0]).tobytes()

    @functools.lru_cache(maxsize=None)
    def col_flags(y0: int, y1: int) -> bytes:
        return (cols[y1 + 1] > cols[y0]).tobytes()

    def ok(x0: int, y0: int, x1: int, y1: int) -> bool:
        return gap not in row_flags(x0, x1)[y0:y1 + 1] and gap not in col_flags(y0, y1)[x0:x1 + 1]

    return ok


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
    rect_ok = _rect_test(cells, k)
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
            if rect_ok(x0 - le, y0 - do, x1 + ri, y1 + up):
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
