"""Diagonal and skew growth events on the localized lattice.

Line-label convention (frozen; every cell set in this module flows through
it): paper label i denotes the i-th column/row counting the origin's line
as label 1, so label i sits at lattice coordinate i-1.  A column of height
h at label i occupies cells (i-1, 0) .. (i-1, h-1); a row of width w at
label i occupies (0, i-1) .. (w-1, i-1).  A paper cell (u, v) is lattice
(u-1, v-1), and R(a, b) is the cell block {0..a-1} x {0..b-1} anchored at
the origin.

Stair-step events D_k(a, b), b > a >= k: the columns at labels a+1..b
(heights label-k) and the rows at labels a+1..b (widths label-k) each form
an independent family, and the event asks that neither family has k
consecutive empty lines.  Column cells and row cells never intersect
(y <= x-k-1 and x <= y-k-1 cannot hold at once), so the event probability
is an exact product of two no-k-gap recurrences with u_i = 1 - q^{i-k}.

Skew events J_k(a, b), b - a >= k+2: columns at labels a+1..a+k keep the
stair heights, those at a+k+1..b are capped at height a+1; row label a+1
has width a-k+1, rows a+2..a+k+1 have width b-1 and must be entirely
empty, rows a+k+2..b have width b.  The event requires R_{a+1}, C_{a+1},
R_b, C_b nonempty, the k middle rows empty, the single cell at paper
coordinates (b, a+k+1) occupied, and the two remaining line families
{C_{a+2}..C_{b-1}}, {R_{a+k+2}..R_{b-1}} free of k-gaps.  All factors sit
on pairwise disjoint cell sets (asserted at construction), so the exact
probability is again a product.

The composite event E_k(a_1, b_1, ..., a_m, b_m) on an L x L window chains
D_k(k, a_1), J_k(a_i, b_i), D_k(b_i, a_{i+1}), D_k(b_m, L-1), the occupied
k x k block at the origin, and occupied cells at paper (1, L-1) and
(L-1, 1).  Those two corner cells land inside the trailing stair lines
C_{L-1}/R_{L-1}; the conditioned sampler accounts for this by forcing the
lines nonempty in the pattern recurrence and sampling their remaining
cells unconditionally.  When E_k holds, running the automaton to its
fixpoint activates the full R(L-1, L-1) block (the label-L lines carry no
conditions, so the finite-window guarantee stops one line short of the
window edge).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from .gap_process import GapProcess, rho_exact
from .special_fn import fk_eval
from .lattice import (
    CellState, Lattice, ModelSpec, Variant, bitboard_closure, pack_board, reference_fixpoint,
    to_text,
)

__all__ = [
    "StairGeometry",
    "SkewGeometry",
    "EventChain",
    "prob_dk",
    "prob_jk",
    "dk_paper_lower_bound",
    "jk_paper_lower_bound",
    "sample_conditioned",
    "validate_chain",
    "verify_growth_guarantee",
    "GrowthReport",
]

Cell = Tuple[int, int]


def _col_cells(label: int, height: int) -> List[Cell]:
    return [(label - 1, y) for y in range(height)]


def _row_cells(label: int, width: int) -> List[Cell]:
    return [(x, label - 1) for x in range(width)]


@dataclass(frozen=True)
class StairGeometry:
    """The stair-step line families of D_k(a, b) over the label range (a, b]."""

    k: int
    a: int
    b: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be a positive integer")
        if self.a < self.k:
            raise ValueError(f"need a >= k, got a={self.a} < k={self.k}")
        if self.b <= self.a:
            raise ValueError(f"need b > a, got a={self.a}, b={self.b}")

    @property
    def labels(self) -> range:
        return range(self.a + 1, self.b + 1)

    def line_size(self, label: int) -> int:
        if label not in self.labels:
            raise ValueError(f"label {label} outside ({self.a}, {self.b}]")
        return label - self.k

    def column_cells(self, label: int) -> List[Cell]:
        return _col_cells(label, self.line_size(label))

    def row_cells(self, label: int) -> List[Cell]:
        return _row_cells(label, self.line_size(label))

    def u_values(self, q: float) -> np.ndarray:
        """Per-line nonemptiness probabilities 1 - q^{label-k}."""
        sizes = np.array([self.line_size(l) for l in self.labels], dtype=float)
        return 1.0 - np.power(q, sizes)


@dataclass(frozen=True)
class SkewGeometry:
    """The line extents and distinguished cells of J_k(a, b)."""

    k: int
    a: int
    b: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be a positive integer")
        if self.a < self.k:
            raise ValueError(f"need a >= k, got a={self.a} < k={self.k}")
        if self.b - self.a < self.k + 2:
            raise ValueError(f"need b - a >= k + 2, got {self.b - self.a}")
        self._assert_disjoint()

    # line extents -----------------------------------------------------
    def col_height(self, label: int) -> int:
        k, a, b = self.k, self.a, self.b
        if a + 1 <= label <= a + k:
            return label - k
        if a + k + 1 <= label <= b:
            return a + 1
        raise ValueError(f"column label {label} outside ({a}, {b}]")

    def row_width(self, label: int) -> int:
        k, a, b = self.k, self.a, self.b
        if label == a + 1:
            return a - k + 1
        if a + 2 <= label <= a + k + 1:
            return b - 1
        if a + k + 2 <= label <= b:
            return b
        raise ValueError(f"row label {label} outside ({a}, {b}]")

    def column_cells(self, label: int) -> List[Cell]:
        return _col_cells(label, self.col_height(label))

    def row_cells(self, label: int) -> List[Cell]:
        return _row_cells(label, self.row_width(label))

    @property
    def occupied_cell(self) -> Cell:
        """Paper cell (b, a+k+1) -> lattice (b-1, a+k)."""
        return (self.b - 1, self.a + self.k)

    # factor structure --------------------------------------------------
    @property
    def nonempty_columns(self) -> Tuple[int, int]:
        return (self.a + 1, self.b)

    @property
    def nonempty_rows(self) -> Tuple[int, int]:
        return (self.a + 1, self.b)

    @property
    def empty_rows(self) -> range:
        return range(self.a + 2, self.a + self.k + 2)

    @property
    def gap_family_columns(self) -> range:
        return range(self.a + 2, self.b)

    @property
    def gap_family_rows(self) -> range:
        return range(self.a + self.k + 2, self.b)

    def column_u_values(self, q: float) -> np.ndarray:
        sizes = np.array([self.col_height(l) for l in self.gap_family_columns], dtype=float)
        return 1.0 - np.power(q, sizes)

    def row_u_values(self, q: float) -> np.ndarray:
        sizes = np.array([self.row_width(l) for l in self.gap_family_rows], dtype=float)
        return 1.0 - np.power(q, sizes)

    def _factor_cell_sets(self) -> List[Set[Cell]]:
        sets: List[Set[Cell]] = []
        sets.append(set(self.column_cells(self.a + 1)))
        sets.append(set(self.row_cells(self.a + 1)))
        sets.append(set(self.column_cells(self.b)))
        sets.append(set(self.row_cells(self.b)))
        sets.append({c for l in self.empty_rows for c in self.row_cells(l)})
        sets.append({self.occupied_cell})
        sets.append({c for l in self.gap_family_columns for c in self.column_cells(l)})
        sets.append({c for l in self.gap_family_rows for c in self.row_cells(l)})
        return sets

    def _assert_disjoint(self):
        sets = self._factor_cell_sets()
        seen: Set[Cell] = set()
        for s in sets:
            overlap = seen & s
            if overlap:
                raise AssertionError(
                    f"J_k factor cell sets overlap at {sorted(overlap)[:4]}; "
                    "the frozen geometry no longer matches the independence argument"
                )
            seen |= s

    def all_cells(self) -> Set[Cell]:
        out: Set[Cell] = set()
        for s in self._factor_cell_sets():
            out |= s
        return out


def prob_dk(geometry: StairGeometry, q: float) -> float:
    """Exact P(D_k(a, b)): the product of the two family no-k-gap probabilities."""
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    u = geometry.u_values(q)
    rho = rho_exact(GapProcess.explicit(geometry.k, u), len(u)).final
    return rho * rho


def dk_paper_lower_bound(geometry: StairGeometry, q: float) -> float:
    """exp(-2 sum_{i=a-(k-1)}^{b-k} g_k(i s)) with q = e^{-s}.

    Written via f_k directly: the bound equals prod f_k(q^{i-k})^2 over the
    label range, which avoids the log/exp round trip.
    """
    u = geometry.u_values(q)
    f = np.asarray(fk_eval(geometry.k, 1.0 - u))
    return float(np.exp(2.0 * np.sum(np.log(f))))


def prob_jk(geometry: SkewGeometry, q: float) -> float:
    """Exact P(J_k(a, b)) as a product over the disjoint factors."""
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    k, a, b = geometry.k, geometry.a, geometry.b
    p = (1.0 - q ** (a - k + 1)) ** 2          # R_{a+1} and C_{a+1} nonempty
    p *= 1.0 - q ** (a + 1)                    # C_b nonempty
    p *= 1.0 - q**b                            # R_b nonempty
    p *= q ** (k * (b - 1))                    # rows a+2..a+k+1 empty
    p *= 1.0 - q                               # the occupied turn cell
    u_cols = geometry.column_u_values(q)
    p *= rho_exact(GapProcess.explicit(k, u_cols), len(u_cols)).final
    u_rows = geometry.row_u_values(q)
    if len(u_rows):
        p *= rho_exact(GapProcess.explicit(k, u_rows), len(u_rows)).final
    return p


def jk_paper_lower_bound(geometry: SkewGeometry, q: float) -> float:
    """The first displayed product bound in the P(J_k) estimate."""
    k, a, b = geometry.k, geometry.a, geometry.b
    p = q ** (k * (b - 1)) * (1.0 - q)
    p *= (1.0 - q ** (a - k + 1)) ** 2 * (1.0 - q ** (a + 1)) * (1.0 - q**b)
    u_cols = geometry.column_u_values(q)
    p *= float(np.prod(np.asarray(fk_eval(k, 1.0 - u_cols))))
    u_rows = geometry.row_u_values(q)
    if len(u_rows):
        p *= float(np.prod(np.asarray(fk_eval(k, 1.0 - u_rows))))
    return p


# --- composite growth events ------------------------------------------------


@dataclass(frozen=True)
class EventChain:
    """Parameters (k, L, (a_1, b_1), ..., (a_m, b_m)) of a composite event E_k."""

    k: int
    L: int
    pairs: Tuple[Tuple[int, int], ...]

    def __post_init__(self):
        k, L = self.k, self.L
        pairs = tuple((int(a), int(b)) for a, b in self.pairs)
        object.__setattr__(self, "pairs", pairs)
        if k < 1:
            raise ValueError("k must be a positive integer")
        if not pairs:
            raise ValueError("a chain needs at least one (a, b) pair")
        if L < k + 4:
            raise ValueError("window too small for any chain")
        prev = k
        for a, b in pairs:
            if a < prev:
                raise ValueError(f"chain parameters must be nondecreasing: {a} < {prev}")
            if b - a < k + 2:
                raise ValueError(f"need b - a >= k + 2 in every pair, got {(a, b)}")
            prev = b
        if prev > L:
            raise ValueError(f"b_m = {prev} exceeds the window L = {L}")
        self.components()  # constructing the geometries validates them
        taken: Dict[Cell, str] = {}
        for cell, state, tag in self.fixed_cells():
            if cell in taken:
                raise ValueError(f"chain conditions conflict at cell {cell} ({taken[cell]} vs {tag})")
            taken[cell] = tag
        # a corner cell inside an emptiness region is a contradictory event
        empty_cells = set()
        for geom, kind in self.components():
            if kind == "jk":
                for l in geom.empty_rows:
                    empty_cells.update(geom.row_cells(l))
        for cell, state, tag in self.fixed_cells():
            if cell in empty_cells:
                raise ValueError(
                    f"chain is contradictory: {tag} cell {cell} lies in a required-empty row"
                )

    @property
    def corner_cells(self) -> Tuple[Cell, Cell]:
        """Paper cells (1, L-1) and (L-1, 1) -> lattice (0, L-2), (L-2, 0)."""
        return ((0, self.L - 2), (self.L - 2, 0))

    def block_cells(self) -> List[Cell]:
        return [(x, y) for x in range(self.k) for y in range(self.k)]

    def fixed_cells(self) -> Tuple[Tuple[Cell, int, str], ...]:
        """Cells with a directly-forced state: the block, corners, and turn cells."""
        return self._fixed_cells

    def components(self) -> Tuple[Tuple[object, str], ...]:
        """(geometry, kind) for every nondegenerate D/J constituent."""
        return self._components

    # computed once per chain: the samplers ask for them on every trial
    @functools.cached_property
    def _fixed_cells(self) -> Tuple[Tuple[Cell, int, str], ...]:
        out: List[Tuple[Cell, int, str]] = []
        for cell in self.block_cells():
            state = CellState.ACTIVE if cell == (0, 0) else CellState.OCCUPIED
            out.append((cell, int(state), "block"))
        for cell in self.corner_cells:
            out.append((cell, int(CellState.OCCUPIED), "corner"))
        for geom, kind in self.components():
            if kind == "jk":
                out.append((geom.occupied_cell, int(CellState.OCCUPIED), "turn"))
        return tuple(out)

    @functools.cached_property
    def _components(self) -> Tuple[Tuple[object, str], ...]:
        out = []
        prev = self.k
        for a, b in self.pairs:
            if a > prev:
                out.append((StairGeometry(self.k, prev, a), "dk"))
            out.append((SkewGeometry(self.k, a, b), "jk"))
            prev = b
        if self.L - 1 > prev:
            out.append((StairGeometry(self.k, prev, self.L - 1), "dk"))
        return tuple(out)


def _sample_gap_pattern(u: Sequence[float], k: int, forced: Set[int], rng) -> List[bool]:
    """Draw nonemptiness statuses conditioned on 'no k consecutive empty'.

    Backward log-space recurrence S[j][r] = P(suffix j.. gap-free | r
    trailing empties), then forward sampling from the exact conditionals.
    Indices in `forced` have status True with probability 1.
    """
    n = len(u)
    log_u = [0.0 if i in forced else (math.log(u[i]) if u[i] > 0 else -math.inf) for i in range(n)]
    log_1mu = [
        -math.inf if i in forced else (math.log1p(-u[i]) if u[i] < 1 else -math.inf)
        for i in range(n)
    ]
    NEG = -math.inf
    # plain lists: the table is read one element at a time
    suffix = [[0.0] * k for _ in range(n + 1)]
    for j in range(n - 1, -1, -1):
        nxt, row = suffix[j + 1], suffix[j]
        for r in range(k):
            succ = log_u[j] + nxt[0]
            fail = NEG if r + 1 >= k else log_1mu[j] + nxt[r + 1]
            hi = max(succ, fail)
            row[r] = hi if hi == NEG else hi + math.log(math.exp(succ - hi) + math.exp(fail - hi))
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


def _sample_line(grid: np.ndarray, cells: List[Cell], status: bool, q: float, rng, skip: Set[Cell],
                 already_nonempty: bool):
    free = [c for c in cells if c not in skip]
    if not status:
        for x, y in free:
            grid[y, x] = CellState.EMPTY
        return
    if already_nonempty or not free:
        for x, y in free:
            grid[y, x] = CellState.OCCUPIED if rng.random() < 1.0 - q else CellState.EMPTY
        return
    for attempt in range(1_000_000):
        draws = rng.random(len(free)) < 1.0 - q
        if draws.any():
            for (x, y), occ in zip(free, draws):
                grid[y, x] = CellState.OCCUPIED if occ else CellState.EMPTY
            return
    raise RuntimeError("rejection sampling for a nonempty line did not terminate")


def sample_conditioned(
    chain: EventChain, q: float, seed: int, background: str = "sample"
) -> Lattice:
    """Draw a localized configuration from the conditional law given E_k.

    Factor by factor (the factors live on disjoint cells): the no-k-gap
    line families get their statuses from the exact conditioned pattern
    recurrence, each nonempty line is then filled by per-line rejection;
    required-empty lines are cleared; the block/corner/turn cells are set
    outright.  `background` controls the unconstrained cells: "sample"
    draws them i.i.d. occupied with probability 1-q (the conditional law),
    "empty" leaves them all empty (the adversarial configuration used by
    the growth-guarantee checks).
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    if background not in ("sample", "empty"):
        raise ValueError("background must be 'sample' or 'empty'")
    L = chain.L
    rng = np.random.Generator(np.random.Philox(key=seed))
    if background == "sample":
        grid = np.where(
            rng.random((L, L)) < 1.0 - q, np.uint8(CellState.OCCUPIED), np.uint8(CellState.EMPTY)
        )
    else:
        grid = np.zeros((L, L), dtype=np.uint8)

    fixed = {cell: state for cell, state, _ in chain.fixed_cells()}
    fixed_occupied = {c for c, s, _ in chain.fixed_cells() if s != CellState.EMPTY}
    skip = set(fixed)

    def fill_family(labels, cells_of, u):
        forced = {
            i for i, l in enumerate(labels) if any(c in fixed_occupied for c in cells_of(l))
        }
        statuses = _sample_gap_pattern(list(u), chain.k, forced, rng)
        for i, l in enumerate(labels):
            _sample_line(
                grid, cells_of(l), statuses[i], q, rng,
                skip=skip, already_nonempty=i in forced,
            )

    for geom, kind in chain.components():
        if kind == "dk":
            fill_family(list(geom.labels), geom.column_cells, geom.u_values(q))
            fill_family(list(geom.labels), geom.row_cells, geom.u_values(q))
        else:
            for cells_of in (geom.column_cells, geom.row_cells):
                for label in (geom.a + 1, geom.b):
                    cells = cells_of(label)
                    already = any(c in fixed_occupied for c in cells)
                    _sample_line(grid, cells, True, q, rng, skip, already)
            for l in geom.empty_rows:
                _sample_line(grid, geom.row_cells(l), False, q, rng, skip, False)
            fill_family(list(geom.gap_family_columns), geom.column_cells, geom.column_u_values(q))
            fill_family(list(geom.gap_family_rows), geom.row_cells, geom.row_u_values(q))

    for (x, y), state in fixed.items():
        grid[y, x] = state
    return Lattice(cells=grid, origin=(0, 0))


def validate_chain(lattice: Lattice, chain: EventChain) -> List[str]:
    """Every violated E_k condition, as human-readable strings (empty = valid)."""
    grid = lattice.cells
    problems: List[str] = []

    def nonempty(cells) -> bool:
        return any(grid[y, x] != CellState.EMPTY for x, y in cells)

    for cell, state, tag in chain.fixed_cells():
        x, y = cell
        if tag == "block" and cell == (0, 0):
            if grid[y, x] != CellState.ACTIVE:
                problems.append("origin is not active")
        elif grid[y, x] == CellState.EMPTY:
            problems.append(f"{tag} cell {cell} is empty")

    def check_family(labels, cells_of, what):
        run = 0
        for l in labels:
            run = 0 if nonempty(cells_of(l)) else run + 1
            if run >= chain.k:
                problems.append(f"{what} has a {chain.k}-gap ending at label {l}")
                return

    for geom, kind in chain.components():
        tag = f"{kind}({geom.a},{geom.b})"
        if kind == "dk":
            check_family(geom.labels, geom.column_cells, f"{tag} columns")
            check_family(geom.labels, geom.row_cells, f"{tag} rows")
        else:
            for l, cells_of in (
                (geom.a + 1, geom.column_cells),
                (geom.b, geom.column_cells),
            ):
                if not nonempty(cells_of(l)):
                    problems.append(f"{tag} column {l} must be nonempty")
            for l in (geom.a + 1, geom.b):
                if not nonempty(geom.row_cells(l)):
                    problems.append(f"{tag} row {l} must be nonempty")
            for l in geom.empty_rows:
                if nonempty(geom.row_cells(l)):
                    problems.append(f"{tag} row {l} must be empty")
            check_family(geom.gap_family_columns, geom.column_cells, f"{tag} gap columns")
            check_family(geom.gap_family_rows, geom.row_cells, f"{tag} gap rows")
    return problems


# --- growth-guarantee verification ------------------------------------------


@dataclass
class CaseResult:
    kind: str
    k: int
    variant: str
    a: int
    b: int
    trials: int
    violations: int
    counterexample: Optional[str] = None


@dataclass
class GrowthReport:
    cases: List[CaseResult] = field(default_factory=list)

    @property
    def total_violations(self) -> int:
        return sum(c.violations for c in self.cases)

    def summary(self) -> str:
        lines = [
            f"{c.kind} k={c.k} {c.variant} (a={c.a}, b={c.b}): "
            f"{c.violations}/{c.trials} violations"
            for c in self.cases
        ]
        lines.append(f"TOTAL violations: {self.total_violations}")
        return "\n".join(lines)


def _place_sparse(grid: np.ndarray, cells: List[Cell], rng):
    """One occupied cell at a random position: the minimal nonempty line.

    Any configuration satisfying the event dominates some such sparse
    configuration cell by cell, and the rules are monotone, so growth of
    every sparse sample implies growth of every satisfying configuration
    with the same line statuses.
    """
    x, y = cells[int(rng.integers(len(cells)))]
    grid[y, x] = CellState.OCCUPIED


def _place_family(grid: np.ndarray, labels, cells_of, u, k: int, rng):
    """Gap-free statuses for a line family, then one sparse cell per nonempty line."""
    statuses = _sample_gap_pattern(list(u), k, set(), rng)
    for label, status in zip(labels, statuses):
        if status:
            _place_sparse(grid, cells_of(label), rng)


def _stair_trial(geom: StairGeometry, q: float, seed: int) -> Lattice:
    """An adversarial D_k(a, b) trial: sparse lines on an empty window, R(a, a) Active."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    w = geom.b + 1
    grid = np.zeros((w, w), dtype=np.uint8)
    _place_family(grid, geom.labels, geom.column_cells, geom.u_values(q), geom.k, rng)
    _place_family(grid, geom.labels, geom.row_cells, geom.u_values(q), geom.k, rng)
    grid[: geom.a, : geom.a] = CellState.ACTIVE
    return Lattice(cells=grid, origin=(0, 0))


def _skew_trial(geom: SkewGeometry, q: float, dev: int, seed: int) -> Lattice:
    """An adversarial J_k(a, b) trial with R(a - dev, a - dev) Active."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    a, b = geom.a, geom.b
    grid = np.zeros((b + 1, b + 1), dtype=np.uint8)
    for label in (a + 1, b):
        _place_sparse(grid, geom.column_cells(label), rng)
        _place_sparse(grid, geom.row_cells(label), rng)
    ox, oy = geom.occupied_cell
    grid[oy, ox] = CellState.OCCUPIED
    _place_family(grid, geom.gap_family_columns, geom.column_cells, geom.column_u_values(q),
                  geom.k, rng)
    _place_family(grid, geom.gap_family_rows, geom.row_cells, geom.row_u_values(q), geom.k, rng)
    grid[: a - dev, : a - dev] = CellState.ACTIVE
    return Lattice(cells=grid, origin=(0, 0))


def _growth_cases(k: int, q: float) -> list:
    """The D_k, J_k and E_k cases of `verify_growth_guarantee`, in report order.

    Each is (kind, a, b, seed stride, trial configuration from seed, side
    of the square R(side, side) that must fill).
    """
    base = max(k, 4)
    cases = []
    for a, b in ((base, base + 5), (base + 2, base + 9)):
        geom = StairGeometry(k, a, b)
        cases.append(("dk", a, b, 1_000_003, functools.partial(_stair_trial, geom, q), b - k + 1))
    # the last pair has b - a = k + 2, the smallest legal skew
    for a, b in ((2 * k + 2, 3 * k + 6), (2 * k + 4, 3 * k + 10), (2 * k + 2, 3 * k + 4)):
        geom = SkewGeometry(k, a, b)
        for dev in (0, k - 1):
            build = functools.partial(_skew_trial, geom, q, dev)
            cases.append((f"jk[s={dev},t={dev}]", a, b, 7_000_003, build, b))
    L = 4 * k + 18
    for pairs in (((k + 2, 2 * k + 5),), ((k + 3, 2 * k + 6), (2 * k + 8, 3 * k + 11))):
        chain = EventChain(k, L, pairs)
        build = functools.partial(sample_conditioned, chain, q, background="empty")
        cases.append(("ek", pairs[0][0], pairs[-1][1], 13_000_003, build, L - 1))
    return cases


def _run_case(results: List[CaseResult], models: List[ModelSpec],
              build: Callable[[int], Lattice], side: int, seeds: Iterable[int]) -> None:
    """Count, per model, the trials whose closure leaves R(side, side) short of Active.

    Each trial configuration is built once and decided under every model,
    `results[i]` counting for `models[i]`.  The bitboard closure decides
    each trial, stopping once the square is filled.  A trial it fails is
    run again through `reference_fixpoint`, the naive oracle, which gives
    the counterexample snapshot and cross-checks the verdict.
    """
    for seed in seeds:
        lat = build(seed)
        W, cells = lat.width, lat.cells.reshape(-1)
        square = sum(((1 << side) - 1) << (y * W) for y in range(side))  # R(side, side)
        start = pack_board(cells == CellState.ACTIVE)
        occupied = pack_board(cells == CellState.OCCUPIED)
        for res, model in zip(results, models):
            active, _ = bitboard_closure(model, W, lat.height, start, occupied,
                                         stop=lambda board: board & square == square)
            if active & square == square:
                continue
            fixed, _ = reference_fixpoint(lat, model)
            if np.all(fixed.cells[:side, :side] == CellState.ACTIVE):
                raise AssertionError(
                    f"bitboard closure and reference_fixpoint disagree on {res.kind} seed {seed}"
                )
            res.violations += 1
            if res.counterexample is None:
                res.counterexample = to_text(fixed)


def verify_growth_guarantee(
    k: int,
    trials: int = 500,
    seed: int = 0,
    q: float = 0.5,
    variant: Optional[Variant] = None,
) -> GrowthReport:
    """Simulate the deterministic growth guarantees of D_k, J_k, and E_k.

    D_k: with R(a, a) forced active and D_k(a, b) holding, the fixpoint
    contains R(b-s, b-t) for some 0 <= s, t <= k-1 (checked as
    R(b-k+1, b-k+1)).  J_k: with R(a-s, a-t) forced active (both the
    strongest s=t=0 and weakest s=t=k-1 hypotheses) and J_k(a, b) holding,
    the fixpoint contains R(b, b).  E_k: a conditioned sample grows to
    R(L-1, L-1).  All trials put every unconstrained cell in the empty
    state, the adversarial worst case for the deterministic claim.
    Violations are counted, with the first counterexample snapshot kept.
    The report lists every case of the first variant, then of the next.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    variants = [variant] if variant is not None else (
        [Variant.LOCAL_K] if k >= 2 else [Variant.LOCAL_MODIFIED, Variant.LOCAL_FROBOSE]
    )
    models = [ModelSpec(variant=var, k=k, q=q) for var in variants]
    by_case = []
    for kind, a, b, stride, build, side in _growth_cases(k, q):
        results = [CaseResult(kind, k, var.value, a, b, trials, 0) for var in variants]
        first = seed * stride
        _run_case(results, models, build, side, range(first, first + trials))
        by_case.append(results)
    return GrowthReport([res for per_variant in zip(*by_case) for res in per_variant])
