"""Diagonal and skew growth events on the localized lattice.

Line-label convention (frozen; every cell set in this module flows through
it): paper label i denotes the i-th column/row counting the origin's line
as label 1, so label i sits at lattice coordinate i-1.  A column of height
h at label i occupies cells (i-1, 0) .. (i-1, h-1); a row of width w at
label i occupies (0, i-1) .. (w-1, i-1).  A paper cell (u, v) is lattice
(u-1, v-1), and R(a, b) is the cell block {0..a-1} x {0..b-1} anchored at
the origin.

Each event is a list of `Condition`s on pairwise disjoint cells (asserted
when the geometry is built), so its probability is the product of theirs.
A condition applies one rule to a tuple of lines: every line nonempty,
every line empty, or no k consecutive empty lines in the family ("no
k-gap").  A line of n cells is nonempty with probability u = 1 - q^n, and
a family's no-k-gap probability is the recurrence rho of `gap_process`,
bounded below by the product of f_k(1 - u) over its lines.  The same list
drives the exact probabilities, the paper's lower bounds, the validator,
the conditioned sampler and the adversarial growth trials.

Stair-step events D_k(a, b), b > a >= k: two no-k-gap families, the
columns and the rows at labels a+1..b, of length label-k.  Column cells
and row cells never intersect (y <= x-k-1 and x <= y-k-1 cannot hold at
once).

Skew events J_k(a, b), b - a >= k+2: columns at labels a+1..a+k keep the
stair heights, those at a+k+1..b are capped at height a+1; row label a+1
has width a-k+1, rows a+2..a+k+1 have width b-1, rows a+k+2..b have width
b.  The conditions, in product order: C_{a+1}, R_{a+1}, C_b, R_b nonempty,
the k middle rows empty, the single turn cell at paper coordinates
(b, a+k+1) occupied, and the two families {C_{a+2}..C_{b-1}},
{R_{a+k+2}..R_{b-1}} free of k-gaps (the row family is absent when
b - a = k+2).

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
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from .gap_process import GapProcess, rho_exact
from .rng import PhiloxReader
from .special_fn import fk_eval
from .lattice import CellState, Lattice, ModelSpec, Variant, reference_fixpoint, run_windows, to_text

__all__ = [
    "Condition",
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

NONEMPTY, EMPTY, NO_GAP = "nonempty", "empty", "no k-gap"


@dataclass(frozen=True)
class Condition:
    """One independent factor of a growth event: `rule` applied to `lines`.

    `rule` is NONEMPTY or EMPTY (every line) or NO_GAP (the family has no
    k consecutive empty lines, in label order).  `kind` is "column", "row"
    or "cell" (the J_k turn cell, labelled by its column), and `lines[i]`
    holds the cells of the line at `labels[i]`.
    """

    rule: str
    kind: str
    labels: Tuple[int, ...]
    lines: Tuple[Tuple[Cell, ...], ...]

    @classmethod
    def of(cls, rule: str, kind: str, labels: Iterable[int], cells_of) -> "Condition":
        labels = tuple(labels)
        return cls(rule, kind, labels, tuple(tuple(cells_of(l)) for l in labels))

    def u(self, q: float) -> np.ndarray:
        """Per-line nonemptiness probabilities 1 - q^{line size}."""
        return 1.0 - np.power(q, np.array([len(line) for line in self.lines], dtype=float))


def _col_cells(label: int, height: int) -> List[Cell]:
    return [(label - 1, y) for y in range(height)]


def _row_cells(label: int, width: int) -> List[Cell]:
    return [(x, label - 1) for x in range(width)]


def _assert_disjoint(conditions: Sequence[Condition], event: str) -> None:
    """Every line of every condition on its own cells: the product rule's premise."""
    seen: Set[Cell] = set()
    for cond in conditions:
        for line in cond.lines:
            overlap = seen.intersection(line)
            if overlap:
                raise AssertionError(
                    f"{event} condition cells overlap at {sorted(overlap)[:4]}; "
                    "the frozen geometry no longer matches the independence argument"
                )
            seen.update(line)


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
        _assert_disjoint(self.conditions, "D_k")

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

    @functools.cached_property
    def conditions(self) -> Tuple[Condition, ...]:
        return (
            Condition.of(NO_GAP, "column", self.labels, self.column_cells),
            Condition.of(NO_GAP, "row", self.labels, self.row_cells),
        )


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
        _assert_disjoint(self.conditions, "J_k")

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

    @property
    def empty_rows(self) -> range:
        return range(self.a + 2, self.a + self.k + 2)

    @property
    def gap_family_columns(self) -> range:
        return range(self.a + 2, self.b)

    @property
    def gap_family_rows(self) -> range:
        return range(self.a + self.k + 2, self.b)

    @functools.cached_property
    def conditions(self) -> Tuple[Condition, ...]:
        conds = [
            Condition.of(NONEMPTY, kind, (label,), cells_of)
            for label in (self.a + 1, self.b)
            for kind, cells_of in (("column", self.column_cells), ("row", self.row_cells))
        ]
        conds.append(Condition.of(EMPTY, "row", self.empty_rows, self.row_cells))
        conds.append(Condition(NONEMPTY, "cell", (self.b,), ((self.occupied_cell,),)))
        conds.append(Condition.of(NO_GAP, "column", self.gap_family_columns, self.column_cells))
        if self.gap_family_rows:
            conds.append(Condition.of(NO_GAP, "row", self.gap_family_rows, self.row_cells))
        return tuple(conds)


def _product(geometry, q: float, family: Callable[[int, np.ndarray], float]) -> float:
    """The product over the conditions, `family(k, u)` giving each no-k-gap factor."""
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    p = 1.0
    for cond in geometry.conditions:
        if cond.rule == NONEMPTY:
            for line in cond.lines:
                p *= 1.0 - q ** len(line)
        elif cond.rule == EMPTY:
            p *= q ** sum(len(line) for line in cond.lines)
        else:
            p *= family(geometry.k, cond.u(q))
    return p


def _rho(k: int, u: np.ndarray) -> float:
    return rho_exact(GapProcess.explicit(k, u), len(u)).final


def _fk_product(k: int, u: np.ndarray) -> float:
    return float(np.prod(np.asarray(fk_eval(k, 1.0 - u))))


def prob_dk(geometry: StairGeometry, q: float) -> float:
    """Exact P(D_k(a, b)): the product of the two family no-k-gap probabilities."""
    return _product(geometry, q, _rho)


def dk_paper_lower_bound(geometry: StairGeometry, q: float) -> float:
    """exp(-2 sum_{i=a-(k-1)}^{b-k} g_k(i s)) with q = e^{-s}.

    Computed as the product of f_k(q^{i-k}) over each of the two families,
    which avoids the log/exp round trip.
    """
    return _product(geometry, q, _fk_product)


def prob_jk(geometry: SkewGeometry, q: float) -> float:
    """Exact P(J_k(a, b)) as a product over the disjoint factors."""
    return _product(geometry, q, _rho)


def jk_paper_lower_bound(geometry: SkewGeometry, q: float) -> float:
    """The first displayed product bound in the P(J_k) estimate."""
    return _product(geometry, q, _fk_product)


# --- composite growth events ------------------------------------------------


@dataclass(frozen=True)
class EventChain:
    """Parameters (k, L, (a_1, b_1), ..., (a_m, b_m)) of a composite event E_k."""

    k: int
    L: int
    pairs: Tuple[Tuple[int, int], ...]
    # `sample_conditioned`'s trial plans by q, built on first use
    _plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
        # constructing the geometries validates them; a fixed cell inside an
        # emptiness region is a contradictory event
        empty_cells = {
            c for geom, _ in self.components() for cond in geom.conditions
            if cond.rule == EMPTY for line in cond.lines for c in line
        }
        for cell, state, tag in self.fixed_cells():
            if cell in empty_cells:
                raise ValueError(
                    f"chain is contradictory: {tag} cell {cell} lies in a required-empty row"
                )

    @property
    def corner_cells(self) -> Tuple[Cell, Cell]:
        """Paper cells (1, L-1) and (L-1, 1) -> lattice (0, L-2), (L-2, 0)."""
        return ((0, self.L - 2), (self.L - 2, 0))

    def fixed_cells(self) -> Tuple[Tuple[Cell, int, str], ...]:
        """Cells with a directly-forced state: the k x k block and the two corners.

        The J_k turn cells are conditions of their geometry, not fixed cells.
        """
        return self._fixed_cells

    def components(self) -> Tuple[Tuple[object, str], ...]:
        """(geometry, kind) for every nondegenerate D/J constituent."""
        return self._components

    # computed once per chain: the samplers ask for them on every trial
    @functools.cached_property
    def _fixed_cells(self) -> Tuple[Tuple[Cell, int, str], ...]:
        out: List[Tuple[Cell, int, str]] = []
        for cell in ((x, y) for x in range(self.k) for y in range(self.k)):
            state = CellState.ACTIVE if cell == (0, 0) else CellState.OCCUPIED
            out.append((cell, int(state), "block"))
        for cell in self.corner_cells:
            out.append((cell, int(CellState.OCCUPIED), "corner"))
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


def _gap_table(u: Sequence[float], k: int, forced: Set[int]) -> List[List[float]]:
    """The exact conditionals of nonemptiness given 'no k consecutive empty'.

    Backward log-space recurrence S[j][r] = P(suffix j.. gap-free | r
    trailing empties), returned as log P(line j nonempty | r trailing
    empties) by [j][r]; `_statuses` samples from it.  Indices in `forced`
    have status True with probability 1.
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
    return [[log_u[j] + suffix[j + 1][0] - s for s in suffix[j]] for j in range(n)]


@dataclass(frozen=True)
class _Plan:
    """What a trial builder walks, fixed per (chain or geometry, q).

    `steps` holds one (status, table, lines) per condition, in product
    order.  For NONEMPTY and EMPTY, `status` is every line's status and
    `table` is None; a NO_GAP family has its `_gap_table`.  Each line is
    (its cells; n, the number of its cells that are not fixed; whether a
    fixed cell makes it nonempty; expm1(n log q)).  `cells` holds every
    line's free cells in walk order, as flat indices into a `width` x
    `width` grid, and the fixed cells are set last.
    """

    width: int
    steps: Tuple[Tuple[bool, Optional[List[List[float]]], Tuple[tuple, ...]], ...]
    cells: np.ndarray
    lines: int
    gap_lines: int
    fixed_cells: np.ndarray
    fixed_states: np.ndarray


def _plan(conditions: Iterable[Condition], k: int, q: float, width: int,
          fixed: Dict[Cell, int]) -> _Plan:
    log_q = math.log(q)
    steps, cells, lines, gap_lines = [], [], 0, 0
    for cond in conditions:
        walk = []
        for line in cond.lines:
            free = [y * width + x for x, y in line if (x, y) not in fixed]
            walk.append((line, len(free), len(free) < len(line), math.expm1(len(free) * log_q)))
            cells += free
        table = None
        if cond.rule == NO_GAP:
            forced = {i for i, (_, _, by_fixed, _) in enumerate(walk) if by_fixed}
            table = _gap_table(list(cond.u(q)), k, forced)
            gap_lines += len(walk)
        steps.append((cond.rule == NONEMPTY, table, tuple(walk)))
        lines += len(walk)
    return _Plan(
        width, tuple(steps), np.array(cells, dtype=np.intp), lines, gap_lines,
        np.array([y * width + x for x, y in fixed], dtype=np.intp),
        np.array(list(fixed.values()), dtype=np.uint8),
    )


def _statuses(step, reader: PhiloxReader) -> Iterable[bool]:
    """A step's line statuses: the rule's, or drawn forward from its gap table.

    The forward pass reads one `random()` per line.
    """
    status, table, _ = step
    if table is None:
        return itertools.repeat(status)
    out = []
    r = 0
    for row in table:
        occur = math.log(max(reader.random(), 1e-300)) < row[r]
        out.append(occur)
        r = 0 if occur else r + 1
    return out


def _fill(plan: _Plan, q: float, reader: PhiloxReader) -> List[bool]:
    """Whether each cell of `plan.cells` is occupied, from its line's law given the status.

    An empty line is cleared.  A nonempty line that a fixed occupied cell
    already makes nonempty draws its free cells i.i.d.  Otherwise the first
    occupied free cell j is drawn from the truncated geometric law
    P(j) = q^j (1 - q) / (1 - q^n) by inversion, and the cells after it
    i.i.d.: together, the i.i.d. law given at least one occupied cell.
    """
    p, log_q = 1.0 - q, math.log(q)
    out: List[bool] = []
    for step in plan.steps:
        for (_, n, by_fixed, tail), status in zip(step[2], _statuses(step, reader)):
            if not status:
                out += [False] * n
            elif by_fixed:
                out += reader.below(p, n)
            elif n:
                # j = floor(log(1 - U (1 - q^n)) / log q), and U < 1 keeps it
                # below n up to rounding
                j = min(int(math.log1p(reader.random() * tail) / log_q), n - 1)
                out += [False] * j
                out.append(True)
                out += reader.below(p, n - j - 1)
    return out


def sample_conditioned(
    chain: EventChain, q: float, seed: int, background: str = "sample"
) -> Lattice:
    """Draw a localized configuration from the conditional law given E_k.

    Condition by condition (they live on disjoint cells): a no-k-gap family
    gets its line statuses from the exact conditioned pattern recurrence,
    the other conditions fix every line's status, and each line is then
    filled from its law given that status (`_fill`); the block and corner
    cells are set outright.  `background` controls the unconstrained
    cells: "sample" draws them i.i.d. occupied with probability 1-q (the
    conditional law), "empty" leaves them all empty (the adversarial
    configuration used by the growth-guarantee checks).  The draws are
    those of `Generator(Philox(key=seed))`, read by a `PhiloxReader`.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    if background not in ("sample", "empty"):
        raise ValueError("background must be 'sample' or 'empty'")
    return Lattice(cells=_conditioned_cells(chain, q, seed, background), origin=(0, 0))


def _conditioned_cells(chain: EventChain, q: float, seed: int, background: str) -> np.ndarray:
    """The uint8 cells of `sample_conditioned`, whose arguments are taken as valid."""
    L = chain.L
    plan = chain._plans.get(q)
    if plan is None:
        conditions = [cond for geom, _ in chain.components() for cond in geom.conditions]
        fixed = {cell: state for cell, state, _ in chain.fixed_cells()}  # none of them empty
        plan = chain._plans[q] = _plan(conditions, chain.k, q, L, fixed)
    # a line reads at most one word per free cell, and one more in a NO_GAP family
    background_words = L * L if background == "sample" else 0
    reader = PhiloxReader(seed, background_words + len(plan.cells) + plan.gap_lines)
    # bytes of bools: a bool stores as 1, CellState.OCCUPIED
    if background_words:
        grid = np.frombuffer(bytearray(reader.below(1.0 - q, background_words)), dtype=np.uint8)
    else:
        grid = np.zeros(L * L, dtype=np.uint8)
    grid[plan.cells] = np.frombuffer(bytes(_fill(plan, q, reader)), dtype=np.uint8)
    grid[plan.fixed_cells] = plan.fixed_states
    return grid.reshape(L, L)


def validate_chain(lattice: Lattice, chain: EventChain) -> List[str]:
    """Every violated E_k condition, as human-readable strings (empty = valid)."""
    grid = lattice.cells
    problems: List[str] = []

    for cell, state, tag in chain.fixed_cells():
        x, y = cell
        if tag == "block" and cell == (0, 0):
            if grid[y, x] != CellState.ACTIVE:
                problems.append("origin is not active")
        elif grid[y, x] == CellState.EMPTY:
            problems.append(f"{tag} cell {cell} is empty")

    for geom, kind in chain.components():
        tag = f"{kind}({geom.a},{geom.b})"
        for cond in geom.conditions:
            nonempty = [any(grid[y, x] != CellState.EMPTY for x, y in line) for line in cond.lines]
            if cond.rule != NO_GAP:
                problems.extend(
                    f"{tag} {cond.kind} {label} must be {cond.rule}"
                    for label, ok in zip(cond.labels, nonempty) if ok != (cond.rule == NONEMPTY)
                )
                continue
            run = 0
            for label, ok in zip(cond.labels, nonempty):
                run = 0 if ok else run + 1
                if run >= chain.k:
                    problems.append(f"{tag} {cond.kind}s have a {chain.k}-gap ending at label {label}")
                    break
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


def _adversarial_trial(plan: _Plan, side: int, seed: int) -> np.ndarray:
    """The uint8 cells of a D_k(a, b) or J_k(a, b) trial: an empty window, R(side, side) Active.

    `plan` is the event's `_plan` on its (b+1) x (b+1) window.  Every
    nonempty line gets one occupied cell at a random position, the
    minimal nonempty line; a no-k-gap family first draws its gap-free line
    statuses.  Any configuration satisfying the event dominates some such
    sparse configuration cell by cell, and the rules are monotone, so
    growth of every sparse sample implies growth of every satisfying
    configuration with the same line statuses.  The draws are those of
    `Generator(Philox(key=seed))`, read by a `PhiloxReader`.
    """
    # one word per NO_GAP line and per `integers` call, unless Lemire rejects
    reader = PhiloxReader(seed, plan.gap_lines + plan.lines)
    hits = []
    for step in plan.steps:
        for (line, _, _, _), status in zip(step[2], _statuses(step, reader)):
            if status:
                x, y = line[reader.integers(len(line))]
                hits.append(y * plan.width + x)
    grid = np.zeros(plan.width * plan.width, dtype=np.uint8)
    grid[hits] = CellState.OCCUPIED
    grid = grid.reshape(plan.width, plan.width)
    grid[:side, :side] = CellState.ACTIVE
    return grid


def _growth_cases(k: int, q: float) -> list:
    """The D_k, J_k and E_k cases of `verify_growth_guarantee`, in report order.

    Each is (kind, a, b, seed stride, trial configuration from seed, side
    of the square R(side, side) that must fill).
    """
    base = max(k, 4)
    cases = []
    for a, b in ((base, base + 5), (base + 2, base + 9)):
        plan = _plan(StairGeometry(k, a, b).conditions, k, q, b + 1, {})
        build = functools.partial(_adversarial_trial, plan, a)
        cases.append(("dk", a, b, 1_000_003, build, b - k + 1))
    # the last pair has b - a = k + 2, the smallest legal skew
    for a, b in ((2 * k + 2, 3 * k + 6), (2 * k + 4, 3 * k + 10), (2 * k + 2, 3 * k + 4)):
        plan = _plan(SkewGeometry(k, a, b).conditions, k, q, b + 1, {})
        for dev in (0, k - 1):
            build = functools.partial(_adversarial_trial, plan, a - dev)
            cases.append((f"jk[s={dev},t={dev}]", a, b, 7_000_003, build, b))
    L = 4 * k + 18
    for pairs in (((k + 2, 2 * k + 5),), ((k + 3, 2 * k + 6), (2 * k + 8, 3 * k + 11))):
        chain = EventChain(k, L, pairs)
        build = functools.partial(_conditioned_cells, chain, q, background="empty")
        cases.append(("ek", pairs[0][0], pairs[-1][1], 13_000_003, build, L - 1))
    return cases


# trials built at once: memory stays bounded as the trial count grows
_CHUNK_TRIALS = 128


def _run_case(results: List[CaseResult], models: List[ModelSpec],
              build: Callable[[int], np.ndarray], side: int, seeds: Iterable[int]) -> None:
    """Count, per model, the trials whose closure leaves R(side, side) short of Active.

    Each trial configuration, a 2-D uint8 grid of CellState values, is
    built once, in seed order, and decided under every model, `results[i]`
    counting for `models[i]`.  The grids of a chunk are padded to one
    window with Empty cells above and to the right; such a cell sees Active
    cells along one axis only, so it never fires, and each trial grows as
    on its own grid.  `run_windows` runs every window to its fixpoint or
    until its square is Active.  A trial whose square is short of Active,
    or does not fit its grid, is run again alone through
    `reference_fixpoint`, the naive oracle, which gives the counterexample
    snapshot and cross-checks the verdict.
    """
    seeds = list(seeds)
    for first in range(0, len(seeds), _CHUNK_TRIALS):
        chunk = seeds[first:first + _CHUNK_TRIALS]
        grids = [build(seed) for seed in chunk]
        height, width = (max(grid.shape[axis] for grid in grids) for axis in (0, 1))
        cells = np.zeros((len(grids), height, width), dtype=np.uint8)
        for grid, window in zip(grids, cells):
            window[:grid.shape[0], :grid.shape[1]] = grid
        active, occupied = (
            np.packbits((cells == state).reshape(len(grids), -1), axis=1, bitorder="little")
            for state in (CellState.ACTIVE, CellState.OCCUPIED)
        )
        windows = [(bytes(a), bytes(o)) for a, o in zip(active, occupied)]
        # R(side, side), clipped to the window; a square that does not fit its grid is a violation
        square = sum(((1 << min(side, width)) - 1) << (y * width) for y in range(min(side, height)))
        for res, model in zip(results, models):
            filled = run_windows(model, width, height, windows,
                                 lambda board: board & square == square)
            for seed, grid, ok in zip(chunk, grids, filled):
                fit = side <= min(grid.shape)
                if fit and ok:
                    continue
                fixed, _ = reference_fixpoint(Lattice(cells=grid), model)
                if fit and np.all(fixed.cells[:side, :side] == CellState.ACTIVE):
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
    variants = [variant] if variant is not None else Variant.local_for(k)
    models = [ModelSpec(variant=var, k=k, q=q) for var in variants]
    by_case = []
    for kind, a, b, stride, build, side in _growth_cases(k, q):
        results = [CaseResult(kind, k, var.value, a, b, trials, 0) for var in variants]
        first = seed * stride
        _run_case(results, models, build, side, range(first, first + trials))
        by_case.append(results)
    return GrowthReport([res for per_variant in zip(*by_case) for res in per_variant])
