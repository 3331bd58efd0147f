"""Reproducible experiment driver: threshold scans, P(A_k) sweeps, trend checks.

Every stochastic run is keyed by a mandatory master seed; per-point seeds
are derived with splitmix64 and recorded in the output, and the success
counts are exact integers (estimates are recomputed from the integers at
output time).  Reruns with the same config produce byte-identical CSV.

The frozen CSV schema is

    k,model,q,s,L,trials,successes,estimate,stderr,seed
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import asdict, dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .gap_process import prob_ak, prob_ak_log_bounds
from .lattice import ModelSpec, Variant, far_edge, run_windows
from .rng import below, derive_seed, first_words, philox_words
from .special_fn import lambda_k

__all__ = [
    "ExperimentConfig",
    "MCResult",
    "TrendReport",
    "PakRow",
    "scan_threshold",
    "trend_check_theorem1",
    "sweep_pak_bounds",
    "results_to_csv",
    "results_text",
    "write_results",
    "default_trend_window",
]

CSV_HEADER = ["k", "model", "q", "s", "L", "trials", "successes", "estimate", "stderr", "seed"]

@dataclass(frozen=True)
class ExperimentConfig:
    """Grid definition for a threshold scan."""

    model: str
    k_values: Tuple[int, ...]
    L_values: Tuple[int, ...]
    q_values: Optional[Tuple[float, ...]] = None
    s_values: Optional[Tuple[float, ...]] = None
    trials: int = 1000
    seed: int = 0
    output: Optional[str] = None
    format: str = "csv"

    def __post_init__(self):
        variant = Variant(self.model)
        if variant is Variant.GLOBAL_K:
            raise ValueError("scans run the local models only")
        if (self.q_values is None) == (self.s_values is None):
            raise ValueError("exactly one of q_values or s_values is required")
        if not self.k_values or not self.L_values:
            raise ValueError("parameter grids must be nonempty")
        if not (self.q_values or self.s_values):
            raise ValueError("parameter grids must be nonempty")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.format not in ("csv", "json"):
            raise ValueError("format must be 'csv' or 'json'")
        object.__setattr__(self, "k_values", tuple(int(k) for k in self.k_values))
        object.__setattr__(self, "L_values", tuple(int(L) for L in self.L_values))
        if self.q_values is not None:
            object.__setattr__(self, "q_values", tuple(float(q) for q in self.q_values))
        if self.s_values is not None:
            object.__setattr__(self, "s_values", tuple(float(s) for s in self.s_values))
        if min(self.L_values) < 1:
            raise ValueError("window sizes L must be >= 1")
        for k, q, _, _ in self.points():  # a bad k, q or s fails here, before any trial
            ModelSpec(variant=variant, k=k, q=q)

    @classmethod
    def from_json(cls, path: str) -> "ExperimentConfig":
        with open(path) as fh:
            raw = json.load(fh)
        missing = [key for key in ("model", "k_values", "L_values", "seed") if key not in raw]
        if missing:
            raise ValueError(f"config file {path} lacks {', '.join(missing)}")
        return cls(
            model=raw["model"],
            k_values=tuple(raw["k_values"]),
            L_values=tuple(raw["L_values"]),
            q_values=tuple(raw["q_values"]) if "q_values" in raw else None,
            s_values=tuple(raw["s_values"]) if "s_values" in raw else None,
            trials=raw.get("trials", 1000),
            seed=raw["seed"],
            output=raw.get("output"),
            format=raw.get("format", "csv"),
        )

    def points(self):
        """(k, q, s, L) in grid order."""
        out = []
        if self.q_values is not None:
            # 0.0 - log(q), not -log(q): q = 1 gives s = 0.0, never -0.0
            pq = [(q, 0.0 - math.log(q) if q > 0 else math.inf) for q in self.q_values]
        else:
            pq = [(math.exp(-s), s) for s in self.s_values]
        for k in self.k_values:
            for q, s in pq:
                for L in self.L_values:
                    out.append((k, q, s, L))
        return out


@dataclass
class MCResult:
    k: int
    model: str
    q: float
    s: float
    L: int
    trials: int
    successes: int
    seed: int
    wall_time: float = 0.0

    def __post_init__(self):
        if not 0 <= self.successes <= self.trials:
            raise ValueError("successes must lie in [0, trials]")

    @property
    def estimate(self) -> float:
        return self.successes / self.trials

    @property
    def stderr(self) -> float:
        p = self.estimate
        return math.sqrt(p * (1.0 - p) / self.trials)


# Windows run this many generations to a block; then the settled ones
# leave and the rest are repacked.  Shorter blocks let settled windows
# leave sooner, longer ones repack less often; on the trend and scan
# points of the benchmark 4 and 6 were within 1 % and 8 was 3 % slower.
_BLOCK_GENERATIONS = 4
_ORIGIN_CHUNK = 1 << 16  # trials whose origins are drawn in one `first_words` pass


def _active_origins(point_seed: int, trials: int, p_active: float):
    """The trials, in order, whose origin cell (their first word) is nonempty."""
    for first in range(0, trials, _ORIGIN_CHUNK):
        words = first_words(point_seed, np.arange(first, min(first + _ORIGIN_CHUNK, trials)))
        yield from (first + np.flatnonzero(below(words, p_active))).tolist()


def _boundary_trials(spec: ModelSpec, L: int, trials: int, point_seed: int) -> int:
    """Count localized trials whose cluster crosses the quadrant window.

    The window is the northeast quadrant with the origin in the lower-left
    corner (the geometry of the growth-event constructions): success means
    the fixpoint cluster reaches the far right or top edge, so the full
    L-span of row/column costs is paid.  A centered origin would halve the
    effective radius at the same L and measurably flatten the
    metastability exponent.

    Only trials with an Active origin can grow; `first_words` finds them
    from the first word of each trial's stream, and each of them then reads
    its L*L words, row-major, the origin's first, as its cells.  `run_windows`
    runs them in blocks and scores each by its far edge, as
    `bitboard_reaches_far_edge` does for one trial.
    """
    far = far_edge(L, L)
    p_active = 1.0 - spec.q
    windows = (
        (b"\x01", np.packbits(below(philox_words(point_seed, t, L * L), p_active),
                            bitorder="little").tobytes())
        for t in _active_origins(point_seed, trials, p_active)
    )
    return sum(run_windows(spec, L, L, windows, lambda active: active & far,
                           budget=_BLOCK_GENERATIONS))


def _scan_point(model: str, k: int, q: float, s: float, L: int, trials: int,
                point_seed: int) -> MCResult:
    spec = ModelSpec(variant=Variant(model), k=k, q=q)
    t0 = time.perf_counter()
    successes = _boundary_trials(spec, L, trials, point_seed)
    return MCResult(
        k=k,
        model=model,
        q=q,
        s=s,
        L=L,
        trials=trials,
        successes=successes,
        seed=point_seed,
        wall_time=time.perf_counter() - t0,
    )


def scan_threshold(config: ExperimentConfig) -> List[MCResult]:
    """Boundary-reach frequency over the config grid, in grid order.

    Every point's seed is derived from its grid index alone, so the output
    is deterministic per seed.
    """
    return [
        _scan_point(config.model, k, q, s, L, config.trials, derive_seed(config.seed, idx))
        for idx, (k, q, s, L) in enumerate(config.points())
    ]


def results_to_csv(results: Sequence[MCResult]) -> str:
    """Frozen-schema CSV; wall_time is deliberately not a column."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in results:
        # repr: shortest exact round-trip, so reruns stay byte-identical
        writer.writerow(
            [
                r.k,
                r.model,
                repr(r.q),
                repr(r.s),
                r.L,
                r.trials,
                r.successes,
                repr(r.estimate),
                repr(r.stderr),
                r.seed,
            ]
        )
    return buf.getvalue()


def results_text(results: Sequence[MCResult], fmt: str = "csv") -> str:
    """The rows as `fmt` ('csv' or 'json') text, stdout and file alike."""
    if fmt == "csv":
        return results_to_csv(results)
    if fmt == "json":
        rows = []
        for r in results:
            d = asdict(r)
            d.pop("wall_time")
            d["estimate"] = r.estimate
            d["stderr"] = r.stderr
            rows.append(d)
        return json.dumps(rows, indent=2) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def write_results(results: Sequence[MCResult], path: str, fmt: str = "csv") -> None:
    text = results_text(results, fmt)
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write results to {path}: {exc}") from exc


def default_trend_window(s: float) -> int:
    """L = ceil(8/s): large enough that the window does not clip critical droplets."""
    return int(math.ceil(8.0 / s))


@dataclass
class TrendReport:
    k: int
    model: str
    s_values: List[float]
    L_values: List[int]
    trials: int
    successes: List[int]
    estimates: List[float]
    stderrs: List[float]
    lambda_k: float
    slope: float
    intercept: float
    residuals: List[float]
    envelope_ratios: List[float]
    slope_window: Tuple[float, float]
    degenerate: bool

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


def trend_check_theorem1(
    k: int,
    s_grid: Sequence[float],
    trials: int,
    seed: int,
    L_rule: Callable[[float], int] = default_trend_window,
    model: Optional[str] = None,
) -> TrendReport:
    """Fit log P(reach boundary) against 1/s and report bracketing diagnostics.

    The fitted slope is compared with the window [-4 lambda_k, -lambda_k]
    (the metastability exponent is -2 lambda_k; desk scale sees it only up
    to bounded factors).  Residuals from the 2-parameter fit are scaled by
    the s^{-1/2} (log s^{-1})^{5/2} envelope; the constants are recorded,
    never asserted.  Degenerate fits (an estimate of 0 or 1 anywhere) are
    flagged and leave slope/residuals as NaN.
    """
    s_values = [float(s) for s in s_grid]
    if len(s_values) < 2 or any(
        not s1 > s2 for s1, s2 in zip(s_values, s_values[1:])
    ):
        raise ValueError("s_grid must be strictly decreasing with at least two points")
    if not all(0.0 < s < math.inf for s in s_values):
        raise ValueError("s values must be positive and finite")
    variant = Variant.local_for(k)[0] if model is None else Variant(model)
    if variant is Variant.GLOBAL_K:
        raise ValueError("the trend check runs the local models only")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    specs = [ModelSpec(variant=variant, k=k, q=math.exp(-s)) for s in s_values]
    results = []
    for idx, (s, spec) in enumerate(zip(s_values, specs)):
        L = L_rule(s)
        point_seed = derive_seed(seed, idx)
        successes = _boundary_trials(spec, L, trials, point_seed)
        results.append((s, L, successes, point_seed))

    estimates = [succ / trials for _, _, succ, _ in results]
    stderrs = [math.sqrt(p * (1 - p) / trials) for p in estimates]
    degenerate = any(p in (0.0, 1.0) for p in estimates)
    lam = lambda_k(k)
    if degenerate:
        slope = intercept = float("nan")
        residuals = [float("nan")] * len(s_values)
        ratios = [float("nan")] * len(s_values)
    else:
        x = np.array([1.0 / s for s in s_values])
        y = np.log(np.array(estimates))
        slope, intercept = np.polyfit(x, y, 1)
        fit = slope * x + intercept
        residuals = list(y - fit)
        # the envelope vanishes at s = 1 and is complex beyond: NaN there
        ratios = [
            abs(r) / (s ** -0.5 * math.log(1.0 / s) ** 2.5) if math.log(1.0 / s) > 0 else math.nan
            for r, s in zip(residuals, s_values)
        ]
    return TrendReport(
        k=k,
        model=variant.value,
        s_values=s_values,
        L_values=[L for _, L, _, _ in results],
        trials=trials,
        successes=[succ for _, _, succ, _ in results],
        estimates=estimates,
        stderrs=stderrs,
        lambda_k=lam,
        slope=float(slope),
        intercept=float(intercept),
        residuals=[float(r) for r in residuals],
        envelope_ratios=[float(r) for r in ratios],
        slope_window=(-4.0 * lam, -lam),
        degenerate=degenerate,
    )


@dataclass
class PakRow:
    k: int
    s: float
    value: float
    log_value: float
    error_bound: float
    paper_log_lower: float
    paper_log_upper: float
    inside_lower: bool
    ratio_to_upper: float


def sweep_pak_bounds(
    k_list: Sequence[int], s_list: Sequence[float], tol: float = 1e-8
) -> List[PakRow]:
    """P(A_k) against the theorem bounds over a (k, s) grid.

    `inside_lower` is the deterministic non-asymptotic inequality
    value >= exp(-lambda_k/s); `ratio_to_upper` is value / upper, the
    empirical (1+o(1)) diagnostic (expected to drop below 1 as s shrinks
    for k >= 2, and to approach sqrt(2 pi) for k = 1, where the stated
    upper bound's o(1) absorbs a constant).
    """
    rows = []
    for k in k_list:
        for s in s_list:
            if not 0.0 < s < 1.0:
                raise ValueError("s values must lie in (0, 1)")
            res = prob_ak(k, s, tol)
            lo, hi = prob_ak_log_bounds(k, s)
            rows.append(
                PakRow(
                    k=k,
                    s=s,
                    value=res.value,
                    log_value=res.log_value,
                    error_bound=res.error_bound,
                    paper_log_lower=lo,
                    paper_log_upper=hi,
                    inside_lower=bool(res.log_value >= lo),
                    ratio_to_upper=float(math.exp(res.log_value - hi)),
                )
            )
    return rows
