"""Checks of perckit's outputs against computations made apart from it.

`run_check(job, exit_code, stdout)` returns one `Check` per checked output.
A check that fails marks one failed operation.  A failed check leaves the
run's `correct` true only when it is `excused`: a `pak`/`sweep-pak` bracket
at one of the points in KNOWN_BRACKET_MISSES that misses the exact
log P(A_k) by no more than floating-point rounding, the known fault that
README.md describes.  Any other failure makes `correct` false.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from pathlib import Path
from typing import NamedTuple

import mpmath as mp

from . import reference as ref

REFERENCE_FILE = Path(__file__).with_name("reference.json")

SLOPE_SIGMAS = 4.0
BRUTEFORCE_N = 30
IDENTITY_S = (0.5, 4.0)
REL = 1e-12


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str = ""
    excused: bool = False


def _close(a, b, rel=REL) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=0.0)


def _lambda(k: int) -> float:
    return math.pi**2 / (3.0 * k * (k + 1))


def _load_json(name: str, exit_code, stdout: str):
    """(payload, None) or (None, failing Check)."""
    if exit_code != 0:
        return None, Check(f"{name}.output", False, f"exit code {exit_code}")
    try:
        return json.loads(stdout), None
    except ValueError as exc:
        return None, Check(f"{name}.output", False, f"not JSON: {exc}")


# --- mc_boundary ------------------------------------------------------------


def check_trend(params, exit_code, stdout):
    k, s_values, trials, seed = params["k"], params["s_values"], params["trials"], params["seed"]
    name = f"trend.k{k}"
    d, bad = _load_json(name, exit_code, stdout)
    if bad:
        return [bad]
    lam = _lambda(k)
    model = "local" if k >= 2 else "modified"
    L_values = [int(math.ceil(8.0 / s)) for s in s_values]
    inputs_ok = (
        d.get("k") == k and d.get("model") == model and d.get("s_values") == s_values
        and d.get("trials") == trials and d.get("L_values") == L_values
        and _close(d.get("lambda_k", 0.0), lam)
        and len(d.get("slope_window", [])) == 2
        and _close(d["slope_window"][0], -4 * lam) and _close(d["slope_window"][1], -lam)
    )
    out = [Check(f"{name}.inputs", bool(inputs_ok), "" if inputs_ok else "echoed inputs differ")]
    successes = d.get("successes", [])
    if len(successes) != len(s_values):
        return out + [Check(f"{name}.successes", False, f"{len(successes)} points")]
    for idx, (s, L) in enumerate(zip(s_values, L_values)):
        want = ref.boundary_successes(ref.point_seed(seed, idx), model, k, math.exp(-s), L, trials)
        got = successes[idx]
        out.append(Check(f"{name}.successes[s={s}]", got == want, f"program {got}, reference {want}"))
    out.append(_check_trend_fit(name, d, s_values, trials, lam))
    return out


def _check_trend_fit(name, d, s_values, trials, lam):
    """Estimates, the least-squares fit, and the slope window up to sampling error.

    At a reduced trial count the fitted slope scatters around its desk-scale
    value (about -0.62 for k = 2 against the window edge -lambda_2 = -0.548),
    so the window is widened by SLOPE_SIGMAS standard errors of the slope,
    propagated from the binomial errors of the log-estimates.
    """
    successes = d["successes"]
    if d.get("degenerate") or not all(0 < c < trials for c in successes):
        return Check(f"{name}.fit", False, f"degenerate successes {successes}")
    p = [c / trials for c in successes]
    if d.get("estimates") != p or not all(
        _close(a, math.sqrt(b * (1 - b) / trials)) for a, b in zip(d.get("stderrs", []), p)
    ):
        return Check(f"{name}.fit", False, "estimates or stderrs differ from the counts")
    x = [1.0 / s for s in s_values]
    y = [math.log(v) for v in p]
    slope, intercept = ref.least_squares_slope(x, y)
    if not (math.isclose(d["slope"], slope, rel_tol=1e-9, abs_tol=1e-12)
            and math.isclose(d["intercept"], intercept, rel_tol=1e-9, abs_tol=1e-12)):
        return Check(f"{name}.fit", False, f"slope {d['slope']} vs least squares {slope}")
    mx = sum(x) / len(x)
    sxx = sum((a - mx) ** 2 for a in x)
    var = sum(((a - mx) / sxx) ** 2 * (1 - v) / (trials * v) for a, v in zip(x, p))
    se = math.sqrt(var)
    lo, hi = -4 * lam - SLOPE_SIGMAS * se, -lam + SLOPE_SIGMAS * se
    return Check(f"{name}.fit", lo <= slope <= hi,
                 f"slope {slope:.4f}, window [{-4 * lam:.4f}, {-lam:.4f}] +- {SLOPE_SIGMAS} x {se:.4f}")


CSV_HEADER = "k,model,q,s,L,trials,successes,estimate,stderr,seed"


def check_scan(params, exit_code, stdout):
    model, k, q, L = params["model"], params["k"], params["q"], params["L"]
    trials, seed = params["trials"], params["seed"]
    name = f"scan.{model}.k{k}"
    if exit_code != 0:
        return [Check(f"{name}.output", False, f"exit code {exit_code}")]
    lines = stdout.splitlines()
    if len(lines) != 2 or lines[0] != CSV_HEADER:
        return [Check(f"{name}.output", False, f"unexpected CSV: {lines[:1]}, {len(lines)} lines")]
    row = next(csv.reader(io.StringIO(lines[1])))
    want_seed = ref.point_seed(seed, 0)
    try:
        got = int(row[6])
        est, err = got / trials, math.sqrt(got / trials * (1 - got / trials) / trials)
        row_ok = (
            row[:6] == [str(k), model, repr(q), repr(-math.log(q)), str(L), str(trials)]
            and _close(float(row[7]), est) and _close(float(row[8]), err)
            and int(row[9]) == want_seed
        )
    except (ValueError, IndexError) as exc:
        return [Check(f"{name}.output", False, f"bad row: {exc}")]
    want = ref.boundary_successes(want_seed, model, k, q, L, trials)
    return [
        Check(f"{name}.row", row_ok, "" if row_ok else f"row {row}"),
        Check(f"{name}.successes", got == want, f"program {got}, reference {want}"),
    ]


# --- events_verify -----------------------------------------------------------


def expected_cases(k: int) -> list:
    """(kind, variant, a, b) of every case `events verify` documents for k."""
    variants = ["local"] if k >= 2 else ["modified", "frobose"]
    base = max(k, 4)
    dk = [(base, base + 5), (base + 2, base + 9)]
    jk = [(2 * k + 2, 3 * k + 6), (2 * k + 4, 3 * k + 10), (2 * k + 2, 3 * k + 4)]
    ek = [(k + 2, 2 * k + 5), (k + 3, 3 * k + 11)]
    out = []
    for v in variants:
        out += [("dk", v, a, b) for a, b in dk]
        for a, b in jk:
            out += [(f"jk[s={d},t={d}]", v, a, b) for d in (0, k - 1)]
        out += [("ek", v, a, b) for a, b in ek]
    return out


def check_events(params, exit_code, stdout):
    k, trials = params["k"], params["trials"]
    name = f"events.k{k}"
    d, bad = _load_json(name, exit_code, stdout)
    if bad:
        return [bad]
    cases = d.get("cases", [])
    got = [(c.get("kind"), c.get("variant"), c.get("a"), c.get("b")) for c in cases]
    want = expected_cases(k)
    cases_ok = d.get("k") == k and d.get("trials") == trials and got == want
    violations = [c for c in cases if c.get("violations") != 0 or c.get("counterexample") is not None]
    return [
        Check(f"{name}.cases", cases_ok, f"{len(got)} cases, expected {len(want)}"),
        Check(f"{name}.violations", not violations and d.get("total_violations") == 0,
              f"{len(violations)} cases with violations"),
    ]


# --- exact --------------------------------------------------------------------


@functools.lru_cache(maxsize=1)
def stored_reference() -> dict:
    """{(k, s): exact log P(A_k) as mpf} from reference.json (see make_reference.py)."""
    with open(REFERENCE_FILE) as fh:
        rows = json.load(fh)["log_pak"]
    with mp.workdps(ref.DPS):
        return {(r["k"], r["s"]): mp.mpf(r["value"]) for r in rows}


def exact_log_pak(k: int, s: float) -> mp.mpf:
    if k <= 2:
        return ref.log_pak_closed(k, s)
    try:
        return stored_reference()[(k, s)]
    except KeyError:
        raise KeyError(f"no stored exact log P(A_{k}) at s={s}; rerun make_reference.py") from None


# The (job, k, s) points whose bracket misses the exact value on every run
# because `prob_ak` ignores the rounding of `rho_exact` (README.md, "The
# known failing operations").  Such a miss is excused only while it is of
# rounding size, at most ROUNDING_REL * |log P(A_k)|; the largest seen is
# 6.7e-13 relative (k = 1, s = 1e-4), so a wrong value, or a miss at any
# other point, still makes the run incorrect.
KNOWN_BRACKET_MISSES = frozenset(
    [("pak", 1, 1e-4), ("pak", 3, 1e-4)]
    + [("sweep-pak", 2, s) for s in (0.1, 0.05, 0.02, 0.01, 0.005)]
    + [("sweep-pak", 3, s) for s in (0.05, 0.005)]
    + [("sweep-pak", 4, s) for s in (0.02, 0.01, 0.005)]
)
ROUNDING_REL = 1e-11


def _bracket(job, k, s, log_value, error_bound):
    """Is exact log P(A_k) in [log_value - error_bound, log_value + error_bound], exactly?"""
    exact = exact_log_pak(k, s)
    with mp.workdps(ref.DPS):
        lo = mp.mpf(log_value) - mp.mpf(error_bound)
        hi = mp.mpf(log_value) + mp.mpf(error_bound)
        ok = lo <= exact <= hi
        miss = max(lo - exact, exact - hi)
        excused = (not ok and (job, k, s) in KNOWN_BRACKET_MISSES
                   and miss <= ROUNDING_REL * abs(exact))
        detail = f"exact - lower = {mp.nstr(exact - lo, 5)}, upper - exact = {mp.nstr(hi - exact, 5)}"
    return Check(f"{job}.k{k}.s{s}.bracket", ok, detail, excused=bool(excused))


def _value_ok(value, log_value) -> bool:
    if log_value < -708:  # exp underflows to a subnormal or to 0
        return 0.0 <= value < 1e-307
    return _close(value, math.exp(log_value), 1e-9)


def check_pak(params, exit_code, stdout):
    k, s, tol = params["k"], params["s"], params["tol"]
    name = f"pak.k{k}.s{s}"
    d, bad = _load_json(name, exit_code, stdout)
    if bad:
        return [bad]
    shape_ok = (
        sorted(d) == ["error_bound", "log_value", "value"]
        and 0.0 < d["error_bound"] <= tol / 2 and _value_ok(d["value"], d["log_value"])
    )
    out = [Check(f"{name}.output", shape_ok, "" if shape_ok else f"payload {d}")]
    if shape_ok:
        out.append(_bracket("pak", k, s, d["log_value"], d["error_bound"]))
    return out


SWEEP_KEYS = sorted(["k", "s", "value", "log_value", "error_bound", "paper_log_lower",
                     "paper_log_upper", "inside_lower", "ratio_to_upper"])


def _sweep_row_ok(row, k, s, tol) -> bool:
    lam = _lambda(k)
    lower = -lam / s
    upper = lower - (2.0 * k - 1.0) / (2.0 * k) * math.log(s)
    return (
        sorted(row) == SWEEP_KEYS and row["k"] == k and row["s"] == s
        and 0.0 < row["error_bound"] <= tol / 2 and _value_ok(row["value"], row["log_value"])
        and _close(row["paper_log_lower"], lower) and _close(row["paper_log_upper"], upper)
        and row["inside_lower"] == (row["log_value"] >= row["paper_log_lower"])
        and _close(row["ratio_to_upper"], math.exp(row["log_value"] - row["paper_log_upper"]), 1e-9)
    )


def check_sweep(params, exit_code, stdout):
    k_values, s_values, tol = params["k_values"], params["s_values"], params["tol"]
    d, bad = _load_json("sweep-pak", exit_code, stdout)
    if bad:
        return [bad]
    grid = [(k, s) for k in k_values for s in s_values]
    rows_ok = isinstance(d, list) and len(d) == len(grid) and all(
        _sweep_row_ok(row, k, s, tol) for row, (k, s) in zip(d, grid)
    )
    out = [Check("sweep-pak.rows", rows_ok, "" if rows_ok else "rows differ from the grid")]
    if rows_ok:
        out += [_bracket("sweep-pak", k, s, row["log_value"], row["error_bound"])
                for row, (k, s) in zip(d, grid)]
    return out


def check_chi(params, exit_code, stdout):
    n = params["N"]
    want = f"mock theta identity holds through q^{n}\n"
    return [Check(f"chi-identity.N{n}", exit_code == 0 and stdout == want,
                  f"exit {exit_code}, stdout {stdout[:60]!r}")]


def _identity_check(name, table, s):
    """sum_{n<=N} p_2(n) q^n against G_2(q) = P(A_2)/(q;q)_inf, with the tail bounded.

    A coefficient n that is off by one moves the sum by q^n, which the check
    sees while q^n exceeds the tail bound; the precision is set to resolve
    q^N.
    """
    n_max = len(table) - 1
    dps = int(s * n_max / math.log(10)) + 30
    with mp.workdps(dps):
        q = mp.exp(-mp.mpf(s))
        partial = mp.mpf(0)
        for c in reversed(table):
            partial = partial * q + c
        g2 = mp.exp(ref.log_g2(s))
        gap = g2 - partial
        tail = ref.partition_tail_bound(n_max, s)
        slack = g2 * mp.mpf(10) ** (20 - dps)
        ok = -slack <= gap <= tail + slack
        detail = f"G_2 - partial sum = {mp.nstr(gap, 5)}, tail bound {mp.nstr(tail, 5)}"
    return Check(f"{name}.identity[s={s}]", bool(ok), detail)


def check_partitions(params, exit_code, stdout):
    k, n_max = params["k"], params["N"]
    name = f"partitions.k{k}"
    if exit_code != 0:
        return [Check(f"{name}.output", False, f"exit code {exit_code}")]
    lines = stdout.splitlines()
    try:
        rows = [tuple(int(v) for v in line.split(",")) for line in lines]
    except ValueError as exc:
        return [Check(f"{name}.output", False, f"bad row: {exc}")]
    if [r[0] for r in rows] != list(range(n_max + 1)) or any(len(r) != 2 for r in rows):
        return [Check(f"{name}.output", False, "rows are not n,p_k(n) for n = 0..N")]
    table = [r[1] for r in rows]
    small = ref.partitions_bruteforce(k, min(BRUTEFORCE_N, n_max))
    exact = ref.partitions_subset_product(k, n_max)
    bad = [n for n in range(n_max + 1) if table[n] != exact[n]]
    out = [
        Check(f"{name}.bruteforce", table[: len(small)] == small,
              f"enumerated p_{k}(n) for n <= {len(small) - 1}"),
        Check(f"{name}.subset_product", not bad, f"first differences at n = {bad[:5]}"),
    ]
    if k == 2:
        out += [_identity_check(name, table, s) for s in IDENTITY_S]
    return out


CHECKS = {
    "trend": check_trend,
    "scan": check_scan,
    "events": check_events,
    "pak": check_pak,
    "sweep": check_sweep,
    "chi": check_chi,
    "partitions": check_partitions,
}


def run_check(job, exit_code, stdout) -> list:
    return CHECKS[job.check](job.params, exit_code, stdout)
