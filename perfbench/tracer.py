"""Spans and counts around the calls into perckit's layers, from outside src/.

`Tracer.install()` replaces a fixed list of public perckit functions with
wrappers that record one span per call: a name, a start, an end, the span
that was open when the call began, and the counts of work the call did.
Every perckit module that holds a reference to the original function gets
the wrapper, so calls made through `from .x import f` copies are seen too.
Spans stay in memory; `layer_metrics` turns one round's spans into the
per-layer metrics and `dump` writes all of them out at the end of a run.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from bisect import bisect_right

import numpy as np

# (span name, module, attribute); the wrapper replaces every reference to
# the original function in any perckit module.
TARGETS = [
    ("lattice.run_to_fixpoint", "perckit.lattice", "run_to_fixpoint"),
    ("lattice.reaches_boundary", "perckit.lattice", "reaches_boundary"),
    ("rng.trial_generator", "perckit.rng", "trial_generator"),
    ("harness.trend_check_theorem1", "perckit.harness", "trend_check_theorem1"),
    ("harness.scan_threshold", "perckit.harness", "scan_threshold"),
    ("growth_events.verify_growth_guarantee", "perckit.growth_events", "verify_growth_guarantee"),
    ("gap_process.prob_ak", "perckit.gap_process", "prob_ak"),
    ("gap_process.rho_exact", "perckit.gap_process", "rho_exact"),
    ("special_fn.gk_eval", "perckit.special_fn", "gk_eval"),
    ("qseries.partition_no_ksequences", "perckit.qseries", "partition_no_ksequences"),
]

# (span name, attribute of qseries.IntSeries)
METHOD_TARGETS = [
    ("qseries.mul", "__mul__"),
    ("qseries.mul", "__rmul__"),
    ("qseries.inverse", "inverse"),
]

PER_LAYER = [
    ("lattice.fixpoint_calls", "count"),
    ("lattice.generations", "count"),
    ("lattice.fixpoint_s", "s"),
    ("lattice.cell_generations_per_s", "1/s"),
    ("lattice.boundary_calls", "count"),
    ("lattice.boundary_s", "s"),
    ("rng.trials_drawn", "count"),
    ("rng.draw_s", "s"),
    ("harness.automaton_trial_share", "ratio"),
    ("harness.self_s", "s"),
    ("growth_events.trials", "count"),
    ("growth_events.sample_s", "s"),
    ("gap_process.rho_terms", "count"),
    ("gap_process.rho_s", "s"),
    ("gap_process.rho_terms_per_s", "1/s"),
    ("gap_process.tail_s", "s"),
    ("special_fn.gk_points", "count"),
    ("special_fn.gk_s", "s"),
    ("qseries.mul_calls", "count"),
    ("qseries.mul_s", "s"),
    ("qseries.coeff_mults", "count"),
    ("qseries.inverse_calls", "count"),
    ("qseries.inverse_s", "s"),
    ("qseries.dp_s", "s"),
]

NAME, START, END, PARENT, COUNTS = range(5)


def _fixpoint_counts(args, kwargs, result):
    lattice = args[0]
    _, taken, _ = result
    # run_to_fixpoint evaluates one more generation than it reports taken:
    # the one that finds nothing left to change (or exceeds the budget).
    generations = taken + 1
    return {"generations": generations, "cell_generations": generations * lattice.cells.size}


def _rho_counts(args, kwargs, result):
    process, n = args[0], args[1]
    return {"terms": max(0, n - process.k + 1)}


def _gk_counts(args, kwargs, result):
    z = args[1] if len(args) > 1 else kwargs["z"]
    return {"points": int(np.size(z))}


def _nonzero(coeffs):
    return [i for i, c in enumerate(coeffs) if c]


def _mul_counts(args, kwargs, result):
    left, right = args[0], args[1]
    if isinstance(right, int):
        return {"coeff_mults": len(_nonzero(left.coeffs))}
    nz_right = _nonzero(right.coeffs)
    order = left.order
    return {"coeff_mults": sum(bisect_right(nz_right, order - i) for i in _nonzero(left.coeffs))}


COUNTERS = {
    "lattice.run_to_fixpoint": _fixpoint_counts,
    "gap_process.rho_exact": _rho_counts,
    "special_fn.gk_eval": _gk_counts,
    "qseries.mul": _mul_counts,
}


class Tracer:
    """Records spans [name, start, end, parent index, counts] in call order."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if counter is not None:
                try:
                    tracer.spans[idx][COUNTS] = counter(args, kwargs, result)
                except (TypeError, ValueError, IndexError, KeyError, AttributeError):
                    pass  # a changed signature loses the count, never the call's result
            if name == "rng.trial_generator":
                return _TracedGenerator(result, tracer)
            return result

        return traced

    def install(self) -> list:
        """Wrap every target; returns the names of targets that were not found."""
        missing = []
        modules = [m for n, m in sys.modules.items() if n == "perckit" or n.startswith("perckit.")]
        for name, module_name, attr in TARGETS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                missing.append(f"{module_name}.{attr}")
                continue
            traced = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
                        self._undo.append((module, key, original))
        series = getattr(sys.modules.get("perckit.qseries"), "IntSeries", None)
        for name, attr in METHOD_TARGETS:
            original = series.__dict__.get(attr) if series is not None else None
            if original is None:
                missing.append(f"perckit.qseries.IntSeries.{attr}")
                continue
            setattr(series, attr, self.wrap(name, original))
            self._undo.append((series, attr, original))
        return missing

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def dump(self, path, meta: dict) -> None:
        with open(path, "w") as fh:
            json.dump({**meta, "fields": ["name", "start", "end", "parent", "counts"],
                       "spans": self.spans}, fh)
            fh.write("\n")


class _TracedGenerator:
    """A numpy Generator whose `random` draws are recorded as rng.random spans."""

    def __init__(self, generator, tracer: Tracer):
        self._generator = generator
        self._tracer = tracer

    def random(self, *args, **kwargs):
        idx = self._tracer.open("rng.random")
        try:
            return self._generator.random(*args, **kwargs)
        finally:
            self._tracer.close(idx)

    def __getattr__(self, attr):
        return getattr(self._generator, attr)


def layer_metrics(spans, first: int, last: int) -> dict:
    """Per-layer metrics from spans[first:last] (the spans of one round)."""
    window = spans[first:last]
    dur = [s[END] - s[START] for s in window]
    child_time = [0.0] * len(window)
    for i, s in enumerate(window):
        p = s[PARENT] - first
        if 0 <= p < len(window):
            child_time[p] += dur[i]

    def parent_name(s):
        p = s[PARENT] - first
        return window[p][NAME] if 0 <= p < len(window) else ""

    total = {}
    for i, s in enumerate(window):
        name = s[NAME]
        entry = total.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "counts": {}})
        entry["calls"] += 1
        entry["s"] += dur[i]
        entry["self_s"] += dur[i] - child_time[i]
        for key, value in (s[COUNTS] or {}).items():
            entry["counts"][key] = entry["counts"].get(key, 0) + value

    def get(name, field="s"):
        return total.get(name, {}).get(field, 0 if field == "calls" else 0.0)

    def count(name, key):
        return total.get(name, {}).get("counts", {}).get(key, 0)

    fixpoint_parents = [parent_name(s) for s in window if s[NAME] == "lattice.run_to_fixpoint"]
    harness_fixpoints = sum(p.startswith("harness.") for p in fixpoint_parents)
    verify_fixpoints = sum(p == "growth_events.verify_growth_guarantee" for p in fixpoint_parents)
    fixpoint_s = get("lattice.run_to_fixpoint")
    rho_s = get("gap_process.rho_exact")
    drawn = get("rng.trial_generator", "calls")
    rho_terms = count("gap_process.rho_exact", "terms")
    metrics = {
        "lattice.fixpoint_calls": get("lattice.run_to_fixpoint", "calls"),
        "lattice.generations": count("lattice.run_to_fixpoint", "generations"),
        "lattice.fixpoint_s": fixpoint_s,
        "lattice.cell_generations_per_s": (
            count("lattice.run_to_fixpoint", "cell_generations") / fixpoint_s if fixpoint_s else 0.0
        ),
        "lattice.boundary_calls": get("lattice.reaches_boundary", "calls"),
        "lattice.boundary_s": get("lattice.reaches_boundary"),
        "rng.trials_drawn": drawn,
        "rng.draw_s": get("rng.trial_generator") + get("rng.random"),
        "harness.automaton_trial_share": harness_fixpoints / drawn if drawn else 0.0,
        "harness.self_s": get("harness.trend_check_theorem1", "self_s")
        + get("harness.scan_threshold", "self_s"),
        "growth_events.trials": verify_fixpoints,
        "growth_events.sample_s": get("growth_events.verify_growth_guarantee", "self_s"),
        "gap_process.rho_terms": rho_terms,
        "gap_process.rho_s": rho_s,
        "gap_process.rho_terms_per_s": rho_terms / rho_s if rho_s else 0.0,
        "gap_process.tail_s": get("gap_process.prob_ak", "s") - sum(
            dur[i] for i, s in enumerate(window)
            if s[NAME] == "gap_process.rho_exact" and parent_name(s) == "gap_process.prob_ak"
        ),
        "special_fn.gk_points": count("special_fn.gk_eval", "points"),
        "special_fn.gk_s": get("special_fn.gk_eval"),
        "qseries.mul_calls": get("qseries.mul", "calls"),
        "qseries.mul_s": get("qseries.mul"),
        "qseries.coeff_mults": count("qseries.mul", "coeff_mults"),
        "qseries.inverse_calls": get("qseries.inverse", "calls"),
        "qseries.inverse_s": get("qseries.inverse"),
        "qseries.dp_s": get("qseries.partition_no_ksequences"),
    }
    return metrics
