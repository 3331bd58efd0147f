"""perckit command-line interface.

Numeric subcommands print one value per line with 15 significant digits;
probabilistic ones emit JSON with value / log_value / error_bound fields.
Every stochastic subcommand requires an explicit --seed (there is no
wall-clock default anywhere).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from . import growth_events, harness, lattice, qseries
from .gap_process import GapProcess, prob_ak, rho_exact
from .rng import philox_words, uniforms
from .special_fn import fk_eval, gk_eval, hk_eval, hk_tilde_eval, lambda_k


def _fmt(x: float) -> str:
    return f"{x:.15g}"


def _usage_error(exc: object) -> int:
    """One `error: ...` line on stderr and exit code 2, for rejected input or an unusable path."""
    print(f"error: {exc}", file=sys.stderr)
    return 2


def _print_values(fn, points) -> int:
    """Print fn(p) for every point, or only an error line if any point is rejected."""
    try:
        values = [fn(p) for p in points]
    except (ArithmeticError, ValueError) as exc:  # bad --k/--x/--z/--tol, or an unmet residual
        return _usage_error(exc)
    for value in values:
        print(_fmt(value))
    return 0


def _cmd_fk(args):
    return _print_values(lambda x: fk_eval(args.k, x, args.tol), args.x)


def _cmd_gk(args):
    return _print_values(lambda z: gk_eval(args.k, z), args.z)


def _cmd_lambda(args):
    return _print_values(lambda_k, args.k)


def _cmd_hk_scan(args):
    try:
        if args.k < 1:
            raise ValueError("k must be a positive integer")
        if args.samples < 0:
            raise ValueError("samples must be nonnegative")
        width = 2 * args.k - 1 if args.tilde else args.k
        fn = hk_tilde_eval if args.tilde else hk_eval
        draws = uniforms(philox_words(args.seed, 0, args.samples * width))
        tuples = np.sort(draws.reshape(args.samples, width), axis=1)
        values = np.atleast_1d(fn(args.k, tuples))
    except ValueError as exc:  # bad --k/--samples/--seed
        return _usage_error(exc)
    for value in values:
        print(_fmt(float(value)))


def _cmd_rho(args):
    if (args.u_file is None) == (args.s is None):
        print("error: provide exactly one of --u-file or --s", file=sys.stderr)
        return 2
    if args.u_file is None and args.n is None:
        print("error: --n is required with --s", file=sys.stderr)
        return 2
    try:
        if args.u_file is not None:
            with open(args.u_file) as fh:
                u = [float(tok) for tok in fh.read().split()]
            process = GapProcess.explicit(args.k, u)
            n = args.n if args.n is not None else len(u)
        else:
            process = GapProcess.parametric(args.k, args.s)
            n = args.n
        rho = rho_exact(process, n)
    except (OSError, ValueError) as exc:  # bad --k/--s/--n or u values, unreadable --u-file
        return _usage_error(exc)
    # an exact zero has log -inf, which JSON cannot hold: null
    log_value = None if rho.log_final == -math.inf else rho.log_final
    print(json.dumps({"value": rho.final, "log_value": log_value, "error_bound": 0.0}))


def _cmd_pak(args):
    try:
        res = prob_ak(args.k, args.s, args.tol)
    except ValueError as exc:  # bad --k/--s/--tol, or a tol the budget cannot reach
        return _usage_error(exc)
    print(
        json.dumps(
            {"value": res.value, "log_value": res.log_value, "error_bound": res.error_bound}
        )
    )


def _cmd_partitions(args):
    try:
        table = qseries.partition_no_ksequences(args.k, args.N)
    except ValueError as exc:  # bad --k/--N
        return _usage_error(exc)
    if args.andrews_check:
        series = qseries.andrews_gk_series(args.k, args.N)
        bad = [n for n in range(args.N + 1) if series[n] != table[n]]
        if bad:
            print(f"ANDREWS MISMATCH at n={bad[:5]}", file=sys.stderr)
            return 1
    for n in range(args.N + 1):
        print(f"{n},{table[n]}")


def _cmd_chi_identity(args):
    try:
        lhs = qseries.g2_mock_theta_product(args.N)
    except ValueError as exc:  # negative --N
        return _usage_error(exc)
    rhs = qseries.partition_no_ksequences(2, args.N).as_series()
    if lhs.coeffs != rhs.coeffs:
        bad = next(n for n in range(args.N + 1) if lhs[n] != rhs[n])
        print(f"mock theta identity FAILS first at n={bad}", file=sys.stderr)
        return 1
    print(f"mock theta identity holds through q^{args.N}")


def _cmd_simulate(args):
    try:
        spec = lattice.ModelSpec(variant=lattice.Variant(args.model), k=args.k, q=args.q)
        localized = spec.is_local and not args.global_init
        lat = lattice.sample_initial(spec, args.L, args.L, args.seed, localized=localized)
    except ValueError as exc:  # bad --k/--q/--L
        return _usage_error(exc)
    fixed, steps, converged = lattice.run_to_fixpoint(lat, spec)
    summary = {
        "model": args.model,
        "k": args.k,
        "q": args.q,
        "L": args.L,
        "seed": args.seed,
        "steps": steps,
        "converged": converged,
        "active_cells": int(np.sum(fixed.active_mask())),
        "spans": lattice.spans(fixed, spec) if converged else None,
        "reaches_boundary": lattice.reaches_boundary(fixed, spec) if converged else None,
    }
    if args.snapshot:
        try:
            if args.snapshot.endswith(".txt"):
                with open(args.snapshot, "w") as fh:
                    fh.write(lattice.to_text(fixed))
            else:
                lattice.write_snapshot(fixed, args.snapshot)
        except OSError as exc:  # unwritable --snapshot
            return _usage_error(exc)
        summary["snapshot"] = args.snapshot
    print(json.dumps(summary))


def _cmd_events(args):
    if args.events_cmd == "verify":
        try:
            report = growth_events.verify_growth_guarantee(
                args.k, trials=args.trials, seed=args.seed, q=args.q
            )
        except ValueError as exc:  # bad --k/--trials/--q, rejected before any trial
            return _usage_error(exc)
        payload = {
            "k": args.k,
            "trials": args.trials,
            "total_violations": report.total_violations,
            "cases": [
                {
                    "kind": c.kind,
                    "variant": c.variant,
                    "a": c.a,
                    "b": c.b,
                    "violations": c.violations,
                    "counterexample": c.counterexample,
                }
                for c in report.cases
            ],
        }
        print(json.dumps(payload, indent=2))
        return 0 if report.total_violations == 0 else 1
    try:
        if args.kind == "dk":
            p = growth_events.prob_dk(growth_events.StairGeometry(args.k, args.a, args.b), args.q)
        else:
            p = growth_events.prob_jk(growth_events.SkewGeometry(args.k, args.a, args.b), args.q)
    except ValueError as exc:  # bad --k/--a/--b/--q
        return _usage_error(exc)
    print(_fmt(p))


def _cmd_scan(args):
    if not args.config and args.seed is None:
        print("error: --seed is required (no wall-clock default)", file=sys.stderr)
        return 2
    try:
        if args.config:
            config = harness.ExperimentConfig.from_json(args.config)
        else:
            config = harness.ExperimentConfig(
                model=args.model,
                k_values=tuple(args.k),
                L_values=tuple(args.L),
                q_values=tuple(args.q) if args.q else None,
                s_values=tuple(args.s) if args.s else None,
                trials=args.trials,
                seed=args.seed,
                output=args.output,
                format=args.format,
            )
        if config.output:
            open(config.output, "a").close()  # an unwritable path fails now, not after the scan
    except (OSError, ValueError) as exc:  # bad grid or --trials, unreadable --config or --output
        return _usage_error(exc)
    results = harness.scan_threshold(config)
    if config.output:
        try:
            harness.write_results(results, config.output, config.format)
        except OSError as exc:
            return _usage_error(exc)
        print(f"wrote {len(results)} rows to {config.output}")
    else:
        sys.stdout.write(harness.results_text(results, config.format))


def _cmd_trend(args):
    try:
        report = harness.trend_check_theorem1(
            args.k, args.s, trials=args.trials, seed=args.seed, model=args.model
        )
    except ValueError as exc:  # bad --k/--s/--trials, rejected before any trial
        return _usage_error(exc)
    print(report.to_json())


def _cmd_sweep_pak(args):
    try:
        rows = harness.sweep_pak_bounds(args.k, args.s, args.tol)
    except ValueError as exc:  # bad --k/--s/--tol
        return _usage_error(exc)
    print(json.dumps([dataclasses.asdict(r) for r in rows], indent=2))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="perckit", description=__doc__)
    models = [v.value for v in lattice.Variant]
    local_models = [m for m in models if m != lattice.Variant.GLOBAL_K.value]
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fk", help="evaluate f_k(x)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--x", type=float, nargs="+", required=True)
    p.add_argument("--tol", type=float, default=1e-14)
    p.set_defaults(fn=_cmd_fk)

    p = sub.add_parser("gk", help="evaluate g_k(z)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--z", type=float, nargs="+", required=True)
    p.set_defaults(fn=_cmd_gk)

    p = sub.add_parser("lambda", help="evaluate lambda_k")
    p.add_argument("--k", type=int, nargs="+", required=True)
    p.set_defaults(fn=_cmd_lambda)

    p = sub.add_parser("hk-scan", help="H_k (or tilde-H_k) on random sorted tuples")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tilde", action="store_true")
    p.set_defaults(fn=_cmd_hk_scan)

    p = sub.add_parser("rho", help="exact no-k-gap probability rho_n")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--u-file", type=str, default=None, help="whitespace-separated u_i")
    p.add_argument("--s", type=float, default=None)
    p.add_argument("--n", type=int, default=None)
    p.set_defaults(fn=_cmd_rho)

    p = sub.add_parser("pak", help="rigorous bracket for P(A_k)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(fn=_cmd_pak)

    p = sub.add_parser("partitions", help="p_k(n) table as CSV rows")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--andrews-check", action="store_true")
    p.set_defaults(fn=_cmd_partitions)

    p = sub.add_parser("chi-identity", help="check the G_2 mock theta identity")
    p.add_argument("--N", type=int, required=True)
    p.set_defaults(fn=_cmd_chi_identity)

    p = sub.add_parser("simulate", help="run one automaton to its fixpoint")
    p.add_argument("--model", choices=sorted(models), required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--snapshot", type=str, default=None)
    p.add_argument("--global-init", action="store_true", help="site-wise init for local models")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("events", help="growth events: verify guarantees or exact probabilities")
    ev = p.add_subparsers(dest="events_cmd", required=True)
    v = ev.add_parser("verify")
    v.add_argument("--k", type=int, required=True)
    v.add_argument("--trials", type=int, default=500)
    v.add_argument("--seed", type=int, required=True)
    v.add_argument("--q", type=float, default=0.5)
    v.set_defaults(fn=_cmd_events)
    pr = ev.add_parser("prob")
    pr.add_argument("--k", type=int, required=True)
    pr.add_argument("--a", type=int, required=True)
    pr.add_argument("--b", type=int, required=True)
    pr.add_argument("--q", type=float, required=True)
    pr.add_argument("--kind", choices=["dk", "jk"], required=True)
    pr.set_defaults(fn=_cmd_events)

    p = sub.add_parser("scan", help="threshold scan over a (k, q|s, L) grid")
    p.add_argument("--config", type=str, default=None, help="JSON config file")
    p.add_argument("--model", choices=local_models, default="local")
    p.add_argument("--k", type=int, nargs="+", default=[2])
    p.add_argument("--q", type=float, nargs="*", default=None)
    p.add_argument("--s", type=float, nargs="*", default=None)
    p.add_argument("--L", type=int, nargs="+", default=[64])
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--output", type=str, default=None)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(fn=_cmd_scan)

    p = sub.add_parser("trend", help="metastability trend check against -2 lambda_k / s")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=float, nargs="+", required=True)
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--model", choices=local_models, default=None)
    p.set_defaults(fn=_cmd_trend)

    p = sub.add_parser("sweep-pak", help="P(A_k) against the theorem bounds")
    p.add_argument("--k", type=int, nargs="+", required=True)
    p.add_argument("--s", type=float, nargs="+", required=True)
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(fn=_cmd_sweep_pak)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser of `main`, built on first use and kept: `parse_args` keeps no state between calls."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.fn(args)
    except MemoryError as exc:  # a grid, board or table too large for the memory at hand
        return _usage_error(f"out of memory ({exc})" if str(exc) else "out of memory")
    return 0 if code is None else code


if __name__ == "__main__":
    sys.exit(main())
