"""Benchmark of perckit: seeded workloads through `perckit.cli.main`, checked.

Run from the repository root:

    python3 perfbench/run.py --workload mc_boundary --seed 1 --seconds 42 --trace 0

The program is imported from ./src of the checkout.  One process does
everything: set-up (imports and a small warm-up), then rounds of the
workload's job list until --seconds have passed, each round's outputs
checked against computations made apart from the program.  The last line
of stdout is one JSON object: `correct`, `attempted`, `failed` and
`metrics`.  With --trace 0 the metrics are the end-to-end ones (solve_s,
the median round time scaled to a reference host speed by speed.py;
setup_s; peak_rss_mib); with --trace 1 the per-layer ones, and the spans
go to perfbench/out/.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"


def _seconds_since_process_start():
    """Time from process creation to now, from /proc; None where unavailable."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")  # field 22, starttime
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return None


_BEFORE_T0 = _seconds_since_process_start()
if _BEFORE_T0 is not None:
    _BEFORE_T0 -= time.perf_counter() - _T0


def _import_program():
    """perckit.cli from the checkout's src/, or exit 2 when it is not there."""
    package = ROOT / "src" / "perckit"
    if not (package / "__init__.py").is_file():
        print(f"perfbench: no program at {package}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    from perckit import cli

    if Path(cli.__file__).resolve().parent != package.resolve():
        print(f"perfbench: imported perckit from {cli.__file__}, not {package}", file=sys.stderr)
        sys.exit(2)
    return cli


def run_job(cli, argv):
    """(exit code or None on an exception, stdout, stderr) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # noqa: BLE001 - reported as a failed operation
        code = None
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT))
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("perfbench: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    # Warm-up is set-up, not measured work: a warm-up job that succeeds is no
    # operation, one that fails is a failed operation and makes the run incorrect.
    attempted = failed = 0
    correct = True
    cli = _import_program()
    for warm in workloads.WARMUP[args.workload]:
        code, _, err = run_job(cli, warm)
        if code != 0:
            attempted += 1
            failed += 1
            correct = False
            print(f"perfbench: FAILED warm-up {warm} ({code}):\n{err}", file=sys.stderr)
    setup_s = time.perf_counter() - _T0 + (_BEFORE_T0 or 0.0)

    from perfbench import checks, speed, tracer as tracing

    tracer = sampler = None
    if args.trace:
        tracer = tracing.Tracer()
        missing = tracer.install()
        if missing:
            print(f"perfbench: not traced (not found): {missing}", file=sys.stderr)
    else:
        sampler = speed.Sampler()

    make_jobs = workloads.WORKLOADS[args.workload]
    round_s, scaled_s, cycle_s, round_spans, verdicts = [], [], [], [], {}
    start = time.perf_counter()
    while True:
        jobs = make_jobs(workloads.round_seed(args.seed, len(round_s)))
        first_span = len(tracer.spans) if tracer else 0
        results = []
        if sampler:
            sampler.start()
        cycle_start = time.perf_counter()
        for job in jobs:
            idx = tracer.open(f"job:{job.name}") if tracer else None
            results.append(run_job(cli, job.argv))
            if tracer:
                tracer.close(idx)
        if sampler:
            sampler.stop()
        round_s.append(time.perf_counter() - cycle_start)
        if sampler:
            scaled_s.append(sampler.scaled(round_s[-1]))
        if tracer:
            round_spans.append((first_span, len(tracer.spans)))
        for job, (code, stdout, stderr) in zip(jobs, results):
            items = [checks.Check(f"job:{job.name}", code == 0, stderr[-2000:])]
            key = (job.check, json.dumps(job.params, sort_keys=True), code, stdout)
            if key not in verdicts:
                try:
                    verdicts[key] = checks.run_check(job, code, stdout)
                except Exception:  # noqa: BLE001 - output the check could not read
                    verdicts[key] = [checks.Check(f"{job.name}.check", False,
                                                  traceback.format_exc())]
            items += verdicts[key]
            for item in items:
                attempted += 1
                if not item.ok:
                    failed += 1
                    correct = correct and item.excused
                    if len(round_s) == 1:
                        known = " (known rounding miss)" if item.excused else ""
                        print(f"perfbench: FAILED{known} {item.name}: {item.detail}",
                              file=sys.stderr)
        cycle_s.append(time.perf_counter() - cycle_start)
        # Start no round that is expected to end after --seconds.
        if time.perf_counter() - start + statistics.median(cycle_s) > args.seconds:
            break

    print(f"perfbench: {args.workload} seed {args.seed}: {len(round_s)} rounds, "
          f"round times {[round(x, 3) for x in round_s]}, median {statistics.median(round_s):.4f} s"
          f"{' (traced)' if tracer else ''}", file=sys.stderr)
    if sampler:
        print(f"perfbench: rounds at the reference speed {[round(x, 3) for x in scaled_s]}, "
              f"median {statistics.median(scaled_s):.4f} s", file=sys.stderr)
    if tracer:
        tracer.uninstall()
        per_round = [tracing.layer_metrics(tracer.spans, a, b) for a, b in round_spans]
        metrics = {}
        for name, unit in tracing.PER_LAYER:
            if unit in ("count", "ratio"):
                value = per_round[0][name]  # round 0: fixed by the seed
            else:
                value = statistics.median(r[name] for r in per_round)
            metrics[name] = {"value": value, "unit": unit}
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json",
                    {"workload": args.workload, "seed": args.seed, "round_s": round_s,
                     "round_spans": round_spans, "per_round": per_round})
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "solve_s": {"value": statistics.median(scaled_s), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mib": {"value": peak_kib / 1024.0, "unit": "MiB"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
