"""The three workloads: fixed, seeded job lists for `perckit.cli.main`.

A run repeats rounds of one workload's job list.  Round r of a run with
seed S passes the master seed S * 1000 + r to every stochastic job, so the
rounds of one run sample different Monte Carlo inputs and the run's median
round time averages over them.  The exact workload does not use the seed.

Every job names the check (in checks.py) that its output must pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Criterion-12 grid of the acceptance gate, at a reduced trial count.
TREND_K = 2
TREND_S = (0.25, 0.2, 0.167, 0.143)
TREND_TRIALS = 1000

# (model, k, q, L, trials): one short scan point per rule besides local k = 2.
SCAN_POINTS = (
    ("modified", 1, 0.6, 32, 200),
    ("frobose", 1, 0.5, 32, 200),
    ("local", 3, 0.8, 32, 300),
)

EVENTS_K = (1, 2, 3)
EVENTS_TRIALS = 20
EVENTS_Q = 0.5

PAK_K = (1, 2, 3)
PAK_S = 1e-4
SWEEP_K = (1, 2, 3, 4)
SWEEP_S = (0.1, 0.05, 0.02, 0.01, 0.005)
PAK_TOL = 1e-8
CHI_N = 800
PARTITIONS_K = 2
PARTITIONS_N = 800


@dataclass(frozen=True)
class Job:
    name: str
    argv: list
    check: str
    params: dict = field(default_factory=dict)


def round_seed(seed: int, round_index: int) -> int:
    return seed * 1000 + round_index


def _nums(values):
    return [repr(v) for v in values]


def trend_job(k, s_values, trials, seed) -> Job:
    argv = ["trend", "--k", str(k), "--s", *_nums(s_values), "--trials", str(trials),
            "--seed", str(seed)]
    return Job(f"trend.k{k}", argv, "trend",
               dict(k=k, s_values=list(s_values), trials=trials, seed=seed))


def scan_job(model, k, q, L, trials, seed) -> Job:
    argv = ["scan", "--model", model, "--k", str(k), "--q", repr(q), "--L", str(L),
            "--trials", str(trials), "--seed", str(seed)]
    return Job(f"scan.{model}.k{k}", argv, "scan",
               dict(model=model, k=k, q=q, L=L, trials=trials, seed=seed))


def events_job(k, trials, seed, q) -> Job:
    argv = ["events", "verify", "--k", str(k), "--trials", str(trials), "--seed", str(seed),
            "--q", repr(q)]
    return Job(f"events.k{k}", argv, "events", dict(k=k, trials=trials, seed=seed, q=q))


def pak_job(k, s, tol) -> Job:
    argv = ["pak", "--k", str(k), "--s", repr(s), "--tol", repr(tol)]
    return Job(f"pak.k{k}", argv, "pak", dict(k=k, s=s, tol=tol))


def sweep_job(k_values, s_values, tol) -> Job:
    argv = ["sweep-pak", "--k", *map(str, k_values), "--s", *_nums(s_values), "--tol", repr(tol)]
    return Job("sweep-pak", argv, "sweep",
               dict(k_values=list(k_values), s_values=list(s_values), tol=tol))


def chi_job(n) -> Job:
    return Job("chi-identity", ["chi-identity", "--N", str(n)], "chi", dict(N=n))


def partitions_job(k, n) -> Job:
    argv = ["partitions", "--k", str(k), "--N", str(n), "--andrews-check"]
    return Job(f"partitions.k{k}", argv, "partitions", dict(k=k, N=n))


def mc_boundary(seed: int) -> list:
    jobs = [trend_job(TREND_K, TREND_S, TREND_TRIALS, seed)]
    jobs += [scan_job(*point, seed) for point in SCAN_POINTS]
    return jobs


def events_verify(seed: int) -> list:
    return [events_job(k, EVENTS_TRIALS, seed, EVENTS_Q) for k in EVENTS_K]


def exact(seed: int) -> list:
    jobs = [pak_job(k, PAK_S, PAK_TOL) for k in PAK_K]
    jobs.append(sweep_job(SWEEP_K, SWEEP_S, PAK_TOL))
    jobs.append(chi_job(CHI_N))
    jobs.append(partitions_job(PARTITIONS_K, PARTITIONS_N))
    return jobs


WORKLOADS = {
    "mc_boundary": mc_boundary,
    "events_verify": events_verify,
    "exact": exact,
}

# Small jobs run once during set-up, unchecked, so that first-call costs
# (lazy imports, the per-k tail-constant cache of prob_ak) fall before timing.
WARMUP = {
    "mc_boundary": [
        ["trend", "--k", "2", "--s", "0.5", "0.4", "--trials", "5", "--seed", "0"],
        *[["scan", "--model", m, "--k", str(k), "--q", "0.5", "--L", "8", "--trials", "5",
           "--seed", "0"] for m, k, *_ in SCAN_POINTS],
    ],
    "events_verify": [
        ["events", "verify", "--k", str(k), "--trials", "1", "--seed", "0"] for k in EVENTS_K
    ],
    "exact": [
        *[["pak", "--k", str(k), "--s", "0.5"] for k in SWEEP_K],
        ["sweep-pak", "--k", "1", "--s", "0.5"],
        ["chi-identity", "--N", "20"],
        ["partitions", "--k", "2", "--N", "20", "--andrews-check"],
    ],
}

