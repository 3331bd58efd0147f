"""Every output check accepts the program's real output and rejects a planted error.

Run with `python3 -m pytest perfbench/tests` from the repository root; the
inputs are small, so the whole file takes seconds.
"""

import json
import math

import mpmath as mp
import pytest

from perckit import cli
from perckit.gap_process import GapProcess, rho_exact
from perckit.qseries import IntSeries
from perfbench import checks, reference as ref, speed, tracer as tracing, workloads
from perfbench.run import run_job


def run(job):
    code, stdout, _ = run_job(cli, job.argv)
    return code, stdout


def verdict(job, code, stdout):
    return {c.name: c.ok for c in checks.run_check(job, code, stdout)}


def test_closure_matches_program_on_every_rule():
    for model, k, q in (("local", 2, 0.7), ("local", 3, 0.8), ("modified", 1, 0.5),
                        ("frobose", 1, 0.45)):
        job = workloads.scan_job(model, k, q, 12, 60, 5)
        code, stdout = run(job)
        assert all(verdict(job, code, stdout).values()), (model, stdout)


def test_scan_check_rejects_off_by_one_and_wrong_seed():
    job = workloads.scan_job("local", 2, 0.7, 12, 60, 5)
    code, stdout = run(job)
    header, row = stdout.splitlines()
    fields = row.split(",")
    planted = fields.copy()
    planted[6] = str(int(fields[6]) + 1)
    v = verdict(job, code, "\n".join([header, ",".join(planted)]) + "\n")
    assert not v["scan.local.k2.successes"]
    planted = fields.copy()
    planted[9] = str(int(fields[9]) + 1)
    assert not verdict(job, code, "\n".join([header, ",".join(planted)]) + "\n")["scan.local.k2.row"]


@pytest.fixture(scope="module")
def trend():
    job = workloads.trend_job(2, (0.5, 0.4, 0.3), 80, 3)
    code, stdout = run(job)
    return job, code, stdout


def test_trend_check_accepts_real_counts(trend):
    job, code, stdout = trend
    v = verdict(job, code, stdout)
    assert v["trend.k2.inputs"]
    assert all(ok for name, ok in v.items() if ".successes[" in name)


def test_trend_check_rejects_off_by_one(trend):
    job, code, stdout = trend
    d = json.loads(stdout)
    d["successes"][1] += 1
    v = verdict(job, code, json.dumps(d))
    assert not v["trend.k2.successes[s=0.4]"]
    assert v["trend.k2.successes[s=0.5]"]
    assert not v["trend.k2.fit"]  # estimates no longer match the counts


def test_trend_fit_rejects_a_wrong_slope(trend):
    job, code, stdout = trend
    d = json.loads(stdout)
    d["slope"] += 1e-3
    assert not verdict(job, code, json.dumps(d))["trend.k2.fit"]
    d = json.loads(stdout)
    d["successes"] = [80, 40, 20]
    d["estimates"] = [1.0, 0.5, 0.25]
    assert not verdict(job, code, json.dumps(d))["trend.k2.fit"]  # degenerate


def test_expected_case_counts():
    assert [len(checks.expected_cases(k)) for k in (1, 2, 3)] == [20, 10, 10]


def test_events_check_rejects_violations_and_missing_cases():
    job = workloads.events_job(2, 1, 0, 0.5)
    code, stdout = run(job)
    assert all(verdict(job, code, stdout).values())
    d = json.loads(stdout)
    d["cases"][3]["violations"] = 1
    assert not verdict(job, code, json.dumps(d))["events.k2.violations"]
    d = json.loads(stdout)
    del d["cases"][-1]
    assert not verdict(job, code, json.dumps(d))["events.k2.cases"]
    assert not verdict(job, 1, stdout)["events.k2.output"]


def test_pak_bracket_check_rejects_a_shifted_bracket():
    job = workloads.pak_job(1, 0.1, 1e-8)
    code, stdout = run(job)
    v = verdict(job, code, stdout)
    assert v == {"pak.k1.s0.1.output": True, "pak.k1.s0.1.bracket": True}
    d = json.loads(stdout)
    exact = float(ref.log_pak_closed(1, 0.1))
    d["log_value"] = exact + 1.5 * d["error_bound"]
    d["value"] = math.exp(d["log_value"])
    checked = checks.run_check(job, code, json.dumps(d))
    # s = 0.1 is not a known miss, so the failure is not excused.
    assert [(c.name, c.ok, c.excused) for c in checked][1] == ("pak.k1.s0.1.bracket", False, False)


def test_only_known_rounding_size_misses_are_excused():
    job = workloads.sweep_job((2,), (0.1,), 1e-8)
    code, stdout = run(job)
    bracket = checks.run_check(job, code, stdout)[1]
    assert bracket.name == "sweep-pak.k2.s0.1.bracket"
    assert not bracket.ok and bracket.excused  # the known fault, as it is today
    d = json.loads(stdout)
    for shift in (1.0, -1.0, 1e-6):  # a wrong value at the same point
        planted = [dict(d[0], log_value=d[0]["log_value"] + shift)]
        planted[0]["value"] = math.exp(planted[0]["log_value"])
        planted[0]["ratio_to_upper"] = math.exp(planted[0]["log_value"]
                                                - planted[0]["paper_log_upper"])
        planted[0]["inside_lower"] = planted[0]["log_value"] >= planted[0]["paper_log_lower"]
        checked = checks.run_check(job, code, json.dumps(planted))
        assert checked[0].ok, shift
        assert not checked[1].ok and not checked[1].excused, shift
    # A rounding-size miss is excused on the list and nowhere else.
    for job_name, k, s, listed in (("sweep-pak", 2, 0.1, True), ("sweep-pak", 2, 0.2, False),
                                   ("pak", 2, 0.1, False), ("sweep-pak", 1, 0.05, False)):
        exact = float(ref.log_pak_closed(k, s))
        check = checks._bracket(job_name, k, s, exact - 1e-12, 1e-13)
        assert not check.ok and check.excused == listed, (job_name, k, s)


def test_sweep_check_rejects_shifted_bracket_and_wrong_bound():
    job = workloads.sweep_job((1, 3), (0.1, 0.02), 1e-8)
    code, stdout = run(job)
    v = verdict(job, code, stdout)
    assert v["sweep-pak.rows"] and v["sweep-pak.k1.s0.1.bracket"] and v["sweep-pak.k3.s0.02.bracket"]
    d = json.loads(stdout)
    d[3]["log_value"] -= 3 * d[3]["error_bound"]
    d[3]["value"] = math.exp(d[3]["log_value"])
    d[3]["ratio_to_upper"] = math.exp(d[3]["log_value"] - d[3]["paper_log_upper"])
    assert not verdict(job, code, json.dumps(d))["sweep-pak.k3.s0.02.bracket"]
    d = json.loads(stdout)
    d[0]["paper_log_lower"] *= 1.001
    assert not verdict(job, code, json.dumps(d))["sweep-pak.rows"]


def test_partitions_check_rejects_a_changed_coefficient():
    job = workloads.partitions_job(2, 60)
    code, stdout = run(job)
    names = ["bruteforce", "subset_product", "identity[s=0.5]", "identity[s=4.0]"]
    assert verdict(job, code, stdout) == {f"partitions.k2.{n}": True for n in names}
    lines = stdout.splitlines()
    for n, caught_by in ((5, names), (45, ["subset_product", "identity[s=4.0]"])):
        planted = lines.copy()
        planted[n] = f"{n},{int(lines[n].split(',')[1]) + 1}"
        v = verdict(job, code, "\n".join(planted) + "\n")
        assert [name for name in names if not v[f"partitions.k2.{name}"]] == caught_by, n


def test_chi_check_rejects_a_wrong_order():
    job = workloads.chi_job(40)
    code, stdout = run(job)
    assert verdict(job, code, stdout) == {"chi-identity.N40": True}
    assert not verdict(job, code, stdout.replace("40", "41"))["chi-identity.N40"]


def test_exact_references_agree():
    for k in (1, 2):
        gap = ref.log_pak_closed(k, 0.05) - ref.log_pak_recurrence(k, 0.05)
        assert abs(gap) < mp.mpf(10) ** -40
    process = GapProcess.parametric(3, 0.2)
    program = rho_exact(process, 60).log_final
    assert abs(float(ref.log_pak_recurrence(3, 0.2, n_terms=60)) - program) < 1e-12
    assert ref.partitions_bruteforce(2, 20) == ref.partitions_subset_product(2, 20)


def test_tracer_counts_and_restores():
    tracer = tracing.Tracer()
    original = IntSeries.__mul__
    assert tracer.install() == []
    try:
        one_plus_q = IntSeries((1, 1), 3)
        assert (one_plus_q * one_plus_q).coeffs == (1, 2, 1, 0)
        assert run_job(cli, ["pak", "--k", "2", "--s", "0.5"])[0] == 0
    finally:
        tracer.uninstall()
    assert IntSeries.__mul__ is original
    metrics = tracing.layer_metrics(tracer.spans, 0, len(tracer.spans))
    assert metrics["qseries.mul_calls"] == 1 and metrics["qseries.coeff_mults"] == 4
    assert metrics["gap_process.rho_terms"] > 0 and metrics["special_fn.gk_points"] > 0
    assert set(metrics) == {name for name, _ in tracing.PER_LAYER}


def test_sampler_removes_and_scales_probe_time():
    import signal
    import time

    previous = signal.getsignal(signal.SIGALRM)
    sampler = speed.Sampler()
    sampler.start()
    start = time.perf_counter()
    while time.perf_counter() - start < 0.35:
        sum(range(1000))
    wall = time.perf_counter() - start
    sampler.stop()
    assert signal.getsignal(signal.SIGALRM) is previous
    assert len(sampler.samples) >= 2 and 0 < sampler.spent_s < wall
    mean_probe = sum(sampler.samples) / len(sampler.samples)
    want = (wall - sampler.spent_s) * speed.REFERENCE_PROBE_S / mean_probe
    assert math.isclose(sampler.scaled(wall), want)
