"""End-to-end tests of the perckit CLI."""

import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from perckit import cli
from perckit.cli import build_parser, main
from perckit.lattice import read_snapshot
from perckit.special_fn import fk_eval, lambda_k


# (kind, a, b) of every `events verify` case per k, in output order
_VERIFY_CASES = {
    1: [("dk", 4, 9), ("dk", 6, 13), ("jk[s=0,t=0]", 4, 9), ("jk[s=0,t=0]", 4, 9),
        ("jk[s=0,t=0]", 6, 13), ("jk[s=0,t=0]", 6, 13), ("jk[s=0,t=0]", 4, 7),
        ("jk[s=0,t=0]", 4, 7), ("ek", 3, 7), ("ek", 4, 14)],
    2: [("dk", 4, 9), ("dk", 6, 13), ("jk[s=0,t=0]", 6, 12), ("jk[s=1,t=1]", 6, 12),
        ("jk[s=0,t=0]", 8, 16), ("jk[s=1,t=1]", 8, 16), ("jk[s=0,t=0]", 6, 10),
        ("jk[s=1,t=1]", 6, 10), ("ek", 4, 9), ("ek", 5, 17)],
    3: [("dk", 4, 9), ("dk", 6, 13), ("jk[s=0,t=0]", 8, 15), ("jk[s=2,t=2]", 8, 15),
        ("jk[s=0,t=0]", 10, 19), ("jk[s=2,t=2]", 10, 19), ("jk[s=0,t=0]", 8, 13),
        ("jk[s=2,t=2]", 8, 13), ("ek", 5, 11), ("ek", 6, 20)],
}
_VERIFY_VARIANTS = {1: ["modified", "frobose"], 2: ["local"], 3: ["local"]}


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestNumericCommands:
    def test_fk(self, capsys):
        code, out, _ = run_cli(capsys, "fk", "--k", "2", "--x", "0.5", "0.3")
        assert code == 0
        lines = out.strip().splitlines()
        assert float(lines[0]) == pytest.approx(fk_eval(2, 0.5), rel=1e-14)
        assert float(lines[1]) == pytest.approx(fk_eval(2, 0.3), rel=1e-14)
        assert len(lines[0].replace(".", "").lstrip("0")) >= 14  # 15 significant digits

    def test_fk_at_large_k(self, capsys):
        # the root is 1 - 2^-10001 to within an ulp; the long form once underflowed to 4.1e-25
        code, out, _ = run_cli(capsys, "fk", "--k", "10000", "--x", "0.5")
        assert code == 0 and out == "1\n"

    def test_fk_residual_error_is_one_line(self, capsys):
        # near f = 1 at large k the root misses its residual check: an error line, no traceback
        code, out, err = run_cli(capsys, "fk", "--k", "1000", "--x", "0.01")
        assert code == 2
        assert out == ""
        assert err == "error: f_k root residual exceeded tol\n"

    def test_gk_and_lambda(self, capsys):
        code, out, _ = run_cli(capsys, "gk", "--k", "1", "--z", "1.0")
        assert float(out.strip()) == pytest.approx(-math.log(1 - math.exp(-1)), rel=1e-12)
        code, out, _ = run_cli(capsys, "lambda", "--k", "1", "2", "3")
        vals = [float(v) for v in out.strip().splitlines()]
        assert vals == pytest.approx([lambda_k(1), lambda_k(2), lambda_k(3)])

    def test_hk_scan(self, capsys):
        code, out, _ = run_cli(capsys, "hk-scan", "--k", "2", "--samples", "50", "--seed", "4")
        vals = [float(v) for v in out.strip().splitlines()]
        assert len(vals) == 50
        assert min(vals) >= -1e-10
        code, out, _ = run_cli(
            capsys, "hk-scan", "--k", "2", "--samples", "50", "--seed", "4", "--tilde"
        )
        vals = [float(v) for v in out.strip().splitlines()]
        assert max(vals) <= 1e-10

    @pytest.mark.parametrize("argv", [
        ["gk", "--k", "2", "--z", "-1"], ["gk", "--k", "2", "--z", "0.5", "nan"],
        ["gk", "--k", "0", "--z", "1"], ["fk", "--k", "0", "--x", "0.5"],
        ["fk", "--k", "2", "--x", "0.5", "1.5"], ["fk", "--k", "2", "--x", "0.5", "--tol", "0"],
        ["lambda", "--k", "0"], ["lambda", "--k", "1", "-3"],
        ["hk-scan", "--k", "2", "--samples", "3", "--seed", "-1"],
        ["hk-scan", "--k", "0", "--samples", "3", "--seed", "1"],
        ["hk-scan", "--k", "2", "--samples", "-1", "--seed", "1"],
        ["fk", "--k", "2", "--x", "nan"],
    ])
    def test_rejects_bad_input(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""  # no partial output before a rejected point
        assert err.startswith("error: ") and err.count("\n") == 1


class TestProbabilityCommands:
    def test_rho_parametric(self, capsys):
        code, out, _ = run_cli(capsys, "rho", "--k", "2", "--s", "0.5", "--n", "30")
        data = json.loads(out)
        assert 0 < data["value"] < 1
        assert data["log_value"] == pytest.approx(math.log(data["value"]), rel=1e-9)

    def test_rho_u_file(self, capsys, tmp_path):
        path = tmp_path / "u.txt"
        path.write_text("0.5 0.5 0.5\n")
        code, out, _ = run_cli(capsys, "rho", "--k", "2", "--u-file", str(path))
        assert json.loads(out)["value"] == pytest.approx(5 / 8)

    def test_rho_requires_one_source(self, capsys):
        code, _, err = run_cli(capsys, "rho", "--k", "2")
        assert code == 2 and "u-file" in err

    @pytest.mark.parametrize("bad", [
        ["rho", "--k", "0", "--s", "0.1", "--n", "5"],
        ["rho", "--k", "2", "--s", "nan", "--n", "5"],
        ["rho", "--k", "2", "--s", "inf", "--n", "5"],
        ["rho", "--k", "2", "--s", "0.1", "--n", "-1"],
        ["sweep-pak", "--k", "0", "--s", "0.1"],
        ["sweep-pak", "--k", "1", "--s", "nan"],
    ])
    def test_rho_and_sweep_reject_bad_input(self, capsys, bad):
        code, out, err = run_cli(capsys, *bad)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_rho_rejects_bad_u_file(self, capsys, tmp_path):
        (tmp_path / "range.txt").write_text("0.5 1.5\n")
        (tmp_path / "nan.txt").write_text("0.5 nan\n")
        for name in ("range.txt", "nan.txt", "missing.txt"):
            code, out, err = run_cli(capsys, "rho", "--k", "2", "--u-file", str(tmp_path / name))
            assert code == 2 and out == ""
            assert err.startswith("error: ") and err.count("\n") == 1

    def test_rho_exact_zero_prints_null(self, capsys, tmp_path):
        path = tmp_path / "u.txt"
        path.write_text("0.5 0.0 0.0 1.0 0.3\n")
        code, out, _ = run_cli(capsys, "rho", "--k", "2", "--u-file", str(path))

        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        data = json.loads(out, parse_constant=refuse)
        assert code == 0
        assert data == {"value": 0.0, "log_value": None, "error_bound": 0.0}

    def test_pak(self, capsys):
        code, out, _ = run_cli(capsys, "pak", "--k", "2", "--s", "0.1", "--tol", "1e-8")
        data = json.loads(out)
        assert data["log_value"] >= -lambda_k(2) / 0.1
        assert data["error_bound"] <= 1e-8

    @pytest.mark.parametrize("bad", [
        ["--k", "0"], ["--k", "-2"], ["--s", "nan"], ["--s", "inf"], ["--s", "0"],
        ["--s", "-0.1"], ["--tol", "nan"], ["--tol", "inf"], ["--tol", "0"],
        ["--s", "1e-5"],  # the rounding floor alone is above tol/4
        ["--s", "1e-300"], ["--s", "5e-324"], ["--tol", "1e-320"],  # N sizing overflows
    ])
    def test_pak_rejects_bad_input(self, capsys, bad):
        code, out, err = run_cli(capsys, "pak", "--k", "1", "--s", "0.1", *bad)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestQseriesCommands:
    def test_partitions_rows(self, capsys):
        code, out, _ = run_cli(capsys, "partitions", "--k", "2", "--N", "4")
        assert code == 0
        assert out.strip().splitlines() == ["0,1", "1,1", "2,2", "3,2", "4,4"]

    def test_partitions_andrews_check(self, capsys):
        code, _, _ = run_cli(
            capsys, "partitions", "--k", "3", "--N", "40", "--andrews-check"
        )
        assert code == 0

    def test_chi_identity(self, capsys):
        code, out, _ = run_cli(capsys, "chi-identity", "--N", "60")
        assert code == 0 and "holds" in out

    @pytest.mark.parametrize("argv", [
        ["chi-identity", "--N", "-1"],
        ["partitions", "--k", "2", "--N", "-1"],
        ["partitions", "--k", "0", "--N", "5", "--andrews-check"],
    ])
    def test_rejects_bad_input(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("n", [0, 1])
    def test_smallest_orders(self, capsys, n):
        code, out, _ = run_cli(capsys, "chi-identity", "--N", str(n))
        assert code == 0 and out == f"mock theta identity holds through q^{n}\n"
        code, out, _ = run_cli(capsys, "partitions", "--k", "2", "--N", str(n), "--andrews-check")
        assert code == 0 and out == "".join(f"{i},1\n" for i in range(n + 1))


class TestSimulationCommands:
    def test_simulate_with_snapshot(self, capsys, tmp_path):
        snap = tmp_path / "grid.bin"
        code, out, _ = run_cli(
            capsys,
            "simulate", "--model", "local", "--k", "2", "--q", "0.4", "--L", "24",
            "--seed", "12", "--snapshot", str(snap),
        )
        data = json.loads(out)
        assert data["converged"] is True
        lat = read_snapshot(snap)
        assert lat.width == lat.height == 24
        assert int(np.sum(lat.cells == 2)) == data["active_cells"]

    def test_simulate_deterministic(self, capsys):
        _, out1, _ = run_cli(
            capsys, "simulate", "--model", "frobose", "--k", "1", "--q", "0.8",
            "--L", "16", "--seed", "3",
        )
        _, out2, _ = run_cli(
            capsys, "simulate", "--model", "frobose", "--k", "1", "--q", "0.8",
            "--L", "16", "--seed", "3",
        )
        assert out1 == out2

    def test_simulate_and_hk_scan_are_pinned(self, capsys, tmp_path, monkeypatch):
        # stdout and snapshot bytes of every rule at q = 0, 0.4 and 1, and
        # hk-scan plain and tilde, pinned by one SHA-256 taken while the draws
        # still came from a numpy Generator
        monkeypatch.chdir(tmp_path)
        digest = hashlib.sha256()
        for model, k in (("local", "2"), ("modified", "1"), ("frobose", "1")):
            for q in ("0", "0.4", "1"):
                code, out, _ = run_cli(
                    capsys, "simulate", "--model", model, "--k", k, "--q", q, "--L", "20",
                    "--seed", "7", "--snapshot", "grid.bin",
                )
                digest.update(f"{code}\n{out}".encode())
                digest.update((tmp_path / "grid.bin").read_bytes())
        for samples in ("0", "50"):
            for tilde in ([], ["--tilde"]):
                code, out, _ = run_cli(
                    capsys, "hk-scan", "--k", "3", "--samples", samples, "--seed", "5", *tilde,
                )
                digest.update(f"{code}\n{out}".encode())
        assert digest.hexdigest() == (
            "fbbdfa7929e1c8471dc3f115052ee8fb1501332b57fdc703fd7fa1e2234c9609"
        )

    def test_events_prob_and_verify(self, capsys):
        code, out, _ = run_cli(
            capsys, "events", "prob", "--k", "2", "--a", "4", "--b", "9", "--q", "0.5",
            "--kind", "dk",
        )
        assert code == 0 and 0 < float(out) < 1
        code, out, _ = run_cli(
            capsys, "events", "verify", "--k", "2", "--trials", "5", "--seed", "1",
        )
        assert code == 0
        assert json.loads(out)["total_violations"] == 0

    @pytest.mark.parametrize("kind,k,a,b,q,printed", [
        ("dk", 1, 3, 8, 0.3, "0.925176957767115"),
        ("dk", 2, 4, 9, 0.5, "0.979908781343227"),
        ("dk", 4, 6, 15, 0.95, "0.149768682766678"),
        ("jk", 1, 2, 7, 0.8, "0.000190197626980215"),
        ("jk", 2, 4, 9, 0.5, "5.63146259979774e-06"),
        ("jk", 3, 5, 12, 0.61, "1.81469275888469e-08"),
    ])
    def test_events_prob_pinned_digits(self, capsys, kind, k, a, b, q, printed):
        code, out, _ = run_cli(
            capsys, "events", "prob", "--kind", kind, "--k", str(k), "--a", str(a),
            "--b", str(b), "--q", str(q),
        )
        assert code == 0
        assert out == printed + "\n"

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_events_verify_pinned_json(self, capsys, k):
        code, out, _ = run_cli(
            capsys, "events", "verify", "--k", str(k), "--trials", "4", "--seed", "3",
        )
        cases = [
            {"kind": kind, "variant": variant, "a": a, "b": b, "violations": 0,
             "counterexample": None}
            for variant in _VERIFY_VARIANTS[k]
            for kind, a, b in _VERIFY_CASES[k]
        ]
        payload = {"k": k, "trials": 4, "total_violations": 0, "cases": cases}
        assert code == 0
        assert out == json.dumps(payload, indent=2) + "\n"

    def test_events_verify_output_digest(self, capsys):
        # exit codes and stdout over k, q and seed, pinned by one SHA-256
        # taken before the growth trials shared a board
        digest = hashlib.sha256()
        for k in (1, 2, 3, 4):
            for q in ("0.3", "0.5", "0.8"):
                for seed in ("0", "7"):
                    code, out, _ = run_cli(
                        capsys, "events", "verify", "--k", str(k), "--trials", "12",
                        "--seed", seed, "--q", q,
                    )
                    digest.update(f"{code}\n{out}".encode())
        assert digest.hexdigest() == (
            "45893ceb8ea4f1d6f1bd34da0e94134d8a9e16847e9b6a1729a821e982ce5b00"
        )

    @pytest.mark.parametrize("bad", [
        ["--q", "0.0"], ["--q", "1.0"], ["--q", "1.5"], ["--trials", "0"], ["--k", "0"],
    ])
    def test_events_verify_rejects_bad_input(self, capsys, bad):
        code, out, err = run_cli(
            capsys, "events", "verify", "--k", "2", "--trials", "3", "--seed", "1", *bad,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("bad", [
        ["--q", "1.5"], ["--q", "0"], ["--q", "nan"], ["--k", "0"], ["--a", "9", "--b", "4"],
        ["--kind", "jk", "--a", "4", "--b", "7"],  # b - a < k + 2
    ])
    def test_events_prob_rejects_bad_input(self, capsys, bad):
        code, out, err = run_cli(
            capsys, "events", "prob", "--k", "2", "--a", "4", "--b", "9", "--q", "0.5",
            "--kind", "dk", *bad,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_scan_stdout_and_config(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "scan", "--model", "local", "--k", "2", "--q", "0.6", "--L", "10",
            "--trials", "25", "--seed", "6",
        )
        lines = out.strip().splitlines()
        assert lines[0].startswith("k,model,q,s,L")
        assert len(lines) == 2
        cfg = tmp_path / "cfg.json"
        outpath = tmp_path / "rows.csv"
        cfg.write_text(
            json.dumps(
                {
                    "model": "local",
                    "k_values": [2],
                    "L_values": [10],
                    "q_values": [0.6],
                    "trials": 25,
                    "seed": 6,
                    "output": str(outpath),
                }
            )
        )
        code, out, _ = run_cli(capsys, "scan", "--config", str(cfg))
        assert outpath.read_text().strip().splitlines()[1:] == lines[1:]

    def test_scan_json_stdout_matches_output_file(self, capsys, tmp_path):
        argv = ["scan", "--model", "local", "--k", "2", "3", "--q", "0.6", "0.8", "--L", "6",
                "--trials", "20", "--seed", "6", "--format", "json"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        rows = json.loads(out)
        assert [(r["k"], r["q"]) for r in rows] == [(2, 0.6), (2, 0.8), (3, 0.6), (3, 0.8)]
        path = tmp_path / "rows.json"
        code, msg, _ = run_cli(capsys, *argv, "--output", str(path))
        assert code == 0 and msg == f"wrote 4 rows to {path}\n"
        assert path.read_text() == out
        assert json.loads(path.read_text()) == rows

    @pytest.mark.parametrize("argv", [
        ["scan", "--seed", "1", "--trials", "5"],  # neither --q nor --s
        ["scan", "--q", "0.5", "--L", "0", "--seed", "1"],
        ["scan", "--q", "1.5", "--L", "4", "--seed", "1"],
        ["scan", "--s", "-1", "--L", "4", "--seed", "1"],
        ["scan", "--k", "0", "--q", "0.5", "--L", "4", "--seed", "1"],
        ["scan", "--model", "modified", "--k", "2", "--q", "0.5", "--L", "4", "--seed", "1"],
        ["scan", "--q", "0.5", "--L", "4", "--trials", "0", "--seed", "1"],
        ["scan", "--config", "no-such-config.json"],
        ["scan", "--config", "no-seed.json"],
        ["simulate", "--model", "local", "--k", "1", "--q", "0.5", "--L", "8", "--seed", "1"],
        ["simulate", "--model", "local", "--k", "2", "--q", "0.5", "--L", "0", "--seed", "1"],
        ["simulate", "--model", "global", "--k", "2", "--q", "1.5", "--L", "4", "--seed", "1"],
        ["trend", "--k", "2", "--s", "0.1", "0.2", "--trials", "5", "--seed", "1"],
        ["trend", "--k", "2", "--s", "0.5", "0", "--trials", "5", "--seed", "1"],
        ["trend", "--k", "2", "--s", "inf", "0.5", "--trials", "5", "--seed", "1"],
        ["trend", "--k", "2", "--s", "0.5", "0.4", "--trials", "0", "--seed", "1"],
        ["trend", "--k", "1", "--s", "0.5", "0.4", "--trials", "5", "--seed", "1",
         "--model", "local"],
        ["scan", "--q", "0.5", "--L", "4", "--trials", "2", "--seed", "1",
         "--output", "no-such-dir/out.csv"],
        ["simulate", "--model", "local", "--k", "2", "--q", "0.5", "--L", "8", "--seed", "1",
         "--snapshot", "no-such-dir/snap.bin"],
        ["simulate", "--model", "local", "--k", "2", "--q", "0.5", "--L", "8", "--seed", "1",
         "--snapshot", "no-such-dir/snap.txt"],
    ])
    def test_scan_simulate_trend_reject_bad_input(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "no-seed.json").write_text(
            json.dumps({"model": "local", "k_values": [2], "L_values": [8], "q_values": [0.6]})
        )
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_scan_requires_seed(self, capsys):
        code, _, err = run_cli(
            capsys, "scan", "--model", "local", "--k", "2", "--q", "0.6", "--L", "8",
            "--trials", "5",
        )
        assert code == 2 and "seed" in err

    def test_scan_q_one_writes_s_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--model", "local", "--k", "2", "--q", "1.0", "--L", "8",
            "--trials", "3", "--seed", "1",
        )
        row = out.strip().splitlines()[1].split(",")
        assert code == 0 and row[3] == "0.0" and row[6] == "0"

    def test_tiny_windows_wider_neighbourhood(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--model", "local", "--k", "3", "--q", "0.5", "--L", "1", "2", "3",
            "--trials", "20", "--seed", "1",
        )
        assert code == 0 and len(out.strip().splitlines()) == 4
        for L in ("1", "2", "3"):
            code, out, _ = run_cli(
                capsys, "simulate", "--model", "local", "--k", "4", "--q", "0.5", "--L", L,
                "--seed", "1",
            )
            assert code == 0 and json.loads(out)["converged"] is True

    def test_trend_rejects_unknown_model(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["trend", "--k", "2", "--s", "0.5", "0.4", "--trials", "2", "--seed", "1",
                  "--model", "foo"])
        assert exc.value.code == 2
        assert "invalid choice: 'foo'" in capsys.readouterr().err

    def test_sweep_pak(self, capsys):
        code, out, _ = run_cli(capsys, "sweep-pak", "--k", "1", "2", "--s", "0.2", "0.1")
        rows = json.loads(out)
        assert len(rows) == 4
        assert all(r["inside_lower"] for r in rows)

    @pytest.mark.parametrize("k,s_grid,finite", [(3, ["1.0", "0.8"], [False, True]),
                                                 (2, ["2.0", "1.5"], [False, False])])
    def test_trend_envelope_nan_at_s_one_and_above(self, capsys, k, s_grid, finite):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys, "trend", "--k", str(k), "--s", *s_grid, "--trials", "200", "--seed", "1",
            )
        assert code == 0 and err == ""
        assert "Infinity" not in out
        data = json.loads(out)
        assert not data["degenerate"]
        assert [math.isfinite(r) for r in data["envelope_ratios"]] == finite

    def test_trend(self, capsys):
        code, out, _ = run_cli(
            capsys, "trend", "--k", "1", "--s", "0.6", "0.5", "--trials", "150",
            "--seed", "2", "--model", "modified",
        )
        data = json.loads(out)
        assert data["k"] == 1 and len(data["estimates"]) == 2


class TestParser:
    @pytest.mark.parametrize("argv", [
        ["--help"], ["fk", "--help"], ["events", "verify", "--help"], ["scan", "--help"],
        [], ["fk"], ["scan", "--format", "xml"], ["nope"], ["trend", "--k", "two"],
    ])
    def test_kept_parser_prints_as_a_fresh_one(self, capsys, argv):
        outputs = []
        for parse in (main, main, lambda a: build_parser().parse_args(a)):
            with pytest.raises(SystemExit) as exc:
                parse(list(argv))
            captured = capsys.readouterr()
            outputs.append((exc.value.code, captured.out, captured.err))
        assert outputs[0] == outputs[1] == outputs[2]

    def test_main_builds_no_parser_per_call(self, capsys, monkeypatch):
        main(["lambda", "--k", "1"])

        def fail():
            raise AssertionError("build_parser called again")

        monkeypatch.setattr(cli, "build_parser", fail)
        assert main(["lambda", "--k", "2"]) == 0
        assert float(capsys.readouterr().out.splitlines()[-1]) == pytest.approx(lambda_k(2))


_SRC = Path(__file__).resolve().parents[1] / "src"


def _limit_address_space():
    # the child's own limit: its huge requests fail at once, and nothing
    # else on the machine is touched
    resource.setrlimit(resource.RLIMIT_AS, (2 * 2**30, 2 * 2**30))


class TestOutOfMemory:
    @pytest.mark.parametrize("argv", [
        ["scan", "--L", "100000", "--trials", "1", "--q", "0.5", "--k", "2", "--seed", "1"],
        ["simulate", "--model", "local", "--L", "200000", "--k", "2", "--q", "0.5", "--seed", "1"],
    ])
    def test_memory_error_is_one_error_line(self, argv):
        env = {**os.environ, "PYTHONPATH": str(_SRC), "OPENBLAS_NUM_THREADS": "1"}
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "perckit.cli", *argv], env=env, capture_output=True,
            text=True, timeout=60, preexec_fn=_limit_address_space,
        )
        assert time.monotonic() - start < 30
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: out of memory") and proc.stderr.count("\n") == 1
