"""Cold start: no perckit command imports scipy.

scipy's only use is `special_fn.integrate_gk` (the numerical check of
lambda_k), so `import perckit` and every CLI job must leave it unloaded.
The check runs in a fresh interpreter, because this test process may
already hold scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_JOBS = [
    ["pak", "--k", "2", "--s", "0.5"],
    ["sweep-pak", "--k", "2", "3", "--s", "0.5", "0.2"],
    ["scan", "--k", "2", "--s", "0.5", "--L", "16", "--trials", "5", "--seed", "1"],
    ["trend", "--k", "2", "--s", "0.5", "0.4", "--trials", "20", "--seed", "1"],
    ["events", "verify", "--k", "1", "--trials", "1", "--seed", "1"],
    ["chi-identity", "--N", "20"],
    ["partitions", "--k", "2", "--N", "20", "--andrews-check"],
]

_SCRIPT = """
import contextlib, io, json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import perckit
from perckit import cli

after_import = scipy_modules()
jobs = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    jobs.append([argv[0], code, scipy_modules()])

from perckit.special_fn import integrate_gk, lambda_k

integral = integrate_gk(2)
print(json.dumps({
    "after_import": after_import,
    "jobs": jobs,
    "integral": integral,
    "lambda": lambda_k(2),
    "after_integral": "scipy.integrate" in sys.modules,
}))
"""


def test_cli_jobs_leave_scipy_unloaded_until_integrate_gk():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, json.dumps(_JOBS)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["after_import"] == []
    assert result["jobs"] == [[argv[0], 0, []] for argv in _JOBS]
    assert abs(result["integral"] - result["lambda"]) < 1e-8
    assert result["after_integral"]
