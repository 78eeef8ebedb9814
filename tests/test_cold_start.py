"""Importing the package, the crude Monte Carlo reference, a flow-table
build, an estimate, a CLI valuation, CLI parsing and config errors load no
scipy; the adaptive quadratures (``t_star`` here) still do.

Each check runs in a fresh interpreter, since this one has scipy loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pdmpval

SRC = str(Path(pdmpval.__file__).resolve().parents[1])

PROBE = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

seen = {}
import pdmpval
seen["import pdmpval"] = scipy_modules()
pdmpval.mc_reference(pdmpval.LoanParams(), 0.0, 1000, max_jumps=8)
seen["mc_reference"] = scipy_modules()
model = pdmpval.SmoothedLoanModel.build()
seen["build"] = scipy_modules()
rule = pdmpval.CubatureSpec(kind=pdmpval.RuleKind.SOBOL, M=64, d=4, seed=1, replicates=2)
pdmpval.estimate_value(0.0, 2, rule, model)
seen["estimate_value"] = scipy_modules()
pdmpval.t_star(pdmpval.unsmoothed_loan_model(), pdmpval.State(1, 2.0))
seen["t_star"] = scipy_modules()
print(json.dumps(seen))
"""


def _python(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120)


def _imported(importtime_log: str) -> list:
    """Module names listed by ``python -X importtime``."""
    return [line.rsplit("|", 1)[1].strip() for line in importtime_log.splitlines()
            if line.startswith("import time:") and "|" in line]


def _scipy(modules) -> list:
    return [m for m in modules if m == "scipy" or m.startswith("scipy.")]


def test_package_build_and_estimate_load_no_scipy():
    done = _python("-c", PROBE)
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout)
    assert seen["import pdmpval"] == []
    assert seen["mc_reference"] == []
    assert seen["build"] == []
    assert seen["estimate_value"] == []
    assert "scipy.integrate" in seen["t_star"]  # the probe can see a scipy import


def test_cli_valuation_loads_no_scipy(tmp_path):
    out = tmp_path / "value.csv"
    done = _python("-X", "importtime", "-m", "pdmpval", "value", "--method", "sobol",
                   "--points", "64", "--jumps", "2", "--replicates", "2", "--out", str(out))
    assert done.returncode == 0, done.stderr
    modules = _imported(done.stderr)
    assert "pdmpval._numerics" in modules
    assert _scipy(modules) == []
    assert out.read_text().startswith("method,")


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0),
    (["value", "--points", "0"], 2),
    (["value", "--x0", "nan"], 2),
], ids=["help", "points-0", "x0-nan"])
def test_cli_exits_without_scipy(argv, code):
    done = _python("-X", "importtime", "-m", "pdmpval", *argv)
    assert done.returncode == code, done.stderr
    modules = _imported(done.stderr)
    assert "pdmpval.cli" in modules
    assert _scipy(modules) == []
    if code == 0:
        assert done.stdout.startswith("usage: pdmpval")
    else:
        assert "error:" in done.stderr
