"""Importing the package, the crude Monte Carlo reference, CLI parsing and
config errors load no scipy; the first flow-table build does.

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
pdmpval.SmoothedLoanModel.build()
seen["build"] = scipy_modules()
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


def test_package_and_crude_mc_load_no_scipy_until_a_build():
    done = _python("-c", PROBE)
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout)
    assert seen["import pdmpval"] == []
    assert seen["mc_reference"] == []
    assert "scipy.integrate" in seen["build"]  # the check is not vacuous


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
    assert [m for m in modules if m == "scipy" or m.startswith("scipy.")] == []
    if code == 0:
        assert done.stdout.startswith("usage: pdmpval")
    else:
        assert "error:" in done.stderr
