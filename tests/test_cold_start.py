"""Importing the package, the crude Monte Carlo reference, a flow-table
build, an estimate, a CLI valuation, CLI parsing and config errors load no
scipy; the adaptive quadratures (``smoothed_kernel_integrate`` here) still
do, and only the functions named in ``SCIPY_IMPORTERS`` import it.

Each check runs in a fresh interpreter, since this one has scipy loaded.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pdmpval

SRC = str(Path(pdmpval.__file__).resolve().parents[1])

PROBE = """
import json, math, sys

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
kernel = pdmpval.JumpKernelSpec(branches=(pdmpval.KernelBranch(
    prob=1.0, transform=lambda u, y: -math.log1p(-u)),), eps=0.01)
pdmpval.smoothed_kernel_integrate(lambda z: 1.0, 0.0, kernel)
seen["smoothed_kernel_integrate"] = scipy_modules()
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
    assert "scipy.integrate" in seen["smoothed_kernel_integrate"]  # the probe can see one


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


# the only functions of the package that may import scipy: the adaptive
# quadrature of the kernel branch integrals and the validation battery
SCIPY_IMPORTERS = {
    ("smoothing.py", "_branch_integral"),
    ("harness.py", "run_validate"),
}


def _scipy_imports(tree):
    """(enclosing top-level function or None, line) of each scipy import in a module."""
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n == "scipy" or n.startswith("scipy.") for n in names):
                yield owner, node.lineno


def test_scipy_is_imported_only_by_the_adaptive_quadratures():
    package = Path(pdmpval.__file__).resolve().parent
    found = set()
    for path in sorted(package.rglob("*.py")):
        for owner, line in _scipy_imports(ast.parse(path.read_text(), filename=str(path))):
            assert (path.name, owner) in SCIPY_IMPORTERS, f"scipy imported at {path.name}:{line}"
            found.add((path.name, owner))
    assert found == SCIPY_IMPORTERS  # each allowed importer still imports it
