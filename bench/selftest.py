"""Tiny-size smoke test of the benchmark itself; kept out of the package's tests.

    python3 bench/selftest.py          # about a minute on two cores

Runs every workload at toy sizes in both modes and checks the result line
against BENCHMARK.json, the recorded spans, that a wrong reference is
caught, and that a directory holding only the benchmark fails cleanly.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys

import run

ROOT = run.BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    "deep-qmc": dict(n=4, M=1024, R=2, kinds=("sobol", "halton", "mc")),
    "eps-refine": dict(n=2, M=1024, R=4, mc_paths=4096, schedule=(0.08, 0.04, 0.02, 0.01)),
    "mc-deep": dict(paths=2048, max_jumps=512),
}


def run_tiny(workload, trace):
    """run.main at toy sizes; returns the parsed result line."""
    cls = run.WORKLOADS[workload]
    saved, cls.sizes = cls.sizes, TINY[workload]
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                             "--trace", str(trace)])
    finally:
        cls.sizes = saved
    assert code == 0, code
    return json.loads(out.getvalue().strip().splitlines()[-1])


def check_result(result, trace):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}, set(result["metrics"])
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"]), (m, got)
        if not trace:
            assert got["value"] > 0.0, (m, got)


def check_spans(workload):
    spans = json.loads((run.OUT_DIR / f"spans-{workload}-3.json").read_text())["spans"]
    assert spans, workload
    for i, s in enumerate(spans):
        assert s["end"] >= s["start"] and s["parent"] < i, s
        if s["parent"] >= 0:
            parent = spans[s["parent"]]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"], (parent, s)


def check_wrong_reference_is_caught():
    refs = json.loads(run.REFS_PATH.read_text())
    refs["mc_deep"]["value"] += 10.0  # far outside the toy run's error bar
    bad = run.OUT_DIR / "selftest-refs.json"
    bad.write_text(json.dumps(refs))
    saved, run.REFS_PATH = run.REFS_PATH, bad
    try:
        cls = run.WORKLOADS["mc-deep"]
        sizes, cls.sizes = cls.sizes, TINY["mc-deep"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            run.main(["--workload", "mc-deep", "--seed", "3", "--seconds", "0", "--trace", "0"])
    finally:
        run.REFS_PATH, cls.sizes = saved, sizes
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1, result


def check_empty_checkout_fails():
    """Only BENCHMARK.json and bench/: exit non-zero, print no result."""
    empty = run.OUT_DIR / "selftest-empty"
    shutil.rmtree(empty, ignore_errors=True)
    (empty / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", empty)
    for f in run.BENCH_DIR.iterdir():
        if f.is_file():
            shutil.copy(f, empty / "bench")
    proc = subprocess.run(
        [sys.executable] + SPEC["command"][1:] + ["--workload", "mc-deep", "--seed", "1",
                                                 "--seconds", "1", "--trace", "0"],
        cwd=empty, capture_output=True, text=True, timeout=180)
    shutil.rmtree(empty)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc


def main() -> int:
    run.OUT_DIR.mkdir(exist_ok=True)
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            check_result(run_tiny(workload, trace), trace)
        check_spans(workload)
        print(f"ok {workload}", file=sys.stderr)
    check_wrong_reference_is_caught()
    check_empty_checkout_fails()
    print("selftest passed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
