"""Recompute bench/refs.json, the reference values the benchmark checks against.

    python3 bench/make_refs.py            # about three minutes on two cores

Statistical references use far more nodes or paths than any workload and a
seed of their own, so their error bars are small next to a workload's.  The
golden values are the fixed check slice as this commit computes it; rerun
only when a change is meant to move the numbers, and say so in the change.
"""

from __future__ import annotations

import json
import sys
import time

import run

REF_SEED = 1_000_003
EPS_NODES, EPS_REPLICATES = 2 ** 18, 16
MC2_PATHS = 2 ** 24
MC512_PATHS = 2 ** 20
TRUTH32_PATHS = 2 ** 20


def pair(est) -> dict:
    return {"value": est.value, "std_error": est.std_error}


def main() -> int:
    pkg = run.load_package()
    params = pkg.LoanParams(**run.PARAMS)
    started = time.perf_counter()
    eps = run.EPS_REFINE
    sobol = {}
    for width in eps["schedule"]:
        model = pkg.SmoothedLoanModel.build(**dict(run.PARAMS, eps=width))
        rule = pkg.CubatureSpec(kind=pkg.RuleKind.SOBOL, M=EPS_NODES, d=2 * eps["n"],
                                seed=REF_SEED, replicates=EPS_REPLICATES)
        sobol[str(width)] = pair(pkg.estimate_value(run.X0, eps["n"], rule, model))
        print(f"eps={width}: {sobol[str(width)]}", file=sys.stderr)
    refs = {
        "about": "written by bench/make_refs.py; see bench/README.md",
        "ref_seed": REF_SEED,
        "eps_refine": {
            "sobol": sobol,
            "sobol_nodes": EPS_NODES,
            "sobol_replicates": EPS_REPLICATES,
            "crude_mc": dict(pair(pkg.mc_reference(params, run.X0, MC2_PATHS, seed=REF_SEED,
                                                   max_jumps=eps["n"])), paths=MC2_PATHS),
        },
        "mc_deep": dict(pair(pkg.mc_reference(params, run.X0, MC512_PATHS, seed=REF_SEED,
                                              max_jumps=run.MC_DEEP["max_jumps"])),
                        paths=MC512_PATHS),
        "deep_qmc_truth": dict(pair(pkg.mc_reference(params, run.X0, TRUTH32_PATHS, seed=REF_SEED,
                                                     max_jumps=run.DEEP_QMC["n"])),
                               paths=TRUTH32_PATHS, max_jumps=run.DEEP_QMC["n"]),
    }
    model = pkg.SmoothedLoanModel.build(**run.PARAMS)
    s = run.SLICE
    golden = {}
    for kind in run.DEEP_QMC["kinds"]:
        rule = pkg.CubatureSpec(kind=pkg.RuleKind(kind), M=s["M"], d=2 * s["n"],
                                seed=s["seed"], replicates=1)
        golden[kind] = pkg.estimate_value(run.X0, s["n"], rule, model).value
    golden["crude_mc"] = pkg.mc_reference(params, run.X0, s["mc_paths"], seed=s["seed"],
                                          max_jumps=s["mc_jumps"]).value
    refs["golden"] = golden
    run.REFS_PATH.write_text(json.dumps(refs, indent=1) + "\n")
    print(f"wrote {run.REFS_PATH} in {time.perf_counter() - started:.0f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
