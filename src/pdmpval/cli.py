"""Command-line entry point.

Subcommands: value (single estimate), convergence (node-count study),
epsilon-study (smoothing refinement against the Monte Carlo reference) and
validate (cross-module invariant suite, which takes no flags).  Flags
override config-file keys; the PDMPVAL_SEED environment variable overrides
every seed source.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .errors import InputError, ModelError
from .harness import (
    ExperimentConfig,
    config_from_mapping,
    parse_config_file,
    run_convergence,
    run_epsilon_study,
    run_validate,
    run_value,
)

_DEFAULT_EPS_SCHEDULE = (0.08, 0.04, 0.02, 0.01)


def _add_common(sub):
    sub.add_argument("--config", metavar="PATH", help="flat key = value config file")
    sub.add_argument("--method", action="append", metavar="{mc|sobol|halton|gauss}",
                     help="integration method (repeatable)")
    sub.add_argument("--points", type=int, metavar="M", help="node count")
    sub.add_argument("--jumps", type=int, metavar="n", help="jump-count truncation (d = 2n)")
    sub.add_argument("--replicates", type=int, metavar="R", help="randomised replicates")
    sub.add_argument("--seed", type=int, metavar="S", help="base seed")
    sub.add_argument("--epsilon", action="append", type=float, metavar="E",
                     help="smoothing width; value and convergence use the last one given, "
                          "epsilon-study runs all of them (at least two) as its schedule")
    sub.add_argument("--x0", type=float, help="start value of the surplus")
    sub.add_argument("--out", metavar="PATH", help="output CSV path")
    sub.add_argument("--workers", type=int, help="parallel evaluation workers")
    sub.add_argument("--timings", action="store_true",
                     help="record wall-clock times in the CSV (not reproducible)")


def _build_config(args, cfg: ExperimentConfig = ExperimentConfig()) -> ExperimentConfig:
    if args.config:
        cfg = config_from_mapping(parse_config_file(args.config), cfg)
    updates = {}
    if args.method:
        updates["methods"] = tuple(args.method)
    if args.points is not None:
        updates["m_schedule"] = (args.points,)
    if args.jumps is not None:
        updates["jumps"] = args.jumps
    if args.replicates is not None:
        updates["replicates"] = args.replicates
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.epsilon:
        updates["eps"] = args.epsilon[-1]
    if args.x0 is not None:
        updates["x0"] = args.x0
    if args.out:
        updates["out"] = args.out
    if args.workers is not None:
        updates["workers"] = args.workers
    if args.timings:
        updates["timings"] = True
    cfg = replace(cfg, **updates)
    env_seed = os.environ.get("PDMPVAL_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError as exc:
            raise InputError(f"PDMPVAL_SEED must be an integer, got '{env_seed}'") from exc
        cfg = replace(cfg, seed=seed)
    return cfg


def _cmd_value(args) -> int:
    cfg = _build_config(args, ExperimentConfig(methods=("sobol",), out=""))
    est = run_value(cfg, cfg.methods[0], out=cfg.out or None)
    se = "n/a" if est.std_error is None else f"{est.std_error:.6g}"
    print(f"value={est.value:.10g} std_error={se} bias_bound={est.bias_bound:.6g} "
          f"M={est.M} d={est.d} replicates={est.replicates}")
    return 0


def _cmd_convergence(args) -> int:
    cfg = _build_config(args)
    csv_path, _ = run_convergence(cfg)
    print(f"wrote {csv_path}")
    return 0


def _cmd_epsilon_study(args) -> int:
    cfg = _build_config(args)
    schedule = tuple(args.epsilon) if args.epsilon else _DEFAULT_EPS_SCHEDULE
    csv_path, _, slope, flag = run_epsilon_study(cfg, schedule)
    print(f"wrote {csv_path} (log-log slope {slope:.3f}, {flag})")
    return 0


def _cmd_validate(args) -> int:
    return run_validate()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pdmpval",
        description="Valuation of PDMP cost functionals by smoothed iterated "
                    "integrals and (quasi-)Monte Carlo cubature.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in (
        ("value", _cmd_value),
        ("convergence", _cmd_convergence),
        ("epsilon-study", _cmd_epsilon_study),
    ):
        p = sub.add_parser(name)
        _add_common(p)
        p.set_defaults(handler=handler)
    sub.add_parser("validate").set_defaults(handler=_cmd_validate)  # reads no flags
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (InputError, ModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
