"""Layered benchmark of the pdmpval valuation path.

    python3 bench/run.py --workload deep-qmc --seed 1 --seconds 30 --trace 0

Runs one workload from this process as a closed, sequential loop of library
calls (workers=1), checks every output, and prints one JSON object as the
last line of standard output: the end-to-end metrics with ``--trace 0``, the
per-layer metrics and the tracing overhead with ``--trace 1``.  The package
is imported from ``src/`` of the checkout this file sits in; without it the
benchmark exits non-zero.  bench/README.md describes the workloads, the
metrics and which end-to-end number each layer metric should move.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402  (the set-up clock starts before any import)
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
REFS_PATH = BENCH_DIR / "refs.json"

# The published parameter set (c, rho, b, lambda, alpha, delta, eps) and x0.
PARAMS = dict(c=5.0, rho=0.05, b=3.24289, lam=4.0, alpha=1.0, delta=0.02, eps=0.01)
X0 = 0.0

# Workload sizes.  deep-qmc runs at a quarter of the seed-commit M=16384, so
# that a run holds enough passes for a steady median; the others run at the
# seed-commit scale.
DEEP_QMC = dict(n=32, M=4096, R=4, kinds=("sobol", "halton", "mc"))
EPS_REFINE = dict(n=2, M=16384, R=10, mc_paths=65536, schedule=(0.08, 0.04, 0.02, 0.01))
MC_DEEP = dict(paths=65536, max_jumps=512)
# Fixed check slice: two node chunks and two path chunks, so that workers=2
# really splits the work.  Its golden values live in refs.json.
SLICE = dict(n=8, M=16384, seed=7, mc_paths=16384, mc_jumps=64)

SETUP_SAMPLES = 3      # set-ups per run (this process plus fresh subprocesses)
FALSE_ALARM = 1e-6     # per-check probability that a correct estimate is flagged
GOLDEN_RTOL = 1e-9     # slice values may move by rounding only
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def load_package():
    """Import pdmpval from this checkout's src/, never from an installed copy."""
    if not (SRC / "pdmpval" / "__init__.py").is_file():
        sys.exit(f"bench: no pdmpval package under {SRC}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import pdmpval

    if Path(pdmpval.__file__).resolve().parent != SRC / "pdmpval":
        sys.exit(f"bench: imported pdmpval from {pdmpval.__file__}, not {SRC}")
    pdmpval.cubature.sobol_max_dim()  # parses the shipped direction table
    return pdmpval


@dataclass
class Est:
    """One checked output: value, error bar and the seconds it took."""

    value: float
    std_error: float | None
    seconds: float


@dataclass
class Pass:
    """One execution of a workload's call list."""

    wall_s: float = 0.0
    scale: float = 1.0  # Calibration.REF_S over the mean kernel seconds
    node_stages: int = 0
    node_s: float = 0.0  # calibrated seconds of the estimates
    path_jumps: int = 0
    path_s: float = 0.0  # calibrated seconds of the Monte Carlo runs
    outputs: dict = field(default_factory=dict)   # label -> Est
    failures: list = field(default_factory=list)  # (label, reason)
    checked: int = 0
    kernel_s: list = field(default_factory=list)  # calibrations around and inside the pass
    inside_s: float = 0.0  # wall time of the calibrations inside, left out of wall_s

    def calibrate(self, cal) -> float:
        """Run the calibration kernel between two operations of the pass;
        returns the scale for the operation that follows."""
        t0 = time.perf_counter()
        self.kernel_s.append(cal.seconds())
        self.inside_s += time.perf_counter() - t0
        return cal.REF_S / self.kernel_s[-1]


class Checker:
    """Output checks shared by the workloads."""

    def __init__(self, refs):
        from scipy.stats import t as student_t

        self.refs = refs
        self._t = student_t
        self.cv = PARAMS["c"] / PARAMS["delta"]

    def k(self, dof=math.inf) -> float:
        """Two-sided Student-t multiplier at the false-alarm rate."""
        return float(self._t.isf(FALSE_ALARM / 2.0, dof))

    def near(self, label, est, ref, dof=math.inf):
        """|value - ref| within k standard errors of the pair, for any seed."""
        tol = self.k(dof) * math.hypot(est.std_error or 0.0, ref["std_error"])
        gap = abs(est.value - ref["value"])
        if gap <= tol:
            return None
        return f"{label}: |{est.value:.6g} - {ref['value']:.6g}| > {tol:.3g}"

    def in_range(self, label, est):
        ok = (math.isfinite(est.value) and 0.0 <= est.value <= self.cv
              and est.std_error is not None and math.isfinite(est.std_error))
        return None if ok else f"{label}: {est.value!r} ± {est.std_error!r} outside [0, {self.cv}]"


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def _est(estimate, seconds) -> Est:
    return Est(estimate.value, estimate.std_error, seconds)


class Calibration:
    """A fixed kernel of numpy, scipy-spline and interpreter work that runs
    no pdmpval code.

    On a shared host the speed of the same code drifts by 20-60% over
    minutes.  The kernel runs before and after every pass and between its
    operations; a pass's time is scaled by REF_S over the mean kernel
    seconds, an operation's by REF_S over the kernel seconds just before it:
    seconds at the speed at which the kernel takes REF_S.  That removes most
    of the drift, while any change to pdmpval still shows in full.
    """

    REF_S = 0.08

    def __init__(self):
        import numpy as np
        from scipy.interpolate import CubicHermiteSpline

        x = np.linspace(0.0, 1.0, 10_000)
        self._np = np
        self._spline = CubicHermiteSpline(x, np.sin(x), np.cos(x))
        self._u = np.random.default_rng(0).random(8192)
        self.seconds()  # warm-up

    def seconds(self) -> float:
        np = self._np
        t0 = time.perf_counter()
        a = self._u
        for _ in range(200):
            a = np.exp(-np.log1p(a)) + 1e-3 * self._spline(a)
        acc = 0
        for i in range(500_000):
            acc += i * i % 7
        return time.perf_counter() - t0

    def scale(self) -> float:
        return self.REF_S / self.seconds()


class DeepQmc:
    """estimate_value at n=32 with Sobol', scrambled Halton and MC nodes on a
    model built once in set-up."""

    name = "deep-qmc"
    sizes = DEEP_QMC

    def setup(self, pkg):
        self.model = pkg.loan.SmoothedLoanModel.build(**PARAMS)

    def run(self, pkg, seed, check, cal, p: Pass):
        s = self.sizes
        for i, kind in enumerate(s["kinds"]):
            scale = p.calibrate(cal) if i else cal.REF_S / p.kernel_s[0]
            rule = pkg.CubatureSpec(kind=pkg.RuleKind(kind), M=s["M"], d=2 * s["n"],
                                    seed=seed, replicates=s["R"])
            est, dt = _timed(pkg.operators.estimate_value, X0, s["n"], rule, self.model, workers=1)
            p.node_stages += s["M"] * s["R"] * s["n"]
            p.node_s += dt * scale
            p.outputs[kind] = _est(est, dt)
            # At n=32 the error bars of the current integrand do not hold
            # (heavy-tailed weights), so no reference value can bound these
            # estimates for every seed; the range, the repeat and the golden
            # slice checks cover them and the report prints the gap to the
            # matched-truncation Monte Carlo value.
            p.checked += 1
            if reason := check.in_range(kind, p.outputs[kind]):
                p.failures.append((kind, reason))

    def slice_model(self, pkg):
        return self.model

    def notes(self, refs, outputs):
        truth = refs["deep_qmc_truth"]
        yield (f"n=32 matched-truncation Monte Carlo value {truth['value']:.4f} "
               f"± {truth['std_error']:.4f} (unsmoothed model)")
        for kind in self.sizes["kinds"]:
            e = outputs[kind]
            yield (f"{kind}: {e.value:.6g} ± {e.std_error:.3g}, "
                   f"{(e.value - truth['value']) / e.std_error:+.1f} standard errors from it")


class EpsRefine:
    """run_epsilon_study over four widths at n=2; every width rebuilds the
    flow table and the Monte Carlo budget escalates as shipped."""

    name = "eps-refine"
    sizes = EPS_REFINE

    def setup(self, pkg):
        pass

    def run(self, pkg, seed, check, cal, p: Pass):
        s = self.sizes
        cfg = pkg.ExperimentConfig(**PARAMS, x0=X0, methods=("sobol",), m_schedule=(s["M"],),
                                   jumps=s["n"], replicates=s["R"], seed=seed,
                                   out=str(OUT_DIR / f"eps-{seed}.csv"), mc_paths=s["mc_paths"])
        estimates, references = [], []
        harness = pkg.harness
        inner_est, inner_mc = harness.estimate_value, harness.mc_reference

        def estimate_value(*args, **kwargs):
            scale = p.calibrate(cal)  # each estimate follows a flow-table build
            estimates.append((inner_est(*args, **kwargs), scale))
            return estimates[-1][0]

        def mc_reference(*args, **kwargs):
            scale = p.calibrate(cal)
            references.append((args[2], inner_mc(*args, **kwargs), scale))
            return references[-1][1]

        # The study hands back only its CSV rows; these shims keep the
        # Estimate objects (with the library's own wall_ms) it computes and
        # calibrate between its steps.
        harness.estimate_value, harness.mc_reference = estimate_value, mc_reference
        try:
            harness.run_epsilon_study(cfg, s["schedule"])
        finally:
            harness.estimate_value, harness.mc_reference = inner_est, inner_mc
        refs = check.refs["eps_refine"]
        for eps, (est, scale) in zip(s["schedule"], estimates):
            label = f"sobol.eps={eps}"
            p.outputs[label] = _est(est, est.wall_ms / 1e3)
            p.node_stages += s["M"] * s["R"] * s["n"]
            p.node_s += est.wall_ms / 1e3 * scale
            p.checked += 1
            if reason := check.near(label, p.outputs[label], refs["sobol"][str(eps)], s["R"] - 1):
                p.failures.append((label, reason))
        for paths, ref, scale in references:
            p.path_jumps += paths * s["n"]
            p.path_s += ref.wall_ms / 1e3 * scale
        ref = references[-1][1]
        p.outputs["crude_mc"] = _est(ref, ref.wall_ms / 1e3)
        p.outputs["mc_escalations"] = Est(len(references) - 1, None, 0.0)
        p.checked += 1
        if reason := check.near("crude_mc", p.outputs["crude_mc"], refs["crude_mc"]):
            p.failures.append(("crude_mc", reason))
        # The gaps to the Monte Carlo value must shrink with eps, up to noise:
        # at this budget the study itself flags them noise-dominated, and an
        # observed gap is off its true value by at most the estimate's error
        # plus the Monte Carlo error.
        ests = [e for e, _ in estimates]
        gaps = [abs(e.value - ref.value) for e in ests]
        k = check.k(s["R"] - 1)
        p.checked += 1
        for (g0, e0), (g1, e1) in zip(zip(gaps, ests), zip(gaps[1:], ests[1:])):
            if g1 > g0 + k * (e0.std_error + e1.std_error + 2.0 * ref.std_error):
                p.failures.append(("gaps", f"gaps {gaps} do not decrease with eps"))
                break

    def slice_model(self, pkg):
        return None  # deep-qmc covers the node kinds; a model here would cost a build

    def notes(self, refs, outputs):
        mc = outputs["crude_mc"]
        for eps in self.sizes["schedule"]:
            e = outputs[f"sobol.eps={eps}"]
            yield (f"eps={eps}: {e.value:.6g} ± {e.std_error:.2g}, "
                   f"gap to Monte Carlo {abs(e.value - mc.value):.3g}")
        yield (f"Monte Carlo {mc.value:.6g} ± {mc.std_error:.2g} after "
               f"{outputs['mc_escalations'].value} escalations")


class McDeep:
    """The 512-jump crude Monte Carlo reference alone."""

    name = "mc-deep"
    sizes = MC_DEEP

    def setup(self, pkg):
        pass

    def run(self, pkg, seed, check, cal, p: Pass):
        s = self.sizes
        params = pkg.LoanParams(**PARAMS)
        est, dt = _timed(pkg.mc.mc_reference, params, X0, s["paths"], seed=seed,
                         max_jumps=s["max_jumps"])
        p.path_jumps += s["paths"] * s["max_jumps"]
        p.path_s += dt * cal.REF_S / p.kernel_s[0]
        p.outputs["crude_mc"] = _est(est, dt)
        p.checked += 1
        if reason := check.near("crude_mc", p.outputs["crude_mc"], check.refs["mc_deep"]):
            p.failures.append(("crude_mc", reason))

    def slice_model(self, pkg):
        return None

    def notes(self, refs, outputs):
        e, ref = outputs["crude_mc"], refs["mc_deep"]
        yield (f"512-jump value {e.value:.6g} ± {e.std_error:.2g}, "
               f"reference {ref['value']:.6g} ± {ref['std_error']:.2g}")


WORKLOADS = {w.name: w for w in (DeepQmc, EpsRefine, McDeep)}


def slice_checks(pkg, model, refs):
    """Golden values and worker-count invariance on the fixed check slice.

    Returns (attempted, failures).  With a model, each node kind runs with
    workers=1 and workers=2 and both must equal each other bit for bit and
    the stored value to rounding; the crude Monte Carlo slice always runs.
    """
    golden = refs["golden"]
    failures = []
    attempted = 0

    def compare(label, value, ref):
        if not abs(value - ref) <= GOLDEN_RTOL * abs(ref):
            failures.append((label, f"golden slice {value!r} != {ref!r}"))

    if model is not None:
        for kind in DEEP_QMC["kinds"]:
            rule = pkg.CubatureSpec(kind=pkg.RuleKind(kind), M=SLICE["M"], d=2 * SLICE["n"],
                                    seed=SLICE["seed"], replicates=1)
            one, two = (pkg.operators.estimate_value(X0, SLICE["n"], rule, model, workers=w).value
                        for w in (1, 2))
            attempted += 1
            if one != two:
                failures.append((f"slice.{kind}", f"workers=1 gives {one!r}, workers=2 {two!r}"))
            compare(f"slice.{kind}", one, golden[kind])
    ref = pkg.mc.mc_reference(pkg.LoanParams(**PARAMS), X0, SLICE["mc_paths"],
                              seed=SLICE["seed"], max_jumps=SLICE["mc_jumps"])
    attempted += 1
    compare("slice.crude_mc", ref.value, golden["crude_mc"])
    return attempted, failures


def machine() -> dict:
    import numpy
    import scipy

    llc = None  # size of the highest cache level of cpu0, as the kernel reports it
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        levels = [(int((d / "level").read_text()), (d / "size").read_text().strip())
                  for d in caches.glob("index*")]
        llc = max(levels)[1] if levels else None
    except (OSError, ValueError):
        pass
    return {"nproc": len(os.sched_getaffinity(0)),
            "cpu": platform.processor() or platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "llc": llc,
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def setup_samples(workload, seed, first):
    """(set-up seconds, calibration scale) of this process and of fresh
    subprocesses."""
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True)
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append((out["setup_s"], out["scale"]))
    return samples


def high_percentile(samples):
    """The highest of p50..p99 with at least ten samples beyond it, or None."""
    n = len(samples)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(samples, n=100)[p - 1]
    return None


def run_passes(work, pkg, seed, check, cal, seconds, prior, tracer=None):
    """Repeat the workload's call list, calibrating between passes, while
    another pass as long as the last one still fits in ``seconds`` (at least
    once).  Every repeat must reproduce the first pass bit for bit."""
    passes = []
    deadline = time.perf_counter() + seconds
    before = cal.seconds()
    last = 0.0
    while not passes or time.perf_counter() + last <= deadline:
        if tracer is not None:
            tracer.run_id = f"pass{len(passes)}"
        p = Pass(kernel_s=[before])
        t0 = time.perf_counter()
        try:
            work.run(pkg, seed, check, cal, p)
        except Exception:
            traceback.print_exc()
            p.checked = max(p.checked, 1)
            p.failures.append(("pass", "raised"))
        p.wall_s = time.perf_counter() - t0 - p.inside_s
        before = cal.seconds()
        last = time.perf_counter() - t0
        p.kernel_s.append(before)
        p.scale = cal.REF_S / statistics.mean(p.kernel_s)
        for label, est in p.outputs.items():
            first = prior.setdefault(label, est)
            if (est.value, est.std_error) != (first.value, first.std_error):
                p.failures.append((label, "differs from the first pass"))
        passes.append(p)
    return passes


def summarize(passes):
    """End-to-end figures over a list of passes."""
    def med(xs):
        return statistics.median(xs) if xs else None

    out = {"run_s": med([p.wall_s * p.scale for p in passes]),
           "run_wall_s": med([p.wall_s for p in passes])}
    out["sample_stages_per_s"] = med([(p.node_stages + p.path_jumps) / (p.node_s + p.path_s)
                                      for p in passes if p.node_s + p.path_s > 0])
    out["node_stages_per_s"] = med([p.node_stages / p.node_s for p in passes if p.node_s > 0])
    out["path_jumps_per_s"] = med([p.path_jumps / p.path_s for p in passes if p.path_s > 0])
    var_x_s = {}
    for label in passes[0].outputs:
        vals = [(p.outputs[label], p.scale) for p in passes if label in p.outputs]
        if vals[0][0].std_error is not None:
            var_x_s[label] = med([e.std_error ** 2 * e.seconds * s for e, s in vals])
    out["var_x_s"] = var_x_s
    return out


def var_by_kind(var_x_s):
    """var_x_s per node kind: the median over that kind's estimates."""
    out = {}
    for kind in ("sobol", "halton", "mc", "crude_mc"):
        vals = [v for label, v in var_x_s.items() if label == kind or label.startswith(kind + ".")]
        out[kind] = statistics.median(vals) if vals else 0.0
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")

    pkg = load_package()
    import tracing

    work = WORKLOADS[args.workload]()
    tracer = saved = None
    if args.trace:
        tracer = tracing.Tracer()
        saved = tracing.install(tracer)
    work.setup(pkg)
    setup_s = time.perf_counter() - T_START
    cal = Calibration()
    setup_scale = cal.scale()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "scale": setup_scale}))
        return 0

    if args.trace:
        tracing.uninstall(saved)  # set-up was traced; the first passes are not
    refs = json.loads(REFS_PATH.read_text())
    check = Checker(refs)
    OUT_DIR.mkdir(exist_ok=True)
    prior = {}
    plain = run_passes(work, pkg, args.seed, check, cal, args.seconds / (2 if args.trace else 1),
                       prior)
    traced = []
    if args.trace:
        # untraced passes first, then traced ones: the difference of their
        # medians is the tracing overhead
        saved = tracing.install(tracer)
        traced = run_passes(work, pkg, args.seed, check, cal, args.seconds / 2, prior, tracer)
        tracing.uninstall(saved)
    else:
        setups = setup_samples(args.workload, args.seed, (setup_s, setup_scale))

    all_passes = plain + traced
    attempted = sum(p.checked for p in all_passes)
    failures = [f for p in all_passes for f in p.failures]
    n_slice, slice_failures = slice_checks(pkg, work.slice_model(pkg), refs)
    attempted += n_slice
    failures += slice_failures
    failed = len({(i, f[0]) for i, p in enumerate(all_passes) for f in p.failures}) \
        + len({f[0] for f in slice_failures})
    summary = summarize(plain)
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "machine": machine(), "params": PARAMS, "x0": X0,
            "sizes": work.sizes, "slice": SLICE}
    for key, value in info.items():
        print(f"# {key}: {json.dumps(value)}")
    if plain[0].outputs:
        try:
            for line in work.notes(refs, plain[0].outputs):
                print(f"# {args.workload} {line}")
        except KeyError:  # a pass that raised left outputs missing
            pass
    for label, reason in failures:
        print(f"# FAILED {label}: {reason}")
    var_x_s = var_by_kind(summary["var_x_s"])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        layer = tracing.layer_metrics(tracer, len(traced))
        layer["trace.overhead_s"] = (statistics.median(p.wall_s * p.scale for p in traced)
                                     - summary["run_s"])
        layer["trace.overhead_share"] = layer["trace.overhead_s"] / summary["run_s"]
        for kind, v in var_x_s.items():
            layer[f"var_x_s.{kind}"] = v
        tracer.write(OUT_DIR / f"spans-{args.workload}-{args.seed}.json")
        metrics = {n: {"value": layer[n], "unit": u} for n, u in PER_LAYER_UNITS.items()}
        for name, m in metrics.items():
            print(f"layer {name} = {m['value']:.6g} {m['unit']}")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(s * k for s, k in setups), "unit": "s"},
            "run_s": {"value": summary["run_s"], "unit": "s"},
            "sample_stages_per_s": {"value": summary["sample_stages_per_s"], "unit": "1/s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
        report_end_to_end(summary, setups, var_x_s, rss_mb, attempted, failed, plain)
    passes = [{"wall_s": p.wall_s, "scale": p.scale, "kernel_s": p.kernel_s,
               "outputs": {k: vars(e) for k, e in p.outputs.items()}} for p in all_passes]
    report = dict(info, attempted=attempted, failed=failed, metrics=metrics, passes=passes)
    (OUT_DIR / f"report-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


PER_LAYER_UNITS = {
    "flow.build_s": "s", "flow.grid_nodes": "count", "smoothing.drift_calls": "count",
    "smoothing.drift_pts_per_call": "count", "smoothing.drift_s": "s",
    "model.validate_s": "s", "loan.build_s": "s",
    "flow.time_of_us_per_pt": "us", "flow.pos_at_us_per_pt": "us",
    "flow.reward_us_per_pt": "us", "flow.lookup_share": "ratio",
    "cubature.col_ns_per_node_dim.sobol": "ns", "cubature.col_ns_per_node_dim.halton": "ns",
    "cubature.col_ns_per_node_dim.mc": "ns", "cubature.share": "ratio",
    "operators.us_per_node_stage": "us", "operators.self_us_per_node_stage": "us",
    "operators.chunks": "count", "mc.ns_per_path_jump": "ns",
    "mc.live_path_jump_ratio": "ratio", "mc.paths": "count",
    "harness.self_s": "s", "harness.mc_escalations": "count",
    "trace.overhead_s": "s", "trace.overhead_share": "ratio",
    "var_x_s.sobol": "val2.s", "var_x_s.halton": "val2.s", "var_x_s.mc": "val2.s",
    "var_x_s.crude_mc": "val2.s",
}


def report_end_to_end(summary, setups, var_x_s, rss_mb, attempted, failed, plain):
    """Every end-to-end metric the benchmark names, by name and unit."""
    def line(name, value, unit, extra=""):
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"metric {name} = {shown} {unit}{extra}")

    runs = [p.wall_s * p.scale for p in plain]
    tail = high_percentile(runs)
    tail_txt = f", p{tail[0]} {tail[1]:.6g}" if tail else ", no percentile with 10 samples beyond"
    line("setup_s", statistics.median(s * k for s, k in setups), "s",
         f" (median of {len(setups)}; raw wall {statistics.median(s for s, _ in setups):.6g} s)")
    line("run_s", summary["run_s"], "s", f" (median of {len(runs)} passes{tail_txt}; "
         f"raw wall {summary['run_wall_s']:.6g} s)")
    line("calibration_scale", statistics.median(p.scale for p in plain), "ratio",
         f" (times above are raw wall times multiplied by this, pass by pass)")
    line("sample_stages_per_s", summary["sample_stages_per_s"], "1/s")
    line("node_stages_per_s", summary["node_stages_per_s"], "1/s")
    line("path_jumps_per_s", summary["path_jumps_per_s"], "1/s")
    for kind, v in var_x_s.items():
        line(f"var_x_s.{kind}", v or None, "val2.s")
    line("peak_rss_mb", rss_mb, "MB")
    line("failed_ops", failed / attempted, "share", f" ({failed} of {attempted})")


if __name__ == "__main__":
    sys.exit(main())
