"""Experiment orchestration: convergence studies over node counts, the
epsilon-refinement study against the crude Monte Carlo reference, and a
self-contained validation battery.

All emitted CSV data is a pure function of (config, seed): replicate
randomisation is seeded, reductions are chunk-ordered, and the wall_ms
column is zero unless timings are explicitly requested (measured wall time
is inherently irreproducible and would break the byte-identity contract).
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, replace
from functools import partial
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import cubature, smoothing
from .cubature import CubatureSpec, RuleKind
from .errors import InputError, ModelError, require_int
from .loan import LoanParams, SmoothedLoanModel
from .mc import MCResume, mc_reference
from .operators import Estimate, _integrand_batch, estimate_value

__all__ = ["ExperimentConfig", "CSV_HEADER", "EPS_CSV_HEADER", "parse_config_file",
           "run_value", "run_convergence", "run_epsilon_study", "run_validate"]

CSV_HEADER = "method,M,d,replicates,mean,std_error,bias_bound,seed,wall_ms"
EPS_CSV_HEADER = "kind,epsilon,mean,std_error,mc_mean,mc_std_error,abs_diff,flag"

_METHODS = sorted(k.value for k in RuleKind)  # a RuleKind's value is its method name

_DESK_SCHEDULE = tuple(50 * 2 ** j for j in range(1, 11))


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameter block of one experiment run (defaults: desk-scale study of
    the published parameter set, the defaults of LoanParams, from x0=0)."""

    c: float = LoanParams.c
    rho: float = LoanParams.rho
    b: float = LoanParams.b
    lam: float = LoanParams.lam
    alpha: float = LoanParams.alpha
    delta: float = LoanParams.delta
    eps: float = LoanParams.eps
    x0: float = 0.0
    methods: tuple = ("mc", "sobol")
    m_schedule: tuple = _DESK_SCHEDULE
    jumps: int = 32
    replicates: int = 20
    seed: int = 0
    out: str = "pdmpval.csv"
    mc_paths: int = 100_000
    workers: int = 1
    timings: bool = False

    def __post_init__(self):
        if not self.m_schedule:
            raise InputError("the node-count schedule must be nonempty")
        for m in self.m_schedule:
            require_int("node count", m, 1)
        if any(b <= a for a, b in zip(self.m_schedule, self.m_schedule[1:])):
            raise InputError("the node-count schedule must be strictly increasing")
        if not self.methods:
            raise InputError(f"the method list must be nonempty; choose from {_METHODS}")
        unknown = [m for m in self.methods if m not in _METHODS]
        if unknown:
            raise InputError(f"unknown methods {unknown}; choose from {_METHODS}")
        repeated = sorted({m for m in self.methods if self.methods.count(m) > 1})
        if repeated:
            raise InputError(f"methods {repeated} given more than once; each runs once")
        if not math.isfinite(self.x0):
            raise InputError(f"start value x0 must be finite, got {self.x0}")
        # the ruin level, where valid rates give one (LoanParams reports bad ones);
        # x0 above the barrier stays: value and convergence price it as a lump
        # sum (estimate_value); the epsilon study refuses it
        if all(math.isfinite(v) and v > 0.0 for v in (self.c, self.rho)):
            ruin = -self.c / self.rho
            if not self.x0 > ruin:
                raise InputError(f"start value x0 = {self.x0} must lie above the ruin "
                                 f"level -c/rho = {ruin}")
        require_int("jumps", self.jumps, 1)
        # the Monte Carlo reference needs two paths for an error bar
        require_int("mc_paths", self.mc_paths, 2)
        # the randomized rules need two replicates for an error bar; Gauss runs one
        randomized = any(RuleKind(m) is not RuleKind.GAUSS_PRODUCT for m in self.methods)
        require_int("replicates", self.replicates, 2 if randomized else 1)
        require_int("seed", self.seed, 0)
        require_int("workers", self.workers, 1)

    def loan_params(self) -> LoanParams:
        return LoanParams(c=self.c, rho=self.rho, b=self.b, lam=self.lam,
                          alpha=self.alpha, delta=self.delta, eps=self.eps)


def parse_config_file(path) -> dict:
    """Flat `key = value` file; '#' starts a comment, lists are comma separated.

    A key may be set once: a repeated key is an InputError naming both lines.
    """
    out, first_line = {}, {}
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (s.strip() for s in line.split("=", 1))
        if key in first_line:
            raise InputError(f"{path}:{lineno}: config key '{key}' is already set "
                             f"on line {first_line[key]}")
        out[key], first_line[key] = value, lineno
    return out


def config_from_mapping(raw: dict, base: Optional[ExperimentConfig] = None) -> ExperimentConfig:
    """Apply string key/value pairs (config-file keys, see ``_CONFIG_KEYS``) onto a config."""
    updates = {}
    for key, value in raw.items():
        if key not in _CONFIG_KEYS:
            raise InputError(f"unknown config key '{key}'")
        field, parse = _CONFIG_KEYS[key]
        updates[field] = parse(key, value)
    return replace(base if base is not None else ExperimentConfig(), **updates)


def _parse(key: str, value: str, kind: type):
    """Convert one config value, reporting a malformed one as InputError."""
    try:
        return kind(value)
    except ValueError as exc:
        raise InputError(f"config key '{key}': expected {kind.__name__}, got '{value}'") from exc


_FLOAT, _INT = partial(_parse, kind=float), partial(_parse, kind=int)


def _list(key: str, value: str, parse=lambda key, entry: entry) -> tuple:
    """A comma-separated value: its entries, stripped and parsed.  An empty
    entry is refused, but a value with no entry at all is the empty tuple,
    which the config refuses in its own words."""
    entries = [entry.strip() for entry in value.split(",")]
    if any(entries) and not all(entries):
        raise InputError(f"config key '{key}': empty entry in '{value}'")
    return tuple(parse(key, entry) for entry in entries if entry)


def _path(key: str, value: str) -> str:
    """A path value; an empty one is refused, as the empty ``--out`` flag is."""
    if not value:
        raise InputError(f"config key '{key}' must name a path, got an empty one")
    return value


# config-file key -> (the ExperimentConfig field it sets, parser of its string
# value); every field but ``timings``, a command-line flag only, has a key
_CONFIG_KEYS = {
    **{key: (key, _FLOAT) for key in ("c", "rho", "b", "alpha", "delta", "x0")},
    "lambda": ("lam", _FLOAT),
    "epsilon": ("eps", _FLOAT),
    "methods": ("methods", _list),
    "m_schedule": ("m_schedule", partial(_list, parse=_INT)),
    **{key: (key, _INT) for key in ("jumps", "replicates", "seed", "mc_paths", "workers")},
    "out": ("out", _path),
}


def _fmt(x) -> str:
    if x is None:
        return ""
    return f"{x:.17g}"


def _estimate_row(method: str, est: Estimate, seed: int, timings: bool) -> str:
    wall = int(est.wall_ms) if timings else 0
    return ",".join([
        method, str(est.M), str(est.d), str(est.replicates),
        _fmt(est.value), _fmt(est.std_error), _fmt(est.bias_bound), str(seed), str(wall),
    ])


def _check_out(path) -> None:
    """Make the directory of the output ``path`` and check that the file can
    be written there, so that a bad ``--out`` fails before any build."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc
    if path.is_dir():
        raise InputError(f"cannot write {path}: it is a directory")
    if not os.access(path.parent, os.W_OK):
        raise InputError(f"cannot write {path}: its directory is not writable")


def _csv_path(config: ExperimentConfig, command: str) -> Path:
    """config.out for a subcommand that always writes its CSV; an empty one,
    which ``run_value`` reads as "no CSV", is refused before any build."""
    if not config.out:
        raise InputError(f"{command} writes a CSV: 'out' must name a path, got an empty one")
    return Path(config.out)


def _write_lines(path, lines) -> None:
    path = Path(path)
    try:
        path.write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _estimates(configs: Sequence[ExperimentConfig], methods, m_nodes, out="", also=()):
    """The run plan of value, convergence and the epsilon study: for each
    config (the study's smoothing widths, which differ in eps only; one
    otherwise) one model, and on it one estimate of each method at each
    node count, in that order.

    Every rule is formed (a rule that cannot be formed, or a Gauss rule over
    budget, is an InputError), and ``out`` and the paths in ``also`` (which
    the caller writes afterwards) made and checked writable, before the
    first build.  ``estimate_value`` prices a start above the barrier as a
    lump sum.  Writes the CSV rows to ``out`` unless it is empty, and
    returns them with the [(method, Estimate)] pairs.
    """
    config = configs[0]
    rules = [(method, CubatureSpec(kind=method, M=m, d=2 * config.jumps, seed=config.seed,
                                   replicates=config.replicates))
             for method in methods for m in m_nodes]
    for path in filter(None, (out, *also)):
        _check_out(path)
    runs = []
    for config in configs:
        model = SmoothedLoanModel.build(**asdict(config.loan_params()))
        runs += [(method, estimate_value(config.x0, config.jumps, rule, model,
                                         workers=config.workers)) for method, rule in rules]
    rows = [CSV_HEADER, *(_estimate_row(method, est, config.seed, config.timings)
                          for method, est in runs)]
    if out:
        _write_lines(out, rows)
    return rows, runs


def run_value(config: ExperimentConfig) -> Estimate:
    """One valuation of the first method at the schedule's largest node
    count; writes the one-row CSV to config.out unless it is empty."""
    _, [(_, est)] = _estimates([config], config.methods[:1], config.m_schedule[-1:], config.out)
    return est


def run_convergence(config: ExperimentConfig):
    """Estimate the value for every (method, M) of the schedule.

    Writes the CSV at config.out plus one two-column `M std_error` plot-data file
    per method (same stem, `_<method>.dat` suffix) for log-log plots; all
    are checked writable before the build.  Returns (csv_path, rows).
    """
    csv_path = _csv_path(config, "convergence")
    dats = {method: csv_path.parent / f"{csv_path.stem}_{method}.dat" for method in config.methods}
    rows, runs = _estimates([config], config.methods, config.m_schedule, csv_path, dats.values())
    for method, dat in dats.items():
        _write_lines(dat, [f"{est.M} {_fmt(est.std_error)}" for m, est in runs if m == method])
    return csv_path, rows


def _fit_loglog_slope(xs, ys) -> float:
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.maximum(np.asarray(ys, dtype=float), 1e-300))
    slope, _ = np.polyfit(lx, ly, 1)
    return float(slope)


def run_epsilon_study(config: ExperimentConfig, eps_schedule: Sequence[float]):
    """Smoothing-width refinement against the unsmoothed Monte Carlo reference.

    Both sides are truncated at the same jump count (config.jumps), so the
    gaps isolate the smoothing effect.  The Monte Carlo budget is escalated
    (x4, twice) when the combined statistical error exceeds 20% of the
    smallest gap; each escalation resumes from the full path chunks already
    simulated (:class:`MCResume`), so it draws only the new paths.  If
    control still fails the slope row is flagged noise-dominated.  The slope
    needs at least two widths, and the reference starts at or below the
    barrier, so a shorter schedule and a start above the barrier are refused
    before any build, as are a Sobol' rule that cannot be formed and a CSV
    path that cannot be written.  Returns
    (csv_path, rows, slope, flag).
    """
    eps_schedule = list(eps_schedule)
    if len(eps_schedule) < 2:
        raise InputError(f"epsilon schedule must hold at least two widths, got {eps_schedule}")
    if any(b >= a for a, b in zip(eps_schedule, eps_schedule[1:])):
        raise InputError("epsilon schedule must be strictly decreasing")
    widths = [replace(config, eps=eps) for eps in eps_schedule]
    # every width is checked before any build; the unsmoothed reference,
    # which ignores eps, takes the last
    params = [width.loan_params() for width in widths][-1]
    require_int("replicates", config.replicates, 2)  # Sobol' error bars, whatever the methods
    if config.x0 > config.b:
        raise InputError(f"start value x0 = {config.x0} lies above the barrier b = {config.b}; "
                         "the epsilon study's Monte Carlo reference starts at or below it")

    csv_path = _csv_path(config, "epsilon-study")
    _, runs = _estimates(widths, ("sobol",), config.m_schedule[-1:], also=(csv_path,))
    estimates = [est for _, est in runs]

    mc_paths = config.mc_paths
    resume = MCResume(params, config.x0, seed=config.seed, max_jumps=config.jumps)
    for attempt in range(3):
        if attempt:
            mc_paths *= 4
        ref = mc_reference(params, config.x0, mc_paths, seed=config.seed, max_jumps=config.jumps,
                           resume=resume)
        gaps = [abs(e.value - ref.value) for e in estimates]
        noisy = max(e.std_error + ref.std_error for e in estimates) >= 0.2 * min(gaps)
        if not noisy:
            break
    slope = _fit_loglog_slope(eps_schedule, gaps)
    flag = "noise-dominated" if noisy else "ok"

    rows = [EPS_CSV_HEADER]
    for eps, est in zip(eps_schedule, estimates):
        rows.append(",".join([
            "value", _fmt(eps), _fmt(est.value), _fmt(est.std_error),
            _fmt(ref.value), _fmt(ref.std_error), _fmt(abs(est.value - ref.value)), "",
        ]))
    rows.append(",".join(["slope", "", _fmt(slope), "", "", "", "", flag]))
    _write_lines(csv_path, rows)
    return csv_path, rows, slope, flag


# --- validation battery ---------------------------------------------------------


def _naive_truncated_integrand(coords, x0, model, n) -> float:
    """Term-by-term re-evaluation of the truncated sum (no shared single pass).

    Every term recomputes its own state recursion, following the substituted
    integrand literally: term i carries lam^i, the inter-jump factors
    v_j^(lam+delta-1) f_Y(y_j) (chi_j- + c/rho) for j < i, with the claim
    density f_Y(y) = alpha exp(-alpha y) written out, and the final factor
    v_i^(lam-1) L(-ln v_i, chi_{i-1}).  Each flow is read through
    ``start``/``stage``.
    """
    p = model.params
    table = model.table
    total = 0.0
    for i in range(1, n + 1):
        chi = float(x0)
        weight = 1.0
        for j in range(1, i):
            v = max(float(coords[2 * (j - 1)]), 1e-300)
            chi_pre = float(table.stage(*table.start(chi), -math.log(v), position=True)[1])
            span = chi_pre - p.ruin_level
            z = float(coords[2 * (j - 1) + 1])
            yj = z * span
            weight *= p.lam * v ** (p.lam + p.delta - 1.0) \
                * (p.alpha * float(np.exp(-p.alpha * yj))) * span
            chi = chi_pre - yj
        v_i = max(float(coords[2 * (i - 1)]), 1e-300)
        total += weight * p.lam * v_i ** (p.lam - 1.0) \
            * float(table.stage(*table.start(chi), -math.log(v_i)))
    return total


@dataclass
class CheckResult:
    name: str
    measured: float
    tolerance: float
    error: str = ""  # why the check could not be made; it then fails

    @property
    def passed(self) -> bool:
        return not self.error and self.measured <= self.tolerance


def run_validate() -> int:
    """Execute the cross-module invariant suite and print one line per check.

    Each check reduces to a nonnegative defect compared against a tolerance;
    nonzero exit when any check fails.  The checks that need no built model
    run first.  A model build that fails is one failed check carrying its
    error, and the checks that need the model are then skipped.
    """
    h = smoothing.heaviside
    results = []

    def check(name: str, measured: float, tolerance: float) -> None:
        results.append(CheckResult(name, float(measured), float(tolerance)))

    # Heaviside identities
    grid = np.linspace(-2.0, 2.0, 1001)
    vals = h(grid)
    check("heaviside endpoint/half values",
          max(abs(h(-1.0)), abs(h(1.0) - 1.0), abs(h(0.0) - 0.5),
              abs(h(0.5) - 459.0 / 512.0)), 1e-15)
    check("heaviside symmetry", float(np.max(np.abs(h(grid) + h(-grid) - 1.0))), 1e-15)
    check("heaviside monotone", float(max(0.0, -np.min(np.diff(vals)))), 0.0)
    fd = 1e-4
    junction = 0.0
    for x in (-1.0, 1.0):
        d_in = (h(x) - h(x - np.sign(x) * fd)) / (np.sign(x) * fd)
        d_out = (h(x + np.sign(x) * fd) - h(x)) / (np.sign(x) * fd)
        junction = max(junction, abs(d_in - d_out))
    check("heaviside C2 junction", junction, 1e-6)

    # loan drift: band equality and knot smoothness
    published = LoanParams()
    c, rho, b, eps = published.c, published.rho, published.b, published.eps
    g = smoothing.loan_drift(c, rho, b, eps)
    ys = np.concatenate([np.linspace(-c / rho + 1e-6, -eps - 1e-9, 300),
                         np.linspace(eps + 1e-9, b - eps, 300)])
    check("smoothed drift equals unsmoothed outside bands",
          float(np.max(np.abs(g(ys) - smoothing.unsmoothed_drift_loan(ys, c, rho, b)))), 0.0)
    check("smoothed drift nonnegative",
          float(max(0.0, -np.min(g(np.linspace(-c / rho + 1e-9, b + 1.0, 4001))))), 0.0)
    knot_defect = 0.0
    for knot in (-eps, eps, b - eps, b):
        for order, hstep in ((1, eps / 320.0), (2, eps * 7e-5)):
            left = _one_sided_derivative(g, knot, hstep, order, -1)
            right = _one_sided_derivative(g, knot, hstep, order, +1)
            scale = max(abs(left), abs(right), c / eps if order == 1 else c / eps ** 2)
            knot_defect = max(knot_defect, abs(left - right) / scale)
    check("smoothed drift C2 across knots (rel)", knot_defect, 1e-5)

    # kernel smoothing bound on an analytic two-branch mixture
    spec = smoothing.JumpKernelSpec(
        branches=(
            smoothing.KernelBranch(prob=0.6, transform=lambda u, y: -math.log1p(-u) / 1.0),
            smoothing.KernelBranch(prob=0.4, transform=lambda u, y: -math.log1p(-u) / 0.5),
        ),
        eps=0.05,
    )
    exact = 0.6 * (1.0 / 2.0) + 0.4 * (0.5 / 1.5)
    approx = smoothing.smoothed_kernel_integrate(lambda y: math.exp(-y), 0.0, spec)
    bound = 5.0 / 8.0 * spec.eps * 2 * 1.0
    check("kernel smoothing bound (ratio to 5/8*eps*n)", abs(approx - exact) / bound, 1.0)
    u0s = np.linspace(0.05, 0.95, 257)  # partition holds away from the domain ends
    wsum = sum(smoothing.smoothed_branch_weight(u0s, j, [0.0, 0.5, 1.0], 0.05)
               for j in (1, 2))
    check("branch weights partition of unity", float(np.max(np.abs(wsum - 1.0))), 1e-12)

    # cubature primitives
    nodes, wts = cubature.gauss_legendre(2)
    check("gauss m=2 integrates x^3", abs(float(np.dot(wts, nodes ** 3)) - 0.25), 1e-15)
    check("gauss weights sum to 1", abs(float(np.sum(cubature.gauss_legendre(16)[1])) - 1.0), 1e-14)
    sob = cubature.sobol_column(1, 1, 5)
    check("sobol initial segment", float(np.max(np.abs(sob - [0.5, 0.25, 0.75, 0.125]))), 0.0)
    dstar_ratio = 0.0
    for k in (4, 6, 8, 10):
        d1 = cubature.star_discrepancy_1d(cubature.sobol_column(1, 1, 2 ** k + 1))
        dstar_ratio = max(dstar_ratio, d1 / 2.0 ** (1 - k))
    check("sobol 1-d prefix discrepancy (ratio to 2^(1-k))", dstar_ratio, 1.0)
    hal = [cubature.halton_column(dim, 1, 5) for dim in (1, 2)]
    check("halton initial segment",
          max(float(np.max(np.abs(hal[0] - [0.5, 0.25, 0.75, 0.125]))),
              abs(hal[1][0] - 1.0 / 3.0)), 1e-15)
    plain = cubature.star_discrepancy_1d(cubature.halton_column(2, 1, 28))
    scr = cubature.star_discrepancy_1d(cubature.halton_column(2, 1, 28, seed=7))
    check("halton scrambling keeps base-3 prefix discrepancy", abs(plain - scr), 1e-12)
    a1 = cubature.mc_chunk(0, 64, 3, 5)
    a2 = cubature.mc_chunk(0, 64, 3, 5)
    check("mc determinism", float(np.max(np.abs(a1 - a2))), 0.0)
    check("cp shift identity/wrap",
          max(float(np.max(np.abs(cubature.cranley_patterson_shift(a1, shift=np.zeros(3)) - a1))),
              abs(float(cubature.cranley_patterson_shift(np.array([[0.75]]), shift=[0.5])[0, 0]) - 0.25)),
          1e-15)

    # bounds and input checks
    check("bias bound decreasing",
          float(max(0.0, np.max(np.diff([published.bias_bound(k) for k in range(0, 40)])))),
          0.0)
    try:
        CubatureSpec(kind=RuleKind.SOBOL, M=0, d=4)
        check("empty rule rejected", 1.0, 0.0)
    except InputError:
        check("empty rule rejected", 0.0, 0.0)

    try:
        model = SmoothedLoanModel.build()
    except (InputError, ModelError) as exc:
        results.append(CheckResult("model build", math.nan, 0.0, error=str(exc)))
        return _report(results, skipped="the flow, operator and estimate checks: "
                                        "they need the built model")
    table = model.table
    flow = lambda y, t: table.stage(*table.start(y), t, position=True)[1]

    # flow table against the linear-drift closed form and the semigroup law
    rng = np.random.default_rng(20260810)
    y_lin = rng.uniform(-c / rho * 0.9, -1.0, 60)
    t_lin = rng.uniform(0.0, 5.0, 60)
    closed = np.minimum((y_lin + c / rho) * np.exp(rho * t_lin) - c / rho, -eps)
    moved = flow(y_lin, t_lin)
    mask = moved < -eps - 1e-6  # compare strictly inside the linear region
    check("flow matches linear-drift closed form",
          float(np.max(np.abs(moved[mask] - closed[mask]))), 1e-8)
    y_s = rng.uniform(-50.0, b - 0.1, 100)
    s_s = rng.uniform(0.0, 30.0, 100)
    t_s = rng.uniform(0.0, 30.0, 100)
    semi = np.abs(flow(flow(y_s, s_s), t_s) - flow(y_s, s_s + t_s))
    check("flow semigroup", float(np.max(semi)), 1e-9)
    horizons = np.array([0.0, 0.5, 1.0, 2.0, 5.0, 50.0, np.inf])
    lvals = np.stack([table.stage(*table.start(np.full(horizons.shape, y)), horizons)
                      for y in (-1.0, 0.0, b - 0.05, b)])
    check("reward integral monotone in horizon",
          float(max(0.0, -np.min(np.diff(lvals, axis=1)))), 1e-12)
    check("reward integral bounded by c/delta",
          float(max(0.0, np.max(lvals) - published.value_bound)), 1e-9)

    # operators: single pass vs naive terms, Gauss vs adaptive quadrature
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(25):
        coords = rng.uniform(0.05, 0.95, size=6)
        single = float(_integrand_batch(model, 0.0, 3, lambda d: coords[d:d + 1])[0])
        naive = _naive_truncated_integrand(coords, 0.0, model, 3)
        worst = max(worst, abs(single - naive) / max(abs(naive), 1e-12))
    check("single-pass equals per-term evaluation (rel)", worst, 1e-12)
    from scipy.integrate import quad
    lam = model.params.lam
    # machinery check at the barrier start, where the substituted integrand is
    # smooth and the 32-point rule is effectively exact; from x0=0 the reward
    # onset kink caps the Gauss truncation error near 1e-3 regardless of the
    # implementation, so that start value cannot separate machinery bugs
    # from rule truncation
    at_b = table.start(b)
    quad_val, _ = quad(lambda v: lam * v ** (lam - 1.0) * float(table.stage(*at_b, -math.log(v))),
                       0.0, 1.0, limit=200)
    rule = CubatureSpec(kind=RuleKind.GAUSS_PRODUCT, M=32, d=2, seed=0)
    gauss_val = estimate_value(b, 1, rule, model).value
    check("n=1 Gauss vs adaptive quadrature", abs(gauss_val - quad_val), 1e-6)

    # the estimate within its value bound
    est = estimate_value(0.0, 2, CubatureSpec(kind=RuleKind.SOBOL, M=512, d=4, seed=1,
                                              replicates=4), model)
    check("estimate within [0, C_V]",
          float(max(0.0, -est.value, est.value - published.value_bound)), 0.0)
    return _report(results)


def _report(results, skipped: str = "") -> int:
    """Print one line per check (and what was skipped); 1 if any check failed."""
    failures = [r for r in results if not r.passed]
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        detail = (f"error: {r.error}" if r.error
                  else f"measured={r.measured:.3e}  tol={r.tolerance:.3e}")
        print(f"{status}  {r.name:<{width}}  {detail}")
    if skipped:
        print(f"skipped {skipped}")
    print(f"{len(results) - len(failures)}/{len(results)} checks passed")
    return 1 if failures else 0


def _one_sided_derivative(f, x, h, order, side):
    """Third-order one-sided first derivative / second-order second derivative."""
    s = float(side)
    xs = x + s * h * np.arange(4)
    v = np.asarray([float(f(xi)) for xi in xs])
    if order == 1:
        return s * (-11.0 * v[0] + 18.0 * v[1] - 9.0 * v[2] + 2.0 * v[3]) / (6.0 * h)
    return (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / (h * h)
