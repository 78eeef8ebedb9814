"""Valuation engine for cost functionals of piecewise deterministic Markov
processes: smoothed iterated-integral representation evaluated by Sobol',
scrambled Halton, Gauss product and Monte Carlo cubature, with a crude
Monte Carlo reference simulator."""

from .cubature import (
    CubatureSpec,
    RuleKind,
    cranley_patterson_shift,
    gauss_legendre,
    halton_scrambled_points,
    mc_points,
    sobol_points,
    star_discrepancy_1d,
    star_discrepancy_bruteforce,
)
from .errors import InputError, ModelError
from .flow import FlowTable, build_flow_table
from .harness import (
    ExperimentConfig,
    run_convergence,
    run_epsilon_study,
    run_validate,
    run_value,
)
from .loan import LoanParams, SmoothedLoanModel
from .mc import mc_reference
from .model import ComponentSpec, Interval, ModelSpec, bias_bound, value_upper_bound
from .operators import (
    Estimate,
    IteratedPoint,
    estimate_value,
    iterated_integrand,
)
from .smoothing import (
    JumpKernelSpec,
    KernelBranch,
    SmoothJoinSide,
    heaviside,
    smooth_join,
    smoothed_branch_weight,
    smoothed_drift_loan,
    smoothed_kernel_integrate,
    smoothed_reward_loan,
    unsmoothed_drift_loan,
)

__version__ = "0.1.0"
