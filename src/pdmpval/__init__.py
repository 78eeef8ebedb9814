"""Valuation engine for cost functionals of piecewise deterministic Markov
processes: smoothed iterated-integral representation evaluated by Sobol',
scrambled Halton, Gauss product and Monte Carlo cubature, with a crude
Monte Carlo reference simulator."""

from .cubature import (
    CubatureSpec,
    RuleKind,
    cranley_patterson_shift,
    gauss_legendre,
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
from .model import ModelSpec, bias_bound
from .operators import Estimate, estimate_value
from .smoothing import (
    JumpKernelSpec,
    KernelBranch,
    heaviside,
    smoothed_branch_weight,
    smoothed_drift_loan,
    smoothed_kernel_integrate,
    smoothed_reward_loan,
    unsmoothed_drift_loan,
)

__version__ = "0.1.0"
