"""Empirical-measure rates for reinforced chains on finite state spaces.

The package covers the full experimental loop: probability primitives
(:mod:`~reinforced_ldp.measures`), chain and controlled-chain simulation
with the chain-rule check (:mod:`~reinforced_ldp.chains`), exact count
laws (:mod:`~reinforced_ldp.exact`), the discounted-cost rate solver
(:mod:`~reinforced_ldp.ratesolver`), reversed-plan construction and
scheduled runs (:mod:`~reinforced_ldp.lowerbound`), and the acceptance
battery (:mod:`~reinforced_ldp.validation`).
"""
import gc

from .errors import (
    ConfigError,
    ConvergenceError,
    DimensionMismatch,
    PolicyError,
    PositivityViolation,
    PreconditionViolation,
    ResourceLimitExceeded,
    SimplexViolation,
)
from .measures import (
    Kernel,
    ProbVec,
    build_kernel_mixture,
    build_kernel_qsd,
    kernel_apply,
    relative_entropy,
    stationary_distribution,
)
from .chains import (
    ChainPath,
    ControlledPath,
    path_rng,
    simulate_chain,
    simulate_chain_batch,
    simulate_controlled,
    verify_chain_rule_identity,
)
from .exact import (
    CountLaw,
    FiniteNRate,
    event_probability,
    exact_law,
    exact_law_levels,
    finite_n_rate,
)
from .ratesolver import (
    PiecewiseLinearPath,
    RateBracket,
    SolveDiagnostics,
    flow_cost,
    flow_nodes,
    rate_profile,
    simplex_mesh,
    solve_dv_rate,
    solve_rate,
)
from .lowerbound import (
    CostConvergenceReport,
    CostTrendRow,
    KappaSchedule,
    PlanBounds,
    PlanRun,
    ReversedPlan,
    build_plan,
    check_cost_convergence,
    plan_to_json,
    reversed_cost,
    run_plan,
)
from .validation import CriterionResult, run_acceptance, write_report_csv

# A full collection resets CPython's generation counters at the end of import;
# without one, how far import moved them decides which later call pays the
# first full collection over the ~43k objects import leaves, and in a process
# forked after import that collection also copies every inherited page.
gc.collect()

__version__ = "0.1.0"

__all__ = [
    "ChainPath",
    "ConfigError",
    "ControlledPath",
    "ConvergenceError",
    "CostConvergenceReport",
    "CostTrendRow",
    "CountLaw",
    "CriterionResult",
    "DimensionMismatch",
    "FiniteNRate",
    "KappaSchedule",
    "Kernel",
    "PiecewiseLinearPath",
    "PlanBounds",
    "PlanRun",
    "PolicyError",
    "PositivityViolation",
    "PreconditionViolation",
    "ProbVec",
    "RateBracket",
    "ResourceLimitExceeded",
    "ReversedPlan",
    "SimplexViolation",
    "SolveDiagnostics",
    "build_kernel_mixture",
    "build_kernel_qsd",
    "build_plan",
    "check_cost_convergence",
    "event_probability",
    "exact_law",
    "exact_law_levels",
    "finite_n_rate",
    "flow_cost",
    "flow_nodes",
    "kernel_apply",
    "path_rng",
    "plan_to_json",
    "rate_profile",
    "relative_entropy",
    "reversed_cost",
    "run_acceptance",
    "run_plan",
    "simplex_mesh",
    "simulate_chain",
    "simulate_chain_batch",
    "simulate_controlled",
    "solve_dv_rate",
    "solve_rate",
    "stationary_distribution",
    "verify_chain_rule_identity",
    "write_report_csv",
]
