"""Parallel restart scheme for first-order convex optimization.

The package bundles three restartable first-order methods (projected
subgradient, accelerated gradient, universal fast gradient), a synchronous
lock-step engine and an asynchronous discrete-event engine that coordinate
copies of a method across a ladder of target accuracies, closed-form
complexity bounds for both engines, and a benchmark harness that checks
measured runs against the bounds.
"""

from restartfom.bounds import (
    bound_async_theorem,
    bound_cor_accel,
    bound_cor_subgrad,
    bound_cor_univ,
    bound_sync_theorem,
    c_const,
    default_N,
    k_accel,
    k_subgrad,
    k_univ,
    n_bar,
    t_univ,
)
from restartfom.problems import (
    GrowthMetadata,
    OracleOutput,
    ProblemInstance,
    make_least_squares_problem,
    make_norm_power_problem,
    make_piecewise_max_problem,
)
from restartfom.methods import MethodSpec, method_init, method_restart
from restartfom.sync_scheme import run_sync
from restartfom.async_scheme import DelayModel, run_async
from restartfom.harness import fit_rate, parse_config, run_grid, verify_bounds

__version__ = "0.1.0"

__all__ = [
    "GrowthMetadata",
    "OracleOutput",
    "ProblemInstance",
    "MethodSpec",
    "DelayModel",
    "bound_async_theorem",
    "bound_cor_accel",
    "bound_cor_subgrad",
    "bound_cor_univ",
    "bound_sync_theorem",
    "c_const",
    "default_N",
    "fit_rate",
    "k_accel",
    "k_subgrad",
    "k_univ",
    "make_least_squares_problem",
    "make_norm_power_problem",
    "make_piecewise_max_problem",
    "method_init",
    "method_restart",
    "n_bar",
    "parse_config",
    "run_async",
    "run_grid",
    "run_sync",
    "t_univ",
    "verify_bounds",
]
