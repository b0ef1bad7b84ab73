"""Finite-volume laboratory for triangular degenerate
reaction-cross-diffusion systems.

Simulates

    u_t = div(A11(u,v) grad u) + div(A12(u,v) grad v) + R1(u,v)
    v_t = div(A22(u,v) grad v)                        + R2(u,v)

on boxes with no-flux boundaries, where A11 = p(v) u^alpha degenerates at
u = 0 and v = 0, and verifies on the discrete solutions the H^-1-method
stability estimate for the triple

    E(t) = (integral du)^2 + ||grad dpsi||_2^2 + ||dv||_2^2.
"""

from .coeffs import (CoefficientModel, LipschitzVerdict, build_preset,
                     check_finite_gamma_lipschitz, dissipation_density,
                     mean_power_bounds_check, power_gap_inequality_check)
from .exprs import (EvalError, ExpressionError, Expr, ParseError,
                    differentiate, evaluate, parse, substitute, to_string)
from .grid import Field, Grid
from .poisson import (ConvergenceError, PoissonSolution, hminus1_seminorm,
                      poincare_ratio, solve_neumann_zero_mean)
from .solver import (PositivityError, RunResult, SimConfig, SimState,
                     Simulation, f_energy, mms_forcing, run)
from .stability import (GronwallTrace, StabilityReport, SweepResult,
                        energy_identity_check, gronwall_trace,
                        perturbation_sweep, run_pair)

__version__ = "0.1.0"

__all__ = [
    "CoefficientModel", "LipschitzVerdict", "build_preset",
    "check_finite_gamma_lipschitz", "dissipation_density",
    "mean_power_bounds_check", "power_gap_inequality_check",
    "EvalError", "ExpressionError", "Expr", "ParseError", "differentiate",
    "evaluate", "parse", "substitute", "to_string",
    "Field", "Grid",
    "ConvergenceError", "PoissonSolution", "hminus1_seminorm",
    "poincare_ratio", "solve_neumann_zero_mean",
    "PositivityError", "RunResult", "SimConfig", "SimState", "Simulation",
    "f_energy", "mms_forcing", "run",
    "GronwallTrace", "StabilityReport", "SweepResult",
    "energy_identity_check", "gronwall_trace", "perturbation_sweep",
    "run_pair",
    "__version__",
]
