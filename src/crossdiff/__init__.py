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
                     check_finite_gamma_lipschitz, dissipation_density)
from .exprs import (EvalError, ExpressionError, Expr, ParseError,
                    differentiate, evaluate, parse, substitute, to_string)
from .grid import Grid
from .poisson import PoissonSolution, poincare_ratio, solve_neumann_zero_mean
from .solver import (ConvergenceError, PositivityError, SimConfig, SimState,
                     Simulation, f_energy, mms_forcing, run)
from .stability import (GronwallTrace, StabilityReport, SweepResult,
                        gronwall_trace, perturbation_sweep, run_pair)

__version__ = "0.1.0"

__all__ = [
    "CoefficientModel", "LipschitzVerdict", "build_preset",
    "check_finite_gamma_lipschitz", "dissipation_density",
    "EvalError", "ExpressionError", "Expr", "ParseError", "differentiate",
    "evaluate", "parse", "substitute", "to_string",
    "Grid",
    "PoissonSolution", "poincare_ratio", "solve_neumann_zero_mean",
    "ConvergenceError", "PositivityError", "SimConfig", "SimState", "Simulation",
    "f_energy", "mms_forcing", "run",
    "GronwallTrace", "StabilityReport", "SweepResult",
    "gronwall_trace", "perturbation_sweep", "run_pair",
    "__version__",
]
