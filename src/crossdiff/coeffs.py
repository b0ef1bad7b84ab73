"""Coefficient models for the triangular reaction-cross-diffusion class.

The system under study is

    u_t = div( p(v) u^alpha grad u ) + div( A12(u,v) grad v ) + R1(u,v)
    v_t = div( A22(u,v) grad v ) + R2(u,v)

with no-flux boundaries, alpha >= 0, p > 0, A22 bounded below by a positive
q(v), and reactions split as R_i(u,v) = u q_i(v) + R~_i(u,v).  The
structural smallness needed of A12, A22 and R~_i is the finite
(gamma,1)-Lipschitz property with gamma = 1 + alpha/2:

    |f(y1,z1) - f(y2,z2)| <= C(a1,a2) (|y1^gamma - y2^gamma| + |z1 - z2|)

on every box [0,a1] x [0,a2].  check_finite_gamma_lipschitz probes that
property by sampling; it is a heuristic, never a proof.

The module also carries the dissipation density the stability harness
integrates, D = (u1^(1+alpha) - u2^(1+alpha))(u1 - u2) >= 0.  The estimate
rests on two pointwise power inequalities against it,

    (u1^(1+alpha/2) - u2^(1+alpha/2))^2 <= (1+alpha/2)^2/(1+alpha) * D
    (u1^(1+alpha)   - u2^(1+alpha))^2   <= (1+alpha) M^alpha       * D

the latter for 0 <= u_i <= M; the run never evaluates them, and the tests
check both on sampled and exhaustive grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import exprs
from .exprs import (Const, Expr, Var, compile, is_count, is_number, mul, neg,
                    pow_, variable_problems)

_V_ONLY = ("p", "q_lower", "r1_linear", "r2_linear")
_STATE = ("a12", "a22", "r1_tilde", "r2_tilde")
# the box (0, POSITIVITY_U_MAX] x (0, POSITIVITY_V_MAX] that check_positivity
# samples, POSITIVITY_SAMPLES points per axis
POSITIVITY_U_MAX = 10.0
POSITIVITY_V_MAX = 10.0
POSITIVITY_SAMPLES = 257


@dataclass(frozen=True)
class CoefficientModel:
    """Coefficients and split reactions; expressions in u and v only.

    p, q_lower, r1_linear and r2_linear depend on v alone; a12, a22 and the
    R~ parts may use u and v.  gamma = 1 + alpha/2 is the Lipschitz weight
    the degenerate diffusion exponent dictates.  Each coefficient is
    compiled once, at its first evaluation; a constant one evaluates to a
    float.
    """

    alpha: float
    p: Expr
    a12: Expr
    a22: Expr
    q_lower: Expr
    r1_linear: Expr
    r1_tilde: Expr
    r2_linear: Expr
    r2_tilde: Expr

    def __post_init__(self):
        object.__setattr__(self, "alpha", float(self.alpha))
        if not (self.alpha >= 0.0 and math.isfinite(self.alpha)):
            raise ValueError("alpha must be finite and nonnegative")
        problems = [
            problem for names, allowed in ((_V_ONLY, frozenset("v")),
                                           (_STATE, frozenset("uv")))
            for name in names
            for problem in variable_problems(name, getattr(self, name),
                                             allowed)]
        if problems:
            raise ValueError("; ".join(problems))
        object.__setattr__(self, "_programs", {})

    @property
    def gamma(self) -> float:
        return 1.0 + 0.5 * self.alpha

    # pointwise evaluations (scalars or numpy arrays)

    def _evaluate(self, name: str, bindings: dict):
        program = self._programs.get(name)
        if program is None:
            program = self._programs[name] = compile(getattr(self, name))
        return program(bindings)

    def p_values(self, v):
        return self._evaluate("p", {"v": v})

    def a11_values(self, u, v):
        p = self.p_values(v)
        a = np.power(u, self.alpha)
        a *= p  # in place: the power is a fresh array (or a scalar)
        return a

    def a12_values(self, u, v):
        return self._evaluate("a12", {"u": u, "v": v})

    def a22_values(self, u, v):
        return self._evaluate("a22", {"u": u, "v": v})

    def q1_values(self, v):
        return self._evaluate("r1_linear", {"v": v})

    def q2_values(self, v):
        return self._evaluate("r2_linear", {"v": v})

    def r1_values(self, u, v):
        r1 = u * self.q1_values(v)
        tilde = self._evaluate("r1_tilde", {"u": u, "v": v})
        # a constant 0 is not added: that would only turn a -0.0 into 0.0
        return r1 if type(tilde) is float and tilde == 0.0 else r1 + tilde

    def r2_tilde_values(self, u, v):
        return self._evaluate("r2_tilde", {"u": u, "v": v})

    def check_positivity(self) -> None:
        """Sampled structural checks: p > 0, q_lower > 0 and A22 >= q_lower
        on (0, POSITIVITY_U_MAX] x (0, POSITIVITY_V_MAX].  Raises ValueError
        listing violations."""
        u_max, v_max = POSITIVITY_U_MAX, POSITIVITY_V_MAX
        samples = POSITIVITY_SAMPLES
        vs = np.linspace(v_max / samples, v_max, samples)
        us = np.linspace(0.0, u_max, samples)
        problems = []
        if np.any(np.asarray(self.p_values(vs)) <= 0.0):
            problems.append(f"p(v) is not positive on (0, {v_max}]")
        q = np.asarray(self._evaluate("q_lower", {"v": vs}))
        if np.any(q <= 0.0):
            problems.append(f"q_lower(v) is not positive on (0, {v_max}]")
        # samples on the open grid (us rows, vs columns), never materialised
        # as two full coordinate arrays; q_lower depends on v alone, so its
        # floor on vs serves every u row
        a22 = self.a22_values(us[:, None], vs[None, :])
        floor = q - 1e-12 * (1.0 + np.abs(q))
        if np.any(a22 < floor):
            problems.append("A22(u,v) drops below q_lower(v) on the sample box")
        if problems:
            raise ValueError("; ".join(problems))


# ---------------------------------------------------------------------------
# presets: nutrient-taxis family u_t = div(u v grad u) - div(chi u^beta v grad v) + f,
#          v_t = lap v - u v

# per preset case, the parameters its model block may give
CASE_PARAMS = {
    1: ("chi", "beta"),
    2: ("chi", "beta", "l"),
    3: ("chi", "beta", "l"),
    4: ("chi", "beta"),
    5: ("chi", "beta", "l"),
    6: ("chi", "beta", "rho", "mu", "kappa"),
}
_BETA_OPEN_RANGE_CASES = (3, 5)  # beta in [3/2, 2); the others default to 2


def build_preset(case: int, params: Mapping[str, float]) -> CoefficientModel:
    """Nutrient-taxis presets: alpha = 1, p = v, A12 = -chi u^beta v,
    A22 = 1, R2 = -u v, and the per-case growth term

        1: f = u v      2: f = l u v    3: f = l u v  (beta in [3/2, 2))
        4: f = u - u^2  5: f = l u v  (beta in [3/2, 2))
        6: f = rho u - mu u^kappa  (kappa > 2)

    beta >= 3/2 is enforced (below it the cross term leaves the admissible
    Lipschitz class for gamma = 3/2); chi must be positive, l nonnegative.
    """
    if case not in CASE_PARAMS:
        raise ValueError(f"unknown preset case {case}; valid cases are 1-6")
    allowed = CASE_PARAMS[case]
    unknown = sorted(set(params) - set(allowed))
    if unknown:
        raise ValueError(f"unknown parameters for case {case}: {unknown}")

    def need(name: str) -> float:
        if name not in params:
            raise ValueError(f"case {case} needs parameter '{name}'")
        value = float(params[name])
        if not math.isfinite(value):
            raise ValueError(f"parameter '{name}' must be finite")
        return value

    chi = need("chi")
    if chi <= 0.0:
        raise ValueError("chi must be positive")
    beta = float(params.get("beta", 2.0)) if case not in _BETA_OPEN_RANGE_CASES \
        else need("beta")
    if beta < 1.5:
        raise ValueError(f"beta = {beta} is below 3/2; the cross-diffusion "
                         "term would leave the admissible class")
    if case in _BETA_OPEN_RANGE_CASES and not beta < 2.0:
        raise ValueError(f"case {case} needs beta in [3/2, 2)")

    u, v = Var("u"), Var("v")
    if case in (1, 2, 3, 5):
        l = 1.0 if case == 1 else need("l")
        if l < 0.0:
            raise ValueError("l must be nonnegative")
        r1_linear = mul(Const(l), v)
        r1_tilde = Const(0.0)
    elif case == 4:
        r1_linear = Const(1.0)
        r1_tilde = neg(pow_(u, Const(2.0)))
    else:
        rho, mu, kappa = need("rho"), need("mu"), need("kappa")
        if mu <= 0.0:
            raise ValueError("mu must be positive")
        if not kappa > 2.0:
            raise ValueError("kappa must exceed 2")
        r1_linear = Const(rho)
        r1_tilde = neg(mul(Const(mu), pow_(u, Const(kappa))))

    return CoefficientModel(
        alpha=1.0,
        p=v,
        a12=neg(mul(mul(Const(chi), pow_(u, Const(beta))), v)),
        a22=Const(1.0),
        q_lower=Const(1.0),
        r1_linear=r1_linear,
        r1_tilde=r1_tilde,
        r2_linear=neg(v),
        r2_tilde=Const(0.0),
    )


# ---------------------------------------------------------------------------
# dissipation

def dissipation_density(u1, u2, alpha: float):
    """(u1^(1+alpha) - u2^(1+alpha)) (u1 - u2), the degenerate-diffusion
    dissipation density; nonnegative for u_i >= 0 since both factors share
    the sign of u1 - u2."""
    e = 1.0 + alpha
    return (np.power(u1, e) - np.power(u2, e)) * (u1 - u2)


# ---------------------------------------------------------------------------
# Lipschitz sampling

@dataclass(frozen=True)
class LipschitzVerdict:
    """Outcome of the sampling probe.  verdict is 'plausible' or
    'diverging', never a proof either way."""

    gamma: float
    box: tuple
    estimated_constant: float
    max_ratio_trace: tuple  # ((separation scale, max ratio), ...)
    verdict: str
    witness_pair: tuple     # ((y1, z1), (y2, z2))


_SCALES = tuple(10.0 ** -k for k in range(8))
_GROWTH_FACTOR = 10 ** 0.1  # flag a log10 slope >= 0.1 per decade
_GROWTH_RUN = 3           # over at least 3 consecutive scale reductions


def lipschitz_problems(f: Expr, gamma: float, a1: float = 1.0,
                       a2: float = 1.0, budget: int = 20000,
                       seed: int = 0) -> list:
    """The rules on the arguments of check_finite_gamma_lipschitz, one
    message per broken argument, each starting with the argument's name.
    Any value is judged, so a config may pass what its file gave."""
    problems = []
    if not isinstance(f, Expr):
        problems.append("f must be an expression")
    else:
        problems += variable_problems("f", f, frozenset("yuv"))
    if not (is_number(gamma) and gamma > 0.0):
        problems.append("gamma must be a positive finite number")
    for name, side in (("a1", a1), ("a2", a2)):
        if not (is_number(side) and side > 0.0):
            problems.append(f"{name} must be a positive finite number "
                            "(a side of the sampled box)")
    if not is_count(budget, 1000):
        problems.append("budget must be an integer >= 1000 (samples)")
    if not is_count(seed, 0):
        problems.append("seed must be a nonnegative integer")
    return problems


def check_finite_gamma_lipschitz(f: Expr, gamma: float, a1: float = 1.0,
                                 a2: float = 1.0, budget: int = 20000,
                                 seed: int = 0) -> LipschitzVerdict:
    """Probe |f(p1) - f(p2)| <= C (|y1^g - y2^g| + |z1 - z2|) on
    [0,a1] x [0,a2] by sampling.

    f is an expression in (y, v) - equivalently (u, v): y and u both name
    the first, power-weighted argument, v the second.  Pairs are drawn at
    separation scales 1, 1e-1, ..., 1e-7 (plus broad random pairs and
    degenerate-corner pairs (y, z) vs (0, z)); the verdict flips to
    'diverging' when the per-scale max ratio grows by at least 10^0.1 (a
    log-log slope of 0.1) per decade of separation, 3 decades running, or
    when evaluation overflows; f ~ y^b with gamma - 0.1 < b < gamma passes.
    A heuristic, not a proof.  Raises ValueError listing lipschitz_problems().
    """
    problems = lipschitz_problems(f, gamma, a1, a2, budget, seed)
    if problems:
        raise ValueError("; ".join(problems))

    program = compile(f)

    def values(y, z):
        try:
            out = program({"y": y, "u": y, "v": z})
        except exprs.EvalError:
            # domain failure somewhere in the batch: evaluate pointwise and
            # mark failing pairs, which the overflow path reports as diverging
            out = np.empty(np.shape(y))
            for i in range(out.size):
                try:
                    out.flat[i] = program(
                        {"y": y.flat[i], "u": y.flat[i], "v": z.flat[i]})
                except exprs.EvalError:
                    out.flat[i] = np.nan
            return out
        return np.broadcast_to(out, np.shape(y)).astype(float)

    rng = np.random.default_rng(seed)
    best_ratio = 0.0
    witness = ((0.0, 0.0), (0.0, 0.0))
    overflow_witness = None
    trace = []

    def scan(y1, z1, y2, z2):
        nonlocal best_ratio, witness, overflow_witness
        f1, f2 = values(y1, z1), values(y2, z2)
        bad = ~(np.isfinite(f1) & np.isfinite(f2))
        if np.any(bad) and overflow_witness is None:
            i = int(np.argmax(bad))
            overflow_witness = ((float(y1[i]), float(z1[i])),
                                (float(y2[i]), float(z2[i])))
        denom = np.abs(np.power(y1, gamma) - np.power(y2, gamma)) \
            + np.abs(z1 - z2)
        ok = (denom > 0.0) & ~bad
        if not np.any(ok):
            return 0.0
        ratio = np.abs(f1[ok] - f2[ok]) / denom[ok]
        i = int(np.argmax(ratio))
        local_best = float(ratio[i])
        if local_best > best_ratio:
            best_ratio = local_best
            yy1, zz1 = y1[ok], z1[ok]
            yy2, zz2 = y2[ok], z2[ok]
            witness = ((float(yy1[i]), float(zz1[i])),
                       (float(yy2[i]), float(zz2[i])))
        return local_best

    n_broad = budget // 2
    scan(rng.uniform(0.0, a1, n_broad), rng.uniform(0.0, a2, n_broad),
         rng.uniform(0.0, a1, n_broad), rng.uniform(0.0, a2, n_broad))

    per_scale = max(64, budget // (2 * len(_SCALES)))
    zs_corner = np.array([0.0, 0.5 * a2, a2])
    corner_ratios = []
    for scale in _SCALES:
        # every pair at this trace entry is separated by ~ scale in exactly
        # one coordinate; half the base points sweep the box for interior
        # kinks, half crowd the degenerate corner y = 0, where a ratio that
        # blows up like a power of the separation betrays a diverging f
        sep = scale * rng.uniform(0.5, 1.0, per_scale)
        interior = np.maximum(0.0, 1.0 - sep) * rng.random(per_scale)
        corner = sep * rng.random(per_scale)
        y1 = a1 * np.where(rng.random(per_scale) < 0.5, interior, corner)
        y2 = np.minimum(y1 + a1 * sep, a1)
        z1 = rng.uniform(0.0, a2, per_scale)
        move_z = rng.random(per_scale) < 0.5
        zsep = a2 * scale * rng.uniform(0.5, 1.0, per_scale)
        z2 = np.where(move_z, np.minimum(z1 + zsep, a2), z1)
        y2 = np.where(move_z, y1, y2)
        best_here = scan(y1, z1, y2, z2)
        # corner pairs (scale*a1, z) vs (0, z), z held fixed
        yc = np.full_like(zs_corner, scale * a1)
        best_corner = scan(yc, zs_corner, np.zeros_like(yc), zs_corner)
        corner_ratios.append(best_corner)
        trace.append((scale, max(best_here, best_corner)))

    if overflow_witness is not None:
        return LipschitzVerdict(gamma, (a1, a2), float("inf"), tuple(trace),
                                "diverging", overflow_witness)

    # the corner ladder is deterministic, so a corner singularity shows as a
    # clean growth run there even when random-pair spikes jitter the maxima
    diverging = (_has_growth_run([r for _, r in trace])
                 or _has_growth_run(corner_ratios))
    return LipschitzVerdict(gamma, (a1, a2), best_ratio, tuple(trace),
                            "diverging" if diverging else "plausible", witness)


def _has_growth_run(ratios) -> bool:
    for k in range(len(ratios) - _GROWTH_RUN):
        if all(ratios[k + j + 1] >= _GROWTH_FACTOR * ratios[k + j] > 0.0
               for j in range(_GROWTH_RUN)):
            return True
    return False
