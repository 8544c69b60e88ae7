"""Step-size rules: curvature-adaptive, constant, Armijo-Wolfe inexact
line search, and hybrid candidate testing with adaptive fallback."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral
from typing import Union

import numpy as np

from .errors import NumericalError
from .oracles import ObjectiveOracle, OraclePoint, Ray
from .sc import adaptive_step

__all__ = [
    "Adaptive",
    "Constant",
    "ArmijoWolfe",
    "Hybrid",
    "StepRule",
    "StepOutcome",
    "armijo_check",
    "wolfe_check",
    "adaptive_step_size",
    "armijo_wolfe_search",
    "hybrid_select",
    "choose_step",
]

@dataclass(frozen=True)
class Adaptive:
    pass


@dataclass(frozen=True)
class Constant:
    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha < np.inf:
            raise ValueError(f"constant step must be positive and finite, got {self.alpha}")


@dataclass(frozen=True)
class ArmijoWolfe:
    c1: float = 0.1
    c2: float = 0.75
    max_evals: int = 25

    def __post_init__(self):
        if not 0.0 < self.c1 <= 0.5:
            raise ValueError("c1 must lie in (0, 1/2]")
        if not self.c1 < self.c2 < 1.0:
            raise ValueError("c2 must lie in (c1, 1)")
        if not (isinstance(self.max_evals, Integral) and self.max_evals >= 2):
            raise ValueError(f"max_evals must be a whole number of at least two evaluations, "
                             f"got {self.max_evals!r}")


@dataclass(frozen=True)
class Hybrid:
    pass


# Hybrid's step sizes, tried in order, and its Armijo constant
_HYBRID_CANDIDATES = (1.0, 0.25, 0.0625)
_HYBRID_C1 = 0.1


StepRule = Union[Adaptive, Constant, ArmijoWolfe, Hybrid]


@dataclass
class StepOutcome:
    """Chosen step plus what the rule learned while choosing it.

    ``point`` is the evaluation point at x + t d when the rule made one,
    and ``f_new``/``g_new`` the evaluations already requested there, so
    the driver never re-pays for them; each is None when the rule did
    not evaluate there. ``evals_f``, ``evals_g`` and ``evals_hv`` count
    the value, gradient and curvature requests the rule made.
    """

    t: float
    kind: str  # adaptive | constant | line_search | hybrid_candidate | hybrid_fallback
    delta: float | None = None
    eta: float | None = None
    warning: bool = False
    f_new: float | None = None
    g_new: np.ndarray | None = field(default=None, repr=False)
    point: OraclePoint | None = field(default=None, repr=False)
    evals_f: int = 0
    evals_g: int = 0
    evals_hv: int = 0


def armijo_check(f0: float, f1: float, t: float, gd: float, c1: float) -> bool:
    """Sufficient decrease: f1 <= f0 + c1 t g'd (inclusive boundary).

    Assumes t > 0 and gd < 0; a non-finite f1 raises NumericalError.
    """
    if not np.isfinite(f1):
        raise NumericalError(f"non-finite trial f = {f1} at t = {t}")
    return f1 <= f0 + c1 * t * gd


def wolfe_check(gd1: float, gd0: float, c2: float) -> bool:
    """Curvature condition: g(x+td)'d >= c2 g(x)'d. Assumes gd0 < 0; a
    non-finite gd1 raises NumericalError."""
    if not np.isfinite(gd1):
        raise NumericalError(f"non-finite trial g'd = {gd1}")
    return gd1 >= c2 * gd0


def adaptive_step_size(ray: Ray, rho: float) -> tuple[float, float, float]:
    """(t, delta, eta) for the curvature-adaptive rule along ``ray``, the
    ray along d from the evaluation point at x.

    Needs only the ray's curvature delta^2 = d'G(x)d.
    """
    d_gd = ray.curvature()
    if not 0.0 < d_gd < np.inf:
        raise NumericalError(f"d'Gd = {d_gd} is not positive and finite")
    delta = math.sqrt(d_gd)
    t = adaptive_step(rho, delta)
    return t, delta, rho / delta


def _quad_interp(f0: float, gd: float, t: float, ft: float) -> float:
    """Minimizer of the quadratic through (0, f0) with slope gd and (t, ft)."""
    denom = 2.0 * (ft - f0 - gd * t)
    if denom <= 0.0 or not math.isfinite(denom):
        return math.nan
    return -gd * t * t / denom


def armijo_wolfe_search(oracle: ObjectiveOracle, x: np.ndarray, d: np.ndarray,
                        f0: float, gd: float, params: ArmijoWolfe) -> StepOutcome:
    """Find t satisfying both Armijo and Wolfe conditions.

    Starts at t = 1. Armijo failures backtrack by safeguarded quadratic
    interpolation (clamped to [0.1 t, 0.9 t]); Armijo-but-not-Wolfe
    points double t until an upper bracket appears, after which the
    bracket is narrowed with the same interpolation safeguard. If the
    evaluation budget runs out, the best Armijo point found is returned
    with ``warning=True``; if there is none, raises NumericalError.
    """
    if gd >= 0.0:
        raise ValueError(f"line search needs a descent direction, g'd = {gd}")
    c1, c2 = params.c1, params.c2
    nf = ng = 0  # f and g requests; their sum is held to the budget
    t = 1.0
    lo = 0.0          # best Armijo-satisfying point so far (Wolfe failed there)
    f_lo, gd_lo = f0, gd
    hi = None         # smallest Armijo-failing step
    f_hi = None
    best = None       # (t, f, g, point): the Wolfe point, else the lowest Armijo f
    warning = True
    while nf + ng < params.max_evals:
        pt = oracle.at(x + t * d)
        ft = float(pt.value())
        nf += 1
        if not armijo_check(f0, ft, t, gd, c1):
            hi, f_hi = t, ft
            if lo == 0.0:
                cand = _quad_interp(f0, gd, t, ft)
                t = min(max(cand, 0.1 * t), 0.9 * t) if math.isfinite(cand) else 0.5 * t
            else:
                t = _bracket_step(lo, f_lo, gd_lo, hi, f_hi)
            continue
        gt = None  # no room left in the budget for g
        if nf + ng < params.max_evals:
            gt = pt.gradient()
            ng += 1
            gdt = float(gt.dot(d))
            warning = not wolfe_check(gdt, gd, c2)
        if not warning or best is None or ft < best[1]:
            best = (t, ft, gt, pt)
        if not warning or gt is None:
            break
        lo, f_lo, gd_lo = t, ft, gdt
        t = 2.0 * t if hi is None else _bracket_step(lo, f_lo, gd_lo, hi, f_hi)
    if best is None:
        raise NumericalError(f"no Armijo step within {params.max_evals} evaluations")
    tb, fb, gb, pb = best
    return StepOutcome(t=tb, kind="line_search", warning=warning, f_new=fb, g_new=gb,
                       point=pb, evals_f=nf, evals_g=ng)


def _bracket_step(lo: float, f_lo: float, gd_lo: float, hi: float, f_hi: float) -> float:
    """Next trial inside (lo, hi): quadratic minimizer from the lo-end
    data, clamped to the middle 80% of the bracket (midpoint fallback)."""
    width = hi - lo
    cand = lo + _quad_interp(f_lo, gd_lo, width, f_hi)
    if not math.isfinite(cand):
        return lo + 0.5 * width
    return min(max(cand, lo + 0.1 * width), hi - 0.1 * width)


def hybrid_select(ray: Ray, f0: float, rho: float) -> StepOutcome:
    """Try the steps 1, 1/4 and 1/16 in order against Armijo with c1 = 0.1
    and the slope g'd = -rho; fall back to the adaptive step when none
    passes. One f evaluation per candidate, at ``ray.at(t)``; the ray's
    curvature is paid only on fallback."""
    if not rho > 0.0:
        raise ValueError(f"hybrid selection needs a descent direction, rho = -g'd = {rho}")
    for tried, cand in enumerate(_HYBRID_CANDIDATES, 1):
        pt = ray.at(cand)
        ft = float(pt.value())
        if armijo_check(f0, ft, cand, -rho, _HYBRID_C1):
            return StepOutcome(t=cand, kind="hybrid_candidate", f_new=ft, point=pt,
                               evals_f=tried)
    t, delta, eta = adaptive_step_size(ray, rho)
    return StepOutcome(t=t, kind="hybrid_fallback", delta=delta, eta=eta,
                       evals_f=len(_HYBRID_CANDIDATES), evals_hv=1)


def choose_step(rule: StepRule, oracle: ObjectiveOracle, x: np.ndarray,
                d: np.ndarray, f0: float, rho: float, ray: Ray) -> StepOutcome:
    """Dispatch a step rule; the uniform entry point used by the driver.
    ``rho`` is -g'd and ``ray`` the ray along d from the evaluation point
    at x. The adaptive and hybrid rules work on the ray; the constant
    step and the line search leave it unread, and the line search
    evaluates its trials at ``oracle.at(x + t d)``, since it compares f
    values at the rounding floor, where margins carried along a ray
    would change its decisions."""
    if isinstance(rule, Adaptive):
        t, delta, eta = adaptive_step_size(ray, rho)
        return StepOutcome(t=t, kind="adaptive", delta=delta, eta=eta, evals_hv=1)
    if isinstance(rule, Constant):
        return StepOutcome(t=rule.alpha, kind="constant")
    if isinstance(rule, ArmijoWolfe):
        return armijo_wolfe_search(oracle, x, d, f0, -rho, rule)
    if isinstance(rule, Hybrid):
        return hybrid_select(ray, f0, rho)
    raise TypeError(f"unknown step rule {rule!r}")
