"""Step-size rules: curvature-adaptive, constant, Armijo-Wolfe inexact
line search, and hybrid candidate testing with adaptive fallback."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
        if self.max_evals < 2:
            raise ValueError("need at least two evaluations")


@dataclass(frozen=True)
class Hybrid:
    candidates: tuple[float, ...] = (1.0, 0.25, 0.0625)
    c1: float = 0.1

    def __post_init__(self):
        if not 0.0 < self.c1 <= 0.5:
            raise ValueError("c1 must lie in (0, 1/2]")
        if not all(0.0 < t < np.inf for t in self.candidates):
            raise ValueError(f"candidates must lie in (0, inf), got {self.candidates}")


StepRule = Union[Adaptive, Constant, ArmijoWolfe, Hybrid]


@dataclass
class StepOutcome:
    """Chosen step plus what the rule learned while choosing it.

    ``point`` is the evaluation point at x + t d when the rule made one,
    and ``f_new``/``g_new`` the evaluations already requested there, so
    the driver never re-pays for them; each is None when the rule did
    not evaluate there. The rule's oracle work is counted on the points
    and the ray it requested it from.
    """

    t: float
    kind: str  # adaptive | constant | line_search | hybrid_candidate | hybrid_fallback
    delta: float | None = None
    eta: float | None = None
    warning: bool = False
    f_new: float | None = None
    g_new: np.ndarray | None = field(default=None, repr=False)
    point: OraclePoint | None = field(default=None, repr=False)


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
    if denom <= 0.0 or not np.isfinite(denom):
        return np.nan
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
    evals = 0  # f and g requests, against the budget
    t = 1.0
    lo = 0.0          # best Armijo-satisfying point so far (Wolfe failed there)
    f_lo, gd_lo = f0, gd
    hi = None         # smallest Armijo-failing step
    f_hi = None
    best = None       # (t, f, g, point) with the lowest Armijo-satisfying f

    def _bail() -> StepOutcome:
        if best is not None:
            tb, fb, gb, pb = best
            return StepOutcome(t=tb, kind="line_search", warning=True, f_new=fb,
                               g_new=gb, point=pb)
        raise NumericalError(f"no Armijo step within {params.max_evals} evaluations")

    while True:
        if evals >= params.max_evals:
            return _bail()
        pt = oracle.at(x + t * d)
        ft = float(pt.value())
        evals += 1
        if armijo_check(f0, ft, t, gd, c1):
            if evals >= params.max_evals:
                if best is None or ft < best[1]:
                    best = (t, ft, None, pt)
                return _bail()
            gt = pt.gradient()
            evals += 1
            gdt = float(gt.dot(d))
            if wolfe_check(gdt, gd, c2):
                return StepOutcome(t=t, kind="line_search", f_new=ft, g_new=gt,
                                   point=pt)
            if best is None or ft < best[1]:
                best = (t, ft, gt, pt)
            lo, f_lo, gd_lo = t, ft, gdt
            if hi is None:
                t = 2.0 * t
            else:
                t = _bracket_step(lo, f_lo, gd_lo, hi, f_hi)
        else:
            hi, f_hi = t, ft
            if lo == 0.0:
                cand = _quad_interp(f0, gd, t, ft)
                t = float(np.clip(cand, 0.1 * t, 0.9 * t)) if np.isfinite(cand) else 0.5 * t
            else:
                t = _bracket_step(lo, f_lo, gd_lo, hi, f_hi)


def _bracket_step(lo: float, f_lo: float, gd_lo: float, hi: float, f_hi: float) -> float:
    """Next trial inside (lo, hi): quadratic minimizer from the lo-end
    data, clamped to the middle 80% of the bracket (midpoint fallback)."""
    width = hi - lo
    cand = lo + _quad_interp(f_lo, gd_lo, width, f_hi)
    if not np.isfinite(cand):
        return lo + 0.5 * width
    return float(np.clip(cand, lo + 0.1 * width, hi - 0.1 * width))


def hybrid_select(ray: Ray, f0: float, gd: float, rho: float,
                  rule: Hybrid) -> StepOutcome:
    """Try ``rule.candidates`` in order against Armijo with ``rule.c1``;
    fall back to the adaptive step when none passes. One f evaluation
    per candidate, at ``ray.at(t)``; the ray's curvature is paid only on
    fallback."""
    if gd >= 0.0:
        raise ValueError(f"hybrid selection needs a descent direction, g'd = {gd}")
    for cand in rule.candidates:
        pt = ray.at(cand)
        ft = float(pt.value())
        if armijo_check(f0, ft, cand, gd, rule.c1):
            return StepOutcome(t=cand, kind="hybrid_candidate", f_new=ft, point=pt)
    t, delta, eta = adaptive_step_size(ray, rho)
    return StepOutcome(t=t, kind="hybrid_fallback", delta=delta, eta=eta)


def choose_step(rule: StepRule, oracle: ObjectiveOracle, x: np.ndarray,
                d: np.ndarray, f0: float, g: np.ndarray, rho: float,
                ray: Ray | None) -> StepOutcome:
    """Dispatch a step rule; the uniform entry point used by the driver.
    ``ray`` is the ray along d from the evaluation point at x. The
    adaptive and hybrid rules work on it, and the constant step and the
    line search take None as well; the line search evaluates its
    trials at ``oracle.at(x + t d)``, since it compares f values at the
    rounding floor, where margins carried along a ray would change its
    decisions."""
    if isinstance(rule, Adaptive):
        t, delta, eta = adaptive_step_size(ray, rho)
        return StepOutcome(t=t, kind="adaptive", delta=delta, eta=eta)
    if isinstance(rule, Constant):
        return StepOutcome(t=rule.alpha, kind="constant")
    if isinstance(rule, ArmijoWolfe):
        return armijo_wolfe_search(oracle, x, d, f0, float(g.dot(d)), rule)
    if isinstance(rule, Hybrid):
        return hybrid_select(ray, f0, float(g.dot(d)), rho, rule)
    raise TypeError(f"unknown step rule {rule!r}")
