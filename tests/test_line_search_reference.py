"""Differential tests of ``armijo_wolfe_search`` against the two-exit
loop it replaced, kept here as the reference: from random points and
descent directions of random quadratics and small logistic problems,
both must try the same trial points and return the same step, values,
gradient bits, request counts and warning, or raise the same exception
with the same message. Small budgets make both searches run out of
evaluations on every path."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from adaptqn import (ArmijoWolfe, NumericalError, ObjectiveOracle, StepOutcome,
                     armijo_check, armijo_wolfe_search, wolfe_check)
from conftest import property_test
from test_properties import small_logistics, spd_quadratics


def _quad_interp(f0: float, gd: float, t: float, ft: float) -> float:
    """Minimizer of the quadratic through (0, f0) with slope gd and (t, ft)."""
    denom = 2.0 * (ft - f0 - gd * t)
    if denom <= 0.0 or not np.isfinite(denom):
        return np.nan
    return -gd * t * t / denom


def reference_armijo_wolfe_search(oracle: ObjectiveOracle, x: np.ndarray, d: np.ndarray,
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
    best = None       # (t, f, g, point) with the lowest Armijo-satisfying f

    def _bail() -> StepOutcome:
        if best is not None:
            tb, fb, gb, pb = best
            return StepOutcome(t=tb, kind="line_search", warning=True, f_new=fb,
                               g_new=gb, point=pb, evals_f=nf, evals_g=ng)
        raise NumericalError(f"no Armijo step within {params.max_evals} evaluations")

    while True:
        if nf + ng >= params.max_evals:
            return _bail()
        pt = oracle.at(x + t * d)
        ft = float(pt.value())
        nf += 1
        if armijo_check(f0, ft, t, gd, c1):
            if nf + ng >= params.max_evals:
                if best is None or ft < best[1]:
                    best = (t, ft, None, pt)
                return _bail()
            gt = pt.gradient()
            ng += 1
            gdt = float(gt.dot(d))
            if wolfe_check(gdt, gd, c2):
                return StepOutcome(t=t, kind="line_search", f_new=ft, g_new=gt,
                                   point=pt, evals_f=nf, evals_g=ng)
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


class RecordingOracle(ObjectiveOracle):
    """``inner`` with the bytes of every point asked for recorded."""

    def __init__(self, inner):
        self.inner, self.dim, self.trials = inner, inner.dim, []

    def at(self, x):
        self.trials.append(x.tobytes())
        return self.inner.at(x)


def _bits(v) -> bytes | None:
    return None if v is None else np.asarray(v, dtype=float).tobytes()


def _search(search, obj, x, d, f0, gd, params):
    """What one search tried and returned, as bits, or what it raised."""
    oracle = RecordingOracle(obj)
    try:
        out = search(oracle, x, d, f0, gd, params)
    except NumericalError as exc:
        return oracle.trials, ("raised", type(exc), str(exc))
    pt = out.point
    return oracle.trials, (_bits(out.t), out.kind, out.warning, _bits(out.f_new),
                           _bits(out.g_new), _bits(pt.value()), _bits(pt.gradient()),
                           out.evals_f, out.evals_g, out.evals_hv, out.delta, out.eta)


@st.composite
def searches(draw, problems):
    """A random point of a random problem, a descent direction there
    (the negative gradient or a random one, scaled by 1e-2 to 1e2), and
    a budget of 2 to 8 evaluations, or the CLI's 25."""
    obj, x0 = draw(problems)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = x0 + rng.standard_normal(obj.dim)
    g = obj.gradient(x)
    d = -g if draw(st.booleans()) else rng.standard_normal(obj.dim)
    if d @ g > 0.0:
        d = -d
    d = d * 10.0 ** draw(st.floats(-2.0, 2.0))
    return obj, x, d, draw(st.integers(2, 8) | st.just(25))


PARAMS = [(0.1, 0.75), (1e-4, 0.9), (0.5, 0.51)]


def check_same_search(obj, x, d, max_evals, c1, c2):
    gd = float(obj.gradient(x) @ d)
    if not gd < 0.0:  # a direction orthogonal to g, or g = 0
        return
    f0, params = obj.value(x), ArmijoWolfe(c1=c1, c2=c2, max_evals=max_evals)
    ref = _search(reference_armijo_wolfe_search, obj, x, d, f0, gd, params)
    assert _search(armijo_wolfe_search, obj, x, d, f0, gd, params) == ref


@pytest.mark.parametrize("c1, c2", PARAMS)
@property_test
@given(searches(spd_quadratics()))
def test_search_replays_the_reference_on_random_quadratics(c1, c2, case):
    check_same_search(*case, c1, c2)


@pytest.mark.parametrize("c1, c2", PARAMS)
@property_test
@given(searches(small_logistics()))
def test_search_replays_the_reference_on_small_logistic_problems(c1, c2, case):
    check_same_search(*case, c1, c2)


class SteepWall(ObjectiveOracle):
    """f(x) = -x + x^8 / 200 in one dimension: the slope at 0 is -1 and
    still -0.96 at 1, and f at 2 is higher than at 1 but passes Armijo
    and Wolfe."""

    dim = 1

    def at(self, x):
        return SimpleNamespace(value=lambda: float(-x[0] + x[0] ** 8 / 200),
                               gradient=lambda: np.array([-1.0 + x[0] ** 7 / 25]))


def test_the_wolfe_point_is_returned_though_an_earlier_armijo_point_is_lower():
    obj, x, d = SteepWall(), np.zeros(1), np.ones(1)
    params = ArmijoWolfe(c1=0.1, c2=0.75)
    out = armijo_wolfe_search(obj, x, d, 0.0, -1.0, params)
    assert (out.t, out.warning, out.evals_f, out.evals_g) == (2.0, False, 2, 2)
    assert out.f_new > obj.value(x + d)
    ref = _search(reference_armijo_wolfe_search, obj, x, d, 0.0, -1.0, params)
    assert _search(armijo_wolfe_search, obj, x, d, 0.0, -1.0, params) == ref
