import numpy as np
import pytest

from adaptqn import (Adaptive, ArmijoWolfe, Constant, HessVecRay, Hybrid,
                     LogisticObjective, NumericalError, ObjectiveOracle,
                     QuadraticObjective, adaptive_step_size, armijo_check,
                     armijo_wolfe_search, choose_step, hybrid_select, omega,
                     synth_logistic, wolfe_check)
from adaptqn.directions import GradientDescent, compute_direction, new_state
from adaptqn.oracles import _QuadraticPoint
from adaptqn.steps import _bracket_step, _quad_interp


class CountingWrapper(ObjectiveOracle):
    """Counts the value/gradient/hess_vec requests made on the points
    it returns and on their rays."""

    def __init__(self, inner):
        self.inner = inner
        self.n_f = self.n_g = self.n_hv = 0

    @property
    def dim(self):
        return self.inner.dim

    def at(self, x):
        return CountingPoint(self, x, self.inner.at(x))


class CountingPoint:
    def __init__(self, counts, x, inner):
        self.counts = counts
        self.x = x
        self.inner = inner

    def value(self):
        self.counts.n_f += 1
        return self.inner.value()

    def gradient(self):
        self.counts.n_g += 1
        return self.inner.gradient()

    def ray(self, d):
        inner = self.inner.ray(d)

        def product(d):
            self.counts.n_hv += 1
            return inner.hess_vec()

        return HessVecRay(self.counts, self.x, d, product)


def test_armijo_check_boundary_and_failure():
    # boundary is inclusive
    f0, t, gd, c1 = 1.0, 0.5, -2.0, 0.3
    assert armijo_check(f0, f0 + c1 * t * gd, t, gd, c1)
    assert not armijo_check(f0, f0, t, gd, c1)
    assert armijo_check(f0, f0 - 1.0, t, gd, c1)


def test_wolfe_check():
    assert wolfe_check(0.0, -1.0, 0.75)
    assert not wolfe_check(-1.0, -1.0, 0.75)
    assert wolfe_check(-0.74, -1.0, 0.75)
    assert not wolfe_check(-0.76, -1.0, 0.75)


def test_rule_validation():
    for alpha in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            Constant(alpha=alpha)
    for c1 in (-1.0, 0.0, 0.6, np.nan):
        with pytest.raises(ValueError):
            Hybrid(c1=c1)
    for candidates in ((0.0,), (np.nan,), (1.0, np.inf), (1.0, -0.5)):
        with pytest.raises(ValueError):
            Hybrid(candidates=candidates)
    Hybrid(candidates=())  # no candidate: the adaptive fallback every time
    Hybrid(c1=0.5)
    with pytest.raises(ValueError):
        ArmijoWolfe(c1=0.6)
    with pytest.raises(ValueError):
        ArmijoWolfe(c1=0.2, c2=0.1)
    with pytest.raises(ValueError):
        ArmijoWolfe(c2=1.0)


def test_adaptive_step_on_norm_squared():
    # f = ||x||^2/2, damped-Newton algebra: t = 1/(1+||x||)
    n = 4
    obj = CountingWrapper(QuadraticObjective(np.eye(n), np.zeros(n)))
    rng = np.random.default_rng(0)
    x = rng.standard_normal(n)
    r = np.linalg.norm(x)
    d = -x
    rho = r * r
    t, delta, eta = adaptive_step_size(obj.at(x).ray(d), rho)
    assert obj.n_hv == 1
    assert delta == pytest.approx(r, rel=1e-14)
    assert t == pytest.approx(1.0 / (1.0 + r), rel=1e-14)
    x_next = x + t * d
    np.testing.assert_allclose(x_next, (r / (1.0 + r)) * x, rtol=1e-14)


def test_adaptive_step_curvature_error():
    obj = QuadraticObjective(-np.eye(2), np.zeros(2))
    with pytest.raises(NumericalError, match="d'Gd = .* is not positive and finite"):
        adaptive_step_size(obj.at(np.ones(2)).ray(np.ones(2)), 1.0)


def test_adaptive_decrease_bound_on_logistic():
    obj = LogisticObjective(synth_logistic(150, 12, seed=2))
    x = np.zeros(12)
    for _ in range(25):
        g = obj.gradient(x)
        d = -g
        rho = float(g @ g)
        t, delta, eta = adaptive_step_size(obj.at(x).ray(d), rho)
        f0 = obj.value(x)
        f1 = obj.value(x + t * d)
        assert f1 <= f0 - omega(eta) + 1e-10 * (1.0 + abs(f0))
        x = x + t * d


def test_armijo_wolfe_immediate_accept():
    n = 3
    obj = CountingWrapper(QuadraticObjective(np.eye(n), np.zeros(n)))
    x = np.array([1.0, -2.0, 2.0])
    d = -x
    f0 = obj.value(x)
    obj.n_f = obj.n_g = 0
    out = armijo_wolfe_search(obj, x, d, f0, float(obj.inner.gradient(x) @ d),
                              ArmijoWolfe(c1=0.1, c2=0.75))
    assert out.t == 1.0
    assert out.kind == "line_search"
    assert (obj.n_f, obj.n_g) == (1, 1)
    assert not out.warning


def test_armijo_wolfe_backtracks_on_steep_curvature():
    # curvature so large along d that t = 1 violates Armijo
    A = np.diag([400.0, 1.0])
    obj = QuadraticObjective(A, np.zeros(2))
    x = np.array([1.0, 1.0])
    d = -obj.gradient(x)
    f0 = obj.value(x)
    gd = float(obj.gradient(x) @ d)
    out = armijo_wolfe_search(obj, x, d, f0, gd, ArmijoWolfe(c1=0.1, c2=0.75))
    assert out.t < 1.0
    # re-check both predicates independently
    f1 = obj.value(x + out.t * d)
    gd1 = float(obj.gradient(x + out.t * d) @ d)
    assert armijo_check(f0, f1, out.t, gd, 0.1)
    assert wolfe_check(gd1, gd, 0.75)


def test_armijo_wolfe_expands_when_one_is_too_short():
    # f(x) = ||x||^2/2e4 is so flat that t=1 satisfies Armijo but not Wolfe
    A = 1e-4 * np.eye(2)
    obj = QuadraticObjective(A, np.zeros(2))
    x = np.array([1.0, 1.0])
    d = -obj.gradient(x)
    f0 = obj.value(x)
    gd = float(obj.gradient(x) @ d)
    out = armijo_wolfe_search(obj, x, d, f0, gd, ArmijoWolfe(c1=0.1, c2=0.75))
    assert out.t > 1.0
    f1 = obj.value(x + out.t * d)
    gd1 = float(obj.gradient(x + out.t * d) @ d)
    assert armijo_check(f0, f1, out.t, gd, 0.1)
    assert wolfe_check(gd1, gd, 0.75)


def test_armijo_wolfe_precondition():
    obj = QuadraticObjective(np.eye(2), np.zeros(2))
    with pytest.raises(ValueError, match="line search needs a descent direction"):
        armijo_wolfe_search(obj, np.ones(2), np.ones(2), 1.0, 1.0, ArmijoWolfe())


class UnitValuePoint(_QuadraticPoint):
    def value(self):
        return 1.0


class NeverDecreases(QuadraticObjective):
    """Claims descent via gradient but the value never drops (stub)."""

    def at(self, x):
        return UnitValuePoint(self, self._check(x))


def test_armijo_wolfe_budget_failure():
    obj = NeverDecreases(np.eye(2), np.zeros(2))
    with pytest.raises(NumericalError, match="no Armijo step within 8 evaluations"):
        armijo_wolfe_search(obj, np.ones(2), -np.ones(2), 1.0, -2.0,
                            ArmijoWolfe(max_evals=8))


def test_armijo_wolfe_warning_when_wolfe_unreachable_in_budget():
    # very flat quadratic: Armijo passes everywhere near 1, Wolfe needs
    # t ~ 1e4, so a tiny budget ends on the best Armijo point
    obj = QuadraticObjective(1e-4 * np.eye(2), np.zeros(2))
    x = np.array([1.0, 1.0])
    d = -obj.gradient(x)
    gd = float(obj.gradient(x) @ d)
    out = armijo_wolfe_search(obj, x, d, obj.value(x), gd, ArmijoWolfe(max_evals=3))
    assert out.warning
    assert armijo_check(obj.value(x), obj.value(x + out.t * d), out.t, gd, 0.1)


def test_hybrid_precondition():
    obj = QuadraticObjective(np.eye(2), np.zeros(2))
    with pytest.raises(ValueError, match="hybrid selection needs a descent direction"):
        hybrid_select(obj.at(np.ones(2)).ray(np.ones(2)), 1.0, 1.0, 1.0, Hybrid())


def test_line_search_contract_on_logistic_run():
    obj = LogisticObjective(synth_logistic(200, 15, seed=3))
    x = np.zeros(15)
    params = ArmijoWolfe(c1=0.1, c2=0.75)
    for _ in range(30):
        g = obj.gradient(x)
        if np.linalg.norm(g) < 1e-8:
            break
        d = -g
        f0 = obj.value(x)
        out = armijo_wolfe_search(obj, x, d, f0, float(g @ d), params)
        assert not out.warning
        f1 = obj.value(x + out.t * d)
        gd1 = float(obj.gradient(x + out.t * d) @ d)
        assert armijo_check(f0, f1, out.t, float(g @ d), params.c1)
        assert wolfe_check(gd1, float(g @ d), params.c2)
        x = x + out.t * d


def test_accepted_trial_point_is_returned():
    obj = LogisticObjective(synth_logistic(200, 15, seed=3))
    x = np.zeros(15)
    g = obj.gradient(x)
    ls = armijo_wolfe_search(obj, x, -g, obj.value(x), float(-g @ g), ArmijoWolfe())
    hy = hybrid_select(obj.at(x).ray(-g), obj.value(x), float(-g @ g), float(g @ g),
                       Hybrid())
    for out in (ls, hy):
        x_new = x - out.t * g
        assert out.point.value() == out.f_new == obj.value(x_new)
        np.testing.assert_array_equal(out.point.gradient(), obj.gradient(x_new))
    np.testing.assert_array_equal(ls.g_new, obj.gradient(x - ls.t * g))


def test_hybrid_accepts_unit_step_on_quadratic():
    obj = CountingWrapper(QuadraticObjective(np.eye(3), np.zeros(3)))
    x = np.array([1.0, 2.0, -1.0])
    d = -x
    f0 = obj.value(x)
    gd = float(-x @ x)
    obj.n_f = obj.n_hv = 0
    out = hybrid_select(obj.at(x).ray(d), f0, gd, -gd, Hybrid(c1=0.5))
    assert out.t == 1.0
    assert out.kind == "hybrid_candidate"
    assert obj.n_f == 1 and obj.n_hv == 0


def test_hybrid_falls_back_to_adaptive():
    # huge curvature: all of (1, 1/4, 1/16) fail Armijo
    A = np.diag([4e4, 3e4])
    obj = CountingWrapper(QuadraticObjective(A, np.zeros(2)))
    x = np.array([1.0, 1.0])
    g = obj.inner.gradient(x)
    d = -g
    rho = float(g @ g)
    f0 = obj.inner.value(x)
    out = hybrid_select(obj.at(x).ray(d), f0, float(g @ d), rho, Hybrid())
    assert out.kind == "hybrid_fallback"
    assert obj.n_f == 3 and obj.n_hv == 1
    t_direct, delta, eta = adaptive_step_size(obj.inner.at(x).ray(d), rho)
    assert out.t == pytest.approx(t_direct, rel=1e-14)
    assert out.eta == pytest.approx(eta, rel=1e-14)


def test_hybrid_empty_candidates_is_pure_adaptive():
    obj = QuadraticObjective(np.eye(2), np.zeros(2))
    x = np.array([3.0, 4.0])
    g = obj.gradient(x)
    out = hybrid_select(obj.at(x).ray(-g), obj.value(x), float(-g @ g), float(g @ g),
                        Hybrid(candidates=()))
    t_direct, _, _ = adaptive_step_size(obj.at(x).ray(-g), float(g @ g))
    assert out.kind == "hybrid_fallback"
    assert out.t == pytest.approx(t_direct, rel=1e-14)


def test_adaptive_step_closed_form_in_g_H_G():
    # composing d = -Hg with the step formula must equal
    # g'Hg / (g'HGHg + g'Hg sqrt(g'HGHg))
    rng = np.random.default_rng(21)
    n = 7
    qh, _ = np.linalg.qr(rng.standard_normal((n, n)))
    H = (qh * np.linspace(0.4, 2.0, n)) @ qh.T
    qg, _ = np.linalg.qr(rng.standard_normal((n, n)))
    G = (qg * np.linspace(0.5, 5.0, n)) @ qg.T
    obj = QuadraticObjective(G, np.zeros(n))
    for _ in range(20):
        x = rng.standard_normal(n)
        g = obj.gradient(x)
        d = -(H @ g)
        rho = -float(g @ d)
        t, delta, eta = adaptive_step_size(obj.at(x).ray(d), rho)
        gHg = float(g @ H @ g)
        gHGHg = float(g @ H @ G @ H @ g)
        want = gHg / (gHGHg + gHg * np.sqrt(gHGHg))
        assert t == pytest.approx(want, rel=1e-12)
        assert delta == pytest.approx(np.sqrt(gHGHg), rel=1e-12)


def test_choose_step_dispatch():
    obj = QuadraticObjective(np.eye(2), np.zeros(2))
    x = np.array([1.0, 1.0])
    g = obj.gradient(x)
    d, rho = compute_direction(new_state(GradientDescent(), 2), obj.at(x), g)
    f0 = obj.value(x)
    ray = obj.at(x).ray(d)
    assert choose_step(Adaptive(), obj, x, d, f0, g, rho, ray).kind == "adaptive"
    assert choose_step(Constant(0.3), obj, x, d, f0, g, rho, ray).t == 0.3
    assert choose_step(ArmijoWolfe(), obj, x, d, f0, g, rho, ray).kind == "line_search"
    assert choose_step(Hybrid(), obj, x, d, f0, g, rho, ray).kind in ("hybrid_candidate",
                                                                      "hybrid_fallback")


def test_interpolation_without_a_convex_model_falls_back():
    # no positive curvature through (0, f0) with slope gd and (t, ft): no minimizer
    assert np.isnan(_quad_interp(0.0, -1.0, 1.0, -1.0))
    assert np.isnan(_quad_interp(0.0, -1.0, 1.0, np.inf))
    # so the bracket (1, 3) is bisected
    assert _bracket_step(1.0, 0.0, -1.0, 3.0, -2.0) == 2.0
