import dataclasses
import math
import re

import numpy as np
import pytest

from adaptqn import (Adaptive, ArmijoWolfe, BfgsDense, Constant,
                     GradientDescent, Hybrid, LBfgs, LogisticObjective, Newton,
                     QuadraticObjective, RunConfig, ReferenceOptimum,
                     Termination, run, superlinear_report,
                     synth_logistic, t_settle_index)
from adaptqn import driver
from adaptqn.cli import make_synthetic_quadratic, run_config, stoch_config
from adaptqn.oracles import _LogisticPoint, _QuadraticPoint
from adaptqn.stochastic import (OnlineSampler, _BatchPoint, draw_batch, make_sparse_beta,
                                make_synthetic_sigma, stochastic_run)
from conftest import NoSolve


def norm_ball_objective(n=3, radius=3.0):
    obj = QuadraticObjective(np.eye(n), np.zeros(n))
    x0 = np.zeros(n)
    x0[0] = radius
    return obj, x0


def test_damped_newton_norm_recursion():
    # ||x_{k+1}|| = ||x_k||^2 / (1 + ||x_k||), starting from 3
    obj, x0 = norm_ball_objective()
    cfg = RunConfig(direction=Newton(), step=Adaptive(), grad_tol=1e-150,
                    max_iters=20, x0=x0,
                    reference=ReferenceOptimum(x=np.zeros(3), f=0.0))
    trace = run(cfg, obj)
    r = 3.0
    for rec in trace.rows():
        if rec.step_kind == "terminal":
            break
        assert rec.gnorm == pytest.approx(r, rel=1e-12)
        r = r * r / (1.0 + r)
    assert trace.termination.kind == "grad_tol"


def test_gradient_descent_matches_newton_on_identity_quadratic():
    # with G = I the two variants produce identical steps
    obj, x0 = norm_ball_objective()
    traces = [run(RunConfig(direction=rule, step=Adaptive(), grad_tol=1e-10,
                            max_iters=50, x0=x0), obj)
              for rule in (Newton(), GradientDescent())]
    t_a = traces[0].step_sizes()
    t_b = traces[1].step_sizes()
    np.testing.assert_allclose(t_a, t_b, rtol=1e-12)


def test_newton_constant_unit_step_finishes_in_one_iteration():
    obj = make_synthetic_quadratic(6, cond=50.0, seed=1)
    cfg = RunConfig(direction=Newton(), step=Constant(1.0), grad_tol=1e-10,
                    max_iters=10)
    trace = run(cfg, obj)
    assert trace.iterations == 1
    assert trace.final.gnorm < 1e-10
    assert trace.termination.kind == "grad_tol"


def test_trace_shape_and_eval_accounting():
    obj = make_synthetic_quadratic(8, cond=100.0, seed=2)
    cfg = RunConfig(direction=BfgsDense(), step=Adaptive(), grad_tol=1e-8,
                    max_iters=200)
    trace = run(cfg, obj)
    assert trace.termination.kind == "grad_tol"
    records = list(trace.rows())
    assert records[-1].step_kind == "terminal"
    assert math.isnan(records[-1].t)
    # one hess_vec per adaptive step
    steps = trace.iterations
    assert records[-1].cum_evals_hv == steps
    # monotone objective for adaptive steps
    fs = [r.f for r in records]
    assert all(f2 <= f1 + 1e-10 * (1 + abs(f1)) for f1, f2 in zip(fs, fs[1:]))
    # k column is contiguous
    assert [r.k for r in records] == list(range(steps + 1))


def test_determinism_bitwise():
    obj = make_synthetic_quadratic(5, cond=30.0, seed=3)
    cfg = RunConfig(direction=LBfgs(memory=4), step=Adaptive(), grad_tol=1e-9,
                    max_iters=100)
    t1, t2 = run(cfg, obj), run(cfg, obj)
    r1, r2 = list(t1.rows()), list(t2.rows())
    assert len(r1) == len(r2)
    for a, b in zip(r1, r2):
        assert a.f == b.f and a.gnorm == b.gnorm
        assert (a.t == b.t) or (math.isnan(a.t) and math.isnan(b.t))
    np.testing.assert_array_equal(t1.final_x, t2.final_x)


def test_max_iters_and_time_budget_terminations():
    obj = make_synthetic_quadratic(6, cond=1000.0, seed=4)
    short = run(RunConfig(direction=GradientDescent(), step=Adaptive(),
                          grad_tol=1e-12, max_iters=3), obj)
    assert short.termination.kind == "max_iters"
    assert short.iterations == 3
    timed = run(RunConfig(direction=GradientDescent(), step=Adaptive(),
                          grad_tol=1e-12, max_iters=10_000, max_seconds=0.0), obj)
    assert timed.termination.kind == "time_budget"


def test_numerical_error_is_surfaced_not_raised():
    obj = QuadraticObjective(-np.eye(3), np.zeros(3))  # concave: Newton must fail
    cfg = RunConfig(direction=Newton(), step=Adaptive(), grad_tol=1e-8, max_iters=5,
                    x0=np.ones(3))
    trace = run(cfg, obj)
    assert trace.termination.kind == "numerical_error"
    assert "factorization" in trace.termination.detail


@pytest.mark.parametrize("max_iters", [2.5, math.nan, -1])
def test_config_refuses_a_max_iters_that_is_not_a_whole_number(max_iters):
    with pytest.raises(ValueError, match="max_iters"):
        RunConfig(direction=GradientDescent(), step=Adaptive(), max_iters=max_iters)


@pytest.mark.parametrize("field, value", [
    ("direction", "bfgs"), ("direction", BfgsDense), ("direction", Adaptive()),
    ("step", "x"), ("step", Adaptive), ("step", None)],
    ids=["direction-str", "direction-class", "direction-step-rule", "step-str", "step-class",
         "step-None"])
def test_config_refuses_a_rule_that_is_not_a_rule_instance(field, value):
    # refused when built: with max_iters=0 a run ends before it uses either rule
    rules = {"direction": GradientDescent(), "step": Adaptive(), field: value}
    with pytest.raises(ValueError, match=f"^{field} must be .*, got {re.escape(repr(value))}$"):
        RunConfig(**rules, max_iters=0)


def test_config_validation():
    obj = make_synthetic_quadratic(4, seed=5)
    with pytest.raises(ValueError):
        RunConfig(direction=GradientDescent(), step=Adaptive(), grad_tol=0.0)
    with pytest.raises(ValueError):
        RunConfig(direction=GradientDescent(), step=Adaptive(), grad_tol=math.nan)
    for max_seconds in (math.nan, -1.0):
        with pytest.raises(ValueError, match="max_seconds"):
            RunConfig(direction=GradientDescent(), step=Adaptive(), max_seconds=max_seconds)
    with pytest.raises(ValueError):
        run(RunConfig(direction=GradientDescent(), step=Adaptive(),
                      x0=np.zeros(3)), obj)
    # dense BFGS is refused above MAX_DENSE_DIM = 5000
    wide = LogisticObjective(synth_logistic(2, 5001, seed=0))
    with pytest.raises(ValueError, match="dense BFGS refused"):
        run(RunConfig(direction=BfgsDense(), step=Adaptive()), wide)


def test_newton_requires_hessian_capability():
    # a point's newton() is Newton's one requirement; run refuses Newton
    # on points without it
    obj = NoSolve(QuadraticObjective(np.eye(3), np.ones(3)))
    with pytest.raises(ValueError, match=r"Newton needs newton\(\)"):
        run(RunConfig(direction=Newton(), step=Adaptive()), obj)


@pytest.mark.parametrize("b, x0", [
    (np.zeros(2), None),                              # x0 is the optimum
    (np.array([np.nan, 0.0]), np.array([1.0, 2.0])),  # f is NaN at x0
])
def test_newton_without_solve_is_refused_before_any_termination(b, x0):
    obj = NoSolve(QuadraticObjective(np.eye(2), b))
    with pytest.raises(ValueError,
                       match=r"Newton needs newton\(\); the evaluation point has none"):
        run(RunConfig(Newton(), Adaptive(), x0=x0), obj)


def test_line_search_budget_warnings_are_counted():
    # on a flat quadratic three evaluations never bracket a Wolfe step,
    # so every search runs out of its budget and warns
    obj = QuadraticObjective(1e-4 * np.eye(2), np.zeros(2))
    searched = run(RunConfig(GradientDescent(), ArmijoWolfe(max_evals=3), max_iters=50,
                             x0=np.ones(2)), obj)
    assert searched.termination.kind == "max_iters"
    assert searched.warnings == 50
    adaptive = run(RunConfig(GradientDescent(), Adaptive(), max_iters=50, x0=np.ones(2)), obj)
    assert adaptive.warnings == 0


def test_batch_newton_solves_on_the_batch_point():
    # a run on batches takes Newton's direction from each batch's point, so
    # the oracle that only measures f and ||g|| needs no newton(), and
    # measures the same bits
    def newton_on_batches(wrap):
        sampler = OnlineSampler(make_synthetic_sigma(6, seed=1), make_sparse_beta(6, seed=2),
                                lam=0.1, seed=3)
        return run(RunConfig(direction=Newton(), step=Adaptive(), max_iters=20),
                   wrap(sampler.expected_objective()),
                   batches=lambda k: draw_batch(sampler, 6))

    trace = newton_on_batches(NoSolve)
    assert trace.termination.kind == "max_iters" and trace.iterations == 20
    plain = newton_on_batches(lambda oracle: oracle)
    assert [r.f for r in trace.rows()] == [r.f for r in plain.rows()]


def test_line_search_stall_is_detected():
    # once per-step decreases drop below one ulp of f, the search can
    # only return steps too small to move x; the driver must stop
    from adaptqn import LogisticObjective, synth_logistic
    obj = LogisticObjective(synth_logistic(200, 20, seed=2))
    cfg = RunConfig(direction=GradientDescent(), step=ArmijoWolfe(),
                    grad_tol=1e-13, max_iters=20000)
    trace = run(cfg, obj)
    assert trace.termination.kind == "numerical_error"
    assert "stalled" in trace.termination.detail
    assert trace.iterations < 20000


def test_stall_comparison_is_elementwise_equality():
    # run's stall test compares memoryviews: ±0 equal, NaN unequal, as (a == b).all()
    for a, b in [([0.0, 1.0], [-0.0, 1.0]), ([np.nan], [np.nan]), ([1.0, 2.0], [1.0, 2.0]),
                 ([1.0, 2.0], [1.0, np.nextafter(2.0, 3.0)])]:
        a, b = np.array(a), np.array(b)
        assert (a.data == b.data) == bool((a == b).all())


def test_armijo_wolfe_run_on_quadratic():
    obj = make_synthetic_quadratic(6, cond=100.0, seed=6)
    cfg = RunConfig(direction=BfgsDense(), step=ArmijoWolfe(), grad_tol=1e-8,
                    max_iters=300)
    trace = run(cfg, obj)
    assert trace.termination.kind == "grad_tol"
    fs = [r.f for r in trace.rows()]
    assert all(f2 <= f1 + 1e-10 * (1 + abs(f1)) for f1, f2 in zip(fs, fs[1:]))


def test_hybrid_run_records_kinds():
    obj = make_synthetic_quadratic(6, cond=100.0, seed=7)
    cfg = RunConfig(direction=BfgsDense(), step=Hybrid(), grad_tol=1e-8,
                    max_iters=300)
    trace = run(cfg, obj)
    kinds = {r.step_kind for r in trace.rows()}
    assert kinds <= {"hybrid_candidate", "hybrid_fallback", "terminal"}
    assert trace.termination.kind == "grad_tol"


def test_t_settle_index():
    assert t_settle_index([]) is None
    assert t_settle_index([0.2, 0.3, 0.4]) is None
    assert t_settle_index([1.0] * 10) == 0
    # settles halfway: 5 bad then 5 good
    ts = [0.2] * 5 + [1.0] * 5
    idx = t_settle_index(ts)
    assert idx is not None and 3 <= idx <= 5
    # one outlier inside an otherwise settled tail is tolerated at 80%
    assert t_settle_index([0.2, 0.2, 1.0, 1.0, 1.7, 1.0, 1.0, 0.98]) <= 3


def _t_settle_by_definition(ts):
    """The smallest k0 whose tail mean reaches 80%, tail by tail."""
    near = np.abs(np.asarray(ts, dtype=float) - 1.0) < 0.1
    return next((k0 for k0 in range(near.size) if near[k0:].mean() >= 0.8), None)


def test_t_settle_index_matches_its_definition():
    rng = np.random.default_rng(17)
    for _ in range(500):
        size = int(rng.integers(0, 60))
        # step sizes near 1 with a random share, some exactly on the 0.1 edges
        ts = np.where(rng.random(size) < rng.random(), 1.0 + rng.uniform(-0.12, 0.12, size),
                      rng.choice([0.5, 0.9, 1.1, 2.0], size))
        assert t_settle_index(ts) == _t_settle_by_definition(ts)
    # 5000 steps, one in two near 1, never settle; 4000 more at 1 settle them
    ts = np.tile([1.0, 0.5], 2500)
    assert t_settle_index(ts) is None and _t_settle_by_definition(ts) is None
    ts = np.append(ts, [1.0] * 4000)
    assert t_settle_index(ts) == _t_settle_by_definition(ts) == 2334


def test_superlinear_report_requires_reference():
    obj = make_synthetic_quadratic(4, seed=8)
    trace = run(RunConfig(direction=BfgsDense(), step=Adaptive(), grad_tol=1e-8,
                          max_iters=100), obj)
    with pytest.raises(ValueError, match="superlinear_report needs a reference optimum"):
        superlinear_report(trace)


def test_superlinear_report_constant_rule_not_applicable():
    obj = make_synthetic_quadratic(4, seed=9)
    xs, fs = obj.minimizer()
    ref = ReferenceOptimum(x=xs, f=fs)
    trace = run(RunConfig(direction=Newton(), step=Constant(1.0), grad_tol=1e-10,
                          max_iters=5, reference=ref), obj)
    rep = superlinear_report(trace)
    assert not rep.t_stats_applicable
    assert rep.settle_index is None


def test_superlinear_report_flags_slow_gradient_descent():
    # adaptive GD on a cond=1000 quadratic: error ratios plateau near 1
    obj = make_synthetic_quadratic(8, cond=1000.0, seed=10)
    xs, fs = obj.minimizer()
    ref = ReferenceOptimum(x=xs, f=fs)
    trace = run(RunConfig(direction=GradientDescent(), step=Adaptive(),
                          grad_tol=1e-9, max_iters=400, reference=ref), obj)
    rep = superlinear_report(trace)
    assert len(rep.tail_ratios) == 5
    assert not rep.tail_below_half
    assert rep.final_ratio > 0.5


def test_rlinear_envelope_on_quadratic():
    # fitted slope of log10(f - f*) vs k is strictly negative for GD-A
    obj = make_synthetic_quadratic(8, cond=100.0, seed=11)
    xs, fs = obj.minimizer()
    trace = run(RunConfig(direction=GradientDescent(), step=Adaptive(),
                          grad_tol=1e-10, max_iters=2000), obj)
    gaps = np.array([r.f - fs for r in trace.rows()])
    gaps = gaps[gaps > 0]
    slope = np.polyfit(np.arange(gaps.size), np.log10(gaps), 1)[0]
    assert slope < 0.0


def test_log_gap_and_err_ratio_columns(desk_bfgs_a_trace):
    trace = desk_bfgs_a_trace
    assert trace.termination.kind == "grad_tol"
    records = list(trace.rows())
    gaps = [r.log_gap for r in records if r.log_gap is not None]
    assert all(g2 <= g1 + 1e-9 for g1, g2 in zip(gaps, gaps[1:]))
    ratios = [r.err_ratio for r in records if r.err_ratio is not None]
    assert ratios and all(r > 0 for r in ratios)


def test_desk_bfgs_final_step_near_one(desk_bfgs_a_trace):
    ts = desk_bfgs_a_trace.step_sizes()
    assert abs(ts[-1] - 1.0) < 0.1


# Oracle work per method on the desk logistic problem, as reported in the
# trace CSV: (iterations, evals_f, evals_g, evals_hv) on the terminal row.
# Sharing work between evaluations at one x must not change these counts.
DESK_EVAL_COUNTS = {
    "bfgs-a": (BfgsDense(), Adaptive(), (30, 32, 31, 30)),
    "bfgs-ls": (BfgsDense(), ArmijoWolfe(c1=0.1, c2=0.75), (13, 20, 14, 0)),
    "bfgs-h": (BfgsDense(), Hybrid(), (16, 22, 17, 0)),
    "newton-a": (Newton(), Adaptive(), (26, 28, 27, 26)),
}


@pytest.mark.parametrize("method", sorted(DESK_EVAL_COUNTS))
def test_desk_eval_counts_are_pinned(desk_logistic, method):
    direction, step, expected = DESK_EVAL_COUNTS[method]
    trace = run(RunConfig(direction=direction, step=step, grad_tol=1e-7,
                          max_iters=5000), desk_logistic)
    assert trace.termination.kind == "grad_tol"
    final = trace.final
    assert (trace.iterations, final.cum_evals_f, final.cum_evals_g,
            final.cum_evals_hv) == expected


@pytest.mark.parametrize("direction, step", [
    (GradientDescent(), Adaptive()),
    (BfgsDense(), Adaptive()),
    (GradientDescent(), Constant(0.5)),
])
def test_nan_objective_ends_numerical_error(direction, step):
    obj = QuadraticObjective(np.eye(3), np.array([1.0, np.nan, 0.0]))
    trace = run(RunConfig(direction=direction, step=step, max_iters=50), obj)
    assert trace.termination.kind == "numerical_error"
    assert "non-finite" in trace.termination.detail
    assert trace.iterations == 0


def count_rays(monkeypatch, point_class):
    """A one-item list that counts the ray() calls on point_class."""
    built = [0]
    ray = point_class.ray

    def counted(self, d):
        built[0] += 1
        return ray(self, d)

    monkeypatch.setattr(point_class, "ray", counted)
    return built


@pytest.mark.parametrize("method", ["bfgs-ls", "bfgs-h", "bfgs-a", "gd-a"])
def test_every_iteration_builds_one_ray(desk_logistic, monkeypatch, method):
    # the line search reads no ray, yet gets one like every other rule
    built = count_rays(monkeypatch, _LogisticPoint)
    trace = run(run_config(method, dim=desk_logistic.dim, grad_tol=1e-6, max_iters=200),
                desk_logistic)
    assert trace.termination.kind == "grad_tol"
    assert built[0] == trace.iterations > 0


@pytest.mark.parametrize("method", ["sgd-1", "sn-1", "sbfgs-1", "sgd-a"])
def test_every_batch_iteration_builds_one_ray(monkeypatch, method):
    # on batches only the adaptive step and a quasi-Newton pair read the ray
    built = count_rays(monkeypatch, _BatchPoint)
    sampler = OnlineSampler(make_synthetic_sigma(6, seed=1), make_sparse_beta(6, seed=2),
                            lam=0.1, seed=3)
    kernel, schedule, step = stoch_config(method, p=6)
    trace = stochastic_run(kernel, schedule, step, sampler, x0=np.zeros(6), budget=200)
    assert trace.termination.kind == "max_iters"
    assert built[0] == trace.iterations == 200


@pytest.mark.parametrize("t", [math.inf, math.nan])
def test_a_non_finite_step_ends_numerical_error(monkeypatch, t):
    # no built-in rule returns such a t, but a wrapper of choose_step may
    choose_step = driver.choose_step
    monkeypatch.setattr(driver, "choose_step",
                        lambda *args: dataclasses.replace(choose_step(*args), t=t))
    trace = run(RunConfig(direction=BfgsDense(), step=Adaptive(), max_iters=20),
                QuadraticObjective(np.diag([1.0, 4.0]), np.ones(2)))
    assert trace.termination == Termination("numerical_error", f"non-finite t = {t} at k=0")
    assert trace.iterations == 0


def test_nan_curvature_ends_numerical_error():
    class NanHessVecPoint(_QuadraticPoint):
        def _hess_vec(self, d):
            return np.full_like(d, np.nan)

    class NanHessVec(QuadraticObjective):
        def at(self, x):
            return NanHessVecPoint(self, self._check(x))

    trace = run(RunConfig(direction=BfgsDense(), step=Adaptive(), max_iters=20),
                NanHessVec(np.eye(3), np.ones(3)))
    assert trace.termination.kind == "numerical_error"
    assert "d'Gd = nan" in trace.termination.detail
    assert trace.iterations == 0


def spoiled_quadratic(f_away):
    """||x||^2/2 + 1'x, started at x0 = 1 where f = 3, with a NaN G d
    everywhere and ``f_away`` as f at every other point."""
    class Point(_QuadraticPoint):
        def value(self):
            return super().value() if (self._x == 1.0).all() else f_away

        def _hess_vec(self, d):
            return np.full_like(d, np.nan)

    class Spoiled(QuadraticObjective):
        def at(self, x):
            return Point(self, self._check(x))

    return Spoiled(np.eye(2), np.ones(2))


@pytest.mark.parametrize("step, f_away, detail", [
    (Adaptive(), 4.0, "d'Gd = nan"),
    (ArmijoWolfe(max_evals=6), 4.0, "no Armijo step within 6 evaluations"),
    (Hybrid(), math.nan, "non-finite trial f"),
], ids=["adaptive", "line-search", "hybrid"])
def test_a_step_rule_that_raises_leaves_its_requests_uncounted(step, f_away, detail):
    # a rule that raises returns no StepOutcome, so the terminal row counts
    # f and g at x0 only, whatever the rule requested before it raised
    trace = run(RunConfig(GradientDescent(), step, max_iters=5, x0=np.ones(2)),
                spoiled_quadratic(f_away))
    assert trace.termination.kind == "numerical_error"
    assert detail in trace.termination.detail
    assert trace.iterations == 0
    final = trace.final
    assert (final.cum_evals_f, final.cum_evals_g, final.cum_evals_hv) == (1, 1, 0)


def test_diverging_constant_step_ends_numerical_error():
    # x <- x - 3 (x + 1) doubles |x| every step until f overflows
    obj = QuadraticObjective(np.eye(2), np.ones(2))
    with np.errstate(over="ignore", invalid="ignore"):
        trace = run(RunConfig(direction=GradientDescent(), step=Constant(3.0),
                              max_iters=2000), obj)
    assert trace.termination.kind == "numerical_error"
    assert "non-finite" in trace.termination.detail
    assert trace.iterations < 2000
    assert all(math.isfinite(r.f) for r in list(trace.rows())[:-1])
