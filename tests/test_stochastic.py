import gc
import math
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from adaptqn import (Adaptive, ArmijoWolfe, BfgsDense, Constant,
                     ConstantBatch, GrowingBatch, HessVecRay, Newton, NumericalError,
                     ObjectiveOracle, OnlineLsExpectedObjective, OnlineSampler,
                     QuadraticObjective, RunConfig, SampledBatchOracle, Termination,
                     bfgs_update_dense, draw_batch, ingest_pair,
                     make_sparse_beta, make_synthetic_sigma, new_state, omega,
                     run, stochastic_run)
from adaptqn import oracles, stochastic
from adaptqn.sc import adaptive_step
from adaptqn.stochastic import CONSTANT_STEP_SIZES
from conftest import adaptqn_workers, sym, use_cpus


def make_sampler(p=10, seed=7, sigma_seed=3, **kw):
    sigma = make_synthetic_sigma(p, seed=sigma_seed)
    beta = make_sparse_beta(p, seed=12)
    return OnlineSampler(sigma, beta, lam=1.0 / p, seed=seed, **kw)


def test_constant_step_table():
    assert CONSTANT_STEP_SIZES["alpha1"] == pytest.approx(1.0 / 140000.0)
    assert CONSTANT_STEP_SIZES["alpha2"] == 5e-6
    assert CONSTANT_STEP_SIZES["alpha3"] == 2e-6
    assert CONSTANT_STEP_SIZES["alpha4"] == 1e-6


def test_batch_size_schedule():
    sched = GrowingBatch(base=150)
    assert sched.size_at(0) == 150
    assert sched.size_at(49) == 150
    assert sched.size_at(50) == 158  # ceil(150 * 1.05)
    assert ConstantBatch(40).size_at(1234) == 40
    ks = np.arange(0, 2000, 13)
    sizes = [sched.size_at(int(k)) for k in ks]
    assert all(b >= a for a, b in zip(sizes, sizes[1:]))


def test_draw_batch_determinism():
    a, b = make_sampler(), make_sampler()
    ba, bb = draw_batch(a, 64), draw_batch(b, 64)
    np.testing.assert_array_equal(ba.X, bb.X)
    np.testing.assert_array_equal(ba.Y, bb.Y)
    # stream advances
    ba2 = draw_batch(a, 64)
    assert not np.array_equal(ba.X, ba2.X)
    # the two share one model, each with its own stream; another seed draws another batch
    assert a.expected_objective() is b.expected_objective()
    assert not np.array_equal(ba.X, draw_batch(make_sampler(seed=8), 64).X)


def test_samplers_from_equal_inputs_share_one_model_factored_once(monkeypatch):
    models = weakref.WeakValueDictionary()
    monkeypatch.setattr(stochastic, "_MODELS", models)
    calls = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(a) or cholesky(a))
    sigma, beta = make_synthetic_sigma(30, seed=3), make_sparse_beta(30, seed=12)
    # 3 streams x 5 methods, each from its own copy of the inputs
    samplers = [OnlineSampler(sigma.copy(), beta.copy(), 1.0 / 30, seed=s)
                for s in (11, 12, 13) for _ in range(5)]
    assert len(calls) == 1
    assert len({id(s.expected_objective()) for s in samplers}) == 1
    assert len({id(s._chol) for s in samplers}) == 1
    # a singular covariance takes the jitter path, once for all of them
    singular = [OnlineSampler(np.ones((2, 2)), np.zeros(2), 0.5, seed=s) for s in range(15)]
    assert len(calls) == 3
    assert singular[0].expected_objective() is singular[-1].expected_objective()
    # another lam is another model
    assert OnlineSampler(sigma, beta, 0.5, seed=0).expected_objective() is not \
        samplers[0].expected_objective()
    # an entry leaves once no sampler holds its model
    del samplers, singular
    gc.collect()
    assert len(models) == 0


def test_the_shared_model_is_a_read_only_copy_of_the_inputs():
    p = 6
    sigma, beta = make_synthetic_sigma(p, seed=3), make_sparse_beta(p, seed=12)
    a = OnlineSampler(sigma, beta, 1.0 / p, seed=5)
    b = OnlineSampler(sigma, beta, 1.0 / p, seed=5)
    e = a.expected_objective()
    for arr in (e.sigma, e.beta, e.chol):
        assert not arr.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        e.sigma[0, 0] = 1.0
    w = np.linspace(-1.0, 1.0, p)
    f, g, batch = e.value(w), e.gradient(w), draw_batch(b, 8)
    sigma[:] = np.eye(p)
    beta[:] = 1.0
    assert e.value(w) == f
    np.testing.assert_array_equal(e.gradient(w), g)
    # a, on the same seed as b, draws the batch b drew before the writes
    after = draw_batch(a, 8)
    np.testing.assert_array_equal(after.X, batch.X)
    np.testing.assert_array_equal(after.Y, batch.Y)


def test_draw_batch_monte_carlo_moments():
    p = 4
    sampler = OnlineSampler(np.eye(p), np.zeros(p), lam=0.25, seed=123)
    assert sampler.dim == p
    batch = draw_batch(sampler, 100_000)
    # beta = 0: Y is pure noise with mean 0
    assert abs(batch.Y.mean()) <= 3.0 * batch.Y.std() / math.sqrt(batch.Y.size)
    e1 = np.zeros(p)
    e1[0] = 1.0
    sampler2 = OnlineSampler(np.eye(p), e1, lam=0.25, seed=124)
    b2 = draw_batch(sampler2, 100_000)
    cov = np.cov(b2.X[:, 0], b2.Y)[0, 1]
    assert cov == pytest.approx(1.0, abs=0.05)


def test_batch_oracle_formulas():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((32, 5))
    Y = rng.standard_normal(32)
    lam = 0.2
    oracle = SampledBatchOracle(X, Y, lam)
    assert (oracle.size, oracle.dim) == X.shape
    w = rng.standard_normal(5)
    d = rng.standard_normal(5)
    r = Y - X @ w
    assert oracle.value(w) == pytest.approx(float(r @ r) / 32 + 0.5 * lam * w @ w)
    np.testing.assert_allclose(oracle.gradient(w),
                               -(2 / 32) * X.T @ r + lam * w, rtol=1e-12)
    np.testing.assert_allclose(oracle.at(w).ray(d).hess_vec(),
                               (2 / 32) * X.T @ (X @ d) + lam * d, rtol=1e-12)
    # the Newton direction: G u = -g
    np.testing.assert_allclose(oracle.at(w).ray(oracle.at(w).newton()).hess_vec(),
                               -oracle.gradient(w), rtol=1e-12)
    h = 1e-6
    e = np.zeros(5)
    e[2] = h
    fd = (oracle.value(w + e) - oracle.value(w - e)) / (2 * h)
    assert fd == pytest.approx(oracle.gradient(w)[2], rel=1e-5)


def test_sbfgs_pair_identity_fixed_point():
    # the pair (d, G_hat d) enters dense BFGS through ingest_pair
    d = np.array([1.0, -2.0, 0.5])
    state = new_state(BfgsDense(), 3)
    assert ingest_pair(state, d, d)
    np.testing.assert_allclose(sym(state.H), np.eye(3), atol=1e-14)


def test_sbfgs_pair_scale_invariance_and_skip():
    rng = np.random.default_rng(1)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    G = (q * np.linspace(0.5, 2.0, 4)) @ q.T
    d = rng.standard_normal(4)
    H1 = bfgs_update_dense(np.eye(4), d, G @ d)
    for t in (0.3, 2.0):
        H2 = bfgs_update_dense(np.eye(4), t * d, t * (G @ d))
        np.testing.assert_allclose(sym(H1), sym(H2), rtol=1e-12)
    state = new_state(BfgsDense(), 4)
    assert not ingest_pair(state, d, -G @ d)
    assert state.skipped == 1
    np.testing.assert_array_equal(state.H, np.eye(4))


def test_stochastic_run_determinism():
    tr1 = stochastic_run("sbfgs", GrowingBatch(base=5), Adaptive(),
                         make_sampler(), x0=np.zeros(10), budget=120)
    tr2 = stochastic_run("sbfgs", GrowingBatch(base=5), Adaptive(),
                         make_sampler(), x0=np.zeros(10), budget=120)
    assert tr1.termination.kind == tr2.termination.kind == "max_iters"
    for a, b in zip(tr1.rows(), tr2.rows()):
        assert a.f == b.f
        assert (a.t == b.t) or (math.isnan(a.t) and math.isnan(b.t))
    np.testing.assert_array_equal(tr1.final_x, tr2.final_x)


def test_adaptive_decrease_holds_per_batch():
    # omega-decrease for the batch objective at the proposal point
    sampler = make_sampler(p=8)
    w = np.zeros(8)
    state = new_state(BfgsDense(), 8)
    for k in range(60):
        batch = draw_batch(sampler, GrowingBatch(base=4).size_at(k))
        g = batch.gradient(w)
        d = -(sym(state.H) @ g)
        rho = -float(g @ d)
        Gd = batch.at(w).ray(d).hess_vec()
        delta = math.sqrt(float(d @ Gd))
        t = adaptive_step(rho, delta)
        eta = rho / delta
        f0, f1 = batch.value(w), batch.value(w + t * d)
        assert f1 <= f0 - omega(eta) + 1e-10 * (1.0 + abs(f0))
        ingest_pair(state, d, Gd)
        w = w + t * d


def test_sbfgs_matches_driver_bfgs_on_fixed_quadratic():
    # a frozen batch is a quadratic; the (d, Gd) update equals the
    # (s, y) update there, so directions must coincide with the driver's
    rng = np.random.default_rng(3)
    X = rng.standard_normal((64, 6))
    Y = rng.standard_normal(64)
    batch = SampledBatchOracle(X, Y, lam=0.5)
    cfg = RunConfig(direction=BfgsDense(), step=Adaptive(), grad_tol=1e-9,
                    max_iters=40)
    trace = run(cfg, batch)

    w = np.zeros(6)
    state = new_state(BfgsDense(), 6)
    my_ts = []
    for _ in range(trace.iterations):
        g = batch.gradient(w)
        d = -(sym(state.H) @ g)
        rho = -float(g @ d)
        Gd = batch.at(w).ray(d).hess_vec()
        delta = math.sqrt(float(d @ Gd))
        t = adaptive_step(rho, delta)
        my_ts.append(t)
        ingest_pair(state, d, Gd)
        w = w + t * d
    np.testing.assert_allclose(my_ts, trace.step_sizes(), rtol=1e-9)
    np.testing.assert_allclose(w, trace.final_x, rtol=1e-7, atol=1e-12)


def test_stochastic_run_validation():
    sampler = make_sampler()
    with pytest.raises(ValueError):
        stochastic_run("annealing", ConstantBatch(8), Adaptive(), sampler,
                       np.zeros(10), 10)
    with pytest.raises(ValueError):
        stochastic_run("sgd", ConstantBatch(8), "half", sampler, np.zeros(10), 10)
    for size in (0, 2.5):
        with pytest.raises(ValueError, match=f"batch size must be a whole number >= 1, "
                                             f"got {size}"):
            draw_batch(sampler, size)
    assert draw_batch(sampler, np.int64(3)).size == 3


def test_snewton_runs_and_records_log_gap():
    trace = stochastic_run("snewton", GrowingBatch(base=5), Adaptive(),
                           make_sampler(), x0=np.zeros(10), budget=150)
    assert trace.termination.kind == "max_iters"
    gaps = [r.log_gap for r in trace.rows() if r.log_gap is not None]
    assert gaps and gaps[-1] < gaps[0]


def test_sgd_constant_step_is_slow():
    p = 10
    fast = stochastic_run("sbfgs", GrowingBatch(base=5), Adaptive(),
                          make_sampler(p=p), x0=np.zeros(p), budget=400)
    slow = stochastic_run("sgd", ConstantBatch(5), Constant(CONSTANT_STEP_SIZES["alpha1"]),
                          make_sampler(p=p), x0=np.zeros(p), budget=400)
    assert fast.final.log_gap < slow.final.log_gap - 1.0


def test_sbfgs_pair_updates_in_place():
    rng = np.random.default_rng(11)
    A = make_synthetic_sigma(5, seed=2)
    state = new_state(BfgsDense(), 5)
    H = state.H
    for _ in range(10):
        d = rng.standard_normal(5)
        assert ingest_pair(state, d, A @ d)
        assert state.H is H
        assert bfgs_update_dense(H, d, A @ d) is H


@pytest.mark.parametrize("method", ["sgd", "snewton", "sbfgs"])
def test_nan_model_ends_numerical_error(method):
    p = 10
    beta = make_sparse_beta(p, seed=12)
    beta[2] = np.nan
    sampler = OnlineSampler(make_synthetic_sigma(p, seed=3), beta, lam=1.0 / p, seed=7)
    trace = stochastic_run(method, GrowingBatch(base=5), Adaptive(), sampler,
                           x0=np.zeros(p), budget=40)
    assert trace.termination.kind == "numerical_error"
    assert "non-finite" in trace.termination.detail
    assert trace.iterations == 0


def test_diverging_constant_step_ends_numerical_error():
    with np.errstate(over="ignore", invalid="ignore"):
        trace = stochastic_run("sgd", ConstantBatch(5), Constant(10.0),
                               make_sampler(p=5), x0=np.zeros(5), budget=400)
    assert trace.termination.kind == "numerical_error"
    assert "non-finite" in trace.termination.detail
    assert trace.iterations < 400
    assert all(math.isfinite(r.f) and math.isfinite(r.gnorm)
               for r in list(trace.rows())[:-1])


def test_non_finite_batch_gradient_ends_numerical_error(monkeypatch):
    import adaptqn.stochastic

    def nan_batch(sampler, size):
        batch = draw_batch(sampler, size)
        batch.Y[0] = np.nan
        return batch

    monkeypatch.setattr(adaptqn.stochastic, "draw_batch", nan_batch)
    trace = stochastic_run("sbfgs", GrowingBatch(base=5), Adaptive(), make_sampler(),
                           x0=np.zeros(10), budget=40)
    assert trace.termination.kind == "numerical_error"
    assert "non-finite batch gradient" in trace.termination.detail
    assert trace.iterations == 0


class SpoiledBatch(ObjectiveOracle):
    """A batch whose points put ``bad`` in the first entry of every
    result of one kind: "gradient", or "hess_vec" for their rays' G d."""

    def __init__(self, batch, kind, bad):
        self.batch, self.kind, self.bad, self.dim = batch, kind, bad, batch.dim

    def spoil(self, kind, v):
        if kind == self.kind:
            v = v.copy()
            v[0] = self.bad
        return v

    def at(self, x):
        return SpoiledPoint(self, x, self.batch.at(x))


class SpoiledPoint:
    def __init__(self, oracle, x, inner):
        self._oracle, self._x, self._inner = oracle, x, inner
        self.value, self.newton = inner.value, inner.newton

    def gradient(self):
        return self._oracle.spoil("gradient", self._inner.gradient())

    def ray(self, d):
        inner = self._inner.ray(d)
        return HessVecRay(self._oracle, self._x, d,
                          lambda d: self._oracle.spoil("hess_vec", inner.hess_vec()))


def spoiled_run(monkeypatch, method, step, kind, bad):
    import adaptqn.stochastic

    monkeypatch.setattr(adaptqn.stochastic, "draw_batch",
                        lambda sampler, size: SpoiledBatch(draw_batch(sampler, size), kind, bad))
    return stochastic_run(method, GrowingBatch(base=5), step, make_sampler(),
                          x0=np.zeros(10), budget=40)


STEPS = [Adaptive(), Constant(CONSTANT_STEP_SIZES["alpha1"])]


@pytest.mark.parametrize("step", STEPS, ids=["adaptive", "constant"])
@pytest.mark.parametrize("method", ["sgd", "snewton", "sbfgs"])
@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_batch_gradient_is_named(monkeypatch, bad, method, step):
    trace = spoiled_run(monkeypatch, method, step, "gradient", bad)
    assert trace.termination == Termination("numerical_error",
                                            "non-finite batch gradient at k=0")
    assert trace.iterations == 0


def test_non_finite_batch_hess_vec_is_named(monkeypatch):
    trace = spoiled_run(monkeypatch, "sbfgs", STEPS[1], "hess_vec", np.nan)
    assert trace.termination == Termination("numerical_error", "non-finite batch G d at k=0")
    assert trace.iterations == 0


@pytest.mark.parametrize("method,step,hv_per_iter", [
    ("sgd", Constant(CONSTANT_STEP_SIZES["alpha1"]), 0),
    ("snewton", Constant(CONSTANT_STEP_SIZES["alpha1"]), 0),
    ("sgd", Adaptive(), 1),
    ("sbfgs", Adaptive(), 1),
    ("sbfgs", Constant(CONSTANT_STEP_SIZES["alpha1"]), 1),  # G_hat d for the pair
])
def test_eval_counts_are_the_batch_work(method, step, hv_per_iter):
    # one batch gradient per iteration, a batch Hv only where a step or a
    # pair reads it, and no count for the expected-objective measurements
    budget = 30
    trace = stochastic_run(method, GrowingBatch(base=5), step, make_sampler(),
                           x0=np.zeros(10), budget=budget)
    counts = [(r.cum_evals_f, r.cum_evals_g, r.cum_evals_hv) for r in trace.rows()]
    assert counts[:-1] == [(0, k + 1, hv_per_iter * (k + 1)) for k in range(budget)]
    assert counts[-1] == (0, budget, hv_per_iter * budget)


def test_err_ratio_measures_distance_to_minimizer():
    sampler = make_sampler()
    w_star = sampler.expected_objective().minimizer()[0]
    trace = stochastic_run("sbfgs", GrowingBatch(base=5), Adaptive(), sampler,
                           x0=np.zeros(10), budget=60)
    ratios = [r.err_ratio for r in list(trace.rows())[:-1]]
    assert all(r is not None and math.isfinite(r) for r in ratios)
    assert trace.final.err_ratio is None
    # the per-step ratios telescope to the overall error reduction
    assert math.prod(ratios) == pytest.approx(
        np.linalg.norm(trace.final_x - w_star) / np.linalg.norm(w_star), rel=1e-9)


def test_trace_config_records_the_stochastic_run():
    sampler = make_sampler(seed=9)
    schedule, step = GrowingBatch(base=5), Constant(CONSTANT_STEP_SIZES["alpha2"])
    trace = stochastic_run("snewton", schedule, step, sampler, x0=np.zeros(10), budget=7)
    cfg = trace.config
    assert isinstance(cfg, RunConfig)
    assert (cfg.direction, cfg.step, cfg.max_iters) == (Newton(), step, 7)
    expected = sampler.expected_objective()
    w_star, f_star = expected.minimizer()
    np.testing.assert_array_equal(cfg.reference.x, w_star)
    assert cfg.reference.f == expected.value(cfg.reference.x) == f_star
    # the sampler keeps one expected objective, and its model is that object's
    assert sampler.expected_objective() is expected
    assert sampler.sigma is expected.sigma and sampler.beta is expected.beta


@pytest.mark.parametrize("eig_low, eig_high", [
    (0.0, 100.0), (-1.0, 100.0), (math.nan, 100.0), (2.0, 1.0), (1.0, math.inf)])
def test_synthetic_sigma_refuses_an_invalid_spectrum(eig_low, eig_high):
    with pytest.raises(ValueError):
        make_synthetic_sigma(4, seed=0, eig_low=eig_low, eig_high=eig_high)


def test_run_on_batches_refuses_line_search():
    sampler = make_sampler()
    cfg = RunConfig(direction=BfgsDense(), step=ArmijoWolfe(), max_iters=5)
    with pytest.raises(ValueError):
        run(cfg, sampler.expected_objective(), batches=lambda k: draw_batch(sampler, 5))


def test_zero_budget_records_only_the_start():
    trace = stochastic_run("sbfgs", GrowingBatch(base=5), Adaptive(), make_sampler(),
                           x0=np.zeros(10), budget=0)
    assert trace.termination.kind == "max_iters"
    assert [r.step_kind for r in trace.rows()] == ["terminal"]
    expected = make_sampler().expected_objective()
    assert trace.final.f == expected.value(np.zeros(10))


def test_a_budget_that_is_not_a_whole_number_is_refused_before_the_run():
    with pytest.raises(ValueError, match="max_iters"):
        stochastic_run("sgd", ConstantBatch(5), Adaptive(), make_sampler(),
                       x0=np.zeros(10), budget=2.5)


def test_singular_covariance_gets_a_jitter():
    sigma = np.ones((2, 2))  # positive semidefinite, rank 1
    sampler = OnlineSampler(sigma, np.zeros(2), lam=0.5, seed=0)
    np.testing.assert_allclose(sampler._chol @ sampler._chol.T, sigma + 1e-10 * np.eye(2),
                               rtol=0.0, atol=1e-15)
    assert np.isfinite(draw_batch(sampler, 4).X).all()


@pytest.mark.parametrize("make, why", [
    (lambda: QuadraticObjective(np.ones((2, 3)), np.zeros(2)), "square"),
    (lambda: QuadraticObjective(np.array([[2.0, 1.0], [0.0, 2.0]]), np.array([1.0, -1.0])),
     r"A must be symmetric: max \|A - A'\| = 1"),
    (lambda: OnlineLsExpectedObjective(np.eye(2), np.zeros(2), 0.0), "lam must be positive"),
    (lambda: OnlineLsExpectedObjective(np.eye(2), np.zeros(2), math.nan),
     "lam must be positive and finite"),
    (lambda: OnlineLsExpectedObjective(np.eye(2), np.zeros(2), math.inf),
     "lam must be positive and finite"),
    (lambda: OnlineLsExpectedObjective(np.eye(3), np.zeros(2), 0.5), "p x p"),
    (lambda: OnlineLsExpectedObjective(np.eye(2), np.zeros((2, 1)), 0.5),
     r"beta must be 1-D, got shape \(2, 1\)"),
    (lambda: OnlineLsExpectedObjective(np.eye(1), 0.0, 0.5), r"beta must be 1-D, got shape \(\)"),
    (lambda: OnlineLsExpectedObjective(np.array([[2.0, 1.0], [0.0, 2.0]]), np.zeros(2), 0.5),
     r"sigma must be symmetric: max \|sigma - sigma'\| = 1"),
    (lambda: OnlineSampler(np.eye(3), np.zeros(2), 0.5, seed=0), "p x p"),
    (lambda: OnlineSampler(np.eye(2), np.zeros((2, 1)), 0.5, seed=0), "beta must be 1-D"),
    (lambda: OnlineSampler(np.eye(2), np.zeros(2), 0.0, seed=0), "lam must be positive"),
    (lambda: OnlineSampler(make_synthetic_sigma(5, 3), make_sparse_beta(5, 12), math.nan,
                           seed=1), "lam must be positive and finite"),
    (lambda: OnlineSampler(np.eye(2), np.zeros(2), math.inf, seed=0),
     "lam must be positive and finite"),
    (lambda: OnlineSampler(np.diag([1.0, -1.0]), np.zeros(2), 0.5, seed=0),
     "sigma is not positive definite, even with 1e-10"),
    (lambda: OnlineSampler(np.array([[2.0, 1.0], [0.0, 2.0]]), np.zeros(2), 0.5, seed=0),
     r"sigma must be symmetric: max \|sigma - sigma'\| = 1"),
    (lambda: OnlineSampler(np.eye(2), np.zeros(2), 0.5, seed=2.5),
     "seed must be a whole number >= 0, got 2.5"),
    (lambda: OnlineSampler(np.eye(2), np.zeros(2), 0.5, seed=-1),
     "seed must be a whole number >= 0, got -1"),
    (lambda: SampledBatchOracle(np.ones(3), np.ones(3), 0.1), "X must be 2-D"),
    (lambda: SampledBatchOracle(np.ones((0, 3)), np.ones(0), 0.1), "at least one row"),
    (lambda: SampledBatchOracle(np.ones((4, 3)), np.ones(1), 0.1),
     r"Y has shape \(1,\), expected \(4,\)"),
    (lambda: SampledBatchOracle(np.ones((4, 3)), np.ones((4, 1)), 0.1), "Y has shape"),
    (lambda: SampledBatchOracle(np.ones((4, 3)), np.ones(4), -1.0),
     "lam must be positive and finite"),
    (lambda: SampledBatchOracle(np.ones((4, 3)), np.ones(4), 0.0),
     "lam must be positive and finite"),
    (lambda: SampledBatchOracle(np.ones((4, 3)), np.ones(4), math.nan),
     "lam must be positive and finite"),
    (lambda: SampledBatchOracle(np.ones((4, 3)), np.ones(4), math.inf),
     "lam must be positive and finite"),
    (lambda: ConstantBatch(0), "batch size"),
    (lambda: ConstantBatch(2.5), "batch size"),
    (lambda: GrowingBatch(base=0), "base must be a whole number >= 1"),
    (lambda: GrowingBatch(base=math.nan), "base must be a whole number >= 1"),
    (lambda: GrowingBatch(base=math.inf), "base must be a whole number >= 1"),
    (lambda: ArmijoWolfe(max_evals=1), "two evaluations"),
    (lambda: ArmijoWolfe(max_evals=math.nan), "two evaluations"),
    (lambda: ArmijoWolfe(max_evals=2.5), "two evaluations"),
    (lambda: make_synthetic_sigma(2.5, 1), "p must be a whole number >= 1, got 2.5"),
    (lambda: make_synthetic_sigma(-1, 1), "p must be a whole number >= 1, got -1"),
    (lambda: make_synthetic_sigma(0, 1), "p must be a whole number >= 1, got 0"),
    (lambda: make_sparse_beta(2.5, 1), "p must be a whole number >= 1, got 2.5"),
    (lambda: make_sparse_beta(0, 1), "p must be a whole number >= 1, got 0"),
    (lambda: make_synthetic_sigma(5, 2.5), "seed must be a whole number >= 0, got 2.5"),
    (lambda: make_synthetic_sigma(5, -1), "seed must be a whole number >= 0, got -1"),
    (lambda: make_sparse_beta(5, 2.5), "seed must be a whole number >= 0, got 2.5"),
    (lambda: make_sparse_beta(5, -1), "seed must be a whole number >= 0, got -1"),
], ids=["quadratic-not-square", "quadratic-asymmetric", "online-ls-lam-0",
        "online-ls-lam-nan", "online-ls-lam-inf", "online-ls-shape", "online-ls-beta-2d",
        "online-ls-beta-0d", "online-ls-sigma-asymmetric", "sampler-shape", "sampler-beta-2d",
        "sampler-lam-0", "sampler-lam-nan", "sampler-lam-inf", "sampler-sigma-indefinite",
        "sampler-sigma-asymmetric", "sampler-seed-2.5", "sampler-seed--1",
        "batch-oracle-X-1d", "batch-oracle-X-no-rows", "batch-oracle-Y-broadcast",
        "batch-oracle-Y-2d", "batch-oracle-lam-negative", "batch-oracle-lam-0",
        "batch-oracle-lam-nan", "batch-oracle-lam-inf",
        "constant-batch-0", "constant-batch-2.5", "growing-batch-base-0",
        "growing-batch-base-nan", "growing-batch-base-inf",
        "armijo-wolfe-max-evals-1", "armijo-wolfe-max-evals-nan",
        "armijo-wolfe-max-evals-2.5", "sigma-p-2.5", "sigma-p--1", "sigma-p-0",
        "beta-p-2.5", "beta-p-0", "sigma-seed-2.5", "sigma-seed--1", "beta-seed-2.5",
        "beta-seed--1"])
def test_constructors_refuse_invalid_arguments(make, why):
    with pytest.raises(ValueError, match=why):
        make()


def test_an_asymmetric_sigma_is_refused_before_a_run():
    # the sampler draws with the Cholesky factor of the lower triangle, whose
    # product is diag(2, 2), and gradient's -2 Sigma r is not value's gradient
    sigma, beta = np.array([[2.0, 1.0], [0.0, 2.0]]), np.array([1.0, -1.0])
    with pytest.raises(ValueError, match="symmetric"):
        OnlineLsExpectedObjective(sigma, beta, 0.5).minimizer()
    with pytest.raises(ValueError, match="symmetric"):
        stochastic_run("sgd", ConstantBatch(2), Adaptive(),
                       OnlineSampler(sigma, beta, 0.5, seed=0), x0=np.zeros(2), budget=3)
    # within 1e-12 of the largest entry is symmetric
    sigma[1, 0] = 1.0 - 1e-13
    assert np.isfinite(OnlineLsExpectedObjective(sigma, beta, 0.5).minimizer()[1])


def test_a_quadratic_symmetric_to_rounding_builds():
    # the rule that refuses an asymmetric sigma refuses an asymmetric A when
    # the quadratic is built; Q diag(eigs) Q' is symmetric only to rounding
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((30, 30)))
    A = (q * rng.uniform(1.0, 100.0, size=30)) @ q.T
    assert (A != A.T).any()
    assert QuadraticObjective(A, np.ones(30)).dim == 30
    A[0, 1] = A[1, 0] + 1e-6
    with pytest.raises(ValueError, match="A must be symmetric"):
        QuadraticObjective(A, np.ones(30))


@pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 0)])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_non_finite_sigma_is_not_refused_as_asymmetric(entry, bad):
    # a non-finite model ends its run as numerical_error, and the symmetry
    # check neither refuses it nor warns
    sigma = np.eye(2)
    sigma[entry] = bad
    # and so does a quadratic with that matrix as its A
    trace = run(RunConfig(BfgsDense(), Adaptive(), max_iters=5, x0=np.ones(2)),
                QuadraticObjective(sigma, np.ones(2)))
    assert trace.termination.kind == "numerical_error"
    try:
        f = OnlineLsExpectedObjective(sigma, np.ones(2), 0.5).minimizer()[1]
    except NumericalError:  # the solve broke down
        return
    assert math.isnan(f)


# The stream contract: a run sees, and leaves its sampler's generator
# after, exactly the normals that serial draw_batch calls of the same
# sizes see, however the run ends and however many CPUs it may use.

def recorded_run(monkeypatch, spoil=lambda k, batch: batch, **run_kw):
    """A stochastic_run whose every batch is recorded as (size, X, Y);
    ``spoil(k, batch)`` may change batch k or raise. Returns the record
    and the trace, or None for the trace if the run raised ValueError."""
    seen = []

    def draw(sampler, size):
        batch = draw_batch(sampler, size)
        seen.append((size, batch.X.copy(), batch.Y.copy()))
        return spoil(len(seen) - 1, batch)

    with monkeypatch.context() as m:
        m.setattr(stochastic, "draw_batch", draw)
        try:
            return seen, stochastic_run(**run_kw)
        except ValueError as exc:
            assert "spoiled" in str(exc)
            return seen, None


def assert_serial(seen, sampler, ref):
    """The recorded batches are ref's next serial draws of their sizes,
    and sampler's next draws are ref's after them."""
    for size, X, Y in seen:
        serial = draw_batch(ref, size)
        np.testing.assert_array_equal(X, serial.X)
        np.testing.assert_array_equal(Y, serial.Y)
    for m in (3, 700):
        after, serial = draw_batch(sampler, m), draw_batch(ref, m)
        np.testing.assert_array_equal(after.X, serial.X)
        np.testing.assert_array_equal(after.Y, serial.Y)


def nan_at(k0):
    def spoil(k, batch):
        if k == k0:
            batch.Y[0] = np.nan
        return batch
    return spoil


def raise_at(k0):
    def spoil(k, batch):
        if k == k0:
            raise ValueError("spoiled batch")
        return batch
    return spoil


def sleep_each(k, batch):
    time.sleep(2e-3)
    return batch


ENDINGS = {
    "max_iters": (dict(), {}, "max_iters"),
    "time_budget-tiny": (dict(), {"max_seconds": 1e-9}, "time_budget"),
    "time_budget-mid-run": (dict(spoil=sleep_each), {"max_seconds": 0.03}, "time_budget"),
    "numerical_error-mid-run": (dict(spoil=nan_at(7)), {}, "numerical_error"),
    "numerical_error-nan-model": (dict(beta=np.full(10, np.nan)), {}, "numerical_error"),
    "value_error": (dict(spoil=raise_at(7)), {}, None),
}


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("ending", list(ENDINGS))
def test_a_run_sees_and_leaves_the_serial_stream(monkeypatch, ending, cpus):
    setup, run_kw, kind = ENDINGS[ending]
    use_cpus(monkeypatch, cpus)
    p = 10
    beta = setup.get("beta", make_sparse_beta(p, seed=12))
    sampler, ref = (OnlineSampler(make_synthetic_sigma(p, seed=3), beta, 1.0 / p, seed=7)
                    for _ in range(2))
    # sizes of 11 normals a sample straddle the stream's chunk boundaries
    seen, trace = recorded_run(
        monkeypatch, setup.get("spoil", lambda k, batch: batch), method="sbfgs",
        schedule=GrowingBatch(base=40), step_rule=Adaptive(), sampler=sampler,
        x0=np.zeros(p), budget=60, **run_kw)
    assert (trace is None) if kind is None else trace.termination.kind == kind
    if ending.endswith("mid-run") or kind is None:
        assert len(seen) < 60
    if kind in ("numerical_error", None):
        assert len(seen) == (0 if ending.endswith("nan-model") else 8)
    assert_serial(seen, sampler, ref)


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_batch_larger_than_a_chunk_is_the_serial_batch(monkeypatch, cpus):
    use_cpus(monkeypatch, cpus)
    p, size = 200, 500  # 100,500 normals a batch
    assert size * (p + 1) > stochastic.DRAW_AHEAD
    sampler, ref = make_sampler(p=p), make_sampler(p=p)
    seen, trace = recorded_run(
        monkeypatch, method="sgd", schedule=ConstantBatch(size),
        step_rule=Constant(CONSTANT_STEP_SIZES["alpha1"]), sampler=sampler,
        x0=np.zeros(p), budget=3)
    assert trace.termination.kind == "max_iters" and len(seen) == 3
    assert_serial(seen, sampler, ref)


@pytest.mark.parametrize("fail", [False, True], ids=["returns", "raises"])
def test_a_run_leaves_no_draw_in_flight(monkeypatch, fail):
    # the run draws ahead on the process's one worker, which outlives it
    use_cpus(monkeypatch, 2)
    before = threading.enumerate()
    counts, started, done = [], [], []
    draw = stochastic._DrawAhead._draw

    def counted(self, n):
        started.append(n)
        try:
            time.sleep(0.02)  # slow enough to be in flight when the run ends
            return draw(self, n)
        finally:
            done.append(n)

    def spoil(k, batch):
        counts.append(threading.active_count())
        return raise_at(20)(k, batch) if fail else batch

    monkeypatch.setattr(stochastic._DrawAhead, "_draw", counted)
    seen, trace = recorded_run(monkeypatch, spoil, method="sbfgs",
                               schedule=GrowingBatch(base=5), step_rule=Adaptive(),
                               sampler=make_sampler(), x0=np.zeros(10), budget=40)
    drawn = len(done)
    # the worker runs in order, so a draw queued before this no-op has run after it
    oracles._second_cpu().submit(lambda: None).result()
    assert (trace is None) == fail
    assert drawn > 0 and len(started) == len(done) == drawn
    new = [t for t in threading.enumerate() if t not in before]
    assert all(t.name.startswith("adaptqn-worker") for t in new)
    assert len(adaptqn_workers()) == 1
    assert max(counts) <= len(before) + 1


def test_one_cpu_starts_no_thread_and_traces_the_same(monkeypatch):
    def traced(cpus):
        with monkeypatch.context() as m:
            use_cpus(m, cpus)
            if cpus == 1:
                # as in a fresh process, where no earlier run started the worker
                m.setattr(oracles, "_worker", None)
                m.setattr(threading.Thread, "start",
                          lambda self: pytest.fail("a thread started on one CPU"))
            trace = stochastic_run("sbfgs", GrowingBatch(base=40), Adaptive(),
                                   make_sampler(), x0=np.zeros(10), budget=80)
        rows = [repr(r._replace(elapsed=None)) for r in trace.rows()]
        return rows, trace.final_x.tobytes()

    assert traced(1) == traced(2)


def test_concurrent_runs_keep_their_own_streams(monkeypatch):
    # more runs than CPUs, all drawing ahead on the one worker, switching
    # threads often
    use_cpus(monkeypatch, 2)

    def rows(seed):
        trace = stochastic_run("sbfgs", GrowingBatch(base=40), Adaptive(),
                               make_sampler(seed=seed), x0=np.zeros(10), budget=60)
        return [repr(r._replace(elapsed=None)) for r in trace.rows()]

    want, got = {s: rows(s) for s in range(4)}, {}
    threads = [threading.Thread(target=lambda s=s: got.__setitem__(s, rows(s)))
               for s in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == want
