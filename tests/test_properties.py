"""Property tests of the paper's per-iteration guarantees for the
adaptive step, over random SPD quadratics and small logistic problems:
the omega decrease, Armijo with c1 = 1/2, t*delta = eta/(1+eta) < 1,
an honest termination kind, the secant equation H y = s after every
curvature pair that dense BFGS accepts, and the two-loop recursion
with every pair giving dense BFGS's directions along whole runs; the
omega decrease of each iteration's batch objective along runs on
batches of online least squares. Also the row-space Newton direction
of wide logistic problems against the Gram matrix's, and the logistic
ray against fresh evaluation points."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import adaptqn.driver as driver
from adaptqn import (Adaptive, BfgsDense, GradientDescent, GrowingBatch,
                     LBfgs, LogisticObjective, OnlineSampler,
                     QuadraticObjective, RunConfig, SparseDataset,
                     choose_step, compute_direction, draw_batch,
                     ingest_pair, make_sparse_beta, make_synthetic_sigma,
                     new_state, omega, run, synth_logistic)
from adaptqn.oracles import _sigmoid, _weighted_gram, spd_solve
from conftest import property_test, sym

TERMINATION_KINDS = {"grad_tol", "max_iters", "time_budget", "numerical_error"}
DIRECTIONS = {"gd-a": GradientDescent(), "bfgs-a": BfgsDense()}


@st.composite
def spd_quadratics(draw):
    """x'Ax/2 + b'x with n from 1 to 12 and A's spectrum in [0.1, 10],
    and a random start."""
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = (q * rng.uniform(0.1, 10.0, size=n)) @ q.T
    return QuadraticObjective(A, rng.standard_normal(n)), rng.standard_normal(n)


@st.composite
def small_logistics(draw):
    """Scaled logistic loss on synth_logistic data, N from 10 to 80 and
    n from 1 to 10, started at 0."""
    N, n = draw(st.integers(10, 80)), draw(st.integers(1, 10))
    data = synth_logistic(N, n, seed=draw(st.integers(0, 2**16)))
    return LogisticObjective(data), np.zeros(n)


def run_recording_steps(config, obj, **kw):
    """``run(config, obj, **kw)`` plus, for every step it chose, the
    arguments (rule, oracle, x, d, f, rho, ray) and the StepOutcome."""
    steps = []

    def recording(*args):
        outcome = choose_step(*args)
        steps.append((args, outcome))
        return outcome

    with mock.patch.object(driver, "choose_step", recording):
        trace = run(config, obj, **kw)
    return trace, steps


def check_adaptive_guarantees(obj, x0, method):
    config = RunConfig(direction=DIRECTIONS[method], step=Adaptive(), max_iters=300, x0=x0)
    trace, steps = run_recording_steps(config, obj)
    assert trace.termination.kind in TERMINATION_KINDS
    records = trace.records
    assert len(steps) >= len(records) - 1
    for rec, nxt, (args, out) in zip(records, records[1:], steps):
        f0, f1, t, eta, delta, rho = rec.f, nxt.f, rec.t, rec.eta, out.delta, args[5]
        # f is evaluated to about one ulp; the margins can be smaller near the end
        slack = 1e-10 * (1.0 + abs(f0))
        assert f1 <= f0 - omega(eta) + slack
        assert f1 <= f0 - 0.5 * t * rho + slack  # Armijo, c1 = 1/2, g'd = -rho
        assert t * delta == pytest.approx(eta / (1.0 + eta), rel=1e-12)
        assert t * delta < 1.0


@property_test
@given(spd_quadratics(), st.sampled_from(sorted(DIRECTIONS)))
def test_adaptive_guarantees_on_random_quadratics(problem, method):
    check_adaptive_guarantees(*problem, method)


@property_test
@given(small_logistics(), st.sampled_from(sorted(DIRECTIONS)))
def test_adaptive_guarantees_on_small_logistic_problems(problem, method):
    check_adaptive_guarantees(*problem, method)


@st.composite
def online_samplers(draw):
    """Online least squares with p from 1 to 12, a random covariance,
    signal and sampling stream, and a growing batch from 1 to 2p."""
    p = draw(st.integers(1, 12))
    seeds = [draw(st.integers(0, 2**16)) for _ in range(3)]
    sigma = make_synthetic_sigma(p, seed=seeds[0])
    sampler = OnlineSampler(sigma, make_sparse_beta(p, seed=seeds[1]), lam=1.0 / p,
                            seed=seeds[2])
    return sampler, GrowingBatch(base=draw(st.integers(1, 2 * p)), period=10)


def check_batch_omega_decrease(sampler, schedule, method):
    """Every step of an adaptive run on batches decreases its own batch
    objective f_k by omega(eta): f_k(x + t d) <= f_k(x) - omega(eta).
    f_k is evaluated on the batch directly, outside the run's counts."""
    batches = []

    def draw(k):
        batches.append(draw_batch(sampler, schedule.size_at(k)))
        return batches[-1]

    config = RunConfig(direction=DIRECTIONS[method], step=Adaptive(), max_iters=100)
    trace, steps = run_recording_steps(config, sampler.expected_objective(), batches=draw)
    assert trace.termination.kind in TERMINATION_KINDS
    assert len(steps) >= trace.iterations
    for batch, (args, out) in zip(batches, steps):
        x, d = args[2], args[3]
        f0, f1 = batch.value(x), batch.value(x + out.t * d)
        assert f1 <= f0 - omega(out.eta) + 1e-10 * (1.0 + abs(f0))


@property_test
@given(online_samplers(), st.sampled_from(sorted(DIRECTIONS)))
def test_adaptive_decrease_per_batch_along_runs(problem, method):
    check_batch_omega_decrease(*problem, method)


def check_secant_equation(obj, x0):
    """On a bfgs-a run, ||sym(H) y - s|| <= 1e-10 ||s|| after every
    accepted pair (s, y)."""
    residuals = []

    def recording(state, s, y):
        accepted = ingest_pair(state, s, y)
        if accepted:
            residuals.append(np.linalg.norm(sym(state.H) @ y - s) / np.linalg.norm(s))
        return accepted

    config = RunConfig(direction=BfgsDense(), step=Adaptive(), max_iters=300, x0=x0)
    with mock.patch.object(driver, "ingest_pair", recording):
        trace = run(config, obj)
    assert trace.termination.kind in TERMINATION_KINDS
    assert all(r <= 1e-10 for r in residuals), max(residuals)


@property_test
@given(spd_quadratics())
def test_secant_equation_on_random_quadratics(problem):
    check_secant_equation(*problem)


@property_test
@given(small_logistics())
def test_secant_equation_on_small_logistic_problems(problem):
    check_secant_equation(*problem)


def check_two_loop_replays_dense(obj, x0):
    """Replay the gradients and pairs of a bfgs-a run, in their order,
    into a BfgsDense state and an LBfgs state that keeps every pair:
    both accept the same pairs and give the same direction, to 1e-10
    relative, at every k."""
    events = []

    def direction(state, point, g):
        events.append((compute_direction, point, g))
        return compute_direction(state, point, g)

    def pair(state, s, y):
        events.append((ingest_pair, s, y))
        return ingest_pair(state, s, y)

    config = RunConfig(direction=BfgsDense(), step=Adaptive(), max_iters=300, x0=x0)
    with mock.patch.object(driver, "compute_direction", direction), \
            mock.patch.object(driver, "ingest_pair", pair):
        trace = run(config, obj)
    assert trace.termination.kind in TERMINATION_KINDS
    # at most one pair per iteration
    loop = new_state(LBfgs(memory=config.max_iters), obj.dim)
    dense = new_state(BfgsDense(), obj.dim)
    for fn, a, b in events:
        if fn is ingest_pair:
            assert ingest_pair(dense, a, b) == ingest_pair(loop, a, b)
        else:
            d_dense, _ = compute_direction(dense, a, b)
            d_loop, _ = compute_direction(loop, a, b)
            assert np.linalg.norm(d_loop - d_dense) <= 1e-10 * np.linalg.norm(d_dense)


@property_test
@given(spd_quadratics())
def test_two_loop_replays_dense_on_random_quadratics(problem):
    check_two_loop_replays_dense(*problem)


@property_test
@given(small_logistics())
def test_two_loop_replays_dense_on_small_logistic_problems(problem):
    check_two_loop_replays_dense(*problem)


@st.composite
def wide_logistic_points(draw):
    """A logistic objective with n > N at a point w: N from 1 to 12, n up to 40, dense Gaussian rows of which
    some are empty (or all, with sc_scale = 1), the auto or the raw
    scale, and |w| from 1e-2 to 1e3 times Gaussian."""
    N = draw(st.integers(1, 12))
    n = draw(st.integers(N + 1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((N, n)) * (rng.random((N, 1)) > draw(st.sampled_from([0.0, 0.3, 1.0])))
    labels = np.where(rng.random(N) < 0.5, -1.0, 1.0)
    raw = draw(st.booleans()) or not X.any()
    obj = LogisticObjective(SparseDataset.from_dense(X, labels), sc_scale=1.0 if raw else None)
    w = 10.0 ** draw(st.floats(-2.0, 3.0)) * rng.standard_normal(n)
    return obj, w


@property_test
@given(wide_logistic_points())
def test_woodbury_solve_matches_the_gram_solve(case):
    # newton() in the row space against the Cholesky solve of the n x n
    # Gram-matrix G with -g
    obj, w = case
    ds = obj.data
    z = ds.X @ w
    e = np.exp(-np.abs(z))
    s = _sigmoid(z, e, 1.0 + e)
    G = _weighted_gram(ds.X, s * (1.0 - s) / ds.N)
    G.flat[::ds.n + 1] += 1.0 / ds.N
    gram = spd_solve(obj.sc_scale * G, -obj.gradient(w))
    row_space = obj.at(w).newton()
    assert np.linalg.norm(row_space - gram) <= 1e-12 * np.linalg.norm(gram)


@st.composite
def logistic_rays(draw):
    """A logistic objective at a point w with a direction d and a step
    t: N and n from 1 to 30 (so n > N too), dense Gaussian rows of which
    some are empty (or all, with sc_scale = 1), the auto or the raw
    scale, |w| from 1e-2 to 1e3 and |d| from 1e-3 to 1e2 times Gaussian,
    and t in (0, 2]."""
    N, n = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((N, n)) * (rng.random((N, 1)) > draw(st.sampled_from([0.0, 0.3, 1.0])))
    labels = np.where(rng.random(N) < 0.5, -1.0, 1.0)
    raw = draw(st.booleans()) or not X.any()
    obj = LogisticObjective(SparseDataset.from_dense(X, labels), sc_scale=1.0 if raw else None)
    w = 10.0 ** draw(st.floats(-2.0, 3.0)) * rng.standard_normal(n)
    d = 10.0 ** draw(st.floats(-3.0, 2.0)) * rng.standard_normal(n)
    t = draw(st.floats(0.0, 2.0, exclude_min=True))
    return obj, w, d, t


@property_test
@given(logistic_rays())
def test_logistic_ray_matches_fresh_points(case):
    """The ray's curvature is d'G d within 1e-13 relative, its G d is a
    fresh point's ray's bit for bit, and its point at t has x = w + t d bit for bit,
    with f and g within rounding of the margins of oracle.at(w + t d)."""
    obj, w, d, t = case
    pt, ray = obj.at(w), obj.at(w).ray(d)
    hv = pt.ray(d).hess_vec()
    dGd = float(d @ hv)
    assert abs(ray.curvature() - dGd) <= 1e-13 * dGd
    np.testing.assert_array_equal(ray.hess_vec(), hv)
    x = w + t * d
    on_ray, fresh = ray.at(t), obj.at(x)
    np.testing.assert_array_equal(on_ray._w, x)
    # a margin x_i'w + t x_i'd differs from x_i'(w + t d) by rounding
    # relative to |x_i|'(|w| + t |d|); f and g move by at most that much
    absX = abs(obj.data.X)
    margin_scale = absX @ (np.abs(w) + t * np.abs(d))
    c, N = obj.sc_scale, obj.data.N
    f = fresh.value()
    assert abs(on_ray.value() - f) <= 1e-13 * (abs(f) + c * margin_scale.sum() / N)
    g = fresh.gradient()
    g_scale = np.linalg.norm(g) + c * np.linalg.norm(absX.T @ margin_scale) / N
    assert np.linalg.norm(on_ray.gradient() - g) <= 1e-13 * g_scale
