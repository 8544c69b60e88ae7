import itertools
import os
import signal
import threading
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.sparse import csr_matrix

from adaptqn import (Adaptive, BfgsDense, GrowingBatch, LBfgs, LogisticObjective, Newton,
                     NumericalError, ObjectiveOracle, OnlineLsExpectedObjective,
                     OnlineSampler, QuadraticObjective, RunConfig, SampledBatchOracle,
                     SparseDataset, logistic_sc_scale, make_sparse_beta,
                     make_synthetic_sigma, parse_libsvm, run, sc_lower_f, sc_lower_gd,
                     sc_upper_f, sc_upper_gd, stochastic_run, synth_logistic)
from adaptqn import oracles
from adaptqn.cli import run_config
from adaptqn.oracles import (_LogisticPoint, _LogisticRay, _sigmoid, _softplus,
                             _weighted_gram, spd_solve)
from conftest import NoSolve, adaptqn_workers, property_test, race, use_cpus


def fd_gradient(obj, x, h=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (obj.value(x + e) - obj.value(x - e)) / (2 * h)
    return g


def fd_hess_vec(obj, x, d, h=1e-5):
    return (obj.gradient(x + h * d) - obj.gradient(x - h * d)) / (2 * h)


def sigmoid_of(z):
    """The point's sigmoid at z, given the exp(-|z|) it shares."""
    e = np.exp(-np.abs(z))
    return _sigmoid(z, e, 1.0 + e)


@pytest.fixture(scope="module")
def small_logistic():
    return LogisticObjective(synth_logistic(200, 20, seed=11))


def test_logistic_value_at_zero():
    ds = synth_logistic(50, 8, seed=0)
    raw = LogisticObjective(ds, sc_scale=1.0)
    assert raw.value(np.zeros(8)) == pytest.approx(np.log(2.0), rel=1e-12)
    scaled = LogisticObjective(ds)
    assert scaled.value(np.zeros(8)) == pytest.approx(scaled.sc_scale * np.log(2.0), rel=1e-12)


def test_logistic_single_sample_handchecks():
    ds = parse_libsvm("+1 1:1")
    obj = LogisticObjective(ds, sc_scale=1.0)
    w = np.zeros(1)
    np.testing.assert_allclose(obj.gradient(w), [-0.5], rtol=1e-14)
    np.testing.assert_allclose(obj.at(w).ray(np.ones(1)).hess_vec(), [1.25], rtol=1e-14)
    # one row, two features: G = diag(1.25, 1) and g = (-0.5, 0), so the
    # Newton direction (0.4, 0), taken through the 1 x 1 row-space system
    ds2 = SparseDataset(X=csr_matrix([[1.0, 0.0]]), labels=np.array([1.0]))
    obj2 = LogisticObjective(ds2, sc_scale=1.0)
    np.testing.assert_allclose(obj2.at(np.zeros(2)).newton(), [0.4, 0.0], rtol=1e-14)


def test_logistic_sc_scale_values():
    ds = parse_libsvm("\n".join(["+1 1:2"] * 10))
    assert logistic_sc_scale(ds) == pytest.approx(10.0)
    assert logistic_sc_scale(parse_libsvm("+1 1:3 2:4")) == pytest.approx(25.0 / 4.0)


def test_logistic_sc_scale_brute_force(small_logistic):
    ds = small_logistic.data
    X = ds.X.toarray()
    B = max(np.linalg.norm(X[i]) for i in range(ds.N))
    assert small_logistic.sc_scale == pytest.approx(B * B * ds.N / 4.0, rel=1e-12)


def test_logistic_finite_differences(small_logistic):
    rng = np.random.default_rng(7)
    for _ in range(5):
        x = 0.2 * rng.standard_normal(small_logistic.dim)
        g = small_logistic.gradient(x)
        assert np.linalg.norm(fd_gradient(small_logistic, x) - g) / np.linalg.norm(g) < 1e-5
        d = rng.standard_normal(small_logistic.dim)
        hv = small_logistic.at(x).ray(d).hess_vec()
        assert np.linalg.norm(fd_hess_vec(small_logistic, x, d) - hv) / np.linalg.norm(hv) < 1e-4


def test_hess_vec_symmetry_and_dense_consistency(small_logistic):
    rng = np.random.default_rng(8)
    x = 0.1 * rng.standard_normal(small_logistic.dim)
    for _ in range(10):
        d, e = rng.standard_normal((2, small_logistic.dim))
        lhs = d @ small_logistic.at(x).ray(e).hess_vec()
        rhs = e @ small_logistic.at(x).ray(d).hess_vec()
        assert lhs == pytest.approx(rhs, rel=1e-10)
    # newton() is -G^-1 g for the matrix whose columns are the
    # Hessian-vector products
    pt = small_logistic.at(x)
    G = np.column_stack([pt.ray(e).hess_vec() for e in np.eye(small_logistic.dim)])
    assert_rel_close(small_logistic.at(x).newton(), -np.linalg.solve(G, pt.gradient()),
                     rtol=1e-10)


def test_logistic_strong_convexity_floor(small_logistic):
    rng = np.random.default_rng(9)
    obj = small_logistic
    N = obj.data.N
    for _ in range(20):
        x = rng.standard_normal(obj.dim)
        d = rng.standard_normal(obj.dim)
        quad = d @ obj.at(x).ray(d).hess_vec()
        assert quad >= obj.sc_scale * (d @ d) / N - 1e-12


def test_overflow_safety():
    ds = parse_libsvm("+1 1:1\n-1 1:1")
    obj = LogisticObjective(ds, sc_scale=1.0)
    w = np.array([1e4])
    assert np.isfinite(obj.value(w))
    assert np.isfinite(obj.gradient(w)).all()
    assert np.isfinite(obj.at(w).ray(np.ones(1)).hess_vec()).all()


def test_self_concordance_audit(small_logistic):
    # scaled logistic satisfies all four ray bounds
    obj = small_logistic
    rng = np.random.default_rng(10)
    for _ in range(25):
        x = 0.3 * rng.standard_normal(obj.dim)
        d = rng.standard_normal(obj.dim)
        delta = float(np.sqrt(d @ obj.at(x).ray(d).hess_vec()))
        t = rng.uniform(0.0, 0.9) / delta
        f0, gd = obj.value(x), float(obj.gradient(x) @ d)
        slack = 1e-8 * (1.0 + abs(f0))
        ft = obj.value(x + t * d)
        gdt = float(obj.gradient(x + t * d) @ d)
        assert sc_lower_f(f0, gd, delta, t) - slack <= ft <= sc_upper_f(f0, gd, delta, t) + slack
        assert sc_lower_gd(gd, delta, t) - slack <= gdt <= sc_upper_gd(gd, delta, t) + slack


def random_dataset(rng, n_rows, n_cols, density=0.3):
    """A dataset with about 15% empty rows, and the dense matrix it holds."""
    dense = np.zeros((n_rows, n_cols))
    labels = np.empty(n_rows)
    for i in range(n_rows):
        nnz = 0 if rng.random() < 0.15 else rng.integers(1, int(density * n_cols) + 2)
        cols = np.sort(rng.choice(n_cols, size=nnz, replace=False))
        dense[i, cols] = rng.normal(size=nnz)
        labels[i] = 1.0 if rng.random() < 0.5 else -1.0
    return SparseDataset(X=csr_matrix(dense), labels=labels), dense


def dense_reference(X, y, w, d):
    """Raw logistic f, g, G(w)d and G(w) from a dense X (sc_scale = 1)."""
    N, n = X.shape
    z = X @ w
    f = np.mean(np.logaddexp(0.0, -y * z)) + 0.5 * (w @ w) / N
    g = X.T @ (-y / (1.0 + np.exp(y * z))) / N + w / N
    s = 1.0 / (1.0 + np.exp(-z))
    weights = s * (1.0 - s) / N
    G = (X.T * weights) @ X + np.eye(n) / N
    return f, g, G @ d, G


def assert_rel_close(actual, expected, rtol=1e-13):
    err = np.linalg.norm(np.asarray(actual) - expected)
    assert err <= rtol * np.linalg.norm(expected), (err, np.linalg.norm(expected))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_logistic_matches_dense_reference(seed):
    rng = np.random.default_rng(seed)
    ds, X = random_dataset(rng, 40, 17)
    assert np.any(np.diff(ds.X.indptr) == 0)  # empty rows are covered
    obj = LogisticObjective(ds, sc_scale=1.0)
    w, d = rng.normal(size=(2, 17))
    f, g, hv, G = dense_reference(X, ds.labels, w, d)
    assert obj.value(w) == pytest.approx(f, rel=1e-13)
    assert_rel_close(obj.gradient(w), g)
    assert_rel_close(obj.at(w).ray(d).hess_vec(), hv)
    assert_rel_close(obj.at(w).newton(), -np.linalg.solve(G, g), rtol=1e-12)


def test_logistic_on_matrix_without_nonzeros():
    ds = SparseDataset(X=csr_matrix((3, 5)), labels=np.array([1.0, -1.0, 1.0]))
    assert ds.X.data.size == 0
    obj = LogisticObjective(ds, sc_scale=1.0)
    w, d = np.arange(5.0), np.ones(5)
    assert obj.value(w) == pytest.approx(np.log(2.0) + 0.5 * (w @ w) / 3, rel=1e-15)
    np.testing.assert_array_equal(obj.gradient(w), w / 3)
    np.testing.assert_array_equal(obj.at(w).ray(d).hess_vec(), d / 3)
    # n > N, and with X = 0 the row-space Newton direction is exactly
    # -G^-1 g = -3 (w / 3) = -w
    np.testing.assert_array_equal(obj.at(w).newton(), -w)


def test_logistic_point_is_order_independent():
    rng = np.random.default_rng(4)
    ds, _ = random_dataset(rng, 60, 11)
    obj = LogisticObjective(ds)
    x, d, e = rng.normal(size=(3, 11))
    first = obj.at(x)
    hv_d, hv_e = first.ray(d).hess_vec(), first.ray(e).hess_vec()
    g, f = first.gradient(), first.value()
    second = obj.at(x)
    assert second.value() == f
    np.testing.assert_array_equal(second.gradient(), g)
    np.testing.assert_array_equal(second.ray(e).hess_vec(), hv_e)
    np.testing.assert_array_equal(second.ray(d).hess_vec(), hv_d)
    with pytest.raises(ValueError):
        second.ray(np.ones(3))


def test_solve_is_bitwise_spd_solve_of_the_formula(desk_logistic):
    # n <= N: newton() is the Cholesky solve of the Gram-matrix G with -g
    ds = desk_logistic.data
    assert ds.n <= ds.N
    rng = np.random.default_rng(5)
    for w in (np.zeros(ds.n), rng.normal(size=ds.n)):
        s = sigmoid_of(ds.X @ w)
        G = _weighted_gram(ds.X, s * (1.0 - s) / ds.N)
        G += np.eye(ds.n) / ds.N
        np.testing.assert_array_equal(desk_logistic.at(w).newton(),
                                      spd_solve(desk_logistic.sc_scale * G,
                                                -desk_logistic.gradient(w)))


def test_spd_solve_names_a_failed_factorization(monkeypatch):
    with pytest.raises(NumericalError, match="leading minor of order 2 is not positive definite"):
        spd_solve(np.array([[1.0, 2.0], [2.0, 1.0]]), np.ones(2))
    # LAPACK's code for an invalid argument, which no valid call returns
    monkeypatch.setattr(oracles, "_POTRF", lambda G, lower, clean: (G, -1))
    with pytest.raises(NumericalError, match="^Hessian factorization failed: "
                                             "LAPACK argument 1 is invalid$"):
        spd_solve(np.eye(2), np.ones(2))


def test_wide_newton_names_a_failed_factorization(monkeypatch):
    # n > N: the row-space solve factors its scratch K in place; a failed
    # factorization is a NumericalError, and ends a newton-a run with it
    ds = synth_logistic(20, 40, seed=1)
    obj = LogisticObjective(ds)
    monkeypatch.setattr(oracles, "_POTRF", lambda K, lower, clean, overwrite_a: (K, 2))
    with pytest.raises(NumericalError, match="^Hessian factorization failed: "
                                             "leading minor of order 2 is not positive definite$"):
        obj.at(np.zeros(ds.n)).newton()
    trace = run(run_config("newton-a", dim=ds.n, grad_tol=1e-7, max_iters=10), obj)
    assert trace.termination.kind == "numerical_error"
    assert "leading minor of order 2" in trace.termination.detail


def test_logistic_point_shares_exp_bitwise(desk_logistic):
    ds = desk_logistic.data
    rng = np.random.default_rng(6)
    for w in (np.zeros(ds.n), rng.normal(size=ds.n)):
        m = -ds.labels * (ds.X @ w)
        f = desk_logistic.sc_scale * (np.sum(_softplus(m, np.exp(-np.abs(m)))) / ds.N
                                      + 0.5 * float(w @ w) / ds.N)
        g = desk_logistic.sc_scale * (ds.X.T @ (-ds.labels * sigmoid_of(m) / ds.N)
                                      + w / ds.N)
        value_first = desk_logistic.at(w)
        assert value_first.value() == f
        np.testing.assert_array_equal(value_first.gradient(), g)
        gradient_first = desk_logistic.at(w)
        np.testing.assert_array_equal(gradient_first.gradient(), g)
        assert gradient_first.value() == f


def count_exp(monkeypatch):
    """A one-item list that counts the np.exp passes made from now on."""
    passes = [0]
    exp = np.exp

    def counted(*args, **kwargs):
        passes[0] += 1
        return exp(*args, **kwargs)

    monkeypatch.setattr(np, "exp", counted)
    return passes


POINT_REQUESTS = {
    "value": lambda pt, d: pt.value(),
    "gradient": lambda pt, d: pt.gradient(),
    "curvature": lambda pt, d: pt.ray(d).curvature(),
    "hess_vec": lambda pt, d: pt.ray(d).hess_vec(),
    "newton": lambda pt, d: pt.newton(),
}


def test_a_logistic_point_runs_one_exp_pass(desk_logistic, monkeypatch):
    # the loss's exp(-|m|) serves f, g and the Hessian weights, so a point
    # asked for anything, in any order, makes exactly one pass
    rng = np.random.default_rng(8)
    w, d = rng.normal(size=(2, desk_logistic.dim))
    passes = count_exp(monkeypatch)
    orders = [(name,) for name in POINT_REQUESTS]
    orders += list(itertools.permutations(POINT_REQUESTS))
    for order in orders:
        passes[0] = 0
        pt = desk_logistic.at(w)
        for name in order:
            POINT_REQUESTS[name](pt, d)
        assert passes[0] == 1, order


@pytest.mark.parametrize("method", ["gd-a", "bfgs-a", "lbfgs-a", "newton-a"])
def test_an_adaptive_run_makes_one_exp_pass_per_point(desk_logistic, monkeypatch, method):
    # one point at x0 and one per step, each reached along the ray
    config = run_config(method, dim=desk_logistic.dim, grad_tol=1e-7, max_iters=5000)
    passes = count_exp(monkeypatch)
    trace = run(config, desk_logistic)
    assert trace.termination.kind == "grad_tol"
    assert passes[0] == trace.iterations + 1


def test_hess_weights_reuse_the_loss_exp_bitwise(desk_logistic):
    # for labels of +-1, exp(-|m|) = exp(-|z|): the weights are the
    # two-pass formula's bits
    ds = desk_logistic.data
    rng = np.random.default_rng(7)
    for w in (np.zeros(ds.n), 3.0 * rng.normal(size=ds.n)):
        d = rng.normal(size=ds.n)
        s = sigmoid_of(ds.X @ w)
        coef = s * (1.0 - s) * (ds.X @ d) / ds.N
        want = desk_logistic.sc_scale * (ds.X.T @ coef + d / ds.N)
        pt = desk_logistic.at(w)
        pt.value()
        np.testing.assert_array_equal(pt.ray(d).hess_vec(), want)
        np.testing.assert_array_equal(desk_logistic.at(w).ray(d).hess_vec(), want)


# Margins where the sigmoid and softplus kernels change branch, round,
# underflow or overflow: signed zeros, infinities, NaN, the edge of exp's
# range and past it, and tiny magnitudes.
EDGE_MARGINS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 745.2, -745.2,
                         800.0, -800.0, 1e-300, -1e-300])


def test_elementwise_kernels_are_the_formulas_bitwise(monkeypatch):
    # the kernels' written-out formulas; every result, its signed zeros
    # and its NaNs must match these bit for bit
    def sigmoid(z):
        e = np.exp(-np.abs(z))
        return np.where(z >= 0, 1.0, e) / (1.0 + e)

    def softplus(z):
        return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))

    def same_bits(got, want):
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))

    rng = np.random.default_rng(12)
    z = np.concatenate([EDGE_MARGINS, 30.0 * rng.standard_normal(2000),
                        rng.standard_normal(2000)])
    labels = rng.choice([-1.0, 1.0], size=z.size)
    e = np.exp(-np.abs(z))
    same_bits(_sigmoid(z, e, 1.0 + e), sigmoid(z))
    same_bits(_softplus(z, e), softplus(z))

    # the point's Hessian weights and gradient coefficients at margins z,
    # carried in as a ray's point carries them; X' c is captured, not taken
    N = z.size
    ds = SparseDataset.from_dense(np.ones((N, 1)), labels)
    obj = LogisticObjective(ds, sc_scale=1.0)

    class CaptureXT:
        def __call__(self, A, c):
            assert A is obj._xt
            self.coef = c.copy()
            return np.zeros(1)

    capture = CaptureXT()
    monkeypatch.setattr(oracles, "_product", capture)
    s = sigmoid(z)
    m = -labels * z
    for value_first in (False, True):
        pt = _LogisticPoint(obj, np.zeros(1), z.copy())
        if value_first:
            assert np.isnan(pt.value())
        same_bits(pt._hess_weights(), s * (1.0 - s))
        pt.gradient()
        same_bits(capture.coef, -labels * sigmoid(m) / N)


def sparse_binary_logistic(N, n, nnz_per_row, seed):
    """N rows of nnz_per_row ones, in columns drawn with power-law
    popularity, and labels from a noisy linear rule: a small version of
    a9a-like data."""
    rng = np.random.default_rng(seed)
    keys = rng.exponential(size=(N, n)) * np.arange(1, n + 1) ** 0.7
    cols = np.sort(np.argpartition(keys, nnz_per_row, axis=1)[:, :nnz_per_row], axis=1)
    margin = rng.standard_normal(n)[cols].sum(axis=1)
    margin = (margin - margin.mean()) / margin.std()
    labels = np.where(1.5 * margin + rng.standard_normal(N) >= 0, 1.0, -1.0)
    X = csr_matrix((np.ones(cols.size), (np.repeat(np.arange(N), nnz_per_row), cols.ravel())),
                   shape=(N, n))
    return LogisticObjective(SparseDataset(X=X, labels=labels))


def test_margins_carried_along_a_long_run_stay_within_rounding(monkeypatch):
    # lbfgs-a takes every step along a ray, so each iterate's margins are
    # z + t X d carried from the start, never recomputed as X w
    obj = sparse_binary_logistic(3000, 200, 10, seed=1)
    X = obj.data.X
    points = []
    ray_at = _LogisticRay.at

    def recording(ray, t):
        points.append(ray_at(ray, t))
        return points[-1]

    monkeypatch.setattr(_LogisticRay, "at", recording)
    g0 = np.linalg.norm(obj.gradient(np.zeros(obj.dim)))
    trace = run(RunConfig(direction=LBfgs(memory=20), step=Adaptive(), grad_tol=1e-6 * g0,
                          max_iters=2000), obj)
    assert trace.termination.kind == "grad_tol"
    assert len(points) == trace.iterations >= 300
    drift = max(np.linalg.norm(p._z - X @ p._w) / np.linalg.norm(X @ p._w) for p in points)
    assert drift <= 1e-13


def spd_matrix(rng, n, lo, hi):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q * np.linspace(lo, hi, n)) @ q.T


def make_logistic(rng):
    ds, _ = random_dataset(rng, 60, 11)
    return LogisticObjective(ds)


def make_wide_logistic(rng):
    ds, _ = random_dataset(rng, 9, 23)
    return LogisticObjective(ds)


def make_quadratic(rng):
    return QuadraticObjective(spd_matrix(rng, 9, 0.5, 4.0), rng.standard_normal(9))


def make_online_ls(rng):
    return OnlineLsExpectedObjective(spd_matrix(rng, 7, 1.0, 9.0), rng.standard_normal(7), 0.3)


def make_batch(rng):
    X = rng.standard_normal((25, 8))
    return SampledBatchOracle(X, X @ rng.standard_normal(8) + rng.standard_normal(25), 0.2)


ORACLES = [make_logistic, make_wide_logistic, make_quadratic, make_online_ls, make_batch]


@pytest.mark.parametrize("make", ORACLES, ids=lambda m: m.__name__[5:])
def test_point_contract(make):
    rng = np.random.default_rng(3)
    obj = make(rng)
    n = obj.dim
    for _ in range(3):
        x, d, e = rng.normal(size=(3, n))
        # the derived x-methods are the point's results, bit for bit
        pt = obj.at(x)
        assert obj.value(x) == pt.value()
        np.testing.assert_array_equal(obj.gradient(x), pt.gradient())
        np.testing.assert_array_equal(obj.at(x).ray(d).hess_vec(), pt.ray(d).hess_vec())
        # the same bits whatever the order of requests
        first = obj.at(x)
        hv_d, hv_e = first.ray(d).hess_vec(), first.ray(e).hess_vec()
        g, f = first.gradient(), first.value()
        u = first.newton()
        second = obj.at(x)
        np.testing.assert_array_equal(second.newton(), u)
        assert second.value() == f
        np.testing.assert_array_equal(second.gradient(), g)
        np.testing.assert_array_equal(second.ray(e).hess_vec(), hv_e)
        np.testing.assert_array_equal(second.ray(d).hess_vec(), hv_d)
        # the Newton direction: G newton() = -g, along the point's own ray
        # and along a fresh point's
        assert_rel_close(first.ray(u).hess_vec(), -g, rtol=1e-10)
        assert_rel_close(obj.at(x).ray(u.copy()).hess_vec(), -g, rtol=1e-10)
        # the ray along d: the point's G d, d'G d, and points at x + t d
        ray = obj.at(x).ray(d)
        curvature = ray.curvature()
        np.testing.assert_array_equal(ray.hess_vec(), hv_d)
        assert abs(curvature - float(d @ hv_d)) <= 1e-13 * curvature
        on_ray = ray.at(0.5)
        assert on_ray.value() == pytest.approx(obj.value(x + 0.5 * d), rel=1e-13)
        assert_rel_close(on_ray.gradient(), obj.gradient(x + 0.5 * d))
    with pytest.raises(ValueError):
        obj.at(x).ray(np.ones(n + 1))
    with pytest.raises(ValueError):
        obj.at(np.ones(n + 1))


def quadratic_formulas(obj, x, d):
    """f, g and G d as QuadraticObjective computed them before it had a point."""
    A, b = obj.A, obj.b
    return 0.5 * float(x @ (A @ x)) + float(b @ x), A @ x + b, A @ d


def batch_formulas(obj, w, d):
    """f, g and G d as SampledBatchOracle computed them before it had a point."""
    r = obj.Y - obj.X @ w
    f = float(r @ r) / obj.size + 0.5 * obj.lam * float(w @ w)
    g = -(2.0 / obj.size) * (obj.X.T @ r) + obj.lam * w
    hv = (2.0 / obj.size) * (obj.X.T @ (obj.X @ d)) + obj.lam * d
    return f, g, hv


@pytest.mark.parametrize("make, formulas", [(make_quadratic, quadratic_formulas),
                                            (make_batch, batch_formulas)])
def test_point_is_bitwise_the_formulas(make, formulas):
    rng = np.random.default_rng(16)
    obj = make(rng)
    for x in (np.zeros(obj.dim), rng.standard_normal(obj.dim)):
        d = rng.standard_normal(obj.dim)
        f, g, hv = formulas(obj, x, d)
        pt = obj.at(x)
        assert pt.value() == f
        np.testing.assert_array_equal(pt.gradient(), g)
        np.testing.assert_array_equal(pt.ray(d).hess_vec(), hv)


def test_quadratic_identities():
    rng = np.random.default_rng(11)
    n = 6
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = np.linspace(0.5, 4.0, n)
    A = (q * eigs) @ q.T
    b = rng.standard_normal(n)
    obj = QuadraticObjective(A, b)
    x = rng.standard_normal(n)
    assert obj.value(x) == pytest.approx(0.5 * x @ A @ x + b @ x, rel=1e-12)
    np.testing.assert_allclose(obj.gradient(x), A @ x + b, rtol=1e-12)
    d = rng.standard_normal(n)
    np.testing.assert_allclose(obj.at(x).ray(d).hess_vec(), A @ d, rtol=1e-12)
    np.testing.assert_allclose(obj.at(x).newton(), -np.linalg.solve(A, A @ x + b), rtol=1e-12)
    # identity special case: value with ||x|| = 2 is 2
    iden = QuadraticObjective(np.eye(3), np.zeros(3))
    x = np.array([2.0, 0.0, 0.0])
    assert iden.value(x) == 2.0
    np.testing.assert_array_equal(iden.gradient(x), x)


def test_quadratic_polyak_lojasiewicz():
    rng = np.random.default_rng(12)
    n = 8
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = np.linspace(0.3, 5.0, n)
    A = (q * eigs) @ q.T
    obj = QuadraticObjective(A, rng.standard_normal(n))
    xs, fs = obj.minimizer()
    m = eigs.min()
    for _ in range(20):
        x = rng.standard_normal(n)
        g = obj.gradient(x)
        assert g @ g >= 2.0 * m * (obj.value(x) - fs) - 1e-10


def test_online_ls_expected():
    rng = np.random.default_rng(13)
    p = 8
    beta = rng.standard_normal(p)
    obj = OnlineLsExpectedObjective(np.eye(p), beta, lam=1.0)
    # Sigma = I, lam = 1: minimizer is (2/3) beta
    np.testing.assert_allclose(obj.minimizer()[0], 2.0 * beta / 3.0, rtol=1e-12)
    zero = OnlineLsExpectedObjective(np.eye(p), np.zeros(p), lam=0.5)
    np.testing.assert_allclose(zero.minimizer()[0], np.zeros(p), atol=1e-15)
    # at w = beta the residual is pure noise
    assert obj.value(beta) == pytest.approx(1.0 + 0.5 * beta @ beta, rel=1e-12)


def test_online_ls_point_shares_residual_bitwise():
    rng = np.random.default_rng(15)
    p, lam = 7, 0.3
    q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    sigma = (q * np.linspace(1.0, 9.0, p)) @ q.T
    beta = rng.standard_normal(p)
    obj = OnlineLsExpectedObjective(sigma, beta, lam)
    d = rng.standard_normal(p)
    for w in (np.zeros(p), rng.standard_normal(p)):
        r = beta - w
        f = float(r @ (sigma @ r)) + 1.0 + 0.5 * lam * float(w @ w)
        g = -2.0 * (sigma @ (beta - w)) + lam * w
        value_first = obj.at(w)
        assert value_first.value() == f
        np.testing.assert_array_equal(value_first.gradient(), g)
        gradient_first = obj.at(w)
        np.testing.assert_array_equal(gradient_first.gradient(), g)
        assert gradient_first.value() == f
        np.testing.assert_array_equal(gradient_first.ray(d).hess_vec(),
                                      2.0 * (sigma @ d) + lam * d)
        assert obj.value(w) == f
        np.testing.assert_array_equal(obj.gradient(w), g)
    with pytest.raises(ValueError):
        obj.at(np.ones(3))


def test_online_ls_minimizer_stationary():
    rng = np.random.default_rng(14)
    p = 8
    q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    sigma = (q * np.linspace(0.2, 3.0, p)) @ q.T
    beta = rng.standard_normal(p)
    obj = OnlineLsExpectedObjective(sigma, beta, lam=1.0 / p)
    w = obj.minimizer()[0]
    resid = -2.0 * sigma @ (beta - w) + obj.lam * w
    assert np.linalg.norm(resid) < 1e-10 * (1.0 + np.linalg.norm(beta))
    assert np.linalg.norm(obj.gradient(w)) < 1e-10 * (1.0 + np.linalg.norm(beta))


def test_dimension_checks_and_capability():
    obj = QuadraticObjective(np.eye(3), np.zeros(3))
    with pytest.raises(ValueError):
        obj.value(np.zeros(4))
    with pytest.raises(ValueError):
        obj.at(np.zeros(3)).ray(np.zeros(2))

    # a point's newton() is the one Newton capability, and a run refuses
    # Newton on an oracle whose points have none
    assert hasattr(obj.at(np.zeros(3)), "newton")

    nh = NoSolve(QuadraticObjective(np.eye(2), np.ones(2)))
    with pytest.raises(ValueError, match=r"Newton needs newton\(\)"):
        run(RunConfig(direction=Newton(), step=Adaptive()), nh)

    # every built-in oracle refuses a wrong shape at each public entry,
    # naming the shape it expected
    rng = np.random.default_rng(5)
    for make in ORACLES:
        obj = make(rng)
        n = obj.dim
        point = obj.at(np.zeros(n))
        for bad in (np.zeros(n - 1), np.zeros(n + 1), np.zeros((n, 1))):
            for entry in (obj.at, obj.value, obj.gradient, point.ray):
                with pytest.raises(ValueError, match=f"expected \\({n},\\)"):
                    entry(bad)
        # what is not a native float64 array is converted first
        x = np.linspace(-1.0, 1.0, n)
        for same in (list(x), x.astype(">f8"), x.astype(np.float32)):
            assert obj.value(same) == obj.value(np.asarray(same, dtype=float))
        assert obj.value(np.ones(n, dtype=int)) == obj.value(np.ones(n))


class DimSetWhenBuilt(ObjectiveOracle):
    """The whole oracle contract: ``dim`` set when built, and ``at``."""

    def __init__(self, inner):
        self.inner = inner
        self.dim = inner.dim

    def at(self, x):
        return self.inner.at(self._check(x))


# NoSolve keeps dim as a property
@pytest.mark.parametrize("wrap", [DimSetWhenBuilt, NoSolve])
def test_an_oracle_needs_only_dim_and_at(wrap):
    rng = np.random.default_rng(23)
    inner = QuadraticObjective(spd_matrix(rng, 6, 0.5, 40.0), rng.standard_normal(6))
    oracle = wrap(inner)
    assert oracle.dim == 6
    with pytest.raises(ValueError, match="expected \\(6,\\)"):
        oracle.value(np.zeros(5))
    cfg = RunConfig(direction=BfgsDense(), step=Adaptive(), grad_tol=1e-10, max_iters=200)
    wrapped, plain = run(cfg, oracle), run(cfg, inner)
    assert plain.termination.kind == "grad_tol" and plain.iterations > 5
    # every field but the wall clock, bit for bit
    assert ([repr(r[:9] + r[10:]) for r in wrapped.rows()]
            == [repr(r[:9] + r[10:]) for r in plain.rows()])


@pytest.mark.parametrize("order", ["C", "F"])
def test_quadratic_solve_leaves_A_unmodified(order):
    rng = np.random.default_rng(17)
    A = np.array(spd_matrix(rng, 6, 0.5, 4.0), order=order)
    kept = A.copy()
    obj = QuadraticObjective(A, rng.standard_normal(6))
    u = obj.at(np.zeros(6)).newton()
    np.testing.assert_array_equal(A, kept)
    assert_rel_close(A @ u, -obj.b, rtol=1e-12)


@pytest.mark.parametrize("sc_scale", [0.0, -1.0, np.nan, np.inf])
def test_logistic_refuses_a_scale_that_makes_no_objective(sc_scale):
    with pytest.raises(ValueError, match="sc_scale") as info:
        LogisticObjective(synth_logistic(20, 3, seed=0), sc_scale=sc_scale)
    assert type(info.value) is ValueError


def test_row_gram_is_built_by_wide_newton_only():
    # X X' is computed on a wide dataset's first Newton solve and kept;
    # constructing the oracle and the quasi-Newton methods never pay for it
    ds = synth_logistic(30, 60, seed=2)
    obj = LogisticObjective(ds)
    for direction in (BfgsDense(), LBfgs(memory=5)):
        trace = run(RunConfig(direction=direction, step=Adaptive(), max_iters=20), obj)
        assert trace.iterations > 0
    assert "row_gram" not in vars(ds)

    newton = RunConfig(direction=Newton(), step=Adaptive(), max_iters=20)
    first = run(newton, obj)
    assert first.termination.kind == "grad_tol"
    gram = vars(ds)["row_gram"]
    assert not gram.flags.writeable
    np.testing.assert_allclose(gram, ds.X.toarray() @ ds.X.toarray().T, rtol=1e-14, atol=1e-14)
    second = run(newton, LogisticObjective(ds))
    assert vars(ds)["row_gram"] is gram
    assert [r.f for r in second.rows()] == [r.f for r in first.rows()]


def test_row_gram_is_never_built_when_n_fits_in_N():
    ds = synth_logistic(60, 30, seed=2)
    trace = run(RunConfig(direction=Newton(), step=Adaptive(), max_iters=20),
                LogisticObjective(ds))
    assert trace.termination.kind == "grad_tol"
    assert "row_gram" not in vars(ds)


def count_products(monkeypatch, obj, counts):
    """Add one to counts["X"] or counts["XT"] for each product that the
    logistic oracle obj makes with its X or X', split or not."""
    product = oracles._product

    def counted(A, v):
        counts["X" if A is obj.data.X else "XT" if A is obj._xt
               else pytest.fail("another matrix")] += 1
        return product(A, v)

    monkeypatch.setattr(oracles, "_product", counted)


def test_a_wide_newton_iteration_makes_two_sparse_products(monkeypatch):
    # n > N: an iteration's products are its point's gradient X'c and its
    # Newton direction's X'a; Xd comes from the row Gram, and the ray's
    # curvature and next point reuse it
    ds = synth_logistic(30, 80, seed=3)
    obj = LogisticObjective(ds)
    ds.row_gram  # X X' densifies X once per dataset, before the count
    counts = {"X": 0, "XT": 0}
    count_products(monkeypatch, obj, counts)
    monkeypatch.setattr(oracles, "SPLIT_NNZ", 0)
    for cpus, iters in itertools.product((1, 2), (1, 2, 3)):
        use_cpus(monkeypatch, cpus)  # on two, every product is split
        counts.update(X=0, XT=0)
        trace = run(RunConfig(Newton(), Adaptive(), grad_tol=1e-300, max_iters=iters), obj)
        assert trace.iterations == iters
        # Xw and X'c at x0, then X'a and X'c in each iteration
        assert counts == {"X": 1, "XT": 1 + 2 * iters}


def test_the_newton_ray_agrees_with_a_fresh_ray():
    # the ray along newton()'s own array starts from the Xd computed in
    # the row space; its curvature and the margins of its points match a
    # ray that takes X d afresh, to rounding
    rng = np.random.default_rng(19)
    for seed in range(4):
        obj = LogisticObjective(synth_logistic(40, 120, seed=seed, feature_decay=0.998))
        for w in (np.zeros(obj.dim), rng.normal(size=obj.dim), 30.0 * rng.normal(size=obj.dim)):
            point = obj.at(w)
            d = point.newton()
            assert point.newton() is d
            ray, fresh = point.ray(d), obj.at(w).ray(d.copy())
            assert abs(ray.curvature() - fresh.curvature()) <= 1e-13 * fresh.curvature()
            for t in (0.25, 1.0):
                z, want = ray.at(t)._z, fresh.at(t)._z
                assert np.linalg.norm(z - want) <= 1e-13 * np.linalg.norm(want), (seed, t)


# The product split: a large A @ v is cut into two row ranges, one
# computed by the caller and one by the process's worker, with the bits
# of the whole product. With oracles.SPLIT_NNZ = 0, every logistic
# oracle keeps X' as a CSR copy and every product is split.

FLOATS = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1e20, -1e-20, 1e-300, -3.5e20])


@st.composite
def csr_products(draw):
    """A random CSR matrix with int32 or int64 indices, and float vectors
    for its products with X and X'. Its rows follow one of three shapes:
    random lengths, many empty rows, or one row holding every entry.
    Entries and vector values mix signed zeros (explicitly stored ones in
    the matrix), NaN, +-inf, and values of magnitude 1e+-20 or ~1."""
    N, n = draw(st.integers(0, 30)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["random", "sparse rows", "one row"]))
    lengths = rng.integers(0, n + 1, size=N)
    if shape == "sparse rows":
        lengths[rng.random(N) < 0.8] = 0
    elif shape == "one row" and N:
        lengths[:] = 0
        lengths[rng.integers(N)] = n
    cols = [np.sort(rng.choice(n, size=k, replace=False)) for k in lengths]
    indptr = np.concatenate([[0], np.cumsum(lengths)])
    indices = np.concatenate([np.zeros(0, dtype=np.int64), *cols])

    def values(size):
        special = rng.random(size) < draw(st.sampled_from([0.0, 0.2, 0.6]))
        scale = 10.0 ** rng.choice([-20, 0, 20], size=size)
        return np.where(special, rng.choice(FLOATS, size=size),
                        scale * rng.standard_normal(size))

    X = csr_matrix((values(indices.size), indices, indptr), shape=(N, n))
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    X.indices, X.indptr = X.indices.astype(dtype), X.indptr.astype(dtype)
    return X, values(n), values(N)


def same_product_bits(got, want):
    """Equal values, NaN at the same places, and the same sign on the rest."""
    np.testing.assert_array_equal(got, want)
    ok = ~np.isnan(want)
    np.testing.assert_array_equal(np.signbit(got[ok]), np.signbit(want[ok]))


@pytest.mark.parametrize("cpus", [1, 2])
@property_test
@given(csr_products())
def test_split_products_have_the_bits_of_the_whole_products(cpus, case):
    X, v, c = case
    with mock.patch.object(oracles, "SPLIT_NNZ", 0), \
            mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                              create=True):
        XT = X.T.tocsr()  # a large oracle's X'
        XT.indices, XT.indptr = (XT.indices.astype(X.indices.dtype),
                                 XT.indptr.astype(X.indptr.dtype))
        same_product_bits(oracles._product(X, v), X @ v)
        same_product_bits(oracles._product(XT, c), X.T @ c)  # CSC's scatter


def test_only_a_large_dataset_copies_x_transposed(monkeypatch):
    # below SPLIT_NNZ entries the oracle's X' is a view of X's arrays,
    # which a product never splits; from SPLIT_NNZ on, a CSR copy, built
    # on the first X'c
    obj = LogisticObjective(synth_logistic(50, 20, seed=1))
    assert "_xt" not in vars(obj)
    obj.gradient(np.zeros(20))
    X = obj.data.X
    assert obj._xt.format == "csc" and np.shares_memory(obj._xt.data, X.data)
    monkeypatch.setattr(oracles, "SPLIT_NNZ", X.nnz)
    big = LogisticObjective(synth_logistic(50, 20, seed=1))
    assert "_xt" not in vars(big)
    big.gradient(np.zeros(20))
    assert big._xt.format == "csr" and not np.shares_memory(big._xt.data, big.data.X.data)
    assert (big._xt != X.T).nnz == 0


def wide_logistic():
    return LogisticObjective(synth_logistic(40, 150, seed=5, feature_decay=0.998))


WIDE_METHODS = ("bfgs-a", "lbfgs-a", "bfgs-h", "newton-a")


def traced(method, obj):
    trace = run(run_config(method, dim=obj.dim, grad_tol=1e-8, max_iters=40), obj)
    return [repr(r._replace(elapsed=None)) for r in trace.rows()], trace.final_x.tobytes()


def test_concurrent_runs_on_one_oracle_give_the_serial_traces(monkeypatch):
    # four runs share one wide oracle and the one worker while the
    # interpreter switches threads every microsecond; X' is first built
    # during the race
    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(oracles, "SPLIT_NNZ", 0)
    want = {m: traced(m, wide_logistic()) for m in WIDE_METHODS}
    obj, got = wide_logistic(), {}
    assert "_xt" not in vars(obj)
    race([lambda m=m: got.__setitem__(m, traced(m, obj)) for m in WIDE_METHODS])
    assert got == want
    assert len(adaptqn_workers()) == 1


def stoch_traced(seed=7):
    """The rows and final x of a short sbfgs stochastic run."""
    sampler = OnlineSampler(make_synthetic_sigma(10, seed=3), make_sparse_beta(10, seed=12),
                            0.1, seed=seed)
    trace = stochastic_run("sbfgs", GrowingBatch(base=40), Adaptive(), sampler,
                           x0=np.zeros(10), budget=60)
    return [repr(r._replace(elapsed=None)) for r in trace.rows()], trace.final_x.tobytes()


def test_a_wide_run_and_a_stochastic_run_share_the_worker(monkeypatch):
    # split products and draws ahead queue on the one worker, in turn
    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(oracles, "SPLIT_NNZ", 0)
    jobs = {"wide": lambda: traced("bfgs-a", wide_logistic()), "stoch": stoch_traced}
    want, got = {name: job() for name, job in jobs.items()}, {}
    race([lambda name=name, job=job: got.__setitem__(name, job()) for name, job in jobs.items()])
    assert got == want
    assert len(adaptqn_workers()) == 1


def test_one_cpu_starts_no_product_worker_and_traces_the_same(monkeypatch):
    monkeypatch.setattr(oracles, "SPLIT_NNZ", 0)

    def on(cpus):
        with monkeypatch.context() as m:
            use_cpus(m, cpus)
            if cpus == 1:
                m.setattr(oracles, "_worker", None)  # as in a fresh process
                m.setattr(threading.Thread, "start",
                          lambda self: pytest.fail("a thread started on one CPU"))
            return {method: traced(method, wide_logistic()) for method in WIDE_METHODS}

    assert on(1) == on(2)
    assert len(adaptqn_workers()) == 1  # the two-CPU runs split their products


def test_racing_first_products_start_one_worker(monkeypatch):
    # eight first products and four stochastic runs race to start the worker
    made = []

    class Counted(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(oracles, "SPLIT_NNZ", 0)
    X = wide_logistic().data.X
    v = np.random.default_rng(3).standard_normal(X.shape[1])
    want, got = (X @ v).tobytes(), []
    runs_want, runs_got = {s: stoch_traced(s) for s in range(4)}, {}
    monkeypatch.setattr(oracles, "ThreadPoolExecutor", Counted)
    monkeypatch.setattr(oracles, "_worker", None)  # as in a fresh process
    product = lambda: got.append(oracles._product(X, v).tobytes())
    runs = [lambda s=s: runs_got.__setitem__(s, stoch_traced(s)) for s in range(4)]
    try:
        race([job for pair in zip(runs, [product] * 4) for job in pair] + [product] * 4,
             timeout=60)
    finally:
        for pool in made:
            pool.shutdown()
    assert got == [want] * 8
    assert runs_got == runs_want
    assert len(made) == 1


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_starts_its_own_worker(monkeypatch):
    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(oracles, "SPLIT_NNZ", 0)
    X = wide_logistic().data.X
    v = np.random.default_rng(4).standard_normal(X.shape[1])
    want = (X @ v).tobytes()
    assert oracles._product(X, v).tobytes() == want
    run_want = stoch_traced()
    parent = oracles._worker
    assert parent is not None
    pid = os.fork()
    if pid == 0:  # the child: exit 0 only if its own worker gave the run and the product
        code = 1
        try:
            signal.alarm(30)  # a child that waits on its parent's worker ends here
            code = 0 if (oracles._worker is None
                         and stoch_traced() == run_want
                         and oracles._worker not in (None, parent)
                         and oracles._product(X, v).tobytes() == want) else 2
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


def test_the_process_cpus_decide_whether_the_worker_starts(monkeypatch):
    # no CPU count is faked here: run on one CPU (taskset -c 0), the
    # process must start no worker; on two or more, exactly one
    monkeypatch.setattr(oracles, "_worker", None)  # as in a fresh process
    before = adaptqn_workers()
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity is not None else os.cpu_count() or 1
    first = oracles._second_cpu()
    try:
        assert oracles._second_cpu() is first
        if cpus < 2:
            assert first is None and oracles._worker is None
        else:
            assert isinstance(first, ThreadPoolExecutor)
            first.submit(lambda: None).result()  # the worker's thread is running
        new = [t for t in adaptqn_workers() if t not in before]
        assert len(new) == (cpus >= 2)
    finally:
        if first is not None:
            first.shutdown()
