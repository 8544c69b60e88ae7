import numpy as np
import pytest

from adaptqn import (LogisticObjective, OnlineLsExpectedObjective,
                     QuadraticObjective, ScBoundInputs, UnsupportedOperationError,
                     logistic_sc_scale, online_ls_minimizer, parse_libsvm,
                     sc_lower_f, sc_lower_gd, sc_upper_f, sc_upper_gd,
                     synth_logistic)
from adaptqn.oracles import _sigmoid, _softplus, _weighted_gram


def fd_gradient(obj, x, h=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (obj.value(x + e) - obj.value(x - e)) / (2 * h)
    return g


def fd_hess_vec(obj, x, d, h=1e-5):
    return (obj.gradient(x + h * d) - obj.gradient(x - h * d)) / (2 * h)


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
    np.testing.assert_allclose(obj.hess_vec(w, np.ones(1)), [1.25], rtol=1e-14)
    ds2 = parse_libsvm("+1 1:1", n_features=2)
    obj2 = LogisticObjective(ds2, sc_scale=1.0)
    np.testing.assert_allclose(obj2.dense_hessian(np.zeros(2)),
                               [[1.25, 0.0], [0.0, 1.0]], atol=1e-14)


def test_logistic_sc_scale_values():
    ds = parse_libsvm("\n".join(["+1 1:2"] * 10))
    assert logistic_sc_scale(ds) == pytest.approx(10.0)
    assert logistic_sc_scale(parse_libsvm("+1 1:3 2:4")) == pytest.approx(25.0 / 4.0)


def test_logistic_sc_scale_brute_force(small_logistic):
    ds = small_logistic.data
    X = ds.to_dense()
    B = max(np.linalg.norm(X[i]) for i in range(ds.N))
    assert small_logistic.sc_scale == pytest.approx(B * B * ds.N / 4.0, rel=1e-12)


def test_logistic_finite_differences(small_logistic):
    rng = np.random.default_rng(7)
    for _ in range(5):
        x = 0.2 * rng.standard_normal(small_logistic.dim)
        g = small_logistic.gradient(x)
        assert np.linalg.norm(fd_gradient(small_logistic, x) - g) / np.linalg.norm(g) < 1e-5
        d = rng.standard_normal(small_logistic.dim)
        hv = small_logistic.hess_vec(x, d)
        assert np.linalg.norm(fd_hess_vec(small_logistic, x, d) - hv) / np.linalg.norm(hv) < 1e-4


def test_hess_vec_symmetry_and_dense_consistency(small_logistic):
    rng = np.random.default_rng(8)
    x = 0.1 * rng.standard_normal(small_logistic.dim)
    for _ in range(10):
        d, e = rng.standard_normal((2, small_logistic.dim))
        lhs = d @ small_logistic.hess_vec(x, e)
        rhs = e @ small_logistic.hess_vec(x, d)
        assert lhs == pytest.approx(rhs, rel=1e-10)
    G = small_logistic.dense_hessian(x)
    for i in range(small_logistic.dim):
        e = np.zeros(small_logistic.dim)
        e[i] = 1.0
        np.testing.assert_allclose(G[:, i], small_logistic.hess_vec(x, e), rtol=1e-10,
                                   atol=1e-12)


def test_logistic_strong_convexity_floor(small_logistic):
    rng = np.random.default_rng(9)
    obj = small_logistic
    N = obj.data.N
    for _ in range(20):
        x = rng.standard_normal(obj.dim)
        d = rng.standard_normal(obj.dim)
        quad = d @ obj.hess_vec(x, d)
        assert quad >= obj.sc_scale * (d @ d) / N - 1e-12


def test_overflow_safety():
    ds = parse_libsvm("+1 1:1\n-1 1:1")
    obj = LogisticObjective(ds, sc_scale=1.0)
    w = np.array([1e4])
    assert np.isfinite(obj.value(w))
    assert np.isfinite(obj.gradient(w)).all()
    assert np.isfinite(obj.hess_vec(w, np.ones(1))).all()


def test_self_concordance_audit(small_logistic):
    # scaled logistic satisfies all four ray bounds
    obj = small_logistic
    rng = np.random.default_rng(10)
    for _ in range(25):
        x = 0.3 * rng.standard_normal(obj.dim)
        d = rng.standard_normal(obj.dim)
        delta = float(np.sqrt(d @ obj.hess_vec(x, d)))
        t = rng.uniform(0.0, 0.9) / delta
        f0, gd = obj.value(x), float(obj.gradient(x) @ d)
        slack = 1e-8 * (1.0 + abs(f0))
        b = ScBoundInputs(f0=f0, gd=gd, delta=delta, t=t)
        ft = obj.value(x + t * d)
        gdt = float(obj.gradient(x + t * d) @ d)
        assert sc_lower_f(b) - slack <= ft <= sc_upper_f(b) + slack
        assert sc_lower_gd(gd, delta, t) - slack <= gdt <= sc_upper_gd(gd, delta, t) + slack


def random_dataset(rng, n_rows, n_cols, density=0.3):
    """LIBSVM records with about 15% empty rows, and the dense matrix
    they describe, built independently of the parser."""
    dense = np.zeros((n_rows, n_cols))
    lines = []
    for i in range(n_rows):
        nnz = 0 if rng.random() < 0.15 else rng.integers(1, int(density * n_cols) + 2)
        cols = np.sort(rng.choice(n_cols, size=nnz, replace=False))
        dense[i, cols] = rng.normal(size=nnz)
        label = "+1" if rng.random() < 0.5 else "-1"
        lines.append(" ".join([label] + [f"{c + 1}:{dense[i, c]:.17g}" for c in cols]))
    return parse_libsvm("\n".join(lines), n_features=n_cols), dense


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
    assert np.any(np.diff(ds.indptr) == 0)  # empty rows are covered
    obj = LogisticObjective(ds, sc_scale=1.0)
    w, d = rng.normal(size=(2, 17))
    f, g, hv, G = dense_reference(X, ds.labels, w, d)
    assert obj.value(w) == pytest.approx(f, rel=1e-13)
    assert_rel_close(obj.gradient(w), g)
    assert_rel_close(obj.hess_vec(w, d), hv)
    assert_rel_close(obj.dense_hessian(w), G)


def test_logistic_on_matrix_without_nonzeros():
    ds = parse_libsvm("+1\n-1\n+1", n_features=5)
    assert ds.values.size == 0
    obj = LogisticObjective(ds, sc_scale=1.0)
    w, d = np.arange(5.0), np.ones(5)
    assert obj.value(w) == pytest.approx(np.log(2.0) + 0.5 * (w @ w) / 3, rel=1e-15)
    np.testing.assert_array_equal(obj.gradient(w), w / 3)
    np.testing.assert_array_equal(obj.hess_vec(w, d), d / 3)
    np.testing.assert_array_equal(obj.dense_hessian(w), np.eye(5) / 3)


def test_logistic_point_matches_oracle_bitwise():
    rng = np.random.default_rng(3)
    ds, _ = random_dataset(rng, 60, 11)
    obj = LogisticObjective(ds)
    for _ in range(5):
        x, d = rng.normal(size=(2, 11))
        pt = obj.at(x)
        assert pt.value() == obj.value(x)
        np.testing.assert_array_equal(pt.gradient(), obj.gradient(x))
        np.testing.assert_array_equal(pt.hess_vec(d), obj.hess_vec(x, d))


def test_logistic_point_is_order_independent():
    rng = np.random.default_rng(4)
    ds, _ = random_dataset(rng, 60, 11)
    obj = LogisticObjective(ds)
    x, d, e = rng.normal(size=(3, 11))
    first = obj.at(x)
    hv_d, hv_e, g, f = first.hess_vec(d), first.hess_vec(e), first.gradient(), first.value()
    second = obj.at(x)
    assert second.value() == f
    np.testing.assert_array_equal(second.gradient(), g)
    np.testing.assert_array_equal(second.hess_vec(e), hv_e)
    np.testing.assert_array_equal(second.hess_vec(d), hv_d)
    with pytest.raises(ValueError):
        second.hess_vec(np.ones(3))


def test_dense_hessian_is_bitwise_the_formula(desk_logistic):
    ds = desk_logistic.data
    rng = np.random.default_rng(5)
    for w in (np.zeros(ds.n), rng.normal(size=ds.n)):
        s = _sigmoid(ds.X @ w)
        G = _weighted_gram(ds.X, s * (1.0 - s) / ds.N)
        G += np.eye(ds.n) / ds.N
        np.testing.assert_array_equal(desk_logistic.dense_hessian(w),
                                      desk_logistic.sc_scale * G)


def test_logistic_point_shares_exp_bitwise(desk_logistic):
    ds = desk_logistic.data
    rng = np.random.default_rng(6)
    for w in (np.zeros(ds.n), rng.normal(size=ds.n)):
        m = -ds.labels * (ds.X @ w)
        f = desk_logistic.sc_scale * (np.sum(_softplus(m)) / ds.N
                                      + 0.5 * float(w @ w) / ds.N)
        g = desk_logistic.sc_scale * (ds.XT @ (-ds.labels * _sigmoid(m) / ds.N)
                                      + w / ds.N)
        value_first = desk_logistic.at(w)
        assert value_first.value() == f
        np.testing.assert_array_equal(value_first.gradient(), g)
        gradient_first = desk_logistic.at(w)
        np.testing.assert_array_equal(gradient_first.gradient(), g)
        assert gradient_first.value() == f


def test_default_point_forwards_to_oracle():
    obj = QuadraticObjective(np.diag([1.0, 2.0]), np.array([1.0, -1.0]))
    x, d = np.array([0.5, 2.0]), np.array([1.0, 1.0])
    pt = obj.at(x)
    assert pt.value() == obj.value(x)
    np.testing.assert_array_equal(pt.gradient(), obj.gradient(x))
    np.testing.assert_array_equal(pt.hess_vec(d), obj.hess_vec(x, d))


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
    np.testing.assert_allclose(obj.hess_vec(x, d), A @ d, rtol=1e-12)
    np.testing.assert_allclose(obj.dense_hessian(x), A)
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
    np.testing.assert_allclose(online_ls_minimizer(obj), 2.0 * beta / 3.0, rtol=1e-12)
    zero = OnlineLsExpectedObjective(np.eye(p), np.zeros(p), lam=0.5)
    np.testing.assert_allclose(online_ls_minimizer(zero), np.zeros(p), atol=1e-15)
    # at w = beta the residual is pure noise
    assert obj.value(beta) == pytest.approx(1.0 + 0.5 * beta @ beta, rel=1e-12)


def test_online_ls_point_shares_residual_bitwise():
    rng = np.random.default_rng(15)
    p, lam, noise_var = 7, 0.3, 0.5
    q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    sigma = (q * np.linspace(1.0, 9.0, p)) @ q.T
    beta = rng.standard_normal(p)
    obj = OnlineLsExpectedObjective(sigma, beta, lam, noise_var=noise_var)
    d = rng.standard_normal(p)
    for w in (np.zeros(p), rng.standard_normal(p)):
        r = beta - w
        f = float(r @ (sigma @ r)) + noise_var + 0.5 * lam * float(w @ w)
        g = -2.0 * (sigma @ (beta - w)) + lam * w
        value_first = obj.at(w)
        assert value_first.value() == f
        np.testing.assert_array_equal(value_first.gradient(), g)
        gradient_first = obj.at(w)
        np.testing.assert_array_equal(gradient_first.gradient(), g)
        assert gradient_first.value() == f
        np.testing.assert_array_equal(gradient_first.hess_vec(d),
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
    w = online_ls_minimizer(obj)
    resid = -2.0 * sigma @ (beta - w) + obj.lam * w
    assert np.linalg.norm(resid) < 1e-10 * (1.0 + np.linalg.norm(beta))
    assert np.linalg.norm(obj.gradient(w)) < 1e-10 * (1.0 + np.linalg.norm(beta))


def test_dimension_checks_and_capability():
    obj = QuadraticObjective(np.eye(3), np.zeros(3))
    with pytest.raises(ValueError):
        obj.value(np.zeros(4))
    with pytest.raises(ValueError):
        obj.hess_vec(np.zeros(3), np.zeros(2))

    class NoHessian(QuadraticObjective):
        @property
        def has_hessian(self):
            return False

        def dense_hessian(self, x):
            raise UnsupportedOperationError("disabled")

    nh = NoHessian(np.eye(2), np.zeros(2))
    with pytest.raises(UnsupportedOperationError):
        nh.dense_hessian(np.zeros(2))
