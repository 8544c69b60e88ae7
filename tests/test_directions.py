import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from adaptqn import (BfgsDense, GradientDescent, LBfgs, Newton,
                     NumericalError, QuadraticObjective,
                     bfgs_update_dense, compute_direction,
                     default_lbfgs_memory, identity_scaling_factor, ingest_pair,
                     new_state, two_loop_direction)
from conftest import NoSolve, property_test, sym


def random_spd(rng, n, lo=0.5, hi=3.0):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q * np.linspace(lo, hi, n)) @ q.T


def explicit_bfgs_update(H, s, y):
    """The update written out over full matrices, re-symmetrized."""
    sy = float(s @ y)
    Hy = H @ y
    coeff = (1.0 + float(y @ Hy) / sy) / sy
    Hp = H - (np.outer(s, Hy) + np.outer(Hy, s)) / sy + coeff * np.outer(s, s)
    return 0.5 * (Hp + Hp.T)


@st.composite
def spd_and_pair(draw):
    """Fortran-ordered SPD H (n from 1 to 40, condition up to 100) and a
    pair with s'y > 0 from y = A s, A SPD."""
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    H = np.asfortranarray(random_spd(rng, n, 0.1, 10.0))
    s = rng.standard_normal(n)
    y = random_spd(rng, n, 0.1, 10.0) @ s
    return H, s, y


def nan_below_diagonal(H):
    """A Fortran-ordered copy of H with its strict lower triangle NaN."""
    out = np.array(H, order="F")
    out[np.tril_indices(H.shape[0], -1)] = np.nan
    return out


def test_gradient_descent_direction():
    obj = QuadraticObjective(np.eye(3), np.zeros(3))
    g = np.array([1.0, -2.0, 0.5])
    d, rho = compute_direction(new_state(GradientDescent(), 3), obj.at(np.zeros(3)), g)
    np.testing.assert_array_equal(d, -g)
    assert rho == pytest.approx(g @ g)


def test_newton_solves_quadratic_exactly():
    rng = np.random.default_rng(0)
    n = 7
    A = random_spd(rng, n)
    b = rng.standard_normal(n)
    obj = QuadraticObjective(A, b)
    x = rng.standard_normal(n)
    g = obj.gradient(x)
    d, rho = compute_direction(new_state(Newton(), n), obj.at(x), g)
    # unit Newton step lands on the minimizer
    assert np.linalg.norm(obj.gradient(x + d)) < 1e-10
    assert rho > 0


def test_newton_failure_on_indefinite():
    obj = QuadraticObjective(-np.eye(3), np.zeros(3))
    with pytest.raises(NumericalError):
        compute_direction(new_state(Newton(), 3), obj.at(np.ones(3)), obj.gradient(np.ones(3)))


def test_newton_direction_needs_a_dense_hessian():
    obj = NoSolve(QuadraticObjective(np.eye(3), np.ones(3)))
    assert not hasattr(obj.at(np.zeros(3)), "solve")
    with pytest.raises(ValueError, match="Newton needs solve"):
        compute_direction(new_state(Newton(), 3), obj.at(np.zeros(3)), np.ones(3))


def test_unknown_direction_rule_is_a_type_error():
    obj = QuadraticObjective(np.eye(2), np.zeros(2))
    with pytest.raises(TypeError, match="unknown direction rule"):
        compute_direction(new_state(object(), 2), obj.at(np.zeros(2)), np.ones(2))


def test_rho_nonpositive_raises():
    obj = QuadraticObjective(np.eye(2), np.zeros(2))
    state = new_state(BfgsDense(), 2)
    state.H = -np.eye(2)  # corrupted state
    with pytest.raises(NumericalError, match="rho = -g'd = .* is not positive"):
        compute_direction(state, obj.at(np.zeros(2)), np.array([1.0, 0.0]))
    # an infinite rho, as a non-finite gradient makes it, is refused as well
    with pytest.raises(NumericalError, match="rho = -g'd = inf is not positive and finite"):
        compute_direction(new_state(GradientDescent(), 2), obj.at(np.zeros(2)),
                          np.array([np.inf, 0.0]))


def test_fresh_bfgs_equals_gradient_descent():
    obj = QuadraticObjective(np.eye(4), np.zeros(4))
    g = np.array([1.0, 2.0, 3.0, 4.0])
    d, rho = compute_direction(new_state(BfgsDense(), 4), obj.at(np.zeros(4)), g)
    np.testing.assert_array_equal(d, -g)
    d2, _ = compute_direction(new_state(LBfgs(memory=4), 4), obj.at(np.zeros(4)), g)
    np.testing.assert_array_equal(d2, -g)


def test_bfgs_update_fixed_point():
    s = np.array([1.0, -2.0, 0.3])
    np.testing.assert_allclose(bfgs_update_dense(np.eye(3), s, s), np.eye(3), atol=1e-14)


def test_bfgs_update_secant_and_spd():
    H = np.eye(2)
    s = np.array([1.0, 2.0])
    y = np.array([1.0, 1.0])
    Hp = sym(bfgs_update_dense(H, s, y))
    np.testing.assert_allclose(Hp @ y, s, atol=1e-12)
    assert np.all(np.linalg.eigvalsh(Hp) > 0)
    np.testing.assert_allclose(Hp, Hp.T, atol=1e-14)


def test_bfgs_update_scale_invariance():
    rng = np.random.default_rng(1)
    H = random_spd(rng, 5)
    s = rng.standard_normal(5)
    y = random_spd(rng, 5) @ s
    for c in (0.1, 7.5):
        np.testing.assert_allclose(bfgs_update_dense(H, c * s, c * y),
                                   bfgs_update_dense(H, s, y), rtol=1e-12)


def test_bfgs_update_secant_property_random():
    rng = np.random.default_rng(2)
    n = 12
    H = random_spd(rng, n)
    for _ in range(200):
        s = rng.standard_normal(n)
        y = random_spd(rng, n, 0.2, 4.0) @ s
        H = bfgs_update_dense(H, s, y)
        assert np.linalg.norm(sym(H) @ y - s) <= 1e-10 * (1.0 + np.linalg.norm(s))


def test_bfgs_update_rejects_nonpositive_curvature():
    with pytest.raises(NumericalError, match="BFGS update requires s'y > 0"):
        bfgs_update_dense(np.eye(2), np.array([1.0, 0.0]), np.array([-1.0, 0.0]))


def test_two_loop_empty_and_single_pair():
    g = np.array([1.0, -1.0])
    np.testing.assert_array_equal(two_loop_direction([], 1.0, g), -g)
    np.testing.assert_allclose(two_loop_direction([], 0.25, g), -0.25 * g)
    s = np.array([1.0, 2.0])
    y = np.array([1.0, 1.0])
    pairs = [(s, y, float(s @ y))]
    for h0 in (1.0, 0.3):
        want = -(sym(bfgs_update_dense(h0 * np.eye(2), s, y)) @ g)
        np.testing.assert_allclose(two_loop_direction(pairs, h0, g), want,
                                   rtol=1e-12, atol=1e-14)


def test_two_loop_is_the_matmul_recursion_bitwise():
    # the recursion written with @ dots; the library's dots must give
    # the same bits on every pair count up to a full memory
    def two_loop(pairs, h0_scale, g):
        q = g.copy()
        alphas = []
        for s, y, sy in reversed(pairs):
            a = float(s @ q) / sy
            q -= a * y
            alphas.append(a)
        r = h0_scale * q
        for (s, y, sy), a in zip(pairs, reversed(alphas)):
            b = float(y @ r) / sy
            r += (a - b) * s
        return -r

    rng = np.random.default_rng(21)
    n = 200
    for m in (1, 2, 5, 10, 20, 20, 20):
        pairs = []
        for _ in range(m):
            s = rng.standard_normal(n)
            y = s + 0.3 * rng.standard_normal(n)
            pairs.append((s, y, float(s @ y)))
        g = rng.standard_normal(n)
        h0 = float(rng.uniform(0.1, 2.0))
        np.testing.assert_array_equal(two_loop_direction(pairs, h0, g),
                                      two_loop(pairs, h0, g))


def test_two_loop_matches_dense_over_trajectory():
    # 50 shared iterations on a 10-dim quadratic, constant step; the
    # two-loop keeps all 50 pairs
    rng = np.random.default_rng(3)
    n = 10
    A = random_spd(rng, n, 0.1, 10.0)
    obj = QuadraticObjective(A, rng.standard_normal(n))
    dense_rule, loop_rule = BfgsDense(), LBfgs(memory=50)
    dense_state = new_state(dense_rule, n)
    loop_state = new_state(loop_rule, n)
    x = rng.standard_normal(n)
    g = obj.gradient(x)
    for k in range(50):
        d1, _ = compute_direction(dense_state, obj.at(x), g)
        d2, _ = compute_direction(loop_state, obj.at(x), g)
        assert np.linalg.norm(d1 - d2) <= 1e-8 * np.linalg.norm(d1)
        x_new = x + 0.05 * d1
        g_new = obj.gradient(x_new)
        ingest_pair(dense_state, x_new - x, g_new - g)
        ingest_pair(loop_state, x_new - x, g_new - g)
        x, g = x_new, g_new


def test_identity_scaling_factor():
    s = np.array([1.0, 2.0, 3.0])
    assert identity_scaling_factor(s, s) == pytest.approx(1.0)
    assert identity_scaling_factor(2.0 * s, s) == pytest.approx(2.0)
    with pytest.raises(NumericalError, match="identity scaling undefined for y = 0"):
        identity_scaling_factor(s, np.zeros(3))
    with pytest.raises(NumericalError, match="identity scaling requires s'y > 0"):
        identity_scaling_factor(s, -s)
    with pytest.raises(NumericalError, match="identity scaling requires s'y > 0, got nan"):
        identity_scaling_factor(np.array([np.nan]), np.array([1.0]))


def test_identity_scaling_factor_in_eigen_range():
    # for y = A s the factor lies between the eigenvalues of A^{-1}
    rng = np.random.default_rng(4)
    n = 6
    A = random_spd(rng, n, 0.5, 8.0)
    inv_eigs = 1.0 / np.linalg.eigvalsh(A)
    for _ in range(50):
        s = rng.standard_normal(n)
        f = identity_scaling_factor(s, A @ s)
        assert inv_eigs.min() - 1e-12 <= f <= inv_eigs.max() + 1e-12


def test_lbfgs_ring_buffer():
    rule = LBfgs(memory=2)
    state = new_state(rule, 2)
    pairs_in = []
    rng = np.random.default_rng(5)
    for _ in range(3):
        s = rng.standard_normal(2)
        y = s + 0.1 * rng.standard_normal(2)
        if s @ y <= 0:
            y = s
        pairs_in.append((s, y))
        ingest_pair(state, s, y)
    assert len(state.pairs) == 2
    np.testing.assert_array_equal(state.pairs[0][0], pairs_in[1][0])
    np.testing.assert_array_equal(state.pairs[1][0], pairs_in[2][0])


def test_lbfgs_memory_is_a_whole_number_up_to_maxsize():
    for memory in (0, -1, None, 2.5, sys.maxsize + 1, 10 ** 20):
        with pytest.raises(ValueError, match="L-BFGS memory"):
            LBfgs(memory=memory)
    state = new_state(LBfgs(memory=sys.maxsize), 2)
    assert ingest_pair(state, np.array([1.0, 0.0]), np.array([2.0, 0.0]))
    np.testing.assert_array_equal(compute_direction(state, None, np.array([2.0, 0.0]))[0],
                                  [-1.0, 0.0])


def test_dense_identity_scaling_applied_before_first_update():
    rng = np.random.default_rng(6)
    s = rng.standard_normal(3)
    y = random_spd(rng, 3) @ s
    state = new_state(BfgsDense(identity_scaling=True), 3)
    ingest_pair(state, s, y)
    want = bfgs_update_dense(identity_scaling_factor(s, y) * np.eye(3), s, y)
    np.testing.assert_allclose(state.H, want, rtol=1e-12)


def test_skip_semantics():
    state = new_state(LBfgs(memory=4), 2)
    s = np.array([1.0, 0.0])
    y = np.array([0.0, 1.0])  # s'y = 0
    accepted = ingest_pair(state, s, y)
    assert not accepted
    assert state.skipped == 1
    assert len(state.pairs) == 0
    dense = new_state(BfgsDense(), 2)
    assert not ingest_pair(dense, s, y)
    assert dense.skipped == 1
    np.testing.assert_array_equal(dense.H, np.eye(2))


def test_nan_pair_is_skipped_not_raised():
    state = new_state(BfgsDense(), 2)
    assert not ingest_pair(state, np.array([1.0, np.nan]), np.array([1.0, 1.0]))
    assert state.skipped == 1
    np.testing.assert_array_equal(state.H, np.eye(2))


def test_lbfgs_h0_refresh_modes():
    rng = np.random.default_rng(7)
    A = random_spd(rng, 3)
    latest = new_state(LBfgs(memory=5, identity_scaling=True), 3)
    factors = []
    for _ in range(3):
        s = rng.standard_normal(3)
        y = A @ s
        factors.append(identity_scaling_factor(s, y))
        ingest_pair(latest, s, y)
    assert latest.h0_scale == pytest.approx(factors[-1])


def test_default_lbfgs_memory():
    assert default_lbfgs_memory(50) == 20
    assert default_lbfgs_memory(10) == 5
    assert default_lbfgs_memory(1) == 1


@property_test
@given(spd_and_pair())
def test_bfgs_update_upper_triangle_matches_explicit_formula(case):
    H, s, y = case
    want = np.triu(explicit_bfgs_update(H, s, y))
    got = np.triu(bfgs_update_dense(H.copy(order="F"), s, y))
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@property_test
@given(spd_and_pair())
def test_bfgs_update_secant_and_positive_definite(case):
    H, s, y = case
    Hp = bfgs_update_dense(H, s, y)
    assert np.linalg.norm(sym(Hp) @ y - s) <= 1e-10 * (1.0 + np.linalg.norm(s))
    assert np.all(np.linalg.eigvalsh(Hp, UPLO="U") > 0)


@property_test
@given(spd_and_pair())
def test_bfgs_never_reads_lower_triangle(case):
    H, s, y = case
    g = s[::-1].copy()
    clean = new_state(BfgsDense(), H.shape[0])
    clean.H = bfgs_update_dense(H.copy(order="F"), s, y)
    poisoned = new_state(BfgsDense(), H.shape[0])
    poisoned.H = bfgs_update_dense(nan_below_diagonal(H), s, y)
    upper = np.triu_indices(H.shape[0])
    np.testing.assert_array_equal(poisoned.H[upper], clean.H[upper])
    assert np.all(np.isfinite(poisoned.H[upper]))
    assert np.all(np.isnan(poisoned.H[np.tril_indices(H.shape[0], -1)]))
    obj = QuadraticObjective(np.eye(H.shape[0]), np.zeros(H.shape[0]))
    x = np.zeros(H.shape[0])
    d_poisoned, _ = compute_direction(poisoned, obj.at(x), g)
    d_clean, _ = compute_direction(clean, obj.at(x), g)
    np.testing.assert_array_equal(d_poisoned, d_clean)
    assert np.all(np.isfinite(d_poisoned))


@pytest.mark.parametrize("identity_scaling", [False, True])
def test_dense_bfgs_updates_in_place(identity_scaling):
    rng = np.random.default_rng(9)
    n = 6
    A = random_spd(rng, n)
    state = new_state(BfgsDense(identity_scaling=identity_scaling), n)
    H = state.H
    for k in range(11):
        s = rng.standard_normal(n)
        assert ingest_pair(state, s, A @ s)
        assert state.H is H
    assert H.flags.f_contiguous


def test_rho_nan_raises():
    obj = QuadraticObjective(np.eye(2), np.zeros(2))
    state = new_state(BfgsDense(), 2)
    state.H[0, 0] = np.nan
    with pytest.raises(NumericalError, match="rho = -g'd = nan is not positive"):
        compute_direction(state, obj.at(np.zeros(2)), np.array([1.0, 0.0]))
