import math

import numpy as np
import pytest

from adaptqn import (adaptive_step, omega, sc, sc_lower_f, sc_lower_gd,
                     sc_upper_f, sc_upper_gd)

# frozen 30-digit evaluations of z - log(1+z)
OMEGA_1 = 0.306852819440054690582767878542
OMEGA_2 = 0.901387711331890308604754763078
OMEGA_1E6 = 4.9999966666691666643146463549e-13
OMEGA_1E10 = 4.99999999960381065385937225003e-21


def test_omega_values():
    assert omega(0.0) == 0.0
    assert omega(1.0) == pytest.approx(OMEGA_1, rel=1e-14)
    assert omega(2.0) == pytest.approx(OMEGA_2, rel=1e-14)


def test_omega_tiny_arguments_keep_precision():
    # naive z - log1p(z) loses ~all digits here; the series must not
    assert omega(1e-6) == pytest.approx(OMEGA_1E6, rel=1e-12)
    assert omega(1e-10) == pytest.approx(OMEGA_1E10, rel=1e-12)


def test_omega_domain_and_vectorization():
    with pytest.raises(ValueError, match="omega requires z >= 0"):
        omega(-1e-9)
    z = np.logspace(-8, 3, 200)
    vals = omega(z)
    assert vals.shape == z.shape
    # monotone nondecreasing
    assert np.all(np.diff(vals) >= 0)


def test_omega_dominates_armijo_half_bound():
    z = np.logspace(-8, 3, 400)
    assert np.all(omega(z) - 0.5 * z * z / (1.0 + z) >= -1e-12)


def test_adaptive_step_examples():
    assert adaptive_step(4.0, 2.0) == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert adaptive_step(1.0, 1.0) == 0.5
    assert adaptive_step(1.0, 10.0) == pytest.approx(1.0 / 110.0, rel=1e-15)


@pytest.mark.parametrize("rho,delta", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0),
                                       (math.nan, 1.0), (1.0, math.nan)])
def test_adaptive_step_domain(rho, delta):
    with pytest.raises(ValueError, match="adaptive_step requires"):
        adaptive_step(rho, delta)


def test_adaptive_step_identities():
    rng = np.random.default_rng(0)
    for _ in range(200):
        rho, delta = 10.0 ** rng.uniform(-3, 3, size=2)
        t = adaptive_step(rho, delta)
        eta = rho / delta
        assert t * delta < 1.0
        assert t == pytest.approx((eta / delta) / (1.0 + eta), rel=1e-12)


def test_step_maximizes_model_decrease():
    # brute-force grid confirmation that t* maximizes
    # Delta(tau) = (rho+delta) tau + log(1 - delta tau)
    rng = np.random.default_rng(1)
    for _ in range(50):
        rho, delta = 10.0 ** rng.uniform(-3, 3, size=2)
        t = adaptive_step(rho, delta)
        tau = np.linspace(0.0, 0.999 / delta, 100_000)
        gains = (rho + delta) * tau + np.log1p(-delta * tau)
        best = (rho + delta) * t + np.log1p(-delta * t)
        assert gains.max() <= best + 1e-8


def test_upper_f_examples():
    assert sc_upper_f(3.5, -1.0, 2.0, 0.0) == 3.5
    got = sc_upper_f(0.0, -1.0, 1.0, 0.5)
    assert got == pytest.approx(-OMEGA_1, rel=1e-14)


def test_upper_f_at_adaptive_step_equals_omega_decrease():
    rng = np.random.default_rng(2)
    for _ in range(100):
        rho, delta = 10.0 ** rng.uniform(-2, 2, size=2)
        t = adaptive_step(rho, delta)
        f0 = float(rng.normal())
        got = sc_upper_f(f0, -rho, delta, t)
        assert got == pytest.approx(f0 - omega(rho / delta), rel=1e-12, abs=1e-12)


def _upper_model_kernel(u):
    """-u - log(1 - u) in the form the upper model evaluated on its own,
    series below the cutoff in u."""
    series = u * u * (0.5 + u * (1.0 / 3.0 + u * (0.25 + 0.2 * u)))
    return np.where(u < sc._SERIES_CUTOFF, series, -u - np.log1p(-u))


def test_omega_kernel_at_minus_u_is_the_upper_model_kernel_bit_for_bit():
    cut = sc._SERIES_CUTOFF
    steps = np.arange(-500, 501)
    u = np.concatenate([
        np.linspace(0.0, 1.0, 100_000, endpoint=False),
        np.geomspace(1e-300, 1.0, 100_000, endpoint=False),
        1.0 - np.geomspace(np.finfo(float).epsneg, 0.5, 100_000),
        cut * (1.0 + steps * np.finfo(float).eps),
        [0.0, np.nextafter(cut, 0.0), cut],
    ])
    assert u.size > 300_000 and np.all((u >= 0.0) & (u < 1.0))
    assert sc._omega(-u).tobytes() == _upper_model_kernel(u).tobytes()
    assert sc_upper_f(0.0, 0.0, 1.0, cut) == float(_upper_model_kernel(np.float64(cut)))


def test_lower_f_examples():
    assert sc_lower_f(-1.0, 5.0, 3.0, 0.0) == -1.0
    got = sc_lower_f(0.0, 0.0, 1.0, 1.0)
    assert got == pytest.approx(OMEGA_1, rel=1e-14)


def test_lower_f_below_upper_f():
    rng = np.random.default_rng(3)
    for _ in range(200):
        f0, gd = rng.normal(size=2)
        delta = 10.0 ** rng.uniform(-2, 2)
        t = rng.uniform(0, 0.99) / delta
        assert sc_lower_f(f0, gd, delta, t) <= sc_upper_f(f0, gd, delta, t) + 1e-12


def test_gd_bounds():
    assert sc_lower_gd(-0.7, 2.0, 0.0) == -0.7
    assert sc_lower_gd(0.0, 2.0, 1.0) == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert sc_upper_gd(-0.7, 2.0, 0.0) == -0.7
    assert sc_upper_gd(0.0, 1.0, 0.5) == pytest.approx(1.0, rel=1e-15)
    rng = np.random.default_rng(4)
    for _ in range(200):
        gd0 = rng.normal()
        delta = 10.0 ** rng.uniform(-2, 2)
        t = rng.uniform(0, 0.99) / delta
        assert sc_lower_gd(gd0, delta, t) <= sc_upper_gd(gd0, delta, t) + 1e-12


def test_lower_gd_at_adaptive_step():
    # with gd0 = -rho and the adaptive step, the bound is -rho + rho d/(2 rho + d)
    rng = np.random.default_rng(5)
    for _ in range(100):
        rho, delta = 10.0 ** rng.uniform(-2, 2, size=2)
        t = adaptive_step(rho, delta)
        got = sc_lower_gd(-rho, delta, t)
        want = -rho + rho * delta / (2 * rho + delta)
        assert got == pytest.approx(want, rel=1e-12)


def test_bound_domain_errors():
    with pytest.raises(ValueError, match="requires t\\*delta < 1"):
        sc_upper_f(0.0, 0.0, 2.0, 0.5)
    with pytest.raises(ValueError, match="requires t\\*delta < 1"):
        sc_upper_gd(0.0, 2.0, 0.5)
    with pytest.raises(ValueError, match="negative step length"):
        sc_lower_f(0.0, 0.0, 1.0, -0.1)
    with pytest.raises(ValueError, match="negative step length"):
        sc_lower_gd(0.0, 1.0, -1e-9)
    with pytest.raises(ValueError, match="negative step length"):
        sc_upper_f(0.0, 0.0, 1.0, -0.1)
    with pytest.raises(ValueError, match="negative step length"):
        sc_upper_gd(0.0, 1.0, -1e-9)

