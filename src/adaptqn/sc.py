"""Scalar kernel for self-concordant step-size analysis.

Everything here is a pure function of a handful of scalars: the
decrease function ``omega``, the curvature-adaptive step size, and the
four model bounds that a standard self-concordant function satisfies
along a ray. These are the building blocks for both the step-size rules
and the property tests.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "omega",
    "adaptive_step",
    "sc_upper_f",
    "sc_lower_f",
    "sc_lower_gd",
    "sc_upper_gd",
]

# Below this threshold the series expansion of z - log1p(z) is exact to
# double precision (next term is O(z^6), relatively O(z^4) ~ 1e-16).
_SERIES_CUTOFF = 1e-4


def omega(z):
    """z - log(1 + z), the per-step decrease guarantee.

    Accepts a scalar or ndarray, z >= 0. Evaluated by series for tiny z
    because the direct form loses all significant digits as z -> 0.
    """
    z = np.asarray(z, dtype=float)
    if np.any(z < 0):
        raise ValueError("omega requires z >= 0")
    return _omega(z)


def _omega(z):
    """z - log(1 + z) for any z > -1: ``omega``, and at z = -u the
    upper model's -u - log(1 - u) = u^2/2 + u^3/3 + ..."""
    # z^2/2 - z^3/3 + z^4/4 - z^5/5
    series = z * z * (0.5 - z * (1.0 / 3.0 - z * (0.25 - 0.2 * z)))
    direct = z - np.log1p(z)
    out = np.where(np.abs(z) < _SERIES_CUTOFF, series, direct)
    return float(out) if out.ndim == 0 else out


def adaptive_step(rho, delta):
    """Curvature-adaptive step size rho / ((rho + delta) * delta).

    Always strictly below 1/delta, so steps stay inside the domain of
    the upper model bound. Nonpositive rho or delta means the direction
    was not a descent direction or curvature degenerated, and a NaN means
    it could not be measured; either is raised rather than clamped so
    drivers can stop with a diagnostic.
    """
    if not rho > 0.0:
        raise ValueError(f"adaptive_step requires rho > 0, got {rho}")
    if not delta > 0.0:
        raise ValueError(f"adaptive_step requires delta > 0, got {delta}")
    return rho / ((rho + delta) * delta)


def sc_upper_f(f0, gd, delta, t) -> float:
    """Upper model bound on f(x+td), with f0 = f(x), gd = g(x)'d and
    delta = ||d||_x: f0 + t gd - dt - log(1 - dt), dt = delta*t < 1."""
    u = delta * t
    if u >= 1.0:
        raise ValueError(f"upper bound requires t*delta < 1, got {u}")
    if t < 0:
        raise ValueError("negative step length")
    return f0 + t * gd + _omega(-u)


def sc_lower_f(f0, gd, delta, t) -> float:
    """Lower model bound f0 + t gd + dt - log(1 + dt), any t >= 0."""
    if t < 0:
        raise ValueError("negative step length")
    return f0 + t * gd + omega(delta * t)


def sc_lower_gd(gd0, delta, t) -> float:
    """Lower bound on g(x+td)'d: gd0 + delta^2 t / (1 + delta t)."""
    if t < 0:
        raise ValueError("negative step length")
    return gd0 + delta * delta * t / (1.0 + delta * t)


def sc_upper_gd(gd0, delta, t) -> float:
    """Upper bound on g(x+td)'d: gd0 + delta^2 t / (1 - delta t), dt < 1."""
    if t < 0:
        raise ValueError("negative step length")
    u = delta * t
    if u >= 1.0:
        raise ValueError(f"upper bound requires t*delta < 1, got {u}")
    return gd0 + delta * delta * t / (1.0 - u)

