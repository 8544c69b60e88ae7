"""Direction engines producing d = -Hg.

Four families: identity (gradient descent), exact inverse Hessian
(damped Newton), dense BFGS, and two-loop-recursion BFGS over the
newest ``memory`` pairs. State lives in :class:`InverseHessianState`,
owned by a single run.

Newton takes its direction from the evaluation point at x. The dense
BFGS matrix ``H`` is symmetric and, by the BLAS convention, held in the
upper triangle of a Fortran-ordered array, read by ``dsymv`` and
updated in place by ``dsyr2``. Its strictly lower triangle is never read or
written, so symmetry holds by construction. An update returns the
updated matrix, which is the input array itself when that is
Fortran-ordered float64 and a copy otherwise; callers always use the
returned array.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from dataclasses import dataclass, field
from numbers import Integral
from typing import Deque, Union

import numpy as np
from scipy.linalg.blas import dsymv, dsyr2

from .errors import NumericalError
from .oracles import OraclePoint

__all__ = [
    "GradientDescent",
    "Newton",
    "BfgsDense",
    "LBfgs",
    "DirectionRule",
    "MAX_DENSE_DIM",
    "InverseHessianState",
    "default_lbfgs_memory",
    "new_state",
    "compute_direction",
    "bfgs_update_dense",
    "two_loop_direction",
    "identity_scaling_factor",
    "ingest_pair",
]

# Relative floor under which a curvature pair is considered degenerate.
PAIR_REJECT_RTOL = 1e-12

# Explicit H costs O(n^2) memory; above this dimension the driver
# refuses dense BFGS and suggests the two-loop form instead.
MAX_DENSE_DIM = 5000

# Newton's refusal of an evaluation point that has no newton()
NO_NEWTON = "Newton needs newton(); the evaluation point has none"


@dataclass(frozen=True)
class GradientDescent:
    pass


@dataclass(frozen=True)
class Newton:
    pass


@dataclass(frozen=True)
class BfgsDense:
    identity_scaling: bool = False


@dataclass(frozen=True)
class LBfgs:
    # How many of the newest pairs to keep, a whole number in
    # [1, sys.maxsize]; a memory no smaller than the pair count keeps all.
    memory: int
    # Scale h0 by s'y/y'y of the newest pair.
    identity_scaling: bool = False

    def __post_init__(self):
        if not (isinstance(self.memory, Integral) and 1 <= self.memory <= sys.maxsize):
            raise ValueError(f"L-BFGS memory must be a whole number in [1, {sys.maxsize}], "
                             f"got {self.memory!r}")


DirectionRule = Union[GradientDescent, Newton, BfgsDense, LBfgs]


def default_lbfgs_memory(n: int) -> int:
    """Standard choice min{floor(n/2), 20}, at least 1."""
    return max(1, min(n // 2, 20))


@dataclass
class InverseHessianState:
    """Mutable state behind a direction rule.

    Dense BFGS keeps the matrix ``H``: symmetric, held in the upper
    triangle of a Fortran-ordered array, and overwritten in place by each
    update. Its strictly lower triangle is unspecified, so read ``H``
    through ``dsymv`` or its upper triangle. L-BFGS keeps curvature
    pairs (s, y, s'y) with s'y > 0, plus the scale ``h0_scale``
    applied to the implicit initial matrix.
    """

    rule: DirectionRule
    H: np.ndarray | None = None
    pairs: Deque[tuple[np.ndarray, np.ndarray, float]] = field(default_factory=deque)
    h0_scale: float = 1.0
    first_update_done: bool = False
    skipped: int = 0


def new_state(rule: DirectionRule, n: int) -> InverseHessianState:
    state = InverseHessianState(rule=rule)
    if isinstance(rule, BfgsDense):
        state.H = np.eye(n, order="F")
    elif isinstance(rule, LBfgs):
        state.pairs = deque(maxlen=rule.memory)
    return state


def identity_scaling_factor(s: np.ndarray, y: np.ndarray) -> float:
    """Initial-matrix scale s'y / y'y; lies between the extreme
    eigenvalues of the inverse average Hessian along the step. Raises
    NumericalError for y = 0 and for an s'y that is not positive, NaN
    included."""
    yy = float(y @ y)
    sy = float(s @ y)
    if yy <= 0.0:
        raise NumericalError("identity scaling undefined for y = 0")
    if not sy > 0.0:
        raise NumericalError(f"identity scaling requires s'y > 0, got {sy}")
    return sy / yy


def bfgs_update_dense(H: np.ndarray, s: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Inverse-Hessian BFGS update enforcing the secant equation H+ y = s.

    The expanded form of ss'/y's + (I - sy'/y's) H (I - ys'/y's) is the
    single symmetric rank-2 update H + sv' + vs' with
    v = (1 + y'Hy/s'y) s / (2 s'y) - Hy/s'y. H is symmetric and held in
    its upper triangle; the update reads and writes only that triangle,
    in place when H is Fortran-ordered float64. Use the returned array.
    """
    sy = float(s.dot(y))
    if not sy > 0.0:
        raise NumericalError(f"BFGS update requires s'y > 0, got {sy}")
    Hy = dsymv(1.0, H, y)
    coeff = (1.0 + float(y.dot(Hy)) / sy) / sy
    v = (0.5 * coeff) * s - Hy / sy
    return dsyr2(1.0, s, v, a=H, overwrite_a=True)


def two_loop_direction(pairs, h0_scale: float, g: np.ndarray) -> np.ndarray:
    """d = -Hg with H the BFGS matrix built from h0_scale*I and the
    stored pairs (applied oldest first), evaluated implicitly."""
    # v.dot(w), here and in the other per-iteration dots, is v @ w bit for
    # bit (the same BLAS ddot) with about half the call overhead; each
    # product a y lands in one scratch vector, not a fresh temporary
    q = g.copy()
    tmp = np.empty_like(q)
    alphas = []
    for s, y, sy in reversed(pairs):
        a = s.dot(q) / sy
        q -= np.multiply(a, y, out=tmp)
        alphas.append(a)
    r = h0_scale * q
    for (s, y, sy), a in zip(pairs, reversed(alphas)):
        b = y.dot(r) / sy
        r += np.multiply(a - b, s, out=tmp)
    return -r


def compute_direction(state: InverseHessianState, point: OraclePoint,
                      g: np.ndarray) -> tuple[np.ndarray, float]:
    """Direction d = -Hg and rho = -g'd for the current H of ``state.rule``.
    ``point`` is the evaluation point at x; Newton's d is its
    ``newton()``, -G(x)^-1 g, and the other rules do not use it."""
    rule = state.rule
    if isinstance(rule, GradientDescent):
        d = -g
    elif isinstance(rule, Newton):
        if not hasattr(point, "newton"):
            raise ValueError(NO_NEWTON)
        d = point.newton()
    elif isinstance(rule, BfgsDense):
        d = dsymv(-1.0, state.H, g)
    elif isinstance(rule, LBfgs):
        d = two_loop_direction(state.pairs, state.h0_scale, g)
    else:
        raise TypeError(f"unknown direction rule {rule!r}")
    rho = -float(g.dot(d))
    if not 0.0 < rho < math.inf:
        raise NumericalError(f"rho = -g'd = {rho} is not positive and finite")
    return d, rho


def ingest_pair(state: InverseHessianState, s: np.ndarray, y: np.ndarray) -> bool:
    """Feed the curvature pair (s, y) into the state: a step and its
    gradient change, or a direction d and its Hessian action G d (the
    pair of the step t d on a quadratic, up to the scale t, to which the
    BFGS update is invariant). Returns False (and bumps the skip
    counter) when s'y fails the positivity guard."""
    rule = state.rule
    if isinstance(rule, (GradientDescent, Newton)):
        return False
    sy = float(s.dot(y))
    # sqrt(v.dot(v)) is np.linalg.norm(v) bit for bit, without its call overhead
    if not sy > PAIR_REJECT_RTOL * math.sqrt(s.dot(s)) * math.sqrt(y.dot(y)):
        state.skipped += 1
        return False
    if isinstance(rule, BfgsDense):
        if rule.identity_scaling and not state.first_update_done:
            state.H *= identity_scaling_factor(s, y)
        state.H = bfgs_update_dense(state.H, s, y)
    else:
        state.pairs.append((s.copy(), y.copy(), sy))
        if rule.identity_scaling:
            state.h0_scale = identity_scaling_factor(s, y)
    state.first_update_done = True
    return True
