"""Objective oracles: regularized logistic loss, quadratics, and the
expected online least-squares objective with its closed-form minimizer."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Protocol

import numpy as np
from scipy.linalg import get_lapack_funcs

from .data_io import SparseDataset, max_row_norm
from .errors import NumericalError

__all__ = [
    "ObjectiveOracle",
    "OraclePoint",
    "LogisticObjective",
    "QuadraticObjective",
    "OnlineLsExpectedObjective",
    "logistic_sc_scale",
    "online_ls_minimizer",
    "spd_solve",
]

# LAPACK Cholesky factor and solve, called directly: the scipy.linalg
# cho_factor/cho_solve wrappers make the same two calls but re-validate
# their inputs on every use, which dominates small Newton solves.
_POTRF, _POTRS = get_lapack_funcs(("potrf", "potrs"), dtype=np.float64)


def _sigmoid(z, ez=None):
    # 1/(1+e^-z) for z >= 0 and e^z/(1+e^z) below, never overflowing;
    # ez, when given, is exp(-|z|)
    if ez is None:
        ez = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, ez) / (1.0 + ez)


def _softplus(z, ez=None):
    # log(1 + exp(z)) without overflow for large |z|; ez as in _sigmoid
    if ez is None:
        ez = np.exp(-np.abs(z))
    return np.maximum(z, 0.0) + np.log1p(ez)


def spd_solve(G: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve G x = b for symmetric positive definite G by Cholesky, reading
    the upper triangle of G and leaving G unmodified. Raises
    NumericalError when G is not numerically positive definite."""
    c, info = _POTRF(G, lower=False, clean=False)
    if info == 0:
        x, info = _POTRS(c, b, lower=False)
    if info != 0:
        why = (f"leading minor of order {info} is not positive definite" if info > 0
               else f"LAPACK argument {-info} is invalid")
        raise NumericalError(f"Hessian factorization failed: {why}")
    return x


class OraclePoint(Protocol):
    """An objective evaluated at one x. ``value()``, ``gradient()`` and
    ``hess_vec(d)`` may be requested in any order and any number of
    times, and each returns the same bits whatever was requested
    before; work they share at x is done once. ``hess_vec`` raises
    ValueError for a d of the wrong shape.

    Points of an oracle with ``has_hessian`` also have ``solve(b)``: u
    with G(x) u = b, for Newton, under the same rules; NumericalError
    when G(x) is not numerically positive definite."""

    def value(self) -> float: ...

    def gradient(self) -> np.ndarray: ...

    def hess_vec(self, d: np.ndarray) -> np.ndarray: ...


class ObjectiveOracle(ABC):
    """Deterministic objective exposing value, gradient and the Hessian
    action G(x)d; some oracles can also solve with G(x).

    To write an oracle, implement ``dim`` and ``at(x)``, which checks x
    and returns an :class:`OraclePoint` holding the work shared between
    evaluations at x. ``value(x)``, ``gradient(x)`` and ``hess_vec(x, d)``
    are derived from it, one fresh point per call. An oracle whose points
    can ``solve(b)`` with G(x), as Newton needs, sets ``has_hessian``.

    Oracles are immutable after construction, so concurrent evaluation
    from multiple runs is safe; a point belongs to its caller. The one
    state that changes is a logistic dataset's ``X'`` and ``X X'``,
    computed once on first use; the computation is idempotent, so a run
    that races another to it only repeats the same work.
    """

    has_hessian = False

    @property
    @abstractmethod
    def dim(self) -> int: ...

    @abstractmethod
    def at(self, x: np.ndarray) -> OraclePoint:
        """A fresh evaluation point at x."""

    def value(self, x: np.ndarray) -> float:
        return self.at(x).value()

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self.at(x).gradient()

    def hess_vec(self, x: np.ndarray, d: np.ndarray) -> np.ndarray:
        return self.at(x).hess_vec(d)

    def _check(self, v: np.ndarray, name: str = "x") -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.dim,):
            raise ValueError(f"{name} has shape {v.shape}, expected ({self.dim},)")
        return v


def logistic_sc_scale(data: SparseDataset) -> float:
    """B^2 N / 4 with B the largest feature-row norm; this multiple of
    the logistic loss is standard self-concordant."""
    B = max_row_norm(data)
    if B == 0.0:
        raise ValueError("all feature rows are zero; scale factor undefined")
    return B * B * data.N / 4.0


class LogisticObjective(ObjectiveOracle):
    """(sc_scale/N) * [sum_i log(1 + exp(-y_i x_i'w)) + ||w||^2/2].

    ``sc_scale=None`` (default) applies B^2 N/4 so the objective is
    standard self-concordant; pass ``sc_scale=1.0`` for the raw loss.
    Any other scale must be positive and finite (ValueError otherwise).
    The model has no intercept column. The Hessian weight
    sigma(z)(1-sigma(z)) is label-free since it is symmetric in sign.
    """

    has_hessian = True

    def __init__(self, data: SparseDataset, sc_scale: float | None = None):
        if data.N < 1:
            raise ValueError("empty dataset")
        self.data = data
        self.sc_scale = logistic_sc_scale(data) if sc_scale is None else float(sc_scale)
        if not 0.0 < self.sc_scale < np.inf:
            raise ValueError(f"sc_scale must be positive and finite, got {self.sc_scale}")

    @property
    def dim(self) -> int:
        return self.data.n

    def at(self, x) -> "_LogisticPoint":
        return _LogisticPoint(self, self._check(x))


class _LogisticPoint:
    """Logistic loss at one w: the margins z = Xw are computed once; the
    loss margins m = -yz and exp(-|m|), shared by ``value`` and
    ``gradient``, on the first of them; the Hessian weights s(1-s) on
    the first ``hess_vec`` or ``solve``."""

    __slots__ = ("_obj", "_w", "_z", "_m", "_em", "_hw")

    def __init__(self, obj: LogisticObjective, w: np.ndarray):
        self._obj = obj
        self._w = w
        self._z = obj.data.X @ w
        self._m = None
        self._hw = None

    def _loss_margins(self):
        if self._m is None:
            self._m = -self._obj.data.labels * self._z
            self._em = np.exp(-np.abs(self._m))
        return self._m, self._em

    def value(self) -> float:
        obj, w = self._obj, self._w
        N = obj.data.N
        loss = np.sum(_softplus(*self._loss_margins())) / N
        return obj.sc_scale * (loss + 0.5 * float(w @ w) / N)

    def gradient(self) -> np.ndarray:
        ds = self._obj.data
        coef = -ds.labels * _sigmoid(*self._loss_margins()) / ds.N
        return self._obj.sc_scale * (ds.XT @ coef + self._w / ds.N)

    def _hess_weights(self) -> np.ndarray:
        if self._hw is None:
            s = _sigmoid(self._z)
            self._hw = s * (1.0 - s)
        return self._hw

    def hess_vec(self, d) -> np.ndarray:
        d = self._obj._check(d, "d")
        ds = self._obj.data
        coef = self._hess_weights() * (ds.X @ d) / ds.N
        return self._obj.sc_scale * (ds.XT @ coef + d / ds.N)

    def solve(self, b) -> np.ndarray:
        """u with G u = b, G = (c/N)(X'WX + I): by Cholesky of G when n <= N,
        else as (N/c)(b - A'(I + AA')^-1 A b) with A = W^(1/2) X, where
        AA' = W^(1/2) (X X') W^(1/2) scales the dataset's cached row Gram."""
        ds, c, b = self._obj.data, self._obj.sc_scale, self._obj._check(b, "b")
        N, n = ds.N, ds.n
        if n <= N:
            G = _weighted_gram(ds.X, self._hess_weights() / N)
            G.flat[::n + 1] += 1.0 / N
            G *= c
            return spd_solve(G, b)
        r = np.sqrt(self._hess_weights())
        K = r[:, None] * ds.row_gram * r
        K.flat[::N + 1] += 1.0
        return (N / c) * (b - ds.XT @ (r * spd_solve(K, r * (ds.X @ b))))


# Rows per dense block of the weighted Gram matrix; bounds its scratch
# memory at this many rows times n.
_GRAM_BLOCK_ROWS = 4096


def _weighted_gram(X, weights: np.ndarray) -> np.ndarray:
    """X' diag(weights) X as a dense n x n matrix, accumulated over dense
    row blocks of the CSR matrix X."""
    N, n = X.shape
    out = np.zeros((n, n))
    for lo in range(0, N, _GRAM_BLOCK_ROWS):
        hi = min(lo + _GRAM_BLOCK_ROWS, N)
        block = X[lo:hi].toarray()
        out += (block.T * weights[lo:hi]) @ block
    return out


class QuadraticObjective(ObjectiveOracle):
    """f(x) = x'Ax/2 + b'x with A symmetric positive definite."""

    has_hessian = True

    def __init__(self, A: np.ndarray, b: np.ndarray):
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1] or b.shape != (A.shape[0],):
            raise ValueError("A must be square and b conforming")
        self.A = A
        self.b = b

    @property
    def dim(self) -> int:
        return self.b.shape[0]

    def at(self, x) -> "_QuadraticPoint":
        return _QuadraticPoint(self, self._check(x))

    def minimizer(self) -> tuple[np.ndarray, float]:
        """Exact optimum (solves Ax = -b) and its objective value."""
        xs = np.linalg.solve(self.A, -self.b)
        return xs, self.value(xs)


class _QuadraticPoint:
    """Quadratic at one x: Ax, shared by ``value`` and ``gradient``, is
    computed once."""

    __slots__ = ("_obj", "_x", "_ax")

    def __init__(self, obj: QuadraticObjective, x: np.ndarray):
        self._obj = obj
        self._x = x
        self._ax = obj.A @ x

    def value(self) -> float:
        return 0.5 * float(self._x @ self._ax) + float(self._obj.b @ self._x)

    def gradient(self) -> np.ndarray:
        return self._ax + self._obj.b

    def hess_vec(self, d) -> np.ndarray:
        return self._obj.A @ self._obj._check(d, "d")

    def solve(self, b) -> np.ndarray:
        return spd_solve(self._obj.A, self._obj._check(b, "b"))


class OnlineLsExpectedObjective(ObjectiveOracle):
    """Population objective of the Gaussian linear model:

    F(w) = (beta - w)' Sigma (beta - w) + noise_var + lam ||w||^2 / 2.
    """

    has_hessian = True

    def __init__(self, sigma: np.ndarray, beta: np.ndarray, lam: float,
                 noise_var: float = 1.0):
        sigma = np.asarray(sigma, dtype=float)
        beta = np.asarray(beta, dtype=float)
        if lam <= 0:
            raise ValueError("regularizer lam must be positive")
        if sigma.shape != (beta.shape[0], beta.shape[0]):
            raise ValueError("sigma must be p x p matching beta")
        self.sigma = sigma
        self.beta = beta
        self.lam = float(lam)
        self.noise_var = float(noise_var)

    @property
    def dim(self) -> int:
        return self.beta.shape[0]

    def at(self, x) -> "_OnlineLsPoint":
        return _OnlineLsPoint(self, self._check(x))


class _OnlineLsPoint:
    """Expected objective at one w: the residual r = beta - w and Sigma r,
    shared by ``value`` and ``gradient``, are computed once."""

    __slots__ = ("_obj", "_w", "_r", "_sr")

    def __init__(self, obj: OnlineLsExpectedObjective, w: np.ndarray):
        self._obj = obj
        self._w = w
        self._r = obj.beta - w
        self._sr = obj.sigma @ self._r

    def value(self) -> float:
        obj, w = self._obj, self._w
        return float(self._r @ self._sr) + obj.noise_var + 0.5 * obj.lam * float(w @ w)

    def gradient(self) -> np.ndarray:
        return -2.0 * self._sr + self._obj.lam * self._w

    def hess_vec(self, d) -> np.ndarray:
        obj = self._obj
        d = obj._check(d, "d")
        return 2.0 * (obj.sigma @ d) + obj.lam * d

    def solve(self, b) -> np.ndarray:
        obj = self._obj
        return spd_solve(2.0 * obj.sigma + obj.lam * np.eye(obj.dim), obj._check(b, "b"))


def online_ls_minimizer(obj: OnlineLsExpectedObjective) -> np.ndarray:
    """Closed-form minimizer: solves (2 Sigma + lam I) w = 2 Sigma beta."""
    A = 2.0 * obj.sigma + obj.lam * np.eye(obj.dim)
    rhs = 2.0 * (obj.sigma @ obj.beta)
    try:
        w = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"minimizer solve failed: {exc}") from exc
    return w
