"""Objective oracles: regularized logistic loss, quadratics, and the
expected online least-squares objective with its closed-form minimizer."""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from .data_io import SparseDataset, max_row_norm
from .errors import DomainError, NumericalError, UnsupportedOperationError

__all__ = [
    "ObjectiveOracle",
    "OraclePoint",
    "LogisticObjective",
    "QuadraticObjective",
    "OnlineLsExpectedObjective",
    "logistic_sc_scale",
    "online_ls_minimizer",
]


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


class OraclePoint:
    """An oracle evaluated at one x: ``value()``, ``gradient()`` and
    ``hess_vec(d)``. This default forwards each request to the oracle's
    own methods; oracles whose f, g and G(x)d share work at x return a
    point that does that work once."""

    __slots__ = ("oracle", "x")

    def __init__(self, oracle: "ObjectiveOracle", x: np.ndarray):
        self.oracle = oracle
        self.x = x

    def value(self) -> float:
        return self.oracle.value(self.x)

    def gradient(self) -> np.ndarray:
        return self.oracle.gradient(self.x)

    def hess_vec(self, d: np.ndarray) -> np.ndarray:
        return self.oracle.hess_vec(self.x, d)


class ObjectiveOracle(ABC):
    """Deterministic objective exposing value, gradient and the Hessian
    action G(x)d; some oracles can also materialize the full Hessian.

    Oracles are immutable after construction and hold no mutable cache,
    so concurrent evaluation from multiple runs is safe. Work shared
    between evaluations at one x lives in the point returned by ``at``,
    which its caller owns.
    """

    @property
    @abstractmethod
    def dim(self) -> int: ...

    @property
    def has_hessian(self) -> bool:
        return False

    @abstractmethod
    def value(self, x: np.ndarray) -> float: ...

    @abstractmethod
    def gradient(self, x: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def hess_vec(self, x: np.ndarray, d: np.ndarray) -> np.ndarray: ...

    def dense_hessian(self, x: np.ndarray) -> np.ndarray:
        raise UnsupportedOperationError(f"{type(self).__name__} has no dense Hessian")

    def at(self, x: np.ndarray) -> OraclePoint:
        """A fresh evaluation point at x."""
        return OraclePoint(self, x)

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
        raise DomainError("all feature rows are zero; scale factor undefined")
    return B * B * data.N / 4.0


class LogisticObjective(ObjectiveOracle):
    """(sc_scale/N) * [sum_i log(1 + exp(-y_i x_i'w)) + ||w||^2/2].

    ``sc_scale=None`` (default) applies B^2 N/4 so the objective is
    standard self-concordant; pass ``sc_scale=1.0`` for the raw loss.
    The model has no intercept column. The Hessian weight
    sigma(z)(1-sigma(z)) is label-free since it is symmetric in sign.
    """

    def __init__(self, data: SparseDataset, sc_scale: float | None = None):
        if data.N < 1:
            raise DomainError("empty dataset")
        self.data = data
        self.sc_scale = logistic_sc_scale(data) if sc_scale is None else float(sc_scale)

    @property
    def dim(self) -> int:
        return self.data.n

    @property
    def has_hessian(self) -> bool:
        return True

    def at(self, x) -> "_LogisticPoint":
        return _LogisticPoint(self, self._check(x))

    def value(self, x) -> float:
        return self.at(x).value()

    def gradient(self, x) -> np.ndarray:
        return self.at(x).gradient()

    def hess_vec(self, x, d) -> np.ndarray:
        return self.at(x).hess_vec(d)

    def dense_hessian(self, x) -> np.ndarray:
        w = self._check(x)
        ds = self.data
        s = _sigmoid(ds.X @ w)
        G = _weighted_gram(ds.X, s * (1.0 - s) / ds.N)
        G.flat[::ds.n + 1] += 1.0 / ds.N
        G *= self.sc_scale
        return G


class _LogisticPoint:
    """Logistic loss at one w: the margins z = Xw are computed once; the
    loss margins m = -yz and exp(-|m|), shared by ``value`` and
    ``gradient``, on the first of them; the Hessian weights s(1-s) on
    the first ``hess_vec``."""

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

    def hess_vec(self, d) -> np.ndarray:
        d = self._obj._check(d, "d")
        ds = self._obj.data
        if self._hw is None:
            s = _sigmoid(self._z)
            self._hw = s * (1.0 - s)
        coef = self._hw * (ds.X @ d) / ds.N
        return self._obj.sc_scale * (ds.XT @ coef + d / ds.N)


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

    @property
    def has_hessian(self) -> bool:
        return True

    def value(self, x) -> float:
        x = self._check(x)
        return 0.5 * float(x @ (self.A @ x)) + float(self.b @ x)

    def gradient(self, x) -> np.ndarray:
        x = self._check(x)
        return self.A @ x + self.b

    def hess_vec(self, x, d) -> np.ndarray:
        self._check(x)
        d = self._check(d, "d")
        return self.A @ d

    def dense_hessian(self, x) -> np.ndarray:
        self._check(x)
        return self.A.copy()

    def minimizer(self) -> tuple[np.ndarray, float]:
        """Exact optimum (solves Ax = -b) and its objective value."""
        xs = np.linalg.solve(self.A, -self.b)
        return xs, self.value(xs)


class OnlineLsExpectedObjective(ObjectiveOracle):
    """Population objective of the Gaussian linear model:

    F(w) = (beta - w)' Sigma (beta - w) + noise_var + lam ||w||^2 / 2.
    """

    def __init__(self, sigma: np.ndarray, beta: np.ndarray, lam: float,
                 noise_var: float = 1.0):
        sigma = np.asarray(sigma, dtype=float)
        beta = np.asarray(beta, dtype=float)
        if lam <= 0:
            raise DomainError("regularizer lam must be positive")
        if sigma.shape != (beta.shape[0], beta.shape[0]):
            raise ValueError("sigma must be p x p matching beta")
        self.sigma = sigma
        self.beta = beta
        self.lam = float(lam)
        self.noise_var = float(noise_var)

    @property
    def dim(self) -> int:
        return self.beta.shape[0]

    @property
    def has_hessian(self) -> bool:
        return True

    def at(self, x) -> "_OnlineLsPoint":
        return _OnlineLsPoint(self, self._check(x))

    def value(self, x) -> float:
        return self.at(x).value()

    def gradient(self, x) -> np.ndarray:
        return self.at(x).gradient()

    def hess_vec(self, x, d) -> np.ndarray:
        self._check(x)
        d = self._check(d, "d")
        return 2.0 * (self.sigma @ d) + self.lam * d

    def dense_hessian(self, x) -> np.ndarray:
        self._check(x)
        return 2.0 * self.sigma + self.lam * np.eye(self.dim)


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
        return self._obj.hess_vec(self._w, d)


def online_ls_minimizer(obj: OnlineLsExpectedObjective) -> np.ndarray:
    """Closed-form minimizer: solves (2 Sigma + lam I) w = 2 Sigma beta."""
    A = 2.0 * obj.sigma + obj.lam * np.eye(obj.dim)
    rhs = 2.0 * (obj.sigma @ obj.beta)
    try:
        w = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"minimizer solve failed: {exc}") from exc
    return w
