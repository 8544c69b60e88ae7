"""Online least-squares sampler, batch schedules, and the stochastic
methods (gradient / Newton / BFGS steps on per-iteration batches), run
through the driver's loop."""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral
from typing import Union

import numpy as np

from .directions import BfgsDense, GradientDescent, Newton
from .driver import ReferenceOptimum, RunConfig, Trace, run
from .oracles import HessVecRay, ObjectiveOracle, OnlineLsExpectedObjective, spd_solve

__all__ = [
    "CONSTANT_STEP_SIZES",
    "OnlineSampler",
    "ConstantBatch",
    "GrowingBatch",
    "BatchSchedule",
    "SampledBatchOracle",
    "draw_batch",
    "stochastic_run",
    "make_synthetic_sigma",
    "make_sparse_beta",
]

# Constant step sizes used by the *-1 method variants.
CONSTANT_STEP_SIZES = {
    "alpha1": 1.0 / 140000.0,
    "alpha2": 5e-6,
    "alpha3": 2e-6,
    "alpha4": 1e-6,
}


@dataclass(frozen=True)
class ConstantBatch:
    size: int

    def __post_init__(self):
        if not (isinstance(self.size, Integral) and self.size >= 1):
            raise ValueError(f"batch size must be a whole number >= 1, got {self.size!r}")

    def size_at(self, k: int) -> int:
        return self.size


@dataclass(frozen=True)
class GrowingBatch:
    base: int
    period: int = 50

    def __post_init__(self):
        if not all(isinstance(v, Integral) and v >= 1 for v in (self.base, self.period)):
            raise ValueError(f"base and period must be whole numbers >= 1, "
                             f"got {self.base!r} and {self.period!r}")

    def size_at(self, k: int) -> int:
        """``base`` times 1.05 every ``period`` iterations, rounded up."""
        return int(math.ceil(self.base * 1.05 ** (k // self.period)))


BatchSchedule = Union[ConstantBatch, GrowingBatch]


class SampledBatchOracle(ObjectiveOracle):
    """Empirical objective of one batch:
    (1/|S|) sum_i (Y_i - X_i'w)^2 + lam ||w||^2 / 2. Its Hessian
    (2/|S|) X'X + lam I is exact and constant in w.

    Refuses, with ValueError, an X that is not 2-D or has no rows, a Y
    whose shape is not ``(X.shape[0],)`` and a lam that is not positive
    and finite."""

    def __init__(self, X: np.ndarray, Y: np.ndarray, lam: float):
        # attribute reads and comparisons only: a stochastic run builds one per iteration
        if X.ndim != 2 or X.shape[0] == 0:
            raise ValueError(f"X must be 2-D with at least one row, got shape {X.shape}")
        if Y.shape != (X.shape[0],):
            raise ValueError(f"Y has shape {Y.shape}, expected ({X.shape[0]},)")
        if not 0 < lam < math.inf:
            raise ValueError(f"regularizer lam must be positive and finite, got {lam}")
        self.X = X
        self.Y = Y
        self.lam = float(lam)
        self.size, self.dim = X.shape

    def at(self, x) -> "_BatchPoint":
        return _BatchPoint(self, self._check(x))


class _BatchPoint:
    """One batch at w: the residual r = Y - Xw, shared by ``value`` and
    ``gradient``, and the gradient, which a run requests at every batch
    point and Newton reads again, are computed once, when it is built."""

    __slots__ = ("_obj", "_w", "_r", "_g")

    def __init__(self, obj: SampledBatchOracle, w: np.ndarray):
        self._obj = obj
        self._w = w
        self._r = obj.Y - obj.X.dot(w)
        self._g = -(2.0 / obj.size) * obj.X.T.dot(self._r) + obj.lam * w

    def value(self) -> float:
        obj, w, r = self._obj, self._w, self._r
        return float(r @ r) / obj.size + 0.5 * obj.lam * float(w @ w)

    def gradient(self) -> np.ndarray:
        return self._g

    def _hess_vec(self, d) -> np.ndarray:
        obj = self._obj
        return (2.0 / obj.size) * obj.X.T.dot(obj.X.dot(d)) + obj.lam * d

    def ray(self, d) -> HessVecRay:
        return HessVecRay(self._obj, self._w, self._obj._check(d, "d"), self._hess_vec)

    def newton(self) -> np.ndarray:
        obj = self._obj
        G = (2.0 / obj.size) * (obj.X.T @ obj.X)
        G.flat[::obj.dim + 1] += obj.lam
        return spd_solve(G, -self.gradient())


class OnlineSampler:
    """Gaussian linear-model oracle: X ~ N(0, Sigma), Y = X'beta + eps
    with unit Gaussian noise. A fixed seed reproduces the sample stream
    exactly; each draw advances the stream."""

    def __init__(self, sigma: np.ndarray, beta: np.ndarray, lam: float, seed: int):
        e = self._expected = OnlineLsExpectedObjective(sigma, beta, lam)
        self.sigma, self.beta, self.lam, self.dim = e.sigma, e.beta, e.lam, e.dim
        try:
            self._chol = np.linalg.cholesky(self.sigma)
        except np.linalg.LinAlgError:
            # PSD-but-singular covariance: tiny diagonal jitter
            try:
                self._chol = np.linalg.cholesky(self.sigma + 1e-10 * np.eye(e.dim))
            except np.linalg.LinAlgError:
                raise ValueError("sigma is not positive definite, even with 1e-10 "
                                 "added to its diagonal") from None
        self._rng = np.random.default_rng(seed)

    def expected_objective(self) -> OnlineLsExpectedObjective:
        return self._expected


def draw_batch(sampler: OnlineSampler, size: int) -> SampledBatchOracle:
    """Draw ``size`` i.i.d. samples, advancing the sampler's stream."""
    if size < 1:
        raise ValueError("batch size must be >= 1")
    X = sampler._rng.standard_normal((size, sampler.dim)).dot(sampler._chol.T)
    Y = X.dot(sampler.beta) + sampler._rng.standard_normal(size)  # X is drawn first
    return SampledBatchOracle(X, Y, sampler.lam)


_DIRECTIONS = {"sgd": GradientDescent(), "snewton": Newton(), "sbfgs": BfgsDense()}


def stochastic_run(method: str, schedule: BatchSchedule, step_rule,
                   sampler: OnlineSampler, x0: np.ndarray, budget: int,
                   max_seconds: float = math.inf) -> Trace:
    """Run a stochastic method for ``budget`` iterations.

    ``method`` is one of "sgd", "snewton", "sbfgs"; ``step_rule`` is
    Adaptive() or Constant(alpha). This is ``driver.run`` with GD,
    Newton or dense BFGS directions on a batch drawn per iteration:
    direction, curvature and (for SBFGS) the update pair (d, G_hat d)
    all come from that batch; the trace's f, gnorm, log-gap and
    err_ratio columns are measured against the expected objective and
    its closed-form minimizer. ``Trace.config`` is the ``RunConfig`` that
    was run: the method shows as its direction, and ``max_iters`` is
    ``budget``.
    """
    if method not in _DIRECTIONS:
        raise ValueError(f"unknown stochastic method {method!r}")
    expected = sampler.expected_objective()
    ref = ReferenceOptimum(*expected.minimizer())
    config = RunConfig(direction=_DIRECTIONS[method], step=step_rule, max_iters=budget,
                       max_seconds=max_seconds, x0=x0, reference=ref)
    size_at = schedule.size_at  # the schedule is resolved once per run
    return run(config, expected, batches=lambda k: draw_batch(sampler, size_at(k)))


def make_synthetic_sigma(p: int, seed: int, eig_low: float = 1.0,
                         eig_high: float = 100.0) -> np.ndarray:
    """Synthetic SPD covariance Q diag(lam) Q' with a log-uniform
    spectrum on [eig_low, eig_high], 0 < eig_low <= eig_high < inf."""
    if not 0.0 < eig_low <= eig_high < math.inf:
        raise ValueError(f"need 0 < eig_low <= eig_high < inf, got "
                         f"eig_low = {eig_low}, eig_high = {eig_high}")
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    eigs = np.exp(rng.uniform(np.log(eig_low), np.log(eig_high), size=p))
    return (q * eigs) @ q.T


def make_sparse_beta(p: int, seed: int) -> np.ndarray:
    """Deterministic sparse signal: p/5 of the coordinates (rounded, at
    least one), chosen uniformly, get uniform [-1, 1] values."""
    rng = np.random.default_rng(seed)
    beta = np.zeros(p)
    n_nonzero = max(1, round(p / 5))
    idx = rng.choice(p, size=n_nonzero, replace=False)
    beta[idx] = rng.uniform(-1.0, 1.0, size=n_nonzero)
    return beta
