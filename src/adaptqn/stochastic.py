"""Online least-squares sampler, batch schedules, and the stochastic
method loop (gradient / Newton / BFGS steps on per-iteration batches)."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from scipy.linalg.blas import dsymv

from .directions import bfgs_update_dense, spd_solve
from .driver import IterationRecord, ReferenceOptimum, Termination, Trace
from .errors import CurvatureError, NumericalError
from .oracles import ObjectiveOracle, OnlineLsExpectedObjective, online_ls_minimizer
from .sc import adaptive_step
from .steps import Adaptive, Constant, StepRule

__all__ = [
    "CONSTANT_STEP_SIZES",
    "OnlineSampler",
    "ConstantBatch",
    "GrowingBatch",
    "BatchSchedule",
    "SampledBatchOracle",
    "StochasticConfig",
    "batch_size",
    "draw_batch",
    "stochastic_run",
    "sbfgs_pair_update",
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
        if self.size < 1:
            raise ValueError("batch size must be >= 1")


@dataclass(frozen=True)
class GrowingBatch:
    base: int
    growth: float = 1.05
    period: int = 50

    def __post_init__(self):
        if self.base < 1 or self.period < 1:
            raise ValueError("base and period must be >= 1")


BatchSchedule = Union[ConstantBatch, GrowingBatch]


def batch_size(schedule: BatchSchedule, k: int) -> int:
    """Samples drawn at iteration k; growing schedules round up."""
    if isinstance(schedule, ConstantBatch):
        return schedule.size
    return int(math.ceil(schedule.base * schedule.growth ** (k // schedule.period)))


class SampledBatchOracle(ObjectiveOracle):
    """Empirical objective of one batch:
    (1/|S|) sum_i (Y_i - X_i'w)^2 + lam ||w||^2 / 2. Its Hessian
    (2/|S|) X'X + lam I is exact and constant in w."""

    def __init__(self, X: np.ndarray, Y: np.ndarray, lam: float):
        self.X = X
        self.Y = Y
        self.lam = float(lam)

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    @property
    def has_hessian(self) -> bool:
        return True

    @property
    def size(self) -> int:
        return self.X.shape[0]

    def value(self, x) -> float:
        w = self._check(x)
        r = self.Y - self.X @ w
        return float(r @ r) / self.size + 0.5 * self.lam * float(w @ w)

    def gradient(self, x) -> np.ndarray:
        w = self._check(x)
        r = self.Y - self.X @ w
        return -(2.0 / self.size) * (self.X.T @ r) + self.lam * w

    def hess_vec(self, x, d) -> np.ndarray:
        self._check(x)
        d = self._check(d, "d")
        return (2.0 / self.size) * (self.X.T @ (self.X @ d)) + self.lam * d

    def dense_hessian(self, x) -> np.ndarray:
        self._check(x)
        return (2.0 / self.size) * (self.X.T @ self.X) + self.lam * np.eye(self.dim)


class OnlineSampler:
    """Gaussian linear-model oracle: X ~ N(0, Sigma), Y = X'beta + eps
    with unit Gaussian noise. A fixed seed reproduces the sample stream
    exactly; each draw advances the stream. ``noise_scale`` exists for
    noise-free degenerate checks only; the model itself has unit noise."""

    def __init__(self, sigma: np.ndarray, beta: np.ndarray, lam: float, seed: int,
                 noise_scale: float = 1.0):
        sigma = np.asarray(sigma, dtype=float)
        beta = np.asarray(beta, dtype=float)
        p = beta.shape[0]
        if sigma.shape != (p, p):
            raise ValueError("sigma must be p x p matching beta")
        try:
            chol = np.linalg.cholesky(sigma)
        except np.linalg.LinAlgError:
            # PSD-but-singular covariance: tiny diagonal jitter
            chol = np.linalg.cholesky(sigma + 1e-10 * np.eye(p))
        self.sigma = sigma
        self.beta = beta
        self.lam = float(lam)
        self.seed = seed
        self.noise_scale = float(noise_scale)
        self._chol = chol
        self._rng = np.random.default_rng(seed)

    @property
    def dim(self) -> int:
        return self.beta.shape[0]

    def expected_objective(self) -> OnlineLsExpectedObjective:
        return OnlineLsExpectedObjective(self.sigma, self.beta, self.lam,
                                         noise_var=self.noise_scale ** 2)


def draw_batch(sampler: OnlineSampler, size: int) -> SampledBatchOracle:
    """Draw ``size`` i.i.d. samples, advancing the sampler's stream."""
    if size < 1:
        raise ValueError("batch size must be >= 1")
    X = sampler._rng.standard_normal((size, sampler.dim)) @ sampler._chol.T
    eps = sampler._rng.standard_normal(size)
    Y = X @ sampler.beta + sampler.noise_scale * eps
    return SampledBatchOracle(X, Y, sampler.lam)


def sbfgs_pair_update(H: np.ndarray, d: np.ndarray, Gd_hat: np.ndarray) -> tuple[np.ndarray, bool]:
    """BFGS update from the pair (d, G_hat d); equivalent to (s, y) =
    (t d, t G_hat d) for any t > 0 since the update is jointly scale
    invariant. Returns (H, accepted); nonpositive curvature skips. H is
    held in its upper triangle and updated in place as in
    ``bfgs_update_dense``; use the returned array."""
    if not float(d @ Gd_hat) > 0.0:
        return H, False
    return bfgs_update_dense(H, d, Gd_hat), True


@dataclass(frozen=True)
class StochasticConfig:
    """Snapshot of a stochastic run, stored on its Trace."""

    method: str
    schedule: BatchSchedule
    step: StepRule
    budget: int
    seed: int
    reference: Optional[ReferenceOptimum] = None


def stochastic_run(method: str, schedule: BatchSchedule, step_rule,
                   sampler: OnlineSampler, x0: np.ndarray, budget: int,
                   max_seconds: float = math.inf) -> Trace:
    """Run a stochastic method for ``budget`` iterations.

    ``method`` is one of "sgd", "snewton", "sbfgs"; ``step_rule`` is
    Adaptive() or Constant(alpha). Direction, curvature and (for SBFGS)
    the update pair all come from the same per-iteration batch; the
    trace's f, gnorm and log-gap columns are measured against the
    expected objective and its closed-form minimizer.
    """
    if method not in ("sgd", "snewton", "sbfgs"):
        raise ValueError(f"unknown stochastic method {method!r}")
    if not isinstance(step_rule, (Adaptive, Constant)):
        raise ValueError("stochastic step rule must be Adaptive or Constant")
    expected = sampler.expected_objective()
    w_star = online_ls_minimizer(expected)
    ref = ReferenceOptimum(x=w_star, f=expected.value(w_star))
    config = StochasticConfig(method=method, schedule=schedule, step=step_rule,
                              budget=budget, seed=sampler.seed, reference=ref)
    trace = Trace(config=config)
    started = time.perf_counter()

    p = sampler.dim
    w = np.asarray(x0, dtype=float).copy()
    H = np.eye(p, order="F") if method == "sbfgs" else None
    skipped = 0

    for k in range(budget):
        if time.perf_counter() - started > max_seconds:
            trace.termination = Termination("time_budget")
            break
        f_exp = expected.value(w)
        gnorm = float(np.linalg.norm(expected.gradient(w)))
        if not (math.isfinite(f_exp) and math.isfinite(gnorm)):
            trace.termination = Termination(
                "numerical_error", f"non-finite f = {f_exp} or ||g|| = {gnorm} at k={k}")
            break
        batch = draw_batch(sampler, batch_size(schedule, k))
        ghat = batch.gradient(w)
        if not np.isfinite(ghat).all():
            trace.termination = Termination(
                "numerical_error", f"non-finite batch gradient at k={k}")
            break
        if not np.any(ghat):
            # exactly stationary for this batch (zero-noise degenerate case)
            trace.termination = Termination("grad_tol", "batch gradient exactly zero")
            break
        try:
            if method == "sgd":
                d = -ghat
            elif method == "snewton":
                d = spd_solve(batch.dense_hessian(w), -ghat, "batch Hessian")
            else:
                d = dsymv(-1.0, H, ghat)
            rho = -float(ghat @ d)
            if not rho > 0.0:
                raise CurvatureError(f"rho = {rho} is not positive on batch at k={k}")
            Gd = batch.hess_vec(w, d)
            d_gd = float(d @ Gd)
            eta = math.nan
            if isinstance(step_rule, Adaptive):
                if not d_gd > 0.0:
                    raise CurvatureError(f"d'Gd = {d_gd} is not positive on batch at k={k}")
                delta = math.sqrt(d_gd)
                t = adaptive_step(rho, delta)
                eta = rho / delta
            else:
                t = step_rule.alpha
            if not (math.isfinite(rho) and math.isfinite(d_gd) and math.isfinite(t)):
                raise NumericalError(
                    f"non-finite rho = {rho}, d'Gd = {d_gd} or t = {t} on batch at k={k}")
        except (CurvatureError, NumericalError) as exc:
            trace.termination = Termination("numerical_error", str(exc))
            break

        w_new = w + t * d
        if method == "sbfgs":
            H, accepted = sbfgs_pair_update(H, d, Gd)
            if not accepted:
                skipped += 1

        trace.records.append(IterationRecord(
            k=k, f=f_exp, gnorm=gnorm,
            t=t, eta=eta, step_kind="adaptive" if isinstance(step_rule, Adaptive) else "constant",
            cum_evals_f=0, cum_evals_g=k + 1, cum_evals_hv=k + 1,
            elapsed=time.perf_counter() - started,
            log_gap=_safe_log_gap(f_exp, ref.f)))
        w = w_new
    else:
        trace.termination = Termination("max_iters")

    f_exp = expected.value(w)
    trace.records.append(IterationRecord(
        k=len(trace.records), f=f_exp,
        gnorm=float(np.linalg.norm(expected.gradient(w))),
        t=math.nan, eta=math.nan, step_kind="terminal",
        cum_evals_f=0, cum_evals_g=0, cum_evals_hv=0,
        elapsed=time.perf_counter() - started,
        log_gap=_safe_log_gap(f_exp, ref.f)))
    trace.final_x = w.copy()
    trace.skipped_pairs = skipped
    return trace


def _safe_log_gap(f: float, f_star: float) -> Optional[float]:
    gap = f - f_star
    return math.log10(gap) if gap > 0 else None


def make_synthetic_sigma(p: int, seed: int, eig_low: float = 1.0,
                         eig_high: float = 100.0) -> np.ndarray:
    """Synthetic SPD covariance Q diag(lam) Q' with a log-uniform
    spectrum on [eig_low, eig_high]."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    eigs = np.exp(rng.uniform(np.log(eig_low), np.log(eig_high), size=p))
    return (q * eigs) @ q.T


def make_sparse_beta(p: int, seed: int, sparsity: float = 0.8) -> np.ndarray:
    """Deterministic sparse signal: (1 - sparsity) of the coordinates,
    chosen uniformly, get uniform [-1, 1] values."""
    rng = np.random.default_rng(seed)
    beta = np.zeros(p)
    n_nonzero = max(1, int(round((1.0 - sparsity) * p)))
    idx = rng.choice(p, size=n_nonzero, replace=False)
    beta[idx] = rng.uniform(-1.0, 1.0, size=n_nonzero)
    return beta
