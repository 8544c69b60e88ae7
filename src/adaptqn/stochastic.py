"""Online least-squares sampler, batch schedules, and the stochastic
methods (gradient / Newton / BFGS steps on per-iteration batches), run
through the driver's loop."""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from numbers import Integral
from typing import Union

import numpy as np

from .directions import BfgsDense, GradientDescent, Newton
from .driver import ReferenceOptimum, RunConfig, Trace, run
from .oracles import (HessVecRay, ObjectiveOracle, OnlineLsExpectedObjective, _second_cpu,
                      spd_solve)

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

    def __post_init__(self):
        if not (isinstance(self.base, Integral) and self.base >= 1):
            raise ValueError(f"base must be a whole number >= 1, got {self.base!r}")

    def size_at(self, k: int) -> int:
        """``base`` times 1.05 every 50 iterations, rounded up."""
        return int(math.ceil(self.base * 1.05 ** (k // 50)))


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


# Models by their inputs' shapes and bytes, so that samplers built from
# equal inputs share one model, factor and symmetry check; an entry
# leaves once no sampler holds its model. Models are read-only, so
# sharing one between callers is safe.
_MODELS = weakref.WeakValueDictionary()


class OnlineSampler:
    """Gaussian linear-model oracle: X ~ N(0, Sigma), Y = X'beta + eps
    with unit Gaussian noise. A fixed seed reproduces the sample stream
    exactly; each draw advances the stream. Building one starts no thread
    and draws nothing.

    A sampler is a model, ``expected_objective()``, plus its own
    Generator. Samplers built from equal sigma, beta and lam share one
    read-only ``OnlineLsExpectedObjective``, a copy of the caller's
    arrays that is checked and factored once. Refuses, with ValueError,
    what that model refuses, a sigma it cannot factor and a seed that
    is not a whole number >= 0."""

    def __init__(self, sigma: np.ndarray, beta: np.ndarray, lam: float, seed: int):
        if not (isinstance(seed, Integral) and seed >= 0):
            raise ValueError(f"seed must be a whole number >= 0, got {seed!r}")
        sigma = np.asarray(sigma, dtype=float)
        beta = np.asarray(beta, dtype=float)
        key = (sigma.shape, sigma.tobytes(), beta.shape, beta.tobytes(), float(lam))
        e = _MODELS.get(key)
        if e is None:
            e = OnlineLsExpectedObjective(sigma, beta, lam)
            e.chol  # factor sigma, or refuse it, before the model is shared
            _MODELS[key] = e
        self._expected, self._chol = e, e.chol
        self.sigma, self.beta, self.lam, self.dim = e.sigma, e.beta, e.lam, e.dim
        self._rng = np.random.default_rng(seed)
        self._ahead = None  # a _DrawAhead while a stochastic run draws ahead

    def expected_objective(self) -> OnlineLsExpectedObjective:
        return self._expected

    def _normals(self, n: int) -> np.ndarray:
        """The next n standard normals of the stream."""
        ahead = self._ahead
        return self._rng.standard_normal(n) if ahead is None else ahead.take(n)


# Normals a worker draws per handoff (128 KB): a few stoch-online batches.
DRAW_AHEAD = 16384


class _DrawAhead:
    """A generator's stream, drawn one chunk ahead on the process's worker,
    which ``_second_cpu`` gives where the process may use two or more CPUs.

    ``take(n)`` returns the stream's next n normals, the ones
    ``standard_normal(n)`` would return: a call for n1 + n2 normals draws
    the calls for n1 and n2 bit for bit. A chunk holds DRAW_AHEAD normals,
    or the most one ``take`` asked for, if more. Only the one draw in
    flight touches the generator. ``close()`` waits for that draw and
    leaves the generator where serial draws of the taken normals would:
    it restores the state saved before the chunk being taken from and
    draws the taken part of that chunk again."""

    def __init__(self, rng: np.random.Generator, worker):
        self._rng = rng
        self._size = DRAW_AHEAD
        self._state, self._chunk, self._pos = rng.bit_generator.state, np.empty(0), 0
        self._worker = worker
        self._next = worker.submit(self._draw, self._size)

    def _draw(self, n: int):
        # on the worker; standard_normal releases the GIL while it fills
        return self._rng.bit_generator.state, self._rng.standard_normal(n)

    def take(self, n: int) -> np.ndarray:
        pos = self._pos
        if pos + n <= self._chunk.size:
            self._pos = pos + n
            return self._chunk[pos:pos + n]
        self._size = max(self._size, n)
        pieces = [self._chunk[pos:]]
        need = n - pieces[0].size
        while need > 0:
            self._state, self._chunk = self._next.result()
            self._next = self._worker.submit(self._draw, self._size)
            pieces.append(self._chunk[:need])
            need -= pieces[-1].size
        self._pos = pieces[-1].size
        return np.concatenate(pieces)

    def close(self) -> None:
        self._next.result()  # the draw in flight ends before the reset
        self._rng.bit_generator.state = self._state
        self._rng.standard_normal(self._pos)


def draw_batch(sampler: OnlineSampler, size: int) -> SampledBatchOracle:
    """Draw ``size`` i.i.d. samples, advancing the sampler's stream: X
    takes the stream's next size*p normals and the noise the size after
    them. Refuses, with ValueError, a size that is not a whole number >= 1."""
    # a class test first: isinstance against the Integral ABC is slow for an
    # int, and a run draws once per iteration
    if not ((size.__class__ is int or isinstance(size, Integral)) and size >= 1):
        raise ValueError(f"batch size must be a whole number >= 1, got {size!r}")
    p = sampler.dim
    z = sampler._normals(size * (p + 1))  # X's normals come first, then the noise
    X = z[:size * p].reshape(size, p).dot(sampler._chol.T)
    Y = X.dot(sampler.beta) + z[size * p:]
    return SampledBatchOracle(X, Y, sampler.lam)


_DIRECTIONS = {"sgd": GradientDescent(), "snewton": Newton(), "sbfgs": BfgsDense()}


def _run_config(method: str, step_rule, sampler: OnlineSampler, x0: np.ndarray,
                budget: int, max_seconds: float = math.inf) -> RunConfig:
    """The ``RunConfig`` that ``stochastic_run`` runs for these arguments,
    which ``adaptqn stoch`` checks before its first run."""
    if method not in _DIRECTIONS:
        raise ValueError(f"unknown stochastic method {method!r}")
    ref = ReferenceOptimum(*sampler.expected_objective().minimizer())
    return RunConfig(direction=_DIRECTIONS[method], step=step_rule, max_iters=budget,
                     max_seconds=max_seconds, x0=x0, reference=ref)


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

    Where the process may use two or more CPUs, its one worker thread
    (``_second_cpu``) draws the sampler's normals a chunk ahead of the
    batches while the run works. However the run ends, it leaves no draw
    in flight and the sampler's stream where serial ``draw_batch`` calls
    would. On one CPU the batches are drawn inline. The batches, the
    trace and the stream are the same bit for bit either way.
    """
    config = _run_config(method, step_rule, sampler, x0, budget, max_seconds)
    size_at = schedule.size_at  # the schedule is resolved once per run
    worker = _second_cpu()
    ahead = sampler._ahead = None if worker is None else _DrawAhead(sampler._rng, worker)
    try:
        return run(config, sampler.expected_objective(),
                   batches=lambda k: draw_batch(sampler, size_at(k)))
    finally:
        sampler._ahead = None
        if ahead is not None:
            ahead.close()


def _check_p(p) -> None:
    if not (isinstance(p, Integral) and p >= 1):
        raise ValueError(f"p must be a whole number >= 1, got {p!r}")


def make_synthetic_sigma(p: int, seed: int, eig_low: float = 1.0,
                         eig_high: float = 100.0) -> np.ndarray:
    """Synthetic SPD covariance Q diag(lam) Q' with a log-uniform
    spectrum on [eig_low, eig_high], 0 < eig_low <= eig_high < inf."""
    _check_p(p)
    if not (isinstance(seed, Integral) and seed >= 0):
        raise ValueError(f"seed must be a whole number >= 0, got {seed!r}")
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
    _check_p(p)
    if not (isinstance(seed, Integral) and seed >= 0):
        raise ValueError(f"seed must be a whole number >= 0, got {seed!r}")
    rng = np.random.default_rng(seed)
    beta = np.zeros(p)
    n_nonzero = max(1, round(p / 5))
    idx = rng.choice(p, size=n_nonzero, replace=False)
    beta[idx] = rng.uniform(-1.0, 1.0, size=n_nonzero)
    return beta
