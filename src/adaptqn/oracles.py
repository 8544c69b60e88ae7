"""Objective oracles: regularized logistic loss, quadratics, and the
expected online least-squares objective with its closed-form minimizer."""

from __future__ import annotations

import functools
import os
import threading
import time
from abc import ABC, abstractmethod
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Protocol

import numpy as np
from scipy.linalg import get_lapack_funcs

from .data_io import SparseDataset, max_row_norm
from .errors import NumericalError

__all__ = [
    "ObjectiveOracle",
    "OraclePoint",
    "Ray",
    "HessVecRay",
    "LogisticObjective",
    "QuadraticObjective",
    "OnlineLsExpectedObjective",
    "logistic_sc_scale",
    "spd_solve",
]

# LAPACK Cholesky factor and solve, called directly: the scipy.linalg
# cho_factor/cho_solve wrappers make the same two calls but re-validate
# their inputs on every use, which dominates small Newton solves.
_POTRF, _POTRS = get_lapack_funcs(("potrf", "potrs"), dtype=np.float64)


# Stored entries from which a logistic oracle keeps X' as a CSR copy and
# splits a product with X or X' between two CPUs. With a worker round
# trip of 20-30 us, a split saved 10-30% of a 200,000-entry product,
# 30-40% at 600,000 and about nothing at 100,000-150,000. Below it, X'
# stays a view of X's arrays: a copy made smaller products slower.
SPLIT_NNZ = 200_000

# The process's one worker, which splits products and draws stochastic
# batches ahead: None until the process first may use two CPUs, False
# once the probe has found that a worker would only take turns with its
# caller, else the worker. A forked child starts, and probes, its own.
_worker = None
_worker_lock = threading.Lock()

# The probe's verdict: the worker is kept when the probe's two kernels,
# one on the caller and one on the worker, run at least PARALLEL_RATIO
# times as fast as the same two on the caller alone. On a 2-vCPU VM
# (BENCH_41.json), in 52 fresh processes where the worker cost time
# (split products 5-19% slower than inline ones), the probe read
# 0.74-0.98; in 40 more, not pinned, it said yes once (1.66). In 20
# where it paid (the caller and the worker each pinned
# to its own vCPU: split products 8-40% faster, draws ahead 7-25%
# faster), it read 0.99-1.91, and 17 of the 20 reached 1.25.
PARALLEL_RATIO = 1.25


def _forget_worker() -> None:
    # a forked child has no thread behind its parent's worker, and may
    # run on other CPUs than its parent's verdict measured
    global _worker, _worker_lock
    _worker, _worker_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


def _probe(worker: ThreadPoolExecutor) -> float:
    """How much faster the caller and ``worker`` run two GIL-free
    kernels side by side than the caller runs them one after the other:
    the fastest of 5 serial rounds over the fastest of 5 parallel
    rounds, after one untimed kernel on each side. The kernel is numpy's
    sine over a fixed 16,384-entry array, twice: it stays in cache, as
    a drawn chunk does, loads nothing that numpy has not, and draws no
    random numbers."""
    x = np.linspace(0.0, 1.0, 16_384)
    a, b = np.empty_like(x), np.empty_like(x)

    def kernel(out):
        np.sin(x, out=out)
        np.sin(x, out=out)

    kernel(a)
    worker.submit(kernel, b).result()
    serial = parallel = np.inf
    clock = time.perf_counter
    for _ in range(5):
        t0 = clock()
        kernel(a)
        kernel(b)
        t1 = clock()
        other = worker.submit(kernel, b)
        kernel(a)
        other.result()
        t2 = clock()
        serial, parallel = min(serial, t1 - t0), min(parallel, t2 - t1)
    return serial / parallel


def _second_cpu() -> ThreadPoolExecutor | None:
    """The process's one worker, or None where a worker would only take
    turns with its caller: when the process may use only one CPU, or
    when the probe found that its second CPU adds no throughput.

    The first call on two or more CPUs starts the worker and times
    ``_probe`` on it, once per process (4-8 ms, inside the first
    solve that asks); when the ratio is below PARALLEL_RATIO, it shuts
    the worker down and every later call returns None. Either way the
    results are the same bits; only the time changes."""
    affinity = getattr(os, "sched_getaffinity", None)
    if (len(affinity(0)) if affinity is not None else os.cpu_count() or 1) < 2:
        return None
    global _worker
    if _worker is None:
        with _worker_lock:
            if _worker is None:
                worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="adaptqn-worker")
                if _probe(worker) >= PARALLEL_RATIO:
                    _worker = worker
                else:
                    worker.shutdown()
                    _worker = False
    return _worker or None


def _product(A, v: np.ndarray) -> np.ndarray:
    """``A @ v`` for a sparse matrix A and a float vector v, bit for bit.

    When A is a CSR matrix of at least ``SPLIT_NNZ`` stored float64
    entries and ``_second_cpu()`` gives a worker, A's rows are cut into
    two ranges of about equal stored entries: the worker computes the
    second range through scipy's CSR kernel while the caller computes
    the first. Every output row is the same sum in the same order
    either way."""
    indptr, data = A.indptr, A.data
    M, n = A.shape
    if (indptr[-1] < SPLIT_NNZ or A.format != "csr" or data.dtype != np.float64
            or v.shape != (n,) or (worker := _second_cpu()) is None):
        return A @ v
    from scipy.sparse._sparsetools import csr_matvec

    mid = int(indptr.searchsorted(indptr[-1] // 2))
    out = np.zeros(M)
    rest = worker.submit(csr_matvec, M - mid, n, indptr[mid:], A.indices, data, v, out[mid:])
    try:
        csr_matvec(mid, n, indptr, A.indices, data, v, out[:mid])
    finally:
        rest.result()  # the worker's range is written, or its error raised
    return out


def _sigmoid(z, ez, den):
    # 1/(1+e^-z) for z >= 0 and e^z/(1+e^z) below, never overflowing;
    # ez is exp(-|z|) and den is 1 + ez. ez <= 1 where z >= 0, so
    # max(ez, z >= 0) selects 1 there and ez elsewhere, the bits of
    # np.where without its data-dependent branch
    out = np.maximum(ez, z >= 0)
    out /= den
    return out


def _softplus(z, ez):
    # log(1 + exp(z)) without overflow for large |z|; ez as in _sigmoid
    out = np.maximum(z, 0.0)
    out += np.log1p(ez)
    return out


def _factorization_failed(info: int) -> NumericalError:
    """The error for a nonzero LAPACK ``info`` from a Cholesky factor or solve."""
    why = (f"leading minor of order {info} is not positive definite" if info > 0
           else f"LAPACK argument {-info} is invalid")
    return NumericalError(f"Hessian factorization failed: {why}")


def spd_solve(G: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve G x = b for symmetric positive definite G by Cholesky, reading
    the upper triangle of G and leaving G unmodified. Raises
    NumericalError when G is not numerically positive definite."""
    c, info = _POTRF(G, lower=False, clean=False)
    if info == 0:
        x, info = _POTRS(c, b, lower=False)
    if info != 0:
        raise _factorization_failed(info)
    return x


def _spd_solve_in_place(K: np.ndarray, b: np.ndarray) -> np.ndarray:
    """spd_solve for a C-ordered scratch K and b, both overwritten: K's
    upper triangle is factored as the lower triangle of its Fortran view
    K', so LAPACK makes no copy of K."""
    c, info = _POTRF(K.T, lower=True, clean=False, overwrite_a=True)
    if info == 0:
        x, info = _POTRS(c, b, lower=True, overwrite_b=True)
    if info != 0:
        raise _factorization_failed(info)
    return x


class OraclePoint(Protocol):
    """An objective evaluated at one x. ``value()``, ``gradient()`` and
    ``ray(d)`` may be requested in any order and any number of times,
    and each returns the same bits whatever was requested before; work
    they share at x is done once, and a vector result may be the array
    an earlier request returned, so callers do not write to it.

    ``ray(d)`` checks d, raising ValueError for a wrong shape, and
    returns the :class:`Ray` along x + t d from this point, the one
    route to G(x)d. A point without a cheaper ray returns
    ``HessVecRay(oracle, x, d, product)``.

    A point that Newton can run on also has ``newton()``: the Newton
    direction -G(x)^-1 g(x), under the same rules; NumericalError when
    G(x) is not numerically positive definite. A point may keep work
    from it for ``ray`` on the very array it returned, whose results
    then agree with another ray's along the same d to rounding, not bit
    for bit."""

    def value(self) -> float: ...

    def gradient(self) -> np.ndarray: ...

    def ray(self, d: np.ndarray) -> "Ray": ...


class Ray(Protocol):
    """The objective along x + t d, from the evaluation point at x.

    ``curvature()`` is d'G(x)d and ``hess_vec()`` is G(x)d; the two
    share their work, so requesting both costs one Hessian-vector
    product. ``at(t)`` is a fresh evaluation point at x + t d, whose
    x is ``x + t * d`` bit for bit; it may reuse work done along the
    ray, so its values agree with ``oracle.at(x + t * d)`` to rounding,
    not bit for bit."""

    def curvature(self) -> float: ...

    def hess_vec(self) -> np.ndarray: ...

    def at(self, t: float) -> OraclePoint: ...


class HessVecRay:
    """The ray of a point without a cheaper one. ``product`` is the
    point's d -> G(x)d, given a d the point has already checked;
    ``hess_vec()`` is ``product(d)``, computed once, ``curvature()`` is
    d'(G d), and ``at(t)`` is ``oracle.at(x + t * d)``."""

    __slots__ = ("_oracle", "_x", "_d", "_product", "_gd")

    def __init__(self, oracle: "ObjectiveOracle", x: np.ndarray, d: np.ndarray,
                 product: Callable[[np.ndarray], np.ndarray]):
        self._oracle = oracle
        self._x = x
        self._d = d
        self._product = product
        self._gd = None

    def hess_vec(self) -> np.ndarray:
        if self._gd is None:
            self._gd = self._product(self._d)
        return self._gd

    def curvature(self) -> float:
        return float(self._d.dot(self.hess_vec()))

    def at(self, t: float) -> OraclePoint:
        return self._oracle.at(self._x + t * self._d)


class ObjectiveOracle(ABC):
    """Deterministic objective exposing value, gradient and the Hessian
    action G(x)d; some oracles also give the Newton direction.

    To write an oracle, set ``dim`` when the oracle is built and
    implement ``at(x)``, which checks x and returns an
    :class:`OraclePoint` holding the work shared between evaluations at
    x: a point with ``value``, ``gradient`` and ``ray``, plus ``newton``
    for Newton. The point's ``ray(d)`` checks d and may simply return
    ``HessVecRay(oracle, x, d, product)``; a point that can evaluate
    d'G d or the points x + t d more cheaply returns its own
    :class:`Ray`. ``value(x)`` and ``gradient(x)`` are derived from
    ``at``, one fresh point per call.

    Oracles are immutable after construction, so concurrent evaluation
    from multiple runs is safe; a point belongs to its caller. The one
    state that changes is a logistic oracle's ``X'`` (for a large X, a
    CSR copy), its dataset's ``X X'`` and an online model's Cholesky
    factor, each computed once on first use; the computation is
    idempotent, so a run that races another to it only repeats the same
    work. Runs also share the process's one worker, where there is one:
    on two or more CPUs, once a probe has found that the second runs in
    parallel with the first (``_second_cpu``). It changes no result.
    """

    @abstractmethod
    def at(self, x: np.ndarray) -> OraclePoint:
        """A fresh evaluation point at x."""

    def value(self, x: np.ndarray) -> float:
        return self.at(x).value()

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self.at(x).gradient()

    def _check(self, v: np.ndarray, name: str = "x") -> np.ndarray:
        v = v if v.__class__ is np.ndarray and v.dtype == float else np.asarray(v, dtype=float)
        if v.shape != (self.dim,):
            raise ValueError(f"{name} has shape {v.shape}, expected ({self.dim},)")
        return v


def logistic_sc_scale(data: SparseDataset) -> float:
    """B^2 N / 4 with B the largest feature-row norm; this multiple of
    the logistic loss is standard self-concordant. Raises ValueError
    when B is 0, naming an underflow when some value is not zero."""
    B = max_row_norm(data)
    if B == 0.0:
        if data.X.data.any():
            raise ValueError("every squared feature-row norm underflows to 0, so the scale "
                             "factor B^2 N/4 is undefined; give sc_scale (--sc-scale) instead")
        raise ValueError("all feature rows are zero; scale factor undefined")
    scale = B * B * data.N / 4.0
    if not np.isfinite(scale):
        raise ValueError(f"scale factor B^2 N/4 is not finite: largest feature-row "
                         f"norm B = {B}, N = {data.N}")
    return scale


class LogisticObjective(ObjectiveOracle):
    """(sc_scale/N) * [sum_i log(1 + exp(-y_i x_i'w)) + ||w||^2/2].

    ``sc_scale=None`` (default) applies B^2 N/4 so the objective is
    standard self-concordant; pass ``sc_scale=1.0`` for the raw loss.
    Any other scale must be positive and finite (ValueError otherwise).
    The model has no intercept column. The Hessian weight
    sigma(z)(1-sigma(z)) is label-free since it is symmetric in sign.
    """

    def __init__(self, data: SparseDataset, sc_scale: float | None = None):
        if data.N < 1:
            raise ValueError("empty dataset")
        self.data = data
        self.dim = data.n
        self.sc_scale = logistic_sc_scale(data) if sc_scale is None else float(sc_scale)
        if not 0.0 < self.sc_scale < np.inf:
            raise ValueError(f"sc_scale must be positive and finite, got {self.sc_scale}")
        self._neg_labels = -data.labels

    @functools.cached_property
    def _xt(self):
        """X' for products X'c, built on the first X'c. Below SPLIT_NNZ
        stored entries, a CSC matrix sharing X's arrays. From SPLIT_NNZ
        on, a CSR copy, whose products can be split by output row: nnz
        * 12 bytes with int32 indices (7.2 MB for a dense 400 x 1500 X).
        Its row j holds column j's entries in the order of their rows
        of X, so its product with c adds the terms of (X'c)_j in the
        order that the CSC scatter adds them, with the same bits."""
        X = self.data.X
        return X.T.tocsr() if X.indptr[-1] >= SPLIT_NNZ else X.T

    def at(self, x) -> "_LogisticPoint":
        return _LogisticPoint(self, self._check(x))


class _LogisticPoint:
    """Logistic loss at one w. The margins z = Xw (or z carried in from a
    ray) and the loss margins m = -yz, exp(-|m|) and the sigmoid
    denominator 1 + exp(-|m|), which every request reads, are computed
    when the point is built; the gradient, which Newton reads too, and
    the Hessian weights s(1-s) on the first request that needs them,
    which a line search's trial points never do."""

    __slots__ = ("_obj", "_w", "_z", "_m", "_em", "_den", "_g", "_hw", "_newton")

    def __init__(self, obj: LogisticObjective, w: np.ndarray, z: np.ndarray | None = None):
        self._obj = obj
        self._w = w
        self._z = _product(obj.data.X, w) if z is None else z
        self._m = obj._neg_labels * self._z
        self._em = np.exp(-np.abs(self._m))
        self._den = 1.0 + self._em
        self._g = self._hw = self._newton = None

    def value(self) -> float:
        obj, w = self._obj, self._w
        N = obj.data.N
        loss = np.sum(_softplus(self._m, self._em)) / N
        return obj.sc_scale * (loss + 0.5 * float(w.dot(w)) / N)

    def _q(self) -> np.ndarray:
        # q = -y sigmoid(m), so that g = (c/N)(X'q + w)
        q = _sigmoid(self._m, self._em, self._den)
        q *= self._obj._neg_labels
        return q

    def gradient(self) -> np.ndarray:
        if self._g is None:
            obj = self._obj
            ds = obj.data
            coef = self._q()
            coef /= ds.N
            self._g = obj.sc_scale * (_product(obj._xt, coef) + self._w / ds.N)
        return self._g

    def _hess_weights(self) -> np.ndarray:
        # |m| = |z| for labels of +-1, so exp(-|m|) and 1 + exp(-|m|)
        # serve sigmoid(z) too
        if self._hw is None:
            s = _sigmoid(self._z, self._em, self._den)
            hw = 1.0 - s
            hw *= s
            self._hw = hw
        return self._hw

    def ray(self, d) -> "_LogisticRay":
        if self._newton is not None and d is self._newton[0]:
            return _LogisticRay(self, d, self._newton[1])
        return _LogisticRay(self, self._obj._check(d, "d"))

    def newton(self) -> np.ndarray:
        """-G^-1 g with G = (c/N)(X'WX + I) and g = (c/N)(X'q + w). When
        n <= N, by Cholesky of G. Else in the row space, with r = W^(1/2)
        and K = I + r X X' r the dataset's cached row Gram scaled in
        place: a = q - r K^-1 r (X X'q + z), d = -(w + X'a), and
        Xd = -(z + X X'a), which the point keeps for ``ray(d)``."""
        if self._newton is not None:
            return self._newton[0]
        obj = self._obj
        ds, c = obj.data, obj.sc_scale
        N, n = ds.N, ds.n
        if n <= N:
            G = _weighted_gram(ds.X, self._hess_weights() / N)
            G.flat[::n + 1] += 1.0 / N
            G *= c
            return spd_solve(G, -self.gradient())
        gram = ds.row_gram
        q = self._q()
        r = np.sqrt(self._hess_weights())
        K = r[:, None] * gram
        K *= r
        K.flat[::N + 1] += 1.0
        a = q - r * _spd_solve_in_place(K, r * (gram @ q + self._z))
        d = -(self._w + _product(obj._xt, a))
        self._newton = (d, -(self._z + gram @ a))
        return d


class _LogisticRay:
    """Logistic loss along w + t d: u = Xd is computed once, on first
    need, unless the point's Newton step carried it in. The curvature
    (c/N)(sum hw u^2 + d'd) then costs O(N), and the point at w + t d
    takes its margins as z + t u, so only its gradient pays a product
    with X'."""

    __slots__ = ("_point", "_d", "_u")

    def __init__(self, point: _LogisticPoint, d: np.ndarray, u: np.ndarray | None = None):
        self._point = point
        self._d = d
        self._u = u

    def _xd(self) -> np.ndarray:
        if self._u is None:
            self._u = _product(self._point._obj.data.X, self._d)
        return self._u

    def curvature(self) -> float:
        p, d, u = self._point, self._d, self._xd()
        obj = p._obj
        return obj.sc_scale * (float(p._hess_weights().dot(u * u)) + float(d.dot(d))) / obj.data.N

    def hess_vec(self) -> np.ndarray:
        p, d = self._point, self._d
        obj = p._obj
        coef = p._hess_weights() * self._xd()
        coef /= obj.data.N
        return obj.sc_scale * (_product(obj._xt, coef) + d / obj.data.N)

    def at(self, t: float) -> _LogisticPoint:
        p = self._point
        return _LogisticPoint(p._obj, p._w + t * self._d, p._z + t * self._xd())


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


def _refuse_asymmetric(M: np.ndarray, name: str) -> None:
    """Refuse a square M whose largest |M - M'| exceeds 1e-12 of its
    largest entry. NaN and inf pass, to end as numerical_error."""
    scale = np.abs(M).max(initial=0.0)
    # M - M' is antisymmetric, so its largest entry is its largest |entry|
    asym = (M - M.T).max(initial=0.0) if scale < np.inf else 0.0
    if asym > 1e-12 * scale:
        raise ValueError(f"{name} must be symmetric: max |{name} - {name}'| = {asym:.3g}")


class QuadraticObjective(ObjectiveOracle):
    """f(x) = x'Ax/2 + b'x with A symmetric positive definite.

    Refuses, with ValueError, an A that is not square, a b that does not
    conform, and an asymmetric A: one whose largest |A - A'| exceeds
    1e-12 of its largest entry, for which ``gradient`` would not be the
    gradient of ``value``. A NaN or inf passes, to end a run as
    numerical_error."""

    def __init__(self, A: np.ndarray, b: np.ndarray):
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1] or b.shape != (A.shape[0],):
            raise ValueError("A must be square and b conforming")
        _refuse_asymmetric(A, "A")
        self.A = A
        self.b = b
        self.dim = b.shape[0]

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

    def _hess_vec(self, d) -> np.ndarray:
        return self._obj.A @ d

    def ray(self, d) -> HessVecRay:
        return HessVecRay(self._obj, self._x, self._obj._check(d, "d"), self._hess_vec)

    def newton(self) -> np.ndarray:
        return spd_solve(self._obj.A, -self.gradient())


class OnlineLsExpectedObjective(ObjectiveOracle):
    """Population objective of the Gaussian linear model with unit noise:

    F(w) = (beta - w)' Sigma (beta - w) + 1 + lam ||w||^2 / 2.

    Refuses when it is built, with ValueError, a lam that is not positive
    and finite, a beta that is not 1-D, a sigma that is not p x p for
    p = len(beta) and, by ``QuadraticObjective``'s rule, an asymmetric
    sigma, for which ``gradient`` and a sampler's draws would read two
    models. Keeps read-only copies of the caller's sigma and beta.
    """

    def __init__(self, sigma: np.ndarray, beta: np.ndarray, lam: float):
        sigma = np.array(sigma, dtype=float)
        beta = np.array(beta, dtype=float)
        if not 0 < lam < np.inf:
            raise ValueError("regularizer lam must be positive and finite")
        if beta.ndim != 1:
            raise ValueError(f"beta must be 1-D, got shape {beta.shape}")
        if sigma.shape != (beta.shape[0], beta.shape[0]):
            raise ValueError("sigma must be p x p matching beta")
        _refuse_asymmetric(sigma, "sigma")
        sigma.flags.writeable = beta.flags.writeable = False
        self.sigma = sigma
        self.beta = beta
        self.lam = float(lam)
        self.dim = beta.shape[0]

    @functools.cached_property
    def chol(self) -> np.ndarray:
        """Lower Cholesky factor of sigma, or of sigma + 1e-10 I when that
        factorization fails (a singular covariance), read-only. Computed
        on first use; ValueError when both factorizations fail."""
        try:
            L = np.linalg.cholesky(self.sigma)
        except np.linalg.LinAlgError:
            try:
                L = np.linalg.cholesky(self.sigma + 1e-10 * np.eye(self.dim))
            except np.linalg.LinAlgError:
                raise ValueError("sigma is not positive definite, even with 1e-10 "
                                 "added to its diagonal") from None
        L.flags.writeable = False
        return L

    def at(self, x) -> "_OnlineLsPoint":
        return _OnlineLsPoint(self, self._check(x))

    def minimizer(self) -> tuple[np.ndarray, float]:
        """Closed-form optimum, solving (2 Sigma + lam I) w = 2 Sigma beta, and
        its value."""
        A = 2.0 * self.sigma + self.lam * np.eye(self.dim)
        try:
            w = np.linalg.solve(A, 2.0 * (self.sigma @ self.beta))
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"minimizer solve failed: {exc}") from exc
        return w, self.value(w)


class _OnlineLsPoint:
    """Expected objective at one w: the residual r = beta - w and Sigma r,
    shared by ``value`` and ``gradient``, are computed once."""

    __slots__ = ("_obj", "_w", "_r", "_sr")

    def __init__(self, obj: OnlineLsExpectedObjective, w: np.ndarray):
        self._obj = obj
        self._w = w
        self._r = obj.beta - w
        self._sr = obj.sigma.dot(self._r)

    def value(self) -> float:
        obj, w = self._obj, self._w
        return float(self._r.dot(self._sr)) + 1.0 + 0.5 * obj.lam * float(w.dot(w))

    def gradient(self) -> np.ndarray:
        return -2.0 * self._sr + self._obj.lam * self._w

    def _hess_vec(self, d) -> np.ndarray:
        obj = self._obj
        return 2.0 * obj.sigma.dot(d) + obj.lam * d

    def ray(self, d) -> HessVecRay:
        return HessVecRay(self._obj, self._w, self._obj._check(d, "d"), self._hess_vec)

    def newton(self) -> np.ndarray:
        obj = self._obj
        G = 2.0 * obj.sigma
        G.flat[::obj.dim + 1] += obj.lam
        return spd_solve(G, -self.gradient())
