"""Reference loops: fixed numpy work that gauges the machine's speed.

On a small shared host the same code runs up to 1.5 times slower for
minutes at a time, so a 35-second run lands wholly in a fast or a slow
stretch and wall times of the same commit differ by more than any
useful bound.
Each workload therefore has a reference loop built from the same kinds
of numpy and scipy calls as its solves. ``run.py`` times it before every
method run and scales the end-to-end times by ``NOMINAL_S`` over the
run's median reference time: a metric then reads as seconds on a
machine where the loop takes ``NOMINAL_S``, and a slow stretch slows
loop and program alike. The loops import nothing from adaptqn, so a
change to the program cannot change them. Each works on preallocated or
small arrays, so it never raises the process's peak memory above the
program's own.
"""

from __future__ import annotations

import math
import time

import numpy as np
import scipy.linalg


def stoch(iters: int = 300, p: int = 30) -> float:
    """Online least squares at p = 30: draw a growing batch, form its
    gradient, Hessian and Hessian-vector product, take a Newton or BFGS
    direction with the adaptive step, update a p x p inverse Hessian and
    record the expected objective, as ``stochastic_run`` does."""
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    sigma = (q * np.linspace(1.0, 100.0, p)) @ q.T
    chol = np.linalg.cholesky(sigma)
    beta = rng.uniform(-1.0, 1.0, p)
    lam = 1.0 / p
    w, H, records = np.zeros(p), np.eye(p), []
    t0 = time.perf_counter()
    for k in range(iters):
        size = math.ceil(15 * 1.05 ** (k % 60))
        X = rng.standard_normal((size, p)) @ chol.T
        Y = X @ beta + rng.standard_normal(size)
        g = -(2.0 / size) * (X.T @ (Y - X @ w)) + lam * w
        G = (2.0 / size) * (X.T @ X) + lam * np.eye(p)
        cf = scipy.linalg.cho_factor(G, check_finite=False)
        d = 0.5 * scipy.linalg.cho_solve(cf, -g, check_finite=False) - 0.5 * (H @ g)
        Gd = (2.0 / size) * (X.T @ (X @ d)) + lam * d
        rho, dGd = -float(g @ d), float(d @ Gd)
        delta = math.sqrt(dGd)
        w = w + rho / ((rho + delta) * delta) * d
        Hy = H @ Gd
        c = (1.0 + float(Gd @ Hy) / dGd) / dGd
        H = H - (np.outer(d, Hy) + np.outer(Hy, d)) / dGd + c * np.outer(d, d)
        H = 0.5 * (H + H.T)
        e = w - beta
        records.append((k, float(e @ sigma @ e), float(np.linalg.norm(sigma @ e))))
    return time.perf_counter() - t0


def sparse(iters: int = 40, N: int = 10_000, n: int = 200, nnz: int = 10) -> float:
    """Logistic regression on a 10,000 x 200 CSR matrix with 10 nonzeros
    per row: CSR products by ``reduceat`` and ``bincount`` as in the
    numpy kernels, a 200 x 200 BFGS update and the adaptive step."""
    rng = np.random.default_rng(0)
    indices = rng.integers(0, n, N * nnz)
    starts = np.arange(0, N * nnz, nnz)
    data = np.ones(N * nnz)
    y = np.where(rng.random(N) < 0.5, -1.0, 1.0)
    w, H, w_old, g_old = np.zeros(n), np.eye(n), None, None
    t0 = time.perf_counter()
    for _ in range(iters):
        z = y * np.add.reduceat(data * w[indices], starts)
        float(np.logaddexp(0.0, -z).sum())
        sig = 1.0 / (1.0 + np.exp(-z))
        coef = -y * (1.0 - sig) / N
        g = np.bincount(indices, weights=np.repeat(coef, nnz) * data, minlength=n) + 1e-4 * w
        if g_old is not None:
            s, yy = w - w_old, g - g_old
            sy = float(s @ yy)
            if sy > 0.0:
                Hy = H @ yy
                c = (1.0 + float(yy @ Hy) / sy) / sy
                H = H - (np.outer(s, Hy) + np.outer(Hy, s)) / sy + c * np.outer(s, s)
                H = 0.5 * (H + H.T)
        d = -(H @ g)
        Xd = np.add.reduceat(data * d[indices], starts)
        Hd = np.bincount(indices, weights=np.repeat(sig * (1.0 - sig) * Xd / N, nnz) * data,
                         minlength=n) + 1e-4 * d
        rho, delta = -float(g @ d), math.sqrt(float(d @ Hd))
        w_old, g_old = w, g
        w = w + rho / ((rho + delta) * delta) * d
    return time.perf_counter() - t0


def wide(iters: int = 4, N: int = 400, n: int = 1500) -> float:
    """Dense logistic regression, 400 x 1500, with the data held as CSR
    like a dense ``SparseDataset``: CSR products by ``reduceat`` and
    ``bincount``, one dense Hessian and Cholesky solve, then n x n BFGS
    updates done in place in one scratch buffer."""
    rng = np.random.default_rng(0)
    A = rng.standard_normal((N, n)) / math.sqrt(n)
    values = A.ravel()
    indices = np.tile(np.arange(n), N)
    starts = np.arange(0, N * n, n)
    y = np.where(rng.random(N) < 0.5, -1.0, 1.0)
    w, H, B, w_old, g_old = np.zeros(n), np.eye(n), np.empty((n, n)), None, None
    t0 = time.perf_counter()
    for k in range(iters):
        sig = 1.0 / (1.0 + np.exp(-y * np.add.reduceat(values * w[indices], starts)))
        g = np.bincount(indices, weights=np.repeat(-(1.0 - sig) * y / N, n) * values,
                        minlength=n) + 1e-3 * w
        if g_old is not None:
            s, yy = w - w_old, g - g_old
            sy = float(s @ yy)
            Hy = H @ yy
            c = (1.0 + float(yy @ Hy) / sy) / sy
            np.multiply.outer(s, Hy / sy, out=B)
            H -= B
            H -= B.T
            np.multiply.outer(s, c * s, out=B)
            H += B
        if k == 0:
            np.matmul(A.T * (sig * (1.0 - sig) / N), A, out=B)
            B.flat[::n + 1] += 1e-3
            # B is symmetric, so its transpose is the Fortran-ordered
            # matrix LAPACK factors in place, without a copy.
            cf = scipy.linalg.cho_factor(B.T, overwrite_a=True, check_finite=False)
            d = scipy.linalg.cho_solve(cf, -g, check_finite=False)
        else:
            d = -(H @ g)
        Ad = np.add.reduceat(values * d[indices], starts)
        Hd = np.bincount(indices, weights=np.repeat(sig * (1.0 - sig) * Ad / N, n) * values,
                         minlength=n) + 1e-3 * d
        rho, delta = -float(g @ d), math.sqrt(float(d @ Hd))
        w_old, g_old = w, g
        w = w + rho / ((rho + delta) * delta) * d
    return time.perf_counter() - t0


LOOPS = {"logistic-sparse": sparse, "logistic-wide": wide, "stoch-online": stoch}

# Each loop's time in a fast stretch of the 2-core shared host the
# baseline was recorded on. Only the ratio between two runs' metrics
# matters; these constants keep the scaled times close to wall times.
NOMINAL_S = {"logistic-sparse": 0.125, "logistic-wide": 0.22, "stoch-online": 0.05}
