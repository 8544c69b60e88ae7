"""The optimization loop over DirectionRule x StepRule, on a fixed
oracle or on one sampled per iteration, with per-iteration tracing and
post-run step-size/convergence diagnostics."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .directions import (MAX_DENSE_DIM, NO_SOLVE, BfgsDense, DirectionRule, LBfgs,
                         Newton, compute_direction, ingest_pair, new_state)
from .errors import NumericalError
from .oracles import ObjectiveOracle
from .steps import Adaptive, Constant, Hybrid, StepRule, choose_step

__all__ = [
    "ReferenceOptimum",
    "RunConfig",
    "IterationRecord",
    "Termination",
    "Trace",
    "check_config",
    "run",
    "superlinear_report",
    "SuperlinearReport",
    "t_settle_index",
]

# Iterate-error ratios below this (relative) distance from the optimum
# are rounding noise and excluded from superlinear diagnostics.
_MEASURABLE_RTOL = 1e-12

# Threshold and consistency level for "the step size has settled at 1":
# |t - 1| < 0.1 must hold for at least 80% of the remaining iterations.
T_NEAR_ONE_TOL = 0.1
T_NEAR_ONE_FRACTION = 0.8


@dataclass(frozen=True)
class ReferenceOptimum:
    x: np.ndarray
    f: float


@dataclass(frozen=True)
class RunConfig:
    direction: DirectionRule
    step: StepRule
    grad_tol: float = 1e-7
    max_iters: int = 1000
    max_seconds: float = math.inf
    x0: Optional[np.ndarray] = None
    reference: Optional[ReferenceOptimum] = None

    def __post_init__(self):
        if not self.grad_tol > 0:
            raise ValueError("grad_tol must be positive")
        if self.max_iters < 0:
            raise ValueError("max_iters must be non-negative")
        if not self.max_seconds >= 0:
            raise ValueError(f"max_seconds must be >= 0, got {self.max_seconds}")


@dataclass(frozen=True, slots=True)
class IterationRecord:
    k: int
    f: float
    gnorm: float
    t: float                 # NaN on the terminal record
    eta: float               # NaN when the rule did not compute it
    step_kind: str
    cum_evals_f: int
    cum_evals_g: int
    cum_evals_hv: int
    elapsed: float
    log_gap: Optional[float] = None
    err_ratio: Optional[float] = None


@dataclass(frozen=True)
class Termination:
    kind: str        # grad_tol | max_iters | time_budget | numerical_error
    detail: str = ""


@dataclass(eq=False)  # traces compare by identity; final_x is an array
class Trace:
    """What one ``run`` did. ``config`` is the RunConfig that was run; a
    stochastic run's method shows as its direction.

    The run stores one row per step plus a terminal one: a tuple of the
    IterationRecord fields f, gnorm, t, eta, step_kind, cum_evals_f,
    cum_evals_g, cum_evals_hv, elapsed and err_ratio. k is the row index
    and log_gap follows from f and the reference on read. ``rows()``
    gives every record's fields without building it, ``records`` builds
    the IterationRecords once, on first read, and ``final`` builds the
    terminal one alone. ``warnings`` counts the line searches that ran
    out of evaluations, and ``skipped_pairs`` the curvature pairs the
    quasi-Newton update refused."""

    config: RunConfig
    termination: Termination = Termination("max_iters")
    final_x: Optional[np.ndarray] = None
    skipped_pairs: int = 0
    warnings: int = 0

    def __post_init__(self):
        self._rows = []
        self._records = None

    def _fields(self, k: int) -> tuple:
        r = self._rows[k]
        return (k, *r[:9], _log_gap(r[0], self.config.reference), r[9])

    def rows(self) -> Iterator[tuple]:
        """Every record's field values, in IterationRecord's order."""
        return map(self._fields, range(len(self._rows)))

    @property
    def records(self) -> list[IterationRecord]:
        if self._records is None:
            self._records = [IterationRecord(*v) for v in self.rows()]
        return self._records

    @property
    def iterations(self) -> int:
        """Number of steps taken (terminal record excluded)."""
        return max(len(self._rows) - 1, 0)

    @property
    def final(self) -> IterationRecord:
        return IterationRecord(*self._fields(len(self._rows) - 1))

    def step_sizes(self) -> np.ndarray:
        return np.array([r[2] for r in self._rows[:-1]])


class _CountingOracle:
    """Pass-through oracle counting the value/gradient/hess_vec requests
    (not ``solve``) on its points and their rays. A ray's curvature and
    G d together count as one hess_vec request, as they share one
    product. A run on batches points ``inner`` at each iteration's
    batch, so the counts accumulate."""

    def __init__(self, inner: ObjectiveOracle):
        self.inner = inner
        self.evals_f = 0
        self.evals_g = 0
        self.evals_hv = 0

    def at(self, x):
        return _CountingPoint(self, self.inner.at(x))


class _CountingPoint:
    __slots__ = ("_counts", "_inner")

    def __init__(self, counts: _CountingOracle, inner):
        self._counts = counts
        self._inner = inner

    def value(self):
        self._counts.evals_f += 1
        return self._inner.value()

    def gradient(self):
        self._counts.evals_g += 1
        return self._inner.gradient()

    @property
    def solve(self):  # the inner point's, so a point without solve has none here
        return self._inner.solve

    def ray(self, d):
        return _CountingRay(self._counts, self._inner.ray(d))


class _CountingRay:
    __slots__ = ("_counts", "_inner", "_hv_counted")

    def __init__(self, counts: _CountingOracle, inner):
        self._counts = counts
        self._inner = inner
        self._hv_counted = False

    def _count_hv(self):
        if not self._hv_counted:
            self._counts.evals_hv += 1
            self._hv_counted = True

    def curvature(self):
        self._count_hv()
        return self._inner.curvature()

    def hess_vec(self):
        self._count_hv()
        return self._inner.hess_vec()

    def at(self, t):
        return _CountingPoint(self._counts, self._inner.at(t))


def _norm(v: np.ndarray) -> float:
    # np.linalg.norm(v) bit for bit, without its per-call overhead
    return math.sqrt(v.dot(v))


def _all_finite(v: np.ndarray) -> bool:
    # np.isfinite(v).all() at about half its cost: no ufunc reduction and
    # no ndarray.all Python-level wrapper
    return np.count_nonzero(np.isfinite(v)) == v.size


def _log_gap(f: float, ref: Optional[ReferenceOptimum]) -> Optional[float]:
    if ref is None:
        return None
    gap = f - ref.f
    return math.log10(gap) if gap > 0 else None


def check_config(config: RunConfig, oracle: ObjectiveOracle) -> None:
    """Raise ValueError if ``run`` refuses ``config`` on ``oracle`` up
    front: an x0 of the wrong shape or dense BFGS above ``MAX_DENSE_DIM``.
    Checks nothing about batches, nor the points' ``solve`` for Newton,
    which ``run`` checks on its point at x0."""
    n = oracle.dim
    if config.x0 is not None and np.shape(config.x0) != (n,):
        raise ValueError(f"x0 has shape {np.shape(config.x0)}, oracle dimension is {n}")
    if isinstance(config.direction, BfgsDense) and n > MAX_DENSE_DIM:
        raise ValueError(f"dense BFGS refused for n = {n} > {MAX_DENSE_DIM}; use LBfgs")


def run(config: RunConfig, oracle: ObjectiveOracle, *,
        batches: Optional[Callable[[int], ObjectiveOracle]] = None) -> Trace:
    """Iterate x <- x + t d per the configured rules until the gradient
    threshold, iteration cap, time cap, or a numerical error (including
    a non-finite f, ||g||, rho or t). Every ``NumericalError``, including
    one at ``x0``, ends the run as ``numerical_error`` in
    ``Trace.termination``; a configuration it refuses raises
    ``ValueError``.

    ``batches``, when given, maps iteration k to the oracle that chooses
    that iteration's direction and step, such as a freshly sampled
    batch. ``oracle`` then only measures the recorded f and ||g||, and
    the eval counts are those of the batches. A quasi-Newton update then
    takes the pair (d, G_k d) from batch k, since a secant pair across
    two batches would measure their difference, not curvature. The
    gradient threshold, the monotone-decrease check and the stall test
    hold for a fixed oracle only; a run on batches stops on its budget
    or on a numerical error.
    """
    check_config(config, oracle)
    n = oracle.dim
    x = np.zeros(n) if config.x0 is None else np.asarray(config.x0, dtype=float).copy()
    fixed = batches is None
    if not (fixed or isinstance(config.step, (Adaptive, Constant))):
        # a line search would compare batch trial values with the measured f
        raise ValueError("a run on batches needs an Adaptive or Constant step")

    co = _CountingOracle(oracle)
    measure = co if fixed else oracle
    ref = config.reference
    state = new_state(config.direction, n)
    trace = Trace(config=config)
    append = trace._rows.append
    started = time.perf_counter()
    monotone = fixed and not isinstance(config.step, Constant)
    ray_step = isinstance(config.step, (Adaptive, Hybrid))
    batch_pairs = not fixed and isinstance(config.direction, (BfgsDense, LBfgs))
    warnings = 0
    if ref is not None:
        err_floor = _MEASURABLE_RTOL * (1.0 + _norm(ref.x))
        err = _norm(x - ref.x)

    k, f, gnorm = 0, math.nan, math.nan

    def _end(kind: str, detail: str = "") -> Trace:
        append((f, gnorm, math.nan, math.nan, "terminal", co.evals_f, co.evals_g,
                co.evals_hv, time.perf_counter() - started, None))
        trace.termination = Termination(kind, detail)
        trace.final_x = x.copy()
        trace.skipped_pairs = state.skipped
        trace.warnings = warnings
        return trace

    try:
        point = measure.at(x)
        # a batch point is checked where Newton solves on it
        if fixed and isinstance(config.direction, Newton) and not hasattr(point, "solve"):
            raise ValueError(NO_SOLVE)
        f = point.value()
        g = point.gradient()
        for k in range(config.max_iters + 1):
            gnorm = _norm(g)
            converged = fixed and gnorm < config.grad_tol
            if converged:  # f is re-evaluated at the terminal point once, and counted
                f = point.value()
            if not (math.isfinite(f) and math.isfinite(gnorm)):
                raise NumericalError(f"non-finite f = {f} or ||g|| = {gnorm} at k={k}")
            if converged:
                return _end("grad_tol")
            if k >= config.max_iters:
                return _end("max_iters")
            if time.perf_counter() - started > config.max_seconds:
                return _end("time_budget")

            if fixed:
                step_point, step_g = point, g
            else:
                co.inner = batches(k)
                step_point = co.at(x)
                step_g = step_point.gradient()
                if not _all_finite(step_g):
                    raise NumericalError(f"non-finite batch gradient at k={k}")

            d, rho = compute_direction(state, step_point, step_g)
            # the ray is built where something reads it: the adaptive and
            # hybrid steps, the fixed oracle's next point and the batch pair
            ray = step_point.ray(d) if ray_step else None
            # positional: wrappers of choose_step may forward *args only
            outcome = choose_step(config.step, co, x, d, f, step_g, rho, ray)
            warnings += outcome.warning
            if not (math.isfinite(rho) and math.isfinite(outcome.t)):
                raise NumericalError(f"non-finite rho = {rho} or t = {outcome.t} at k={k}")

            x_new = x + outcome.t * d
            if fixed and (x_new == x).all():
                # t*d fell below the resolution of x; the loop is deterministic,
                # so no future iteration can make progress either
                raise NumericalError(f"step stalled below floating-point resolution at k={k} "
                                     f"(t={outcome.t:.3e})")
            if outcome.point is not None:
                point_new = outcome.point
            elif fixed:  # the ray's point at x_new reuses the ray's work
                point_new = (ray or step_point.ray(d)).at(outcome.t)
            else:
                point_new = measure.at(x_new)
            f_new = outcome.f_new if outcome.f_new is not None else point_new.value()
            g_new = outcome.g_new if outcome.g_new is not None else point_new.gradient()

            if monotone and f_new > f + 1e-10 * (1.0 + abs(f)):
                raise NumericalError(f"monotone decrease violated at k={k}: {f} -> {f_new}")

            if fixed:
                ingest_pair(state, x_new - x, g_new - g)
            elif batch_pairs:
                hv = (ray or step_point.ray(d)).hess_vec()
                if not _all_finite(hv):
                    raise NumericalError(f"non-finite batch G d at k={k}")
                ingest_pair(state, d, hv)

            err_ratio = None
            if ref is not None:
                err_new = _norm(x_new - ref.x)
                if err > err_floor:
                    err_ratio = err_new / err
                err = err_new
            append((f, gnorm, outcome.t, math.nan if outcome.eta is None else outcome.eta,
                    outcome.kind, co.evals_f, co.evals_g, co.evals_hv,
                    time.perf_counter() - started, err_ratio))
            x, f, g, point = x_new, f_new, g_new, point_new
    except NumericalError as exc:
        return _end("numerical_error", str(exc))


def t_settle_index(ts: Sequence[float]) -> Optional[int]:
    """Smallest index k0 from which |t - 1| < 0.1 holds for at least 80%
    of the remaining step sizes; None when no such index exists."""
    ts = np.asarray(ts, dtype=float)
    if ts.size == 0:
        return None
    near = np.abs(ts - 1.0) < T_NEAR_ONE_TOL
    for k0 in range(ts.size):
        tail = near[k0:]
        if tail.mean() >= T_NEAR_ONE_FRACTION:
            return k0
    return None


@dataclass(frozen=True)
class SuperlinearReport:
    t_stats_applicable: bool
    settle_index: Optional[int]     # None when never settled or not applicable
    iterations: int
    tail_ratios: tuple[float, ...]  # last <= 5 measurable error ratios
    tail_below_half: bool           # all of the final 5 ratios < 0.5
    final_ratio: Optional[float]


def superlinear_report(trace: Trace) -> SuperlinearReport:
    """Step-size settling and iterate-error-ratio diagnostics.

    Requires a reference optimum on the trace config. Step statistics
    are marked not-applicable for constant step rules.
    """
    if trace.config.reference is None:
        raise ValueError("superlinear_report needs a reference optimum")
    applicable = not isinstance(trace.config.step, Constant)
    ts = trace.step_sizes()
    settle = t_settle_index(ts) if applicable else None
    ratios = [r[9] for r in trace._rows if r[9] is not None]
    tail = tuple(ratios[-5:])
    below = len(tail) == 5 and all(r < 0.5 for r in tail)
    return SuperlinearReport(
        t_stats_applicable=applicable,
        settle_index=settle,
        iterations=trace.iterations,
        tail_ratios=tail,
        tail_below_half=below,
        final_ratio=ratios[-1] if ratios else None,
    )
