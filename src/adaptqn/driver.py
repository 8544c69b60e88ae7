"""The optimization loop over DirectionRule x StepRule, on a fixed
oracle or on one sampled per iteration, with per-iteration tracing and
post-run step-size/convergence diagnostics."""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Integral
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .directions import (MAX_DENSE_DIM, NO_NEWTON, BfgsDense, DirectionRule, LBfgs,
                         Newton, compute_direction, ingest_pair, new_state)
from .errors import NumericalError
from .oracles import ObjectiveOracle
from .steps import Adaptive, Constant, StepRule, choose_step

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
        if not (isinstance(self.max_iters, Integral) and self.max_iters >= 0):
            raise ValueError(f"max_iters must be a non-negative whole number, got {self.max_iters!r}")
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
    """What one ``run`` did, built once, when the run ends. ``config`` is
    the RunConfig that was run; a stochastic run's method shows as its
    direction.

    The run stores one row per step plus a terminal one: a tuple of the
    IterationRecord fields f, gnorm, t, eta, step_kind, cum_evals_f,
    cum_evals_g, cum_evals_hv, elapsed and err_ratio. k is the row index
    and log_gap follows from f and the reference on read. ``rows()``
    gives every record's fields without building it, ``records`` is a
    cached property that builds the IterationRecords on first read, and
    ``final`` builds the terminal one alone. ``warnings`` counts the line
    searches that ran out of evaluations, and ``skipped_pairs`` the
    curvature pairs the quasi-Newton update refused."""

    config: RunConfig
    termination: Termination
    final_x: np.ndarray
    skipped_pairs: int
    warnings: int
    _rows: list[tuple] = field(repr=False)

    def _fields(self, k: int) -> tuple:
        r = self._rows[k]
        return (k, *r[:9], _log_gap(r[0], self.config.reference), r[9])

    def rows(self) -> Iterator[tuple]:
        """Every record's field values, in IterationRecord's order."""
        return map(self._fields, range(len(self._rows)))

    @cached_property
    def records(self) -> list[IterationRecord]:
        return [IterationRecord(*v) for v in self.rows()]

    @property
    def iterations(self) -> int:
        """Number of steps taken (terminal record excluded)."""
        return max(len(self._rows) - 1, 0)

    @property
    def final(self) -> IterationRecord:
        return IterationRecord(*self._fields(len(self._rows) - 1))

    def step_sizes(self) -> np.ndarray:
        return np.array([r[2] for r in self._rows[:-1]])


def _log_gap(f: float, ref: Optional[ReferenceOptimum]) -> Optional[float]:
    if ref is None:
        return None
    gap = f - ref.f
    return math.log10(gap) if gap > 0 else None


def check_config(config: RunConfig, oracle: ObjectiveOracle) -> None:
    """Raise ValueError if ``run`` refuses ``config`` on ``oracle`` up
    front: a dimension too large for any float64 vector, an x0 of the
    wrong shape or dense BFGS above ``MAX_DENSE_DIM``. Checks nothing
    about batches, nor the points' ``newton`` for Newton, which ``run``
    checks on its point at x0."""
    n = oracle.dim
    if n > sys.maxsize // 8:
        raise ValueError(f"dimension n = {n} is too large for a float64 vector")
    if config.x0 is not None and np.shape(config.x0) != (n,):
        raise ValueError(f"x0 has shape {np.shape(config.x0)}, oracle dimension is {n}")
    if isinstance(config.direction, BfgsDense) and n > MAX_DENSE_DIM:
        raise ValueError(f"dense BFGS refused for n = {n} > {MAX_DENSE_DIM}; use LBfgs")


def run(config: RunConfig, oracle: ObjectiveOracle, *,
        batches: Optional[Callable[[int], ObjectiveOracle]] = None) -> Trace:
    """Iterate x <- x + t d per the configured rules until the gradient
    threshold, iteration cap, time cap, or a numerical error. Every
    ``NumericalError``, including one at ``x0``, ends the run as
    ``numerical_error`` in ``Trace.termination``; a configuration it
    refuses raises ``ValueError``. Shapes are checked at x0 and by every
    ``at`` and ``ray``; finiteness on scalars only (f, ||g||,
    rho, t, d'Gd and a batch pair's s'y), and a batch gradient or G d is
    scanned just to name the fault after one of them failed.

    ``batches``, when given, maps iteration k to the oracle that chooses
    that iteration's direction and step, such as a freshly sampled
    batch. ``oracle`` then only measures the recorded f and ||g||. A
    quasi-Newton update then takes the pair (d, G_k d) from batch k,
    since a secant pair across two batches would measure their
    difference, not curvature. The gradient threshold, the
    monotone-decrease check and the stall test hold for a fixed oracle
    only; a run on batches stops on its budget or on a numerical error.

    The trace's eval counts are the f, g and G d requests. On a fixed
    oracle that is all of them: at x0, in the step rule, at each new
    point where the rule supplied none, and the terminal f. On batches
    it is each batch's gradient and G d, not the measurements on
    ``oracle``. A step rule reports its own requests in its
    ``StepOutcome``; a rule that raises returns none, so its requests
    go uncounted.
    """
    check_config(config, oracle)
    n = oracle.dim
    x = np.zeros(n) if config.x0 is None else np.asarray(config.x0, dtype=float).copy()
    fixed = batches is None
    if not (fixed or isinstance(config.step, (Adaptive, Constant))):
        # a line search would compare batch trial values with the measured f
        raise ValueError("a run on batches needs an Adaptive or Constant step")

    ref = config.reference
    state = new_state(config.direction, n)
    rows = []
    append = rows.append
    started = time.perf_counter()
    monotone = fixed and not isinstance(config.step, Constant)
    pairs = isinstance(config.direction, (BfgsDense, LBfgs))  # GD and Newton keep none
    warnings = nf = ng = nhv = 0  # nf, ng, nhv: the eval counts
    if ref is not None:
        # sqrt(v.dot(v)) is np.linalg.norm(v) bit for bit, without its call overhead
        err_floor = _MEASURABLE_RTOL * (1.0 + math.sqrt(ref.x.dot(ref.x)))
        err = math.sqrt((e := x - ref.x).dot(e))

    k, f, gnorm, step_g = 0, math.nan, math.nan, None

    def _end(kind: str, detail: str = "") -> Trace:
        append((f, gnorm, math.nan, math.nan, "terminal", nf, ng, nhv,
                time.perf_counter() - started, None))
        return Trace(config, Termination(kind, detail), x, state.skipped, warnings, rows)

    try:
        point = oracle.at(x)
        # a batch point is checked where Newton takes its direction
        if fixed and isinstance(config.direction, Newton) and not hasattr(point, "newton"):
            raise ValueError(NO_NEWTON)
        nf += fixed
        f = point.value()
        ng += fixed
        g = point.gradient()
        elapsed = time.perf_counter() - started  # the time cap reads the row before
        for k in range(config.max_iters + 1):
            gnorm = math.sqrt(g.dot(g))
            converged = fixed and gnorm < config.grad_tol
            if converged:  # f is re-evaluated at the terminal point once, and counted
                nf += 1
                f = point.value()
            if not (math.isfinite(f) and math.isfinite(gnorm)):
                raise NumericalError(f"non-finite f = {f} or ||g|| = {gnorm} at k={k}")
            if converged:
                return _end("grad_tol")
            if k >= config.max_iters:
                return _end("max_iters")
            if elapsed > config.max_seconds:
                return _end("time_budget")

            if fixed:
                step_oracle, step_point, step_g = oracle, point, g
            else:
                step_oracle = batches(k)
                step_point = step_oracle.at(x)
                ng += 1
                step_g = step_point.gradient()  # not scanned: see the except clause

            d, rho = compute_direction(state, step_point, step_g)
            ray = step_point.ray(d)
            # positional: wrappers of choose_step may forward *args only
            outcome = choose_step(config.step, step_oracle, x, d, f, rho, ray)
            warnings += outcome.warning
            nf += outcome.evals_f
            ng += outcome.evals_g
            nhv += outcome.evals_hv
            if not math.isfinite(outcome.t):  # compute_direction checked rho
                raise NumericalError(f"non-finite t = {outcome.t} at k={k}")

            x_new = x + outcome.t * d
            # as (x_new == x).all() (±0 equal, NaN not), but with no ufunc call
            if fixed and x_new.data == x.data:
                # t*d fell below the resolution of x; the loop is deterministic,
                # so no future iteration can make progress either
                raise NumericalError(f"step stalled below floating-point resolution at k={k} "
                                     f"(t={outcome.t:.3e})")
            if outcome.point is not None:
                point_new = outcome.point
            elif fixed:  # the ray's point at x_new reuses the ray's work
                point_new = ray.at(outcome.t)
            else:
                point_new = oracle.at(x_new)
            nf += fixed and outcome.f_new is None
            f_new = outcome.f_new if outcome.f_new is not None else point_new.value()
            ng += fixed and outcome.g_new is None
            g_new = outcome.g_new if outcome.g_new is not None else point_new.gradient()

            if monotone and f_new > f + 1e-10 * (1.0 + abs(f)):
                raise NumericalError(f"monotone decrease violated at k={k}: {f} -> {f_new}")

            if pairs and fixed:
                ingest_pair(state, x_new - x, g_new - g)
            elif pairs:
                nhv += not outcome.evals_hv  # unless the step rule counted its ray's G d
                hv = ray.hess_vec()
                # a non-finite G d fails the s'y guard: only a refused pair is scanned
                if not ingest_pair(state, d, hv) and not np.isfinite(hv).all():
                    raise NumericalError(f"non-finite batch G d at k={k}")

            err_ratio = None
            if ref is not None:
                err_new = math.sqrt((e := x_new - ref.x).dot(e))
                if err > err_floor:
                    err_ratio = err_new / err
                err = err_new
            elapsed = time.perf_counter() - started
            append((f, gnorm, outcome.t, math.nan if outcome.eta is None else outcome.eta,
                    outcome.kind, nf, ng, nhv, elapsed, err_ratio))
            x, f, g, point = x_new, f_new, g_new, point_new
    except NumericalError as exc:
        # a non-finite batch gradient makes rho = -g'd non-finite: only then is it scanned
        if not (fixed or step_g is None or np.isfinite(step_g).all()):
            return _end("numerical_error", f"non-finite batch gradient at k={k}")
        return _end("numerical_error", str(exc))


def t_settle_index(ts: Sequence[float]) -> Optional[int]:
    """Smallest index k0 from which |t - 1| < 0.1 holds for at least 80%
    of the remaining step sizes; None when no such index exists."""
    ts = np.asarray(ts, dtype=float)
    near = np.abs(ts - 1.0) < T_NEAR_ONE_TOL
    # the share of near-one steps in each tail near[k0:], as its mean() reads it
    share = np.cumsum(near[::-1])[::-1] / np.arange(ts.size, 0, -1)
    settled = np.flatnonzero(share >= T_NEAR_ONE_FRACTION)
    return int(settled[0]) if settled.size else None


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
