"""The benchmark's three workloads.

Each workload makes its inputs from the seed (``make_inputs``, untimed),
turns them into a ready oracle or sampler (``setup``, timed as
``setup_s``), lists the method runs of its grid (``runs``: one callable
per run, each timing itself) and checks every result (``check``). The
calls mirror what ``adaptqn run``, ``adaptqn bench`` and ``adaptqn
stoch`` do with the same methods. Given a ``Tracer``, ``setup`` and the
runs also open the spans of the calls they make themselves;
``tracing.rebound`` adds the rest.
"""

from __future__ import annotations

import functools
import math
import os
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from adaptqn import (Adaptive, ArmijoWolfe, BfgsDense, ConstantBatch,
                     Constant, GrowingBatch, Hybrid, LBfgs, LogisticObjective,
                     Newton, OnlineSampler, RunConfig, default_lbfgs_memory,
                     load_libsvm, make_sparse_beta, make_synthetic_sigma, run,
                     stochastic_run, synth_logistic)
from adaptqn.stochastic import CONSTANT_STEP_SIZES

from tracing import TimedOracle, Tracer

# Stated accuracy of the deterministic workloads: ||g|| < GRAD_RTOL ||g(0)||.
# An absolute 1e-7 stalls the line searches under the B^2 N/4 scaling.
GRAD_RTOL = 1e-6
MAX_ITERS = 5000

# Different methods stop at different points inside the grad_tol ball, so
# their f differ by up to ||g||^2 / (2 mu) with mu the strong-convexity
# modulus; the check allows that plus this relative slack for rounding.
F_AGREE_RTOL = 1e-12


@dataclass(frozen=True)
class RunResult:
    """What one method run produced, reduced to what the checks compare."""

    method: str
    iters: int
    f: float
    gnorm: float
    termination: str
    detail: str
    skipped_pairs: int
    log_gap: Optional[float]
    seconds: float


def _result(method, trace, seconds) -> RunResult:
    final = trace.final
    return RunResult(method=method, iters=trace.iterations, f=final.f,
                     gnorm=final.gnorm, termination=trace.termination.kind,
                     detail=trace.termination.detail,
                     skipped_pairs=trace.skipped_pairs, log_gap=final.log_gap,
                     seconds=seconds)


def is_adaptive(method: str) -> bool:
    """``-a`` methods use the curvature-adaptive step; the rest (``-ls``,
    ``-h`` and constant steps) are the baselines."""
    return method.endswith("-a")


# ---------------------------------------------------------------------------
# deterministic logistic regression
# ---------------------------------------------------------------------------

def _det_config(method: str, n: int, grad_tol: float) -> RunConfig:
    family, _, suffix = method.partition("-")
    direction = {"bfgs": lambda: BfgsDense(),
                 "lbfgs": lambda: LBfgs(memory=default_lbfgs_memory(n)),
                 "newton": lambda: Newton()}[family]()
    step = {"a": Adaptive(), "ls": ArmijoWolfe(c1=0.1, c2=0.75), "h": Hybrid()}[suffix]
    return RunConfig(direction=direction, step=step, grad_tol=grad_tol,
                     max_iters=MAX_ITERS)


@dataclass
class LogisticProblem:
    oracle: LogisticObjective

    @functools.cached_property
    def grad_tol(self) -> float:
        """The stated accuracy. Its one gradient is the benchmark's own
        work: it is not timed, and it is first needed by an untraced grid."""
        return GRAD_RTOL * float(np.linalg.norm(self.oracle.gradient(np.zeros(self.oracle.dim))))


class _LogisticWorkload:
    methods: tuple[str, ...] = ()
    setup_is_consumed = False
    uses_driver = True

    def runs(self, problem: LogisticProblem, tracer: Optional[Tracer] = None) -> list:
        return [functools.partial(self._solve, problem, m, tracer) for m in self.methods]

    def _solve(self, problem: LogisticProblem, method: str,
               tracer: Optional[Tracer]) -> RunResult:
        oracle = problem.oracle
        config = _det_config(method, oracle.dim, problem.grad_tol)
        if tracer is None:
            t0 = time.perf_counter()
            trace = run(config, oracle)
        else:
            t0 = time.perf_counter()
            trace = tracer.call("driver.run", run, config,
                                TimedOracle(oracle, tracer, "oracles"))
        return _result(method, trace, time.perf_counter() - t0)

    def check(self, problem: LogisticProblem,
              results: list[RunResult]) -> list[tuple[int, str]]:
        """Every run ends ``grad_tol`` below the stated accuracy, and all
        methods reach the same optimum f within the strong-convexity bound.
        Returns (index of the run, what failed) pairs."""
        oracle, grad_tol = problem.oracle, problem.grad_tol
        failures = []
        for i, r in enumerate(results):
            if r.termination != "grad_tol":
                failures.append((i, f"{r.method}: ended {r.termination} {r.detail}".rstrip()))
            elif not r.gnorm <= grad_tol:
                failures.append((i, f"{r.method}: final gnorm {r.gnorm:.3e} > "
                                    f"grad_tol {grad_tol:.3e}"))
        done = [(i, r) for i, r in enumerate(results) if r.termination == "grad_tol"]
        if done:
            mu = oracle.sc_scale / oracle.data.N   # from the ||w||^2/2 term
            f_min = min(r.f for _, r in done)
            for i, r in done:
                allowed = r.gnorm ** 2 / (2.0 * mu) + F_AGREE_RTOL * abs(f_min)
                if not r.f - f_min <= allowed:
                    failures.append((i, f"{r.method}: f = {r.f!r} is {r.f - f_min:.3e} "
                                        f"above the grid's best f, allowed {allowed:.3e}"))
        return failures


class LogisticSparse(_LogisticWorkload):
    """10,000 x 200 CSR, 10 binary nonzeros per row, shaped like a9a/w8a;
    written as LIBSVM text and read back through ``load_libsvm``."""

    name = "logistic-sparse"
    methods = ("bfgs-a", "lbfgs-a", "bfgs-ls", "bfgs-h")
    N, n, nnz_per_row = 10_000, 200, 10

    def make_inputs(self, seed: int, workdir: str) -> str:
        rng = np.random.default_rng(seed)
        # Column popularity falls off like a power law, as in real sparse
        # sets; weighted sampling without replacement by exponential keys.
        popularity = 1.0 / np.arange(1, self.n + 1) ** 0.7
        keys = rng.exponential(size=(self.N, self.n)) / popularity
        cols = np.sort(np.argpartition(keys, self.nnz_per_row, axis=1)
                       [:, :self.nnz_per_row], axis=1)
        w_true = rng.standard_normal(self.n)
        margin = w_true[cols].sum(axis=1)
        margin = (margin - margin.mean()) / margin.std()
        labels = np.where(1.5 * margin + rng.standard_normal(self.N) >= 0, "+1", "-1")
        path = os.path.join(workdir, f"{self.name}-{seed}.svm")
        with open(path, "w", encoding="utf-8") as fh:
            for label, row in zip(labels, cols + 1):
                fh.write(label + " " + " ".join(f"{j}:1" for j in row) + "\n")
        return path

    def setup(self, path: str, tracer: Optional[Tracer] = None) -> LogisticProblem:
        if tracer is None:
            return LogisticProblem(LogisticObjective(load_libsvm(path)))
        ds = tracer.call("data_io.load_libsvm", load_libsvm, path)
        tracer.counters["data_io.load_libsvm.bytes"] += os.path.getsize(path)
        return LogisticProblem(tracer.call("oracles.construct", LogisticObjective, ds))


class LogisticWide(_LogisticWorkload):
    """synth_logistic(N=400, n=1500, feature_decay=0.998): every column
    carries signal, so n x n dense work dominates."""

    name = "logistic-wide"
    methods = ("bfgs-a", "lbfgs-a", "newton-a", "bfgs-ls")

    def make_inputs(self, seed: int, workdir: str):
        return synth_logistic(N=400, n=1500, seed=seed, feature_decay=0.998)

    def setup(self, ds, tracer: Optional[Tracer] = None) -> LogisticProblem:
        if tracer is None:
            return LogisticProblem(LogisticObjective(ds))
        return LogisticProblem(tracer.call("oracles.construct", LogisticObjective, ds))


# ---------------------------------------------------------------------------
# stochastic online least squares
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StochInputs:
    sigma: np.ndarray
    beta: np.ndarray
    stream_seeds: tuple[int, ...]


class StochOnline:
    """``adaptqn stoch`` defaults: p = 30, sigma seed 3, beta seed 12,
    3000 iterations, on sampling streams drawn from the workload seed."""

    name = "stoch-online"
    methods = ("sgd-a", "sn-a", "sbfgs-a", "sgd-1", "sbfgs-1")
    p, iters, streams = 30, 3000, 3
    # Each run advances its sampler's stream, so every grid needs new ones.
    setup_is_consumed = True
    uses_driver = False

    def make_inputs(self, seed: int, workdir: str) -> StochInputs:
        seeds = np.random.SeedSequence(seed).generate_state(self.streams)
        return StochInputs(sigma=make_synthetic_sigma(self.p, seed=3),
                           beta=make_sparse_beta(self.p, seed=12),
                           stream_seeds=tuple(int(s) for s in seeds))

    def setup(self, inputs: StochInputs, tracer: Optional[Tracer] = None) -> list:
        """One fresh sampler per (stream, method), as ``adaptqn stoch``
        builds one per method; each run consumes its sampler's stream."""
        return [[OnlineSampler(inputs.sigma, inputs.beta, 1.0 / self.p, seed=s)
                 for _ in self.methods] for s in inputs.stream_seeds]

    def runs(self, samplers: list, tracer: Optional[Tracer] = None) -> list:
        return [functools.partial(self._solve, sampler, method, tracer)
                for stream in samplers for sampler, method in zip(stream, self.methods)]

    def _solve(self, sampler, method: str, tracer: Optional[Tracer]) -> RunResult:
        base, _, suffix = method.rpartition("-")
        kernel = {"sgd": "sgd", "sn": "snewton", "sbfgs": "sbfgs"}[base]
        if suffix == "a":
            step = Adaptive()
        else:
            step = Constant(CONSTANT_STEP_SIZES[f"alpha{suffix}"])
        if method.startswith("sgd-") and suffix != "a":
            schedule = ConstantBatch(size=math.ceil(0.5 * self.p))   # --batch small
        else:
            schedule = GrowingBatch(base=math.ceil(self.p / 2))
        args = (kernel, schedule, step, sampler, np.zeros(self.p), self.iters)
        if tracer is None:
            t0 = time.perf_counter()
            trace = stochastic_run(*args)
        else:
            expected = sampler.expected_objective
            sampler.expected_objective = lambda: TimedOracle(
                expected(), tracer, "stochastic.expected", per_method=False)
            t0 = time.perf_counter()
            trace = tracer.call("stochastic.stochastic_run", stochastic_run, *args)
        return _result(method, trace, time.perf_counter() - t0)

    def check(self, samplers, results: list[RunResult]) -> list[tuple[int, str]]:
        """Every run spends its whole budget and ends at a finite log gap;
        every adaptive method ends within 1 of the expected optimum.
        Returns (index of the run, what failed) pairs."""
        failures = []
        for i, r in enumerate(results):
            tag = f"{r.method}[stream {i // len(self.methods)}]"
            if r.termination != "max_iters" or r.iters != self.iters:
                failures.append((i, f"{tag}: ended {r.termination} after {r.iters} "
                                    f"iterations {r.detail}".rstrip()))
            if r.log_gap is None or not math.isfinite(r.log_gap):
                failures.append((i, f"{tag}: final log gap {r.log_gap}"))
            elif is_adaptive(r.method) and not r.log_gap < 0.0:
                failures.append((i, f"{tag}: final gap 10^{r.log_gap:.3f} is not below 1"))
        return failures


WORKLOADS = {w.name: w for w in (LogisticSparse(), LogisticWide(), StochOnline())}
