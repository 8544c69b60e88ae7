"""Fault injection: one NaN or infinity in one oracle result, or one
request that raises NumericalError, wherever a run makes it, ends the
run as numerical_error, with finite records before the terminal one and
without raising; the CLI exits 1 on it."""

import math

import numpy as np
import pytest

import adaptqn.cli
from adaptqn import (Adaptive, ArmijoWolfe, BfgsDense, Constant, GradientDescent,
                     HessVecRay, Hybrid, LBfgs, Newton, NumericalError, ObjectiveOracle,
                     OnlineSampler, QuadraticObjective, RunConfig, draw_batch,
                     make_sparse_beta, make_synthetic_sigma, run)
from adaptqn.cli import main

# the requests a run makes; "solve" is a point's newton(), Newton's solve
KINDS = ("value", "gradient", "hess_vec", "solve")
BAD = (np.nan, np.inf, -np.inf)
RAISE = "raise"  # a Fault's bad value that raises in place of returning
DIRECTIONS = {"gd": GradientDescent(), "newton": Newton(), "bfgs": BfgsDense(),
              "lbfgs": LBfgs(memory=3)}

# arithmetic on the injected NaN and infinities warns on its way to the check
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


class Fault:
    """Spoils the k-th result of one kind of request, counting the
    requests of each kind over every point of the oracles sharing it.
    A vector result gets the bad value in its first entry; with
    bad=RAISE the request raises NumericalError instead."""

    def __init__(self, kind=None, k=0, bad=np.nan):
        self.kind, self.k, self.bad = kind, k, bad
        self.calls = dict.fromkeys(KINDS, 0)

    def __call__(self, kind, result):
        self.calls[kind] += 1
        if kind != self.kind or self.calls[kind] != self.k:
            return result
        if self.bad is RAISE:
            raise NumericalError(f"injected into {kind} #{self.k}")
        if np.ndim(result) == 0:
            return self.bad
        result = np.array(result, dtype=float)
        result[0] = self.bad
        return result


class FaultyPoint:
    def __init__(self, oracle, x, inner, fault):
        self._oracle, self._x, self._inner, self._fault = oracle, x, inner, fault

    def value(self):
        return self._fault("value", self._inner.value())

    def gradient(self):
        return self._fault("gradient", self._inner.gradient())

    def newton(self):
        return self._fault("solve", self._inner.newton())

    def ray(self, d):
        # the generic ray over the inner ray's G d, so that its curvature
        # is a spoilable hess_vec and its points are faulty points
        inner = self._inner.ray(d)
        return HessVecRay(self._oracle, self._x, d,
                          lambda d: self._fault("hess_vec", inner.hess_vec()))


class FaultyOracle(ObjectiveOracle):
    def __init__(self, inner, fault):
        self.inner, self.fault = inner, fault

    @property
    def dim(self):
        return self.inner.dim

    def at(self, x):
        return FaultyPoint(self, x, self.inner.at(x), self.fault)


def quadratic():
    rng = np.random.default_rng(21)
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    return QuadraticObjective((q * np.linspace(0.5, 2.0, 5)) @ q.T, rng.standard_normal(5))


def fixed_run(config, fault):
    return run(config, FaultyOracle(quadratic(), fault))


def batch_run(config, fault):
    p = 6
    sampler = OnlineSampler(make_synthetic_sigma(p, seed=3), make_sparse_beta(p, seed=4),
                            1.0 / p, seed=5)
    measure = FaultyOracle(sampler.expected_objective(), fault)
    return run(config, measure, batches=lambda k: FaultyOracle(draw_batch(sampler, 8), fault))


def check_every_fault_ends_numerical_error(config, run_with):
    """Spoil the first, the middle and the last request of each kind that
    a clean run makes, with NaN, +inf and -inf in turn, and make each of
    them raise."""
    clean = Fault()
    run_with(config, clean)
    spoiled = 0
    for kind in KINDS:
        n = clean.calls[kind]
        for k, bad in zip(sorted({1, (n + 1) // 2, n}) if n else [], BAD):
            for spoil in (bad, RAISE):
                trace = run_with(config, Fault(kind, k, spoil))
                where = f"{kind} #{k} of {n} = {spoil}"
                assert trace.termination.kind == "numerical_error", (where, trace.termination)
                if spoil is RAISE:
                    assert trace.termination.detail == f"injected into {kind} #{k}", where
                for r in trace.records[:-1]:
                    assert math.isfinite(r.f) and math.isfinite(r.gnorm), (where, r)
                    assert math.isfinite(r.t), (where, r)
                spoiled += 1
    assert spoiled >= 8


@pytest.mark.parametrize("step", [Adaptive(), ArmijoWolfe(), Hybrid(), Constant(0.5)],
                         ids=["adaptive", "armijo-wolfe", "hybrid", "constant"])
@pytest.mark.parametrize("direction", sorted(DIRECTIONS))
def test_fault_on_a_fixed_oracle_ends_numerical_error(direction, step):
    config = RunConfig(direction=DIRECTIONS[direction], step=step, max_iters=60)
    check_every_fault_ends_numerical_error(config, fixed_run)


@pytest.mark.parametrize("step", [Adaptive(), Constant(0.05)], ids=["adaptive", "constant"])
@pytest.mark.parametrize("direction", sorted(DIRECTIONS))
def test_fault_on_batches_ends_numerical_error(direction, step):
    config = RunConfig(direction=DIRECTIONS[direction], step=step, max_iters=30)
    check_every_fault_ends_numerical_error(config, batch_run)


@pytest.mark.parametrize("method, kind", [("gd-a", "gradient"), ("bfgs-ls", "value"),
                                          ("lbfgs-a", "hess_vec"), ("newton-a", "solve")])
def test_cli_run_exits_1_on_a_fault(tmp_path, monkeypatch, method, kind):
    build = adaptqn.cli._build_oracle
    monkeypatch.setattr(adaptqn.cli, "_build_oracle",
                        lambda args: FaultyOracle(build(args), Fault(kind, 2, np.nan)))
    rc = main(["run", "--method", method, "--synthetic-quadratic", "dim=4",
               "--out", str(tmp_path)])
    assert rc == 1
