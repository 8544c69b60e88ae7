import os

import numpy as np
import pytest
from hypothesis import settings

from adaptqn import (Adaptive, BfgsDense, Hybrid, LogisticObjective, Newton,
                     ObjectiveOracle, ReferenceOptimum, RunConfig, run, synth_logistic)

# The fixed desk-scale problem shared by the acceptance suite: N=500,
# n=50, seed 38 (see tests/test_acceptance.py).
DESK_SEED = 38


@pytest.fixture(scope="session")
def desk_dataset():
    return synth_logistic(500, 50, seed=DESK_SEED)


@pytest.fixture(scope="session")
def desk_logistic(desk_dataset):
    return LogisticObjective(desk_dataset)


# Derandomized so the suite sees the same examples on every run.
property_test = settings(derandomize=True, database=None, deadline=None,
                         max_examples=100)


def use_cpus(monkeypatch, n):
    """Let the process see n usable CPUs: the rule by which a stochastic
    run draws ahead and a large sparse product is split."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def sym(H):
    """The full symmetric matrix held in the upper triangle of H."""
    return np.triu(H) + np.triu(H, 1).T


class NoSolvePoint:
    """A point of the wrapped oracle without ``newton``."""

    def __init__(self, inner):
        self.value, self.gradient, self.ray = inner.value, inner.gradient, inner.ray


class NoSolve(ObjectiveOracle):
    """``inner`` evaluated on points without the Newton direction."""

    def __init__(self, inner):
        self.inner = inner

    @property
    def dim(self):
        return self.inner.dim

    def at(self, x):
        return NoSolvePoint(self.inner.at(x))


def newton_polish(obj, x, iters=10):
    """Full-step Newton refinement; only valid from a near-optimal start."""
    x = np.asarray(x, dtype=float).copy()
    for _ in range(iters):
        x += obj.at(x).newton()
    return x


def compute_reference(obj) -> ReferenceOptimum:
    """Tight optimum via a hybrid-step Newton run plus full-step polish."""
    cfg = RunConfig(direction=Newton(), step=Hybrid(), grad_tol=1e-9, max_iters=500)
    warm = run(cfg, obj)
    assert warm.termination.kind == "grad_tol", warm.termination
    x_star = newton_polish(obj, warm.final_x)
    return ReferenceOptimum(x=x_star, f=obj.value(x_star))


@pytest.fixture(scope="session")
def desk_reference(desk_logistic):
    ref = compute_reference(desk_logistic)
    assert np.linalg.norm(desk_logistic.gradient(ref.x)) < 1e-10
    return ref


@pytest.fixture(scope="session")
def desk_bfgs_a_trace(desk_logistic, desk_reference):
    cfg = RunConfig(direction=BfgsDense(), step=Adaptive(),
                    grad_tol=1e-7, max_iters=5000, reference=desk_reference)
    return run(cfg, desk_logistic)
