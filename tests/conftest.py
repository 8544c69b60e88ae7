import numpy as np
import pytest

from adaptqn import (Adaptive, BfgsDense, Hybrid, LogisticObjective, Newton,
                     ReferenceOptimum, RunConfig, run, synth_logistic)

# The fixed desk-scale problem shared by the acceptance suite: N=500,
# n=50, seed 38 (see tests/test_acceptance.py).
DESK_SEED = 38


@pytest.fixture(scope="session")
def desk_dataset():
    return synth_logistic(500, 50, seed=DESK_SEED)


@pytest.fixture(scope="session")
def desk_logistic(desk_dataset):
    return LogisticObjective(desk_dataset)


def sym(H):
    """The full symmetric matrix held in the upper triangle of H."""
    return np.triu(H) + np.triu(H, 1).T


def newton_polish(obj, x, iters=10):
    """Full-step Newton refinement; only valid from a near-optimal start."""
    x = np.asarray(x, dtype=float).copy()
    for _ in range(iters):
        g = obj.gradient(x)
        x -= np.linalg.solve(obj.dense_hessian(x), g)
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
