"""Each CLI method's kernel work, pinned: calls of the kernels that do
its heavy work, counted over a run of ITERS iterations on a small
sparse, a small wide and a small online problem. Counts do not depend
on the host's speed or on whether the process's worker runs, so a
change in one is a change in the work itself."""

import numpy as np
import pytest

from adaptqn import (LogisticObjective, OnlineSampler, directions, make_sparse_beta,
                     make_synthetic_sigma, oracles, parse_libsvm, run, stochastic,
                     stochastic_run, synth_logistic)
from adaptqn.cli import DETERMINISTIC_METHODS, STOCHASTIC_METHODS, run_config, stoch_config
from conftest import use_cpus

ITERS = 3

# The counted kernels: (name, [(owner, attribute), ...]); a kernel that
# two modules import by name is counted at both.
KERNELS = (
    ("product", [(oracles, "_product")]),
    ("spd_solve", [(oracles, "spd_solve"), (stochastic, "spd_solve"),
                   (oracles, "_spd_solve_in_place")]),
    ("bfgs_update", [(directions, "bfgs_update_dense")]),
    ("two_loop", [(directions, "two_loop_direction")]),
    ("exp_pass", [(oracles._LogisticPoint, "__init__")]),
    ("normals", [(stochastic.OnlineSampler, "_normals")]),
)


def sparse_problem():
    """80 rows of 3 entries among 12 features (n <= N), from LIBSVM text."""
    rng = np.random.default_rng(8)
    lines = []
    for _ in range(80):
        cols = np.sort(rng.choice(12, size=3, replace=False)) + 1
        vals = rng.standard_normal(3)
        label = "+1" if vals.sum() + rng.standard_normal() > 0 else "-1"
        lines.append(label + "".join(f" {c}:{v:.3f}" for c, v in zip(cols, vals)))
    return LogisticObjective(parse_libsvm("\n".join(lines)))


def wide_problem():
    """40 dense rows of 150 features (n > N)."""
    return LogisticObjective(synth_logistic(40, 150, seed=5, feature_decay=0.998))


def deterministic(make):
    def go(method):
        obj = make()
        return run(run_config(method, dim=obj.dim, grad_tol=1e-300, max_iters=ITERS), obj)
    return go


def online(method):
    p = 10
    sampler = OnlineSampler(make_synthetic_sigma(p, seed=3), make_sparse_beta(p, seed=12),
                            1.0 / p, seed=7)
    kernel, schedule, step = stoch_config(method, p=p)
    return stochastic_run(kernel, schedule, step, sampler, x0=np.zeros(p), budget=ITERS)


PROBLEMS = {"sparse": deterministic(sparse_problem), "wide": deterministic(wide_problem),
            "online": online}

# (method, problem) -> calls of each kernel, in the order of KERNELS,
# over a run of ITERS iterations: the deterministic methods on both
# logistic problems, the stochastic ones on the online problem.
#                              product, spd_solve, bfgs_update, two_loop, exp_pass, normals
COUNTS = {
    ("gd-a", "sparse"):          (8, 0, 0, 0, 4, 0),
    ("gd-ls", "sparse"):         (12, 0, 0, 0, 8, 0),
    ("newton-a", "sparse"):      (8, 3, 0, 0, 4, 0),
    ("bfgs-a", "sparse"):        (8, 0, 3, 0, 4, 0),
    ("bfgs-ls", "sparse"):       (12, 0, 3, 0, 8, 0),
    ("bfgs-h", "sparse"):        (8, 0, 3, 0, 10, 0),
    ("lbfgs-a", "sparse"):       (8, 0, 0, 3, 4, 0),
    ("lbfgs-ls", "sparse"):      (12, 0, 0, 3, 8, 0),
    ("gd-a", "wide"):            (8, 0, 0, 0, 4, 0),
    ("gd-ls", "wide"):           (10, 0, 0, 0, 6, 0),
    ("newton-a", "wide"):        (8, 3, 0, 0, 4, 0),
    ("bfgs-a", "wide"):          (8, 0, 3, 0, 4, 0),
    ("bfgs-ls", "wide"):         (10, 0, 3, 0, 6, 0),
    ("bfgs-h", "wide"):          (8, 0, 3, 0, 5, 0),
    ("lbfgs-a", "wide"):         (8, 0, 0, 3, 4, 0),
    ("lbfgs-ls", "wide"):        (10, 0, 0, 3, 6, 0),
    ("sgd-a", "online"):         (0, 0, 0, 0, 0, 3),
    ("sgd-1", "online"):         (0, 0, 0, 0, 0, 3),
    ("sgd-2", "online"):         (0, 0, 0, 0, 0, 3),
    ("sgd-3", "online"):         (0, 0, 0, 0, 0, 3),
    ("sgd-4", "online"):         (0, 0, 0, 0, 0, 3),
    ("sn-a", "online"):          (0, 3, 0, 0, 0, 3),
    ("sn-1", "online"):          (0, 3, 0, 0, 0, 3),
    ("sbfgs-a", "online"):       (0, 0, 3, 0, 0, 3),
    ("sbfgs-1", "online"):       (0, 0, 3, 0, 0, 3),
}


def counted_run(monkeypatch, method, problem):
    """The trace of the method's run on the problem, and its kernel counts."""
    counts = dict.fromkeys((name for name, _ in KERNELS), 0)
    for name, places in KERNELS:
        for owner, attr in places:
            def counted(*args, _inner=getattr(owner, attr), _name=name, **kwargs):
                counts[_name] += 1
                return _inner(*args, **kwargs)
            monkeypatch.setattr(owner, attr, counted)
    trace = PROBLEMS[problem](method)
    return trace, counts


def test_the_table_covers_every_cli_method():
    assert [m for m, problem in COUNTS if problem == "sparse"] == list(DETERMINISTIC_METHODS)
    assert [m for m, problem in COUNTS if problem == "wide"] == list(DETERMINISTIC_METHODS)
    assert [m for m, problem in COUNTS if problem == "online"] == list(STOCHASTIC_METHODS)


@pytest.mark.parametrize("cpus", [1, 2], ids=["one-cpu", "two-cpus-parallel"])
@pytest.mark.parametrize("method, problem", list(COUNTS))
def test_each_method_does_its_pinned_kernel_work(monkeypatch, method, problem, cpus):
    use_cpus(monkeypatch, cpus)
    monkeypatch.setattr(oracles, "SPLIT_NNZ", 0)  # where the worker runs, every product splits
    trace, counts = counted_run(monkeypatch, method, problem)
    assert trace.iterations == ITERS, trace.termination
    pinned = dict(zip(counts, COUNTS[method, problem]))
    moved = [f"{method} on the {problem} problem: {name} made {counts[name]} calls, "
             f"pinned {pinned[name]}" for name in counts if counts[name] != pinned[name]]
    assert not moved, "; ".join(moved)
