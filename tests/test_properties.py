"""Property tests of the paper's per-iteration guarantees for the
adaptive step, over random SPD quadratics and small logistic problems:
the omega decrease, Armijo with c1 = 1/2, t*delta = eta/(1+eta) < 1,
and an honest termination kind."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import adaptqn.driver as driver
from adaptqn import (Adaptive, BfgsDense, GradientDescent, LogisticObjective,
                     QuadraticObjective, RunConfig, choose_step, omega, run,
                     synth_logistic)
from conftest import property_test

TERMINATION_KINDS = {"grad_tol", "max_iters", "time_budget", "numerical_error"}
DIRECTIONS = {"gd-a": GradientDescent(), "bfgs-a": BfgsDense()}


@st.composite
def spd_quadratics(draw):
    """x'Ax/2 + b'x with n from 1 to 12 and A's spectrum in [0.1, 10],
    and a random start."""
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = (q * rng.uniform(0.1, 10.0, size=n)) @ q.T
    return QuadraticObjective(A, rng.standard_normal(n)), rng.standard_normal(n)


@st.composite
def small_logistics(draw):
    """Scaled logistic loss on synth_logistic data, N from 10 to 80 and
    n from 1 to 10, started at 0."""
    N, n = draw(st.integers(10, 80)), draw(st.integers(1, 10))
    data = synth_logistic(N, n, seed=draw(st.integers(0, 2**16)))
    return LogisticObjective(data), np.zeros(n)


def run_recording_steps(config, obj):
    """``run`` plus, for every step it chose, rho = -g'd and the StepOutcome."""
    steps = []

    def recording(*args):
        outcome = choose_step(*args)
        steps.append((args[6], outcome))
        return outcome

    with mock.patch.object(driver, "choose_step", recording):
        trace = run(config, obj)
    return trace, steps


def check_adaptive_guarantees(obj, x0, method):
    config = RunConfig(direction=DIRECTIONS[method], step=Adaptive(), max_iters=300, x0=x0)
    trace, steps = run_recording_steps(config, obj)
    assert trace.termination.kind in TERMINATION_KINDS
    records = trace.records
    assert len(steps) >= len(records) - 1
    for rec, nxt, (rho, out) in zip(records, records[1:], steps):
        f0, f1, t, eta, delta = rec.f, nxt.f, rec.t, rec.eta, out.delta
        # f is evaluated to about one ulp; the margins can be smaller near the end
        slack = 1e-10 * (1.0 + abs(f0))
        assert f1 <= f0 - omega(eta) + slack
        assert f1 <= f0 - 0.5 * t * rho + slack  # Armijo, c1 = 1/2, g'd = -rho
        assert t * delta == pytest.approx(eta / (1.0 + eta), rel=1e-12)
        assert t * delta < 1.0


@property_test
@given(spd_quadratics(), st.sampled_from(sorted(DIRECTIONS)))
def test_adaptive_guarantees_on_random_quadratics(problem, method):
    check_adaptive_guarantees(*problem, method)


@property_test
@given(small_logistics(), st.sampled_from(sorted(DIRECTIONS)))
def test_adaptive_guarantees_on_small_logistic_problems(problem, method):
    check_adaptive_guarantees(*problem, method)
