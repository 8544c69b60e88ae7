"""The trace API over every way a run ends: the records built from the
stored rows, the terminal record, the step count and the CSV."""

import dataclasses
import math

import numpy as np
import pytest

from adaptqn import (Adaptive, BfgsDense, Constant, GradientDescent,
                     OnlineSampler, QuadraticObjective, ReferenceOptimum,
                     RunConfig, run, stochastic_run)
from adaptqn import driver
from adaptqn.cli import TRACE_HEADER, make_synthetic_quadratic, stoch_config, write_trace_csv
from adaptqn.stochastic import make_sparse_beta, make_synthetic_sigma


def _reference_csv(trace) -> str:
    """The trace CSV written record by record."""
    def fmt(v):
        return "" if v is None or isinstance(v, float) and math.isnan(v) else repr(float(v))

    lines = [TRACE_HEADER]
    for r in trace.records:
        lines.append(",".join([
            str(r.k), fmt(r.f), fmt(r.gnorm), fmt(r.t), fmt(r.eta), r.step_kind,
            str(r.cum_evals_f), str(r.cum_evals_g), str(r.cum_evals_hv),
            fmt(r.elapsed), fmt(r.log_gap), fmt(r.err_ratio)]))
    return "\n".join(lines) + "\n"


def _same(a, b) -> bool:
    return a == b or (isinstance(a, float) and isinstance(b, float)
                      and math.isnan(a) and math.isnan(b))


def _quadratic_with_reference():
    obj = make_synthetic_quadratic(6, cond=100.0, seed=4)
    x_star = np.linalg.solve(obj.A, -obj.b)
    return obj, ReferenceOptimum(x=x_star, f=obj.value(x_star))


def _grad_tol():
    obj, ref = _quadratic_with_reference()
    return run(RunConfig(BfgsDense(), Adaptive(), grad_tol=1e-9, reference=ref), obj)


def _max_iters():
    obj, ref = _quadratic_with_reference()
    return run(RunConfig(GradientDescent(), Adaptive(), grad_tol=1e-12, max_iters=7,
                         reference=ref), obj)


def _time_budget():
    obj, ref = _quadratic_with_reference()
    return run(RunConfig(GradientDescent(), Adaptive(), max_seconds=0.0, reference=ref), obj)


def _numerical_error_at_start():
    obj = QuadraticObjective(np.eye(3), np.array([1.0, np.nan, 0.0]))
    return run(RunConfig(GradientDescent(), Adaptive(), max_iters=50), obj)


def _numerical_error_mid_run():
    # x <- x - 3 (x + 1) doubles |x| every step until f overflows
    obj = QuadraticObjective(np.eye(2), np.ones(2))
    with np.errstate(over="ignore", invalid="ignore"):
        return run(RunConfig(GradientDescent(), Constant(3.0), max_iters=2000), obj)


def _batches():
    sampler = OnlineSampler(make_synthetic_sigma(8, seed=3), make_sparse_beta(8, seed=12),
                            lam=1.0 / 8, seed=7)
    kernel, schedule, step = stoch_config("sbfgs-a", p=8)
    return stochastic_run(kernel, schedule, step, sampler, np.zeros(8), 60)


# (how the run ends, the run)
ENDINGS = [
    ("grad_tol", _grad_tol),
    ("max_iters", _max_iters),
    ("time_budget", _time_budget),
    ("numerical_error", _numerical_error_at_start),
    ("numerical_error", _numerical_error_mid_run),
    ("max_iters", _batches),
]


@pytest.mark.parametrize("kind, make_run", ENDINGS,
                         ids=[make.__name__.lstrip("_") for _, make in ENDINGS])
def test_trace_api_on_every_ending(kind, make_run, tmp_path):
    trace = make_run()
    assert trace.termination.kind == kind
    records = trace.records
    assert trace.iterations == len(records) - 1
    assert [r.k for r in records] == list(range(len(records)))
    assert [r.step_kind for r in records].count("terminal") == 1
    final = trace.final
    for field in dataclasses.fields(final):
        assert _same(getattr(final, field.name), getattr(records[-1], field.name)), field.name
    np.testing.assert_array_equal(trace.step_sizes(), [r.t for r in records[:-1]])
    write_trace_csv(tmp_path / "trace.csv", trace)
    assert (tmp_path / "trace.csv").read_text() == _reference_csv(trace)


def test_a_run_builds_no_record_until_one_is_read(monkeypatch):
    built = []

    def counting(*args, **kwargs):
        built.append(record(*args, **kwargs))
        return built[-1]

    record = driver.IterationRecord
    monkeypatch.setattr(driver, "IterationRecord", counting)
    sampler = OnlineSampler(make_synthetic_sigma(30, seed=3), make_sparse_beta(30, seed=12),
                            lam=1.0 / 30, seed=7)
    kernel, schedule, step = stoch_config("sgd-1", p=30)
    trace = stochastic_run(kernel, schedule, step, sampler, np.zeros(30), 3000)
    assert trace.iterations == 3000 and len(built) == 0
    assert trace.final.k == 3000 and len(built) == 1
    # the records are built once, on first read
    assert len(trace.records) == 3001 and len(built) == 3002
    assert trace.records is trace.records and len(built) == 3002
