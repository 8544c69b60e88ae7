"""Spans recorded from outside the program.

Every span here is opened by the benchmark around a call into one of
adaptqn's layers: an oracle method reached through a timing proxy, or a
module-level function that ``driver``, ``stochastic``, ``directions``,
``oracles`` or ``data_io`` looks up by name and that ``rebound`` replaces
for the duration of one traced grid. Nothing inside ``src/adaptqn`` is
changed. A span's self time is its duration minus the durations of the
spans opened while it was open.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import importlib.util
import time
from collections import defaultdict


class Tracer:
    """Aggregates spans by name: calls, inclusive seconds, self seconds."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counters = defaultdict(float)
        self._children = []  # child seconds of each open span, innermost last

    def call(self, name, fn, *args, **kwargs):
        self._children.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            child = self._children.pop()
            self.calls[name] += 1
            self.total[name] += dt
            self.self_time[name] += dt - child
            if self._children:
                self._children[-1] += dt

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return timed


class TimedOracle:
    """Forwards to an objective oracle and records one span per call.

    Spans are named ``<prefix>.<method>`` when ``per_method`` is true,
    else ``<prefix>``. Attributes other than the four oracle methods
    (``dim``, ``has_hessian``, ``sigma``, ...) are read from the wrapped
    oracle unchanged, so the program computes exactly what it would
    without the proxy.
    """

    def __init__(self, inner, tracer: Tracer, prefix: str, per_method: bool = True):
        self._inner = inner
        self._tracer = tracer
        self._names = {m: f"{prefix}.{m}" if per_method else prefix
                       for m in ("value", "gradient", "hess_vec", "dense_hessian")}

    @property
    def dim(self):
        return self._inner.dim

    @property
    def has_hessian(self):
        return self._inner.has_hessian

    def __getattr__(self, attr):
        return getattr(self._inner, attr)

    def value(self, x):
        return self._tracer.call(self._names["value"], self._inner.value, x)

    def gradient(self, x):
        return self._tracer.call(self._names["gradient"], self._inner.gradient, x)

    def hess_vec(self, x, d):
        return self._tracer.call(self._names["hess_vec"], self._inner.hess_vec, x, d)

    def dense_hessian(self, x):
        return self._tracer.call(self._names["dense_hessian"], self._inner.dense_hessian, x)


def _kernel_bytes(name, args):
    """Bytes of every operand read plus every result written, each counted
    once, from the array sizes (nnz, N, n) alone: computed, not measured."""
    if name == "kernels.row_sq_norms":
        indptr, data = args[:2]
        return indptr.nbytes + data.nbytes + 8 * (indptr.shape[0] - 1)
    indptr, indices, data, vec = args[:4]
    base = indptr.nbytes + indices.nbytes + data.nbytes + vec.nbytes
    if name == "kernels.matvec":
        return base + 8 * (indptr.shape[0] - 1)
    n_cols = args[4]
    if name == "kernels.rmatvec":
        return base + 8 * n_cols
    return base + 8 * n_cols * n_cols  # weighted_gram writes a dense n x n


def _kernel(tracer, fn, name):
    def timed(*args):
        tracer.counters["kernels.bytes"] += _kernel_bytes(name, args)
        return tracer.call(name, fn, *args)
    return timed


def _choose_step(tracer, fn):
    def timed(rule, *args):
        before = tracer.calls["oracles.value"]
        outcome = tracer.call("steps.choose_step", fn, rule, *args)
        trials = tracer.calls["oracles.value"] - before
        c = tracer.counters
        c["steps.trial_points"] += trials
        # A hybrid fallback takes the adaptive step after rejecting every
        # candidate; a line search accepts its last trial point.
        c["steps.accepted_trials"] += trials > 0 and outcome.kind != "hybrid_fallback"
        c["steps.warnings"] += bool(outcome.warning)
        if outcome.kind.startswith("hybrid"):
            c["steps.hybrid"] += 1
            c["steps.hybrid_fallback"] += outcome.kind == "hybrid_fallback"
        return outcome
    return timed


def _draw_batch(tracer, fn):
    def timed(sampler, size):
        tracer.counters["stochastic.draw_batch.samples"] += size
        batch = tracer.call("stochastic.draw_batch", fn, sampler, size)
        return TimedOracle(batch, tracer, "stochastic.batch_oracle", per_method=False)
    return timed


def _sbfgs_pair_update(tracer, fn):
    def timed(*args):
        H, accepted = tracer.call("stochastic.sbfgs_pair_update", fn, *args)
        tracer.counters["stochastic.sbfgs_pair_update.rejected"] += not accepted
        return H, accepted
    return timed


def _plain(name):
    return lambda tracer, fn: tracer.wrap(name, fn)


# (module, attribute the module looks up at call time, wrapper factory)
_REBINDINGS = [
    ("adaptqn.driver", "compute_direction", _plain("directions.compute_direction")),
    ("adaptqn.driver", "choose_step", _choose_step),
    ("adaptqn.driver", "ingest_pair", _plain("directions.ingest_pair")),
    ("adaptqn.directions", "two_loop_direction", _plain("directions.two_loop_direction")),
    ("adaptqn.directions", "bfgs_update_dense", _plain("directions.bfgs_update_dense")),
    ("adaptqn.stochastic", "draw_batch", _draw_batch),
    ("adaptqn.stochastic", "sbfgs_pair_update", _sbfgs_pair_update),
]

# The CSR kernels as ``oracles`` and ``data_io`` import them; skipped once
# the ``adaptqn.kernels`` module is gone.
_KERNEL_REBINDINGS = [
    ("adaptqn.oracles", "csr_matvec", "kernels.matvec"),
    ("adaptqn.oracles", "csr_rmatvec", "kernels.rmatvec"),
    ("adaptqn.oracles", "csr_weighted_gram", "kernels.weighted_gram"),
    ("adaptqn.data_io", "csr_row_sq_norms", "kernels.row_sq_norms"),
]


def kernels_present() -> bool:
    return importlib.util.find_spec("adaptqn.kernels") is not None


@contextlib.contextmanager
def rebound(tracer: Tracer):
    """Replace the layer entry points with span-recording wrappers, and
    restore the originals on exit. Names a module no longer has are
    skipped; their metrics then read zero."""
    plan = list(_REBINDINGS)
    if kernels_present():
        plan += [(m, a, functools.partial(_kernel, name=n))
                 for m, a, n in _KERNEL_REBINDINGS]
    saved = []
    try:
        for mod_name, attr, make in plan:
            mod = importlib.import_module(mod_name)
            if not hasattr(mod, attr):
                continue
            original = getattr(mod, attr)
            saved.append((mod, attr, original))
            setattr(mod, attr, make(tracer, original))
        yield tracer
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)
