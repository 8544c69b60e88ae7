#!/usr/bin/env python3
"""adaptqn benchmark: time to a stated accuracy, split by layer.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload logistic-sparse --seed 1 --seconds 35 --trace 0

It imports adaptqn from ``src/`` of that checkout (nothing needs to be
installed), makes the workload's inputs from ``--seed``, times set-up,
then runs the workload's method grid again and again for ``--seconds``
and checks every run. ``--trace 0`` reports the end-to-end metrics of
``manifest.END_TO_END``, each built from per-method medians over the
grids, with times in seconds at the reference speed of
``reference.py`` (the wall times are printed as ``#`` lines);
``--trace 1`` alternates untraced and traced grids and reports
the per-layer metrics of ``manifest.PER_LAYER`` per grid. Lines starting
with ``#`` give the machine and figures that are not metrics; failed
checks go to standard error. The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. Exits 1
without a result when the checkout has no ``src/adaptqn``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One BLAS thread: on a small shared machine a second thread contends with
# the interpreter's own and made the dense workload both slower and noisier.
BLAS_THREADS = "1"


def _import_program():
    """Put the checkout's own ``src`` first on the path, so the benchmark
    measures the code beside it and never an installed copy."""
    if not (SRC / "adaptqn" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'adaptqn'} is missing; run from a checkout of adaptqn")
    sys.path.insert(0, str(SRC))
    import adaptqn
    if Path(adaptqn.__file__).resolve().parent != SRC / "adaptqn":
        sys.exit(f"error: imported adaptqn from {adaptqn.__file__}, not from {SRC}")


def machine() -> dict:
    """The machine and build a result was measured on."""
    import numpy
    import scipy

    from tracing import kernels_present
    numba = None
    if kernels_present():
        from adaptqn import kernels
        numba = kernels.USING_NUMBA
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "numba_active": numba,
            "blas_threads": blas_threads()}


def blas_threads():
    """Thread count of the OpenBLAS bundled with numpy, or None when it
    cannot be asked (another BLAS, or none of the known symbols)."""
    import ctypes
    import numpy
    libs = sorted(Path(numpy.__file__).resolve().parent.parent.glob("numpy.libs/*openblas*"))
    for lib in libs:
        dll = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------

class Runs:
    """Every method run of a benchmark process, with the failures found."""

    def __init__(self, workload):
        self.workload = workload
        self.grids = []        # list of list[RunResult], one per grid
        self.failures = []     # "grid g, <method>: what failed"
        self.failed_runs = set()

    def add(self, problem, results, tag="grid"):
        g = len(self.grids)
        self.grids.append(results)
        for i, msg in self.workload.check(problem, results):
            self.fail(g, i, f"{tag} {g}, {msg}")
        first = self.grids[0]
        for i, (a, b) in enumerate(zip(first, results)):
            if (a.iters, a.f) != (b.iters, b.f):
                self.fail(g, i, f"{tag} {g}, {b.method}: {b.iters} iterations to "
                                 f"f = {b.f!r}, grid 0 took {a.iters} to {a.f!r}")

    def fail(self, g, i, msg):
        self.failures.append(msg)
        self.failed_runs.add((g, i))

    @property
    def attempted(self):
        return sum(len(g) for g in self.grids)


# Before each method run, set-up is repeated until it has taken this long
# (at least once); setup_s is the median of all of them. Spread over the
# whole run like the solves, the samples do not reflect only the machine's
# state during one short stretch.
SETUP_SECONDS_PER_RUN = 0.05


def timed_setups(workload, inputs):
    times = []
    while sum(times) < SETUP_SECONDS_PER_RUN:
        t0 = time.perf_counter()
        problem = workload.setup(inputs)
        times.append(time.perf_counter() - t0)
    return problem, times


def untraced_grid(workload, inputs, loop, setup_times, reference_times):
    """One grid on a freshly set-up problem, with set-up and the
    workload's reference ``loop`` timed before every run."""
    problem, times = timed_setups(workload, inputs)
    setup_times += times
    results = []
    for i, run in enumerate(workload.runs(problem)):
        if i:
            setup_times += timed_setups(workload, inputs)[1]
        reference_times.append(loop())
        results.append(run())
    return problem, results


def grid_seconds(results):
    return sum(r.seconds for r in results)


def grid_estimate(grids, keep=lambda method: True) -> tuple[float, int]:
    """Seconds and iterations of one grid, over the methods ``keep`` accepts.

    A method's seconds are its median run time over every grid, times its
    runs per grid. All runs of one method do the same work (the same
    trajectory, or on another sampling stream the same batch sizes), and
    on a shared machine the median of many runs is steadier than the sum
    of one grid."""
    times, count, iters = defaultdict(list), defaultdict(int), 0
    for g, results in enumerate(grids):
        for r in results:
            if keep(r.method):
                times[r.method].append(r.seconds)
                if g == 0:
                    count[r.method] += 1
                    iters += r.iters
    return sum(count[m] * statistics.median(t) for m, t in times.items()), iters


def measure_untraced(workload, inputs, seconds):
    import reference
    from workloads import is_adaptive
    setup_times, reference_times = [], []
    runs = Runs(workload)
    loop = reference.LOOPS[workload.name]
    loop()   # warm-up: first-call allocations
    started = time.perf_counter()
    while True:
        runs.add(*untraced_grid(workload, inputs, loop, setup_times, reference_times))
        elapsed = time.perf_counter() - started
        if elapsed * (len(runs.grids) + 1) / len(runs.grids) > seconds:
            break
    grids = runs.grids
    solve_s, iters = grid_estimate(grids)
    adaptive_s, adaptive_iters = grid_estimate(grids, is_adaptive)
    baseline_s, baseline_iters = grid_estimate(grids, lambda m: not is_adaptive(m))
    # Times in seconds at the reference speed; see reference.py.
    reference_s = statistics.median(reference_times)
    scale = reference.NOMINAL_S[workload.name] / reference_s
    setup_s = statistics.median(setup_times)
    metrics = {
        "setup_s": scale * setup_s,
        "solve_s": scale * solve_s,
        "adaptive.ms_per_iter": scale * 1e3 * adaptive_s / adaptive_iters,
        "baseline.ms_per_iter": scale * 1e3 * baseline_s / baseline_iters,
        "iters": iters,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {"fail_frac": len(runs.failed_runs) / runs.attempted,
             "adaptive.solve_s": scale * adaptive_s, "baseline.solve_s": scale * baseline_s,
             "grids": len(grids), "reference_s": reference_s,
             "reference_samples": len(reference_times), "speed_scale": scale,
             "wall.setup_s": setup_s, "wall.solve_s": solve_s}
    gaps = [r.log_gap for r in grids[0] if is_adaptive(r.method) and r.log_gap is not None]
    if not workload.uses_driver and gaps:
        extra["final_log_gap"] = statistics.fmean(gaps)
    return runs, metrics, extra


def measure_traced(workload, inputs, seconds):
    from tracing import Tracer, rebound
    setup_tracer, solve_tracer = Tracer(), Tracer()
    with rebound(setup_tracer):
        problem = workload.setup(inputs, setup_tracer)
    plain, traced = Runs(workload), Runs(workload)
    started = time.perf_counter()
    while True:
        if workload.setup_is_consumed and plain.grids:
            problem = workload.setup(inputs)
        plain.add(problem, [run() for run in workload.runs(problem)], "untraced grid")
        if workload.setup_is_consumed:
            problem = workload.setup(inputs)
        with rebound(solve_tracer):
            results = [run() for run in workload.runs(problem, solve_tracer)]
        traced.add(problem, results, "traced grid")
        # The proxies must not change the program being measured.
        for i, (a, b) in enumerate(zip(plain.grids[-1], results)):
            if (a.iters, a.f) != (b.iters, b.f):
                traced.fail(len(traced.grids) - 1, i,
                             f"{b.method}: traced {b.iters} iterations to f = {b.f!r}, "
                             f"untraced {a.iters} to {a.f!r}")
        elapsed = time.perf_counter() - started
        if elapsed * (len(traced.grids) + 1) / len(traced.grids) > seconds:
            break
    metrics = layer_metrics(workload, setup_tracer, solve_tracer, plain, traced)
    return [plain, traced], metrics


def layer_metrics(workload, setup_tracer, solve_tracer, plain, traced) -> dict:
    """Per-layer metrics of one grid (the traced grids' mean); set-up
    metrics come from the one traced set-up."""
    k = len(traced.grids)
    t = solve_tracer
    m = {}
    for op in ("value", "gradient", "hess_vec", "dense_hessian"):
        m[f"oracles.{op}.calls"] = t.calls[f"oracles.{op}"] / k
        m[f"oracles.{op}.self_s"] = t.self_time[f"oracles.{op}"] / k
    kernel_s = 0.0
    for op in ("matvec", "rmatvec", "weighted_gram", "row_sq_norms"):
        name = f"kernels.{op}"
        m[f"{name}.calls"] = t.calls[name] / k + setup_tracer.calls[name]
        m[f"{name}.s"] = t.total[name] / k + setup_tracer.total[name]
        kernel_s += m[f"{name}.s"]
    gbytes = (t.counters["kernels.bytes"] / k + setup_tracer.counters["kernels.bytes"]) / 1e9
    m["kernels.gbytes_computed"] = gbytes
    m["kernels.gbps_computed"] = gbytes / kernel_s if kernel_s > 0 else 0.0
    for name in ("directions.compute_direction", "directions.ingest_pair",
                 "steps.choose_step"):
        m[f"{name}.calls"] = t.calls[name] / k
        m[f"{name}.self_s"] = t.self_time[name] / k
    m["directions.two_loop_direction.s"] = t.total["directions.two_loop_direction"] / k
    m["directions.bfgs_update_dense.calls"] = t.calls["directions.bfgs_update_dense"] / k
    m["directions.bfgs_update_dense.s"] = t.total["directions.bfgs_update_dense"] / k
    m["directions.skipped_pairs"] = (
        sum(r.skipped_pairs for r in plain.grids[0]) if workload.uses_driver else 0)
    c = t.counters
    m["steps.trial_points"] = c["steps.trial_points"] / k
    m["steps.accept_ratio"] = (c["steps.accepted_trials"] / c["steps.trial_points"]
                               if c["steps.trial_points"] else 0.0)
    m["steps.warnings"] = c["steps.warnings"] / k
    m["steps.hybrid_fallback_frac"] = (c["steps.hybrid_fallback"] / c["steps.hybrid"]
                                       if c["steps.hybrid"] else 0.0)
    m["driver.run.self_s"] = t.self_time["driver.run"] / k
    m["stochastic.stochastic_run.self_s"] = t.self_time["stochastic.stochastic_run"] / k
    m["stochastic.draw_batch.calls"] = t.calls["stochastic.draw_batch"] / k
    m["stochastic.draw_batch.s"] = t.total["stochastic.draw_batch"] / k
    m["stochastic.draw_batch.samples"] = c["stochastic.draw_batch.samples"] / k
    m["stochastic.batch_oracle.self_s"] = t.self_time["stochastic.batch_oracle"] / k
    m["stochastic.expected.s"] = t.total["stochastic.expected"] / k
    m["stochastic.sbfgs_pair_update.calls"] = t.calls["stochastic.sbfgs_pair_update"] / k
    m["stochastic.sbfgs_pair_update.s"] = t.total["stochastic.sbfgs_pair_update"] / k
    m["stochastic.sbfgs_pair_update.rejected"] = (
        c["stochastic.sbfgs_pair_update.rejected"] / k)
    m["data_io.load_libsvm.s"] = setup_tracer.total["data_io.load_libsvm"]
    m["data_io.load_libsvm.mbytes"] = setup_tracer.counters["data_io.load_libsvm.bytes"] / 1e6
    m["oracles.construct.s"] = setup_tracer.total["oracles.construct"]
    m["trace.overhead_frac"] = grid_estimate(traced.grids)[0] / grid_estimate(plain.grids)[0] - 1
    # Self times telescope: over every span they sum to the root spans
    # (driver.run or stochastic.stochastic_run), which is what each traced
    # run's wall time should be, bar the benchmark's own call overhead.
    m["trace.accounted_frac"] = (sum(t.self_time.values())
                                 / sum(grid_seconds(g) for g in traced.grids))
    return m


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def report(specs, metrics, runs_list, extra_lines=()):
    failures = [f for runs in runs_list for f in runs.failures]
    attempted = sum(runs.attempted for runs in runs_list)
    failed = sum(len(runs.failed_runs) for runs in runs_list)
    names = [s["name"] for s in specs]
    if set(names) != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(names) ^ set(metrics))} are "
                           "not both measured and declared in manifest.py")
    for line in extra_lines:
        print(line)
    for s in specs:
        print(f"{s['name']} = {metrics[s['name']]:.6g} {s['unit']}")
    for f in failures:
        print(f"FAILED: {f}", file=sys.stderr)
    for v in metrics.values():
        if not math.isfinite(v):
            raise RuntimeError(f"non-finite metric in {metrics}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {s["name"]: {"value": metrics[s["name"]], "unit": s["unit"]}
                    for s in specs},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS   # read when numpy loads its BLAS
    _import_program()
    import manifest
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    head = [f"# {args.workload} seed={args.seed} seconds={args.seconds:g} "
            f"trace={args.trace} machine={json.dumps(machine(), sort_keys=True)}"]
    workdir = tempfile.mkdtemp(prefix=".perfbench_work-", dir=ROOT)
    # Terminated from outside, still remove the work directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        inputs = workload.make_inputs(args.seed, workdir)
        if args.trace:
            runs_list, metrics = measure_traced(workload, inputs, args.seconds)
            report(manifest.PER_LAYER, metrics, runs_list, head)
        else:
            runs, metrics, extra = measure_untraced(workload, inputs, args.seconds)
            head += [f"# {k} = {v}" for k, v in extra.items()]
            report(manifest.END_TO_END, metrics, [runs], head)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
