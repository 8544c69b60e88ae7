"""What the benchmark measures: its workloads and metrics, with units,
direction and regression bounds.

``run.py`` reports exactly these metrics, and ``python3
perfbench/manifest.py`` writes them to ``BENCHMARK.json`` at the root of
the repository, so the two cannot drift apart. ``layers.json`` says which
end-to-end metric each per-layer metric should move, and on which
workload.
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

RUN_SECONDS = 35

WORKLOADS = [
    {"name": "logistic-sparse",
     "why": "10k x 200 CSR, 10 nnz/row, like a9a/w8a, parsed from LIBSVM text: "
            "stresses oracles and kernels (about 85% of solve); adaptive and line-search "
            "spend oracle work differently"},
    {"name": "logistic-wide",
     "why": "synth_logistic N=400 n=1500 decay 0.998: stresses directions (dense "
            "BFGS update, Newton Cholesky, dense Hessian); lbfgs-a stays "
            "oracle-bound as the control"},
    {"name": "stoch-online",
     "why": "adaptqn stoch defaults, p=30, 3 sampling streams: stresses the "
            "stochastic loop and 30x30 BFGS updates; bypasses LogisticObjective "
            "and the CSR kernels"},
]

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "solve_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "adaptive.ms_per_iter", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "baseline.ms_per_iter", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "iters", "unit": "count", "better": "lower", "bound": 0.2},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]


def _layer(name, unit, better="lower"):
    return {"name": name, "unit": unit, "better": better}


PER_LAYER = (
    [_layer(f"oracles.{op}.{k}", u)
     for op in ("value", "gradient", "hess_vec", "dense_hessian")
     for k, u in (("calls", "count"), ("self_s", "s"))]
    + [_layer(f"kernels.{op}.{k}", u)
       for op in ("matvec", "rmatvec", "weighted_gram", "row_sq_norms")
       for k, u in (("calls", "count"), ("s", "s"))]
    + [_layer("kernels.gbytes_computed", "GB"),
       _layer("kernels.gbps_computed", "GB/s", "higher"),
       _layer("directions.compute_direction.calls", "count"),
       _layer("directions.compute_direction.self_s", "s"),
       _layer("directions.two_loop_direction.s", "s"),
       _layer("directions.ingest_pair.calls", "count"),
       _layer("directions.ingest_pair.self_s", "s"),
       _layer("directions.bfgs_update_dense.calls", "count"),
       _layer("directions.bfgs_update_dense.s", "s"),
       _layer("directions.skipped_pairs", "count"),
       _layer("steps.choose_step.calls", "count"),
       _layer("steps.choose_step.self_s", "s"),
       _layer("steps.trial_points", "count"),
       _layer("steps.accept_ratio", "ratio", "higher"),
       _layer("steps.warnings", "count"),
       _layer("steps.hybrid_fallback_frac", "frac"),
       _layer("driver.run.self_s", "s"),
       _layer("stochastic.stochastic_run.self_s", "s"),
       _layer("stochastic.draw_batch.calls", "count"),
       _layer("stochastic.draw_batch.s", "s"),
       _layer("stochastic.draw_batch.samples", "count"),
       _layer("stochastic.batch_oracle.self_s", "s"),
       _layer("stochastic.expected.s", "s"),
       _layer("stochastic.sbfgs_pair_update.calls", "count"),
       _layer("stochastic.sbfgs_pair_update.s", "s"),
       _layer("stochastic.sbfgs_pair_update.rejected", "count"),
       _layer("data_io.load_libsvm.s", "s"),
       _layer("data_io.load_libsvm.mbytes", "MB"),
       _layer("oracles.construct.s", "s"),
       _layer("trace.overhead_frac", "frac"),
       _layer("trace.accounted_frac", "frac", "higher")]
)


def manifest() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }


if __name__ == "__main__":
    path = ROOT / "BENCHMARK.json"
    path.write_text(json.dumps(manifest(), indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")
