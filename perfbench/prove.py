#!/usr/bin/env python3
"""Check that the benchmark is steady, and record a baseline.

Runs ``run.py --trace 0`` once per seed on each workload, then one
traced run per workload, and reports for every end-to-end metric the
median and the spread: the distance between the first and third
quartiles of its values (``statistics.quantiles(values, n=4)``) as a
share of their median. A metric is steady when its spread is below a
third of its bound; ``setup_s`` is exempt, as its bound covers set-up
variance instead. The same figures are recorded for the wall times
before scaling to the reference speed, which shows what the scaling
removes. Writes ``perfbench/baseline.json`` with the machine, the
per-seed values, the medians and spreads, and the traced per-layer
metrics.

With ``--against`` an earlier baseline (say, of the parent commit), it
also reports how far each median moved, and fails when one got worse by
more than its bound.

Usage, from the root of a checkout (about 40 s per run):

    python3 perfbench/prove.py [--seeds 1-10] [--workloads a,b]
        [--out perfbench/baseline.json] [--against old-baseline.json]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import manifest  # noqa: E402


# The '#' lines recorded beside the metrics: wall times before scaling to
# the reference speed, and the scale itself.
UNSCALED = ("wall.setup_s", "wall.solve_s", "speed_scale")


def _seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench(workload: str, seed: int, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(manifest.RUN_SECONDS), "--trace", str(trace)],
        cwd=manifest.ROOT, capture_output=True, text=True, timeout=180, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), [ln for ln in lines if ln.startswith("#")]


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in manifest.WORKLOADS))
    parser.add_argument("--out", default=str(HERE / "baseline.json"))
    parser.add_argument("--against", help="an earlier baseline.json to compare medians with")
    args = parser.parse_args()
    old = json.loads(Path(args.against).read_text()) if args.against else None

    seeds = _seeds(args.seeds)
    record = {"run_seconds": manifest.RUN_SECONDS, "seeds": seeds, "workloads": {}}
    passed = True
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in manifest.END_TO_END}
        unscaled = {name: [] for name in UNSCALED}
        correct = True
        for seed in seeds:
            result, head = bench(workload, seed, 0)
            record.setdefault("machine", json.loads(head[0].split("machine=", 1)[1]))
            correct &= result["correct"] and result["failed"] == 0
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            for line in head[1:]:
                name, _, value = line[2:].partition(" = ")
                if name in unscaled:
                    unscaled[name].append(float(value))
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
        traced, _ = bench(workload, seeds[0], 1)
        correct &= traced["correct"]
        summary = {}
        for m in manifest.END_TO_END:
            v = values[m["name"]]
            s = spread(v) if len(v) >= 2 else 0.0
            ok = m["name"] == "setup_s" or s < m["bound"] / 3
            passed &= ok
            summary[m["name"]] = {"median": statistics.median(v), "spread": s,
                                  "bound": m["bound"], "steady": ok, "values": v}
            print(f"  {m['name']}: median {statistics.median(v):.4g} {m['unit']}, "
                  f"spread {s:.3f} (bound {m['bound']}){'' if ok else '  NOT STEADY'}")
            if old is not None and workload in old["workloads"]:
                before = old["workloads"][workload]["end_to_end"][m["name"]]["median"]
                worse = (statistics.median(v) - before) / before
                if m["better"] == "higher":
                    worse = -worse
                passed &= worse <= m["bound"]
                print(f"    worse than --against by {worse:+.3f}"
                      f"{'  REGRESSION' if worse > m['bound'] else ''}")
        for name, v in unscaled.items():
            print(f"  {name}: median {statistics.median(v):.4g}, spread {spread(v):.3f}")
        record["workloads"][workload] = {
            "correct": correct, "end_to_end": summary,
            "unscaled": {name: {"median": statistics.median(v), "spread": spread(v),
                                "values": v} for name, v in unscaled.items()},
            "per_layer_seed": seeds[0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()}}
        passed &= correct
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}; {'passed' if passed else 'FAILED'}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
