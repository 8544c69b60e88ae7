"""SHA-256 digests of CLI traces on fixed seeds, so that a change to the
iteration loop that moves any recorded number, however little, fails
here. Wall-clock columns are left out. Stochastic traces are pinned on
the trajectory columns only; their eval counts and err_ratio are
checked in tests/test_stochastic.py."""

import csv
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import adaptqn
from adaptqn.cli import DETERMINISTIC_METHODS, STOCHASTIC_METHODS, main

# The package directory's parent, for a subprocess to import the same adaptqn.
SRC = str(Path(adaptqn.__file__).resolve().parents[1])

STOCH_COLUMNS = ("k", "f", "gnorm", "t", "eta", "step_kind", "log_gap")

STOCH_DIGESTS = {
    "sgd-a": "aca3dd78c2b0bfcc4921169aa2496de39250e001c509602643eb0a87d3b970d2",
    "sgd-1": "26f4887d5caf1f344f42963d5c85ed9ef295837338d0cbe80125f09745931d74",
    "sgd-2": "39a303225feda70eebc0239d57587ad0c5a896546c6090d8410e34699d646b48",
    "sgd-3": "e89998c3e4153588827bcf5dfbb83c15d19af3b3495b4069e37323b23fb784ce",
    "sgd-4": "982adf4678a1915502af586e894d7ae65ad21cd63ce4ef00fd5eed949ab85bee",
    "sn-a": "c64c398211dcdee6dc7f7aafebe4c3b799b39c36b3f0855a2505447221f15bb9",
    "sn-1": "ad0fbbf9e024bafc039c90b8dbca8c01072a5601256310e96a4e8fa37e940abc",
    "sbfgs-a": "f2d6c326bc36c6825697631ba08ce4120c80f317c9c023c58c3bc3a485103d82",
    "sbfgs-1": "605b1b169c005916a9aa3870dba1874d17647cf2acd35b2532abbc5748e7c717",
}

BENCH_DIGESTS = {
    "bfgs-a-scaled.csv": "78e62c5b209713e41fa15175fcbfe949fab94be6b61d97e64a6739748237ef97",
    "bfgs-a.csv": "584f44f48ba0fea0f9dd3efa9f4c5752789b2962aa8e838fffe42e06e19c5b0e",
    "bfgs-h-scaled.csv": "ba69dfb1a799ff195bd764f11d7d71d78fa7df9b59383874aa2140b6d250df84",
    "bfgs-h.csv": "af2b83bb18f05cf8bb1c95e236a0d61dce8d555452080aa5d55dd81c4e719acf",
    "bfgs-ls-scaled.csv": "0aa065c0fff807325e4b1b92e1f51a75e58913a020b038019034ee9db0471475",
    "bfgs-ls.csv": "ee173f71468a183299a0812004bec23b28b9376bfaa0d71d192b4311a5130adf",
    "gd-a-scaled.csv": "534ec35f49d51f11001f84b56cb2c47466f8116db4263fa545ed1bb7599fe300",
    "gd-a.csv": "534ec35f49d51f11001f84b56cb2c47466f8116db4263fa545ed1bb7599fe300",
    "gd-ls-scaled.csv": "905379677f6b4a1d6326f2c3fe92a7d71b72178ea2fc5f387864fafee3781445",
    "gd-ls.csv": "905379677f6b4a1d6326f2c3fe92a7d71b72178ea2fc5f387864fafee3781445",
    "lbfgs-a-scaled.csv": "4596fd4865de54b7e190addad3f5af923a49384ae19c697ab8176a6d70072ead",
    "lbfgs-a.csv": "7ceaf541313bc80f688939a39bd9531ea84ad4fbf19381bb408a71581bb62b37",
    "lbfgs-ls-scaled.csv": "a0772d8a06b43fed8ec8abebf6ee4d16938f7c4ab9d7f9ac891f18b6424f8377",
    "lbfgs-ls.csv": "863286c588c73419a189ef4e373f94ee972f43f4fcf643a38785031b21aa6f3c",
    "newton-a-scaled.csv": "c52268ef37a2de00da7a683b78bd3957a7d70a01c5b1b080df60ef2ad3a9f385",
    "newton-a.csv": "c52268ef37a2de00da7a683b78bd3957a7d70a01c5b1b080df60ef2ad3a9f385",
    "summary.csv": "52e24667b57555a2e432df16e803f0c72d0f5edaf56d27b4068c6b607e3ec89a",
}


def column_digest(path, keep):
    """SHA-256 of the CSV restricted to the columns whose header passes
    ``keep``, one comma-joined line per row, header included."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    idx = [i for i, name in enumerate(rows[0]) if keep(name)]
    text = "".join(",".join(row[i] for i in idx) + "\n" for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()


def test_stochastic_traces_are_pinned(tmp_path):
    rc = main(["stoch", "--methods", ",".join(STOCHASTIC_METHODS), "--p", "10",
               "--iters", "300", "--seed", "7", "--out", str(tmp_path)])
    assert rc == 0
    got = {m: column_digest(tmp_path / f"{m}.csv", lambda c: c in STOCH_COLUMNS)
           for m in STOCHASTIC_METHODS}
    assert got == STOCH_DIGESTS


def test_deterministic_traces_are_pinned(tmp_path):
    # On one BLAS thread, as the benchmark runs: newton-a's weighted Gram
    # matrix rounds differently for each thread count.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "adaptqn.cli", "bench",
         "--methods", ",".join(DETERMINISTIC_METHODS),
         "--synthetic-logistic", "N=500,n=50,seed=38", "--identity-scaling", "both",
         "--out", str(tmp_path)], env=env, capture_output=True, text=True)
    # gd-ls stalls below floating-point resolution here
    assert proc.returncode == 1, proc.stderr
    got = {p.name: column_digest(p, lambda c: c != "elapsed_s")
           for p in tmp_path.glob("*.csv")}
    assert got == BENCH_DIGESTS
