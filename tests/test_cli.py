import os

import numpy as np
import pytest

from adaptqn.cli import TRACE_HEADER, main
from adaptqn.data_io import serialize_libsvm, synth_logistic


def read_csv(path):
    with open(path) as fh:
        return fh.read().splitlines()


def strip_elapsed(lines):
    """Drop the elapsed_s column (index 9) from every row."""
    out = []
    for line in lines:
        cells = line.split(",")
        out.append(",".join(cells[:9] + cells[10:]))
    return out


def test_run_newton_quadratic_smoke(tmp_path):
    rc = main(["run", "--method", "newton-a", "--synthetic-quadratic", "dim=5",
               "--out", str(tmp_path)])
    assert rc == 0
    lines = read_csv(tmp_path / "newton-a.csv")
    assert lines[0] == TRACE_HEADER
    final_gnorm = float(lines[-1].split(",")[2])
    assert final_gnorm < 1e-7


def test_run_unknown_method_is_usage_error(tmp_path, capsys):
    rc = main(["run", "--method", "bfgs-x", "--synthetic-quadratic", "dim=3",
               "--out", str(tmp_path)])
    assert rc == 64
    assert "unknown method" in capsys.readouterr().err


def test_run_missing_dataset_exits_66(tmp_path):
    rc = main(["run", "--method", "gd-a", "--data", str(tmp_path / "nope.svm"),
               "--out", str(tmp_path)])
    assert rc == 66


def test_run_malformed_dataset_exits_66(tmp_path):
    bad = tmp_path / "bad.svm"
    bad.write_text("+1 3:1 2:1\n")
    rc = main(["run", "--method", "gd-a", "--data", str(bad), "--out", str(tmp_path)])
    assert rc == 66


def test_run_budget_exhaustion_exits_2(tmp_path):
    rc = main(["run", "--method", "gd-a",
               "--synthetic-logistic", "N=120,n=12,seed=1",
               "--max-iters", "3", "--out", str(tmp_path)])
    assert rc == 2


def test_run_non_finite_objective_exits_1(tmp_path, monkeypatch):
    import adaptqn.cli
    from adaptqn import QuadraticObjective

    monkeypatch.setattr(adaptqn.cli, "make_synthetic_quadratic",
                        lambda dim, cond, seed: QuadraticObjective(
                            np.eye(dim), np.full(dim, np.nan)))
    rc = main(["run", "--method", "bfgs-a", "--synthetic-quadratic", "dim=3",
               "--out", str(tmp_path)])
    assert rc == 1
    assert read_csv(tmp_path / "bfgs-a.csv")[-1].split(",")[5] == "terminal"


def test_refused_configuration_is_usage_error(tmp_path, capsys):
    # the driver refuses dense BFGS above MAX_DENSE_DIM (5000)
    rc = main(["run", "--method", "bfgs-a", "--synthetic-logistic", "N=4,n=5001",
               "--out", str(tmp_path)])
    assert rc == 64
    assert "dense BFGS refused" in capsys.readouterr().err
    assert not (tmp_path / "bfgs-a.csv").exists()
    rc = main(["stoch", "--p", "5", "--methods", "sgd-a", "--iters", "-1",
               "--out", str(tmp_path)])
    assert rc == 64
    assert "max_iters" in capsys.readouterr().err


def test_run_requires_exactly_one_problem_source(tmp_path, capsys):
    rc = main(["run", "--method", "gd-a", "--out", str(tmp_path)])
    assert rc == 64
    rc = main(["run", "--method", "gd-a", "--synthetic-quadratic", "dim=3",
               "--synthetic-logistic", "N=10,n=2", "--out", str(tmp_path)])
    assert rc == 64


def test_sc_scale_flag(tmp_path):
    ds_file = tmp_path / "ds.svm"
    ds_file.write_text(serialize_libsvm(synth_logistic(80, 8, seed=4)))
    rc = main(["run", "--method", "bfgs-a", "--data", str(ds_file),
               "--sc-scale", "auto", "--max-iters", "300", "--out", str(tmp_path / "a")])
    assert rc == 0
    rc = main(["run", "--method", "bfgs-a", "--data", str(ds_file),
               "--sc-scale", "1", "--max-iters", "300", "--out", str(tmp_path / "b")])
    assert rc == 0
    f_scaled = float(read_csv(tmp_path / "a" / "bfgs-a.csv")[1].split(",")[1])
    f_raw = float(read_csv(tmp_path / "b" / "bfgs-a.csv")[1].split(",")[1])
    assert f_raw == pytest.approx(np.log(2.0), rel=1e-10)
    assert f_scaled > 10 * f_raw


def test_run_replay_is_deterministic(tmp_path):
    args = ["run", "--method", "lbfgs-a", "--synthetic-logistic",
            "N=150,n=15,seed=6", "--max-iters", "400"]
    assert main(args + ["--out", str(tmp_path / "r1")]) == 0
    assert main(args + ["--out", str(tmp_path / "r2")]) == 0
    a = strip_elapsed(read_csv(tmp_path / "r1" / "lbfgs-a.csv"))
    b = strip_elapsed(read_csv(tmp_path / "r2" / "lbfgs-a.csv"))
    assert a == b


def test_bench_grid_and_summary(tmp_path):
    rc = main(["bench", "--methods", "bfgs-a,bfgs-h",
               "--synthetic-logistic", "N=200,n=20,seed=2",
               "--max-iters", "2000", "--out", str(tmp_path)])
    assert rc == 0
    summary = read_csv(tmp_path / "summary.csv")
    assert summary[0].startswith("method,identity_scaling,iters,final_gnorm,termination")
    assert len(summary) == 3
    iters = {}
    for row in summary[1:]:
        cells = row.split(",")
        assert cells[4] == "grad_tol"
        iters[cells[0]] = int(cells[2])
    assert iters["bfgs-h"] <= iters["bfgs-a"]
    assert (tmp_path / "bfgs-a.csv").exists()
    assert (tmp_path / "bfgs-h.csv").exists()


def test_bench_identity_scaling_both_doubles_grid(tmp_path):
    rc = main(["bench", "--methods", "gd-a,bfgs-a",
               "--synthetic-logistic", "N=120,n=10,seed=3",
               "--identity-scaling", "both", "--max-iters", "3000",
               "--out", str(tmp_path)])
    assert rc == 0
    summary = read_csv(tmp_path / "summary.csv")
    assert len(summary) == 5  # header + 2 methods x 2 scalings
    assert (tmp_path / "bfgs-a-scaled.csv").exists()


def test_bench_needs_two_methods(tmp_path):
    rc = main(["bench", "--methods", "bfgs-a",
               "--synthetic-quadratic", "dim=4", "--out", str(tmp_path)])
    assert rc == 64


def test_stoch_runs_and_replays(tmp_path):
    args = ["stoch", "--p", "10", "--methods", "sbfgs-a,sgd-1", "--iters", "80",
            "--seed", "7"]
    assert main(args + ["--out", str(tmp_path / "s1")]) == 0
    assert main(args + ["--out", str(tmp_path / "s2")]) == 0
    for name in ("sbfgs-a.csv", "sgd-1.csv"):
        raw1 = read_csv(tmp_path / "s1" / name)
        assert raw1[0] == TRACE_HEADER
        a = strip_elapsed(raw1)
        b = strip_elapsed(read_csv(tmp_path / "s2" / name))
        assert a == b


def test_stoch_batch_flags(tmp_path):
    rc = main(["stoch", "--p", "8", "--methods", "sgd-2", "--iters", "10",
               "--batch", "large", "--out", str(tmp_path)])
    assert rc == 0
    rc = main(["stoch", "--p", "8", "--methods", "sgd-x", "--iters", "5",
               "--out", str(tmp_path)])
    assert rc == 64


def test_stoch_all_method_families(tmp_path):
    rc = main(["stoch", "--p", "8", "--methods", "sgd-a,sn-a,sn-1,sbfgs-1",
               "--iters", "12", "--out", str(tmp_path)])
    assert rc == 0
    for name in ("sgd-a", "sn-a", "sn-1", "sbfgs-1"):
        assert (tmp_path / f"{name}.csv").exists()


def test_stoch_non_finite_model_exits_1(tmp_path, monkeypatch):
    import adaptqn.cli

    monkeypatch.setattr(adaptqn.cli, "make_sparse_beta",
                        lambda p, seed: np.full(p, np.nan))
    rc = main(["stoch", "--p", "6", "--methods", "sbfgs-a,sgd-1", "--iters", "20",
               "--out", str(tmp_path)])
    assert rc == 1
    for name in ("sbfgs-a", "sgd-1"):
        assert read_csv(tmp_path / f"{name}.csv")[-1].split(",")[5] == "terminal"


def test_stoch_sigma_from_data(tmp_path):
    ds_file = tmp_path / "cov.svm"
    ds_file.write_text(serialize_libsvm(synth_logistic(120, 12, seed=8)))
    rc = main(["stoch", "--p", "10", "--methods", "sbfgs-a", "--iters", "15",
               "--sigma-from-data", str(ds_file), "--out", str(tmp_path)])
    assert rc == 0
    rc = main(["stoch", "--p", "30", "--methods", "sbfgs-a", "--iters", "5",
               "--sigma-from-data", str(ds_file), "--out", str(tmp_path)])
    assert rc == 64  # dataset has fewer features than p


def test_run_identity_scaling_and_memory_flags(tmp_path):
    rc = main(["run", "--method", "lbfgs-a", "--synthetic-logistic",
               "N=150,n=16,seed=5", "--identity-scaling", "on",
               "--lbfgs-memory", "3", "--max-iters", "2000",
               "--out", str(tmp_path)])
    assert rc == 0


def test_csv_missing_optionals_are_empty(tmp_path):
    main(["run", "--method", "gd-a", "--synthetic-quadratic", "dim=4",
          "--max-iters", "50", "--out", str(tmp_path)])
    lines = read_csv(tmp_path / "gd-a.csv")
    cells = lines[-1].split(",")
    assert len(cells) == len(TRACE_HEADER.split(","))
    assert cells[3] == "" and cells[4] == ""  # terminal t and eta
    assert cells[10] == "" and cells[11] == ""  # no reference: log_gap, err_ratio


@pytest.mark.parametrize("argv, csv_name", [
    (["run", "--method", "gd-a", "--synthetic-quadratic", "dim=3",
      "--grad-tol", "nan"], "gd-a.csv"),
    (["run", "--method", "lbfgs-a", "--synthetic-quadratic", "dim=4",
      "--lbfgs-memory", "0"], "lbfgs-a.csv"),
    (["stoch", "--p", "5", "--methods", "sgd-a", "--iters", "5",
      "--eig-low", "0"], "sgd-a.csv"),
    *[(["run", "--method", "newton-a", "--synthetic-logistic", "N=50,n=5",
        f"--sc-scale={sc}"], "newton-a.csv") for sc in ("0", "-1", "nan", "inf")],
], ids=["grad-tol-nan", "lbfgs-memory-0", "eig-low-0",
        "sc-scale-0", "sc-scale--1", "sc-scale-nan", "sc-scale-inf"])
def test_invalid_numeric_flag_is_usage_error(tmp_path, capsys, argv, csv_name):
    rc = main(argv + ["--out", str(tmp_path)])
    assert rc == 64
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / csv_name).exists()
