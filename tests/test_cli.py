import importlib
import os
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from adaptqn import data_io
from adaptqn.cli import TRACE_HEADER, _sigma_from_data, main, run_config, stoch_config
from adaptqn.data_io import load_libsvm, serialize_libsvm, synth_logistic
from adaptqn.errors import NumericalError
from adaptqn.oracles import OnlineLsExpectedObjective


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


@pytest.mark.parametrize("spec, iters", [("N=200,n=400,seed=5", 19),
                                         ("N=100,n=1000,seed=2,decay=0.998", 14)])
def test_wide_newton_reaches_a_tight_grad_tol(tmp_path, capsys, spec, iters):
    # n > N: the row-space Newton direction is as accurate as the gradient,
    # so newton-a reaches 1e-12 in the count the n x n Gram solve takes
    rc = main(["run", "--method", "newton-a", "--synthetic-logistic", spec,
               "--grad-tol", "1e-12", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert f"newton-a: iters={iters} " in out and out.rstrip().endswith("termination=grad_tol")


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


@pytest.mark.parametrize("sc_scale", ["auto", "1"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_run_non_finite_feature_value_exits_66(tmp_path, capsys, value, sc_scale):
    bad = tmp_path / "bad.svm"
    bad.write_text(f"-1 1:2\n+1 1:{value} 2:1\n")
    rc = main(["run", "--method", "gd-a", "--data", str(bad), "--sc-scale", sc_scale,
               "--out", str(tmp_path)])
    assert rc == 66
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "line 2: feature 1 has non-finite value" in err
    assert not (tmp_path / "gd-a.csv").exists()


@pytest.mark.parametrize("command", [
    ["run", "--method", "gd-a", "--data"],
    ["stoch", "--methods", "sgd-a", "--p", "2", "--iters", "5", "--sigma-from-data"]])
def test_non_utf8_dataset_exits_66_naming_the_line(tmp_path, capsys, command):
    bad = tmp_path / "latin1.svm"
    # universal newlines, as the text reader counts them: \r\n, \r and \n
    bad.write_bytes(b"+1 1:1 2:2\r\n-1 1:3 2:1\r+1 1:2 2:5\n-1 1:1 2:caf\xe9\n+1 1:1\n")
    out = tmp_path / "out"
    assert main(command + [str(bad), "--out", str(out)]) == 66
    err = capsys.readouterr().err
    assert err == ("error: cannot read dataset: line 4: not UTF-8 text: "
                   "cannot decode byte 0xe9\n")
    assert not out.exists()


# one and two characters a chunk convert the malformed row before the bad
# byte is read; the default leaves it among the pending rows
_CHUNK_SIZES = pytest.mark.parametrize("chunk_chars", [1, 2, data_io._CHUNK_CHARS],
                                       ids=["1", "2", "default"])


@_CHUNK_SIZES
def test_non_utf8_dataset_reports_an_earlier_malformed_row_first(tmp_path, capsys,
                                                                 monkeypatch, chunk_chars):
    monkeypatch.setattr(data_io, "_CHUNK_CHARS", chunk_chars)
    bad = tmp_path / "bad.svm"
    bad.write_bytes(b"+1 1:1\n-1 2:1 2:3\n+1 1:\xff\n")
    rc = main(["run", "--method", "gd-a", "--data", str(bad), "--out", str(tmp_path)])
    assert rc == 66
    assert "line 2: indices must be strictly increasing" in capsys.readouterr().err


@_CHUNK_SIZES
def test_non_utf8_dataset_reports_its_byte_before_a_later_malformed_row(tmp_path, capsys,
                                                                        monkeypatch, chunk_chars):
    monkeypatch.setattr(data_io, "_CHUNK_CHARS", chunk_chars)
    bad = tmp_path / "bad.svm"
    bad.write_bytes(b"+1 1:1\n+1 1:\xff\n-1 2:1 2:3\n")
    out = tmp_path / "out"
    rc = main(["run", "--method", "gd-a", "--data", str(bad), "--out", str(out)])
    assert rc == 66
    assert capsys.readouterr().err == ("error: cannot read dataset: line 2: not UTF-8 text: "
                                       "cannot decode byte 0xff\n")
    assert not out.exists()


def test_non_utf8_byte_in_a_comment_exits_66_naming_its_line(tmp_path, capsys):
    bad = tmp_path / "comment.svm"
    bad.write_bytes(b"+1 1:1\n-1 2:1 # caf\xe9\n+1 1:2\n")
    rc = main(["run", "--method", "gd-a", "--data", str(bad), "--out", str(tmp_path)])
    assert rc == 66
    assert capsys.readouterr().err == ("error: cannot read dataset: line 2: not UTF-8 text: "
                                       "cannot decode byte 0xe9\n")


def test_index_too_large_for_int64_exits_66_naming_its_line(tmp_path, capsys):
    bad = tmp_path / "huge.svm"
    bad.write_text("-1 99999999999999999999:1\n+1 1:1\n")
    rc = main(["run", "--method", "gd-a", "--data", str(bad), "--out", str(tmp_path)])
    assert rc == 66
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "line 1: index 99999999999999999999" in err


def test_dimension_too_large_for_a_float64_vector_is_usage_error(tmp_path, capsys):
    # the largest int64 index parses, but no vector of that many doubles fits
    big = tmp_path / "big.svm"
    big.write_text("-1 9223372036854775807:1\n")
    out = tmp_path / "out"
    rc = main(["run", "--method", "gd-a", "--data", str(big), "--out", str(out)])
    assert rc == 64
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "n = 9223372036854775807" in err
    assert not out.exists()


@pytest.mark.parametrize("source", [["--data", "big.svm"],
                                    ["--synthetic-quadratic", "dim=3000000"]],
                         ids=["zero-start-point", "synthetic-quadratic"])
def test_out_of_memory_is_one_error_line(tmp_path, capsys, monkeypatch, source):
    # 4 EiB for the start point, 65.5 TiB for the dense matrix: each request
    # is refused at once, so nothing is allocated
    monkeypatch.chdir(tmp_path)
    (tmp_path / "big.svm").write_text("-1 576460752303423487:1\n")
    rc = main(["run", "--method", "gd-a", *source, "--out", "out"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: out of memory: ")
    assert not (tmp_path / "out").exists()


def test_numerical_error_outside_a_run_is_one_error_line(tmp_path, capsys, monkeypatch):
    # stochastic_run solves for the reference optimum before its loop
    def broken(self):
        raise NumericalError("minimizer solve failed: singular matrix")

    monkeypatch.setattr(OnlineLsExpectedObjective, "minimizer", broken)
    out = tmp_path / "out"
    rc = main(["stoch", "--methods", "sgd-a", "--p", "4", "--iters", "5", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("command, trace", [
    (["run", "--method", "gd-a", "--max-iters", "40", "--data"], "gd-a.csv"),
    (["stoch", "--methods", "sgd-a", "--p", "4", "--iters", "30", "--sigma-from-data"],
     "sgd-a.csv")])
def test_byte_order_mark_is_skipped(tmp_path, command, trace):
    text = serialize_libsvm(synth_logistic(40, 6, seed=2)).encode()
    plain, marked = tmp_path / "plain.svm", tmp_path / "bom.svm"
    plain.write_bytes(text)
    marked.write_bytes(b"\xef\xbb\xbf" + text)
    expected, got = load_libsvm(plain), load_libsvm(marked)
    for a, b in ((got.X.indptr, expected.X.indptr), (got.X.indices, expected.X.indices),
                 (got.X.data, expected.X.data), (got.labels, expected.labels)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert got.n == expected.n
    codes = [main(command + [str(path), "--out", str(tmp_path / path.stem)])
             for path in (plain, marked)]
    assert codes[0] == codes[1] and codes[0] in (0, 2)
    assert (strip_elapsed(read_csv(tmp_path / "bom" / trace))
            == strip_elapsed(read_csv(tmp_path / "plain" / trace)))


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


def test_bench_refuses_before_it_runs_anything(tmp_path, capsys):
    # bfgs-a's refusal is found when the grid is built, so gd-a never runs
    out = tmp_path / "out"
    rc = main(["bench", "--methods", "gd-a,bfgs-a", "--synthetic-logistic", "N=4,n=5001",
               "--max-iters", "5", "--out", str(out)])
    assert rc == 64
    err = capsys.readouterr().err
    assert err.startswith("error: dense BFGS refused") and err.count("\n") == 1
    assert not out.exists()


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


def test_stoch_refuses_a_sigma_that_has_no_cholesky_factor(tmp_path, capsys):
    # two equal columns at scale 1e16 leave the 1e-10 jitter below rounding
    ds_file = tmp_path / "dup.svm"
    ds_file.write_text("+1 1:1e8 2:1e8 3:1\n-1 1:2e8 2:2e8 3:2\n"
                       "+1 1:3e8 2:3e8 3:5\n-1 1:5e8 2:5e8 3:1\n")
    rc = main(["stoch", "--p", "3", "--methods", "sgd-a", "--iters", "10",
               "--sigma-from-data", str(ds_file), "--out", str(tmp_path / "out")])
    assert rc == 64
    err = capsys.readouterr().err
    assert err == "error: sigma is not positive definite, even with 1e-10 added to its diagonal\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("p", [1, 7, 12])
def test_sigma_from_data_densifies_only_p_columns_bit_for_bit(tmp_path, p):
    ds_file = tmp_path / "cov.svm"
    ds_file.write_text(serialize_libsvm(synth_logistic(150, 12, seed=3)) + "-1 2:4 9:-1\n+1\n")
    X = load_libsvm(ds_file).X.toarray()
    with np.errstate(over="ignore", invalid="ignore"):
        full = np.cov(X[:, :p], rowvar=False)
        full = 0.5 * (full + full.T) + 1e-10 * np.eye(p)
    sigma = _sigma_from_data(ds_file, p)
    assert sigma.shape == (p, p) and sigma.tobytes() == full.tobytes()


def test_run_identity_scaling_and_memory_flags(tmp_path):
    rc = main(["run", "--method", "lbfgs-a", "--synthetic-logistic",
               "N=150,n=16,seed=5", "--identity-scaling", "on",
               "--lbfgs-memory", "3", "--max-iters", "2000",
               "--out", str(tmp_path)])
    assert rc == 0


def test_run_refuses_identity_scaling_both(tmp_path, capsys):
    rc = main(["run", "--method", "bfgs-a", "--synthetic-quadratic", "dim=3",
               "--identity-scaling", "both", "--out", str(tmp_path)])
    assert rc == 64
    assert "bench runs both" in capsys.readouterr().err
    assert not (tmp_path / "bfgs-a.csv").exists()


def test_stoch_time_budget_exits_2(tmp_path):
    rc = main(["stoch", "--p", "5", "--methods", "sgd-a", "--iters", "50",
               "--max-seconds", "0", "--out", str(tmp_path)])
    assert rc == 2
    assert read_csv(tmp_path / "sgd-a.csv")[-1].split(",")[5] == "terminal"


def test_csv_missing_optionals_are_empty(tmp_path):
    main(["run", "--method", "gd-a", "--synthetic-quadratic", "dim=4",
          "--max-iters", "50", "--out", str(tmp_path)])
    lines = read_csv(tmp_path / "gd-a.csv")
    cells = lines[-1].split(",")
    assert len(cells) == len(TRACE_HEADER.split(","))
    assert cells[3] == "" and cells[4] == ""  # terminal t and eta
    assert cells[10] == "" and cells[11] == ""  # no reference: log_gap, err_ratio


@pytest.mark.parametrize("argv, csv_name, named", [
    (["run", "--method", "gd-a", "--synthetic-quadratic", "dim=3",
      "--grad-tol", "nan"], "gd-a.csv", "grad_tol"),
    (["run", "--method", "lbfgs-a", "--synthetic-quadratic", "dim=4",
      "--lbfgs-memory", "0"], "lbfgs-a.csv", "memory"),
    (["stoch", "--p", "5", "--methods", "sgd-a", "--iters", "5",
      "--eig-low", "0"], "sgd-a.csv", "eig_low"),
    *[(["run", "--method", "newton-a", "--synthetic-logistic", "N=50,n=5",
        f"--sc-scale={sc}"], "newton-a.csv", "sc_scale") for sc in ("0", "-1", "nan", "inf")],
    *[(["run", "--method", "gd-a", "--synthetic-quadratic", "dim=3",
        f"--max-seconds={s}"], "gd-a.csv", "max_seconds") for s in ("nan", "-1")],
    *[(["stoch", "--p", "5", "--methods", "sgd-a", "--iters", "5",
        f"--max-seconds={s}"], "sgd-a.csv", "max_seconds") for s in ("nan", "-1")],
    *[(["run", "--method", "gd-a", "--synthetic-quadratic", spec], "gd-a.csv", named)
      for spec, named in (("dim=0", "dim"), ("dim=2.5", "dim"), ("dim=3,seed=-1", "seed"),
                          ("dim=3,cond=-1", "cond"), ("dim=3,cond=inf", "cond"),
                          ("dim=3,cnd=5", "'cnd'"))],
    *[(["run", "--method", "gd-a", "--synthetic-logistic", spec], "gd-a.csv", named)
      for spec, named in (("N=0,n=3", "N must"), ("N=5,n=0", "n must"),
                          ("N=5,n=3,seed=1.5", "seed"), ("N=5,n=3,separation=inf", "separation"),
                          ("N=5,n=3,separation=nan", "separation"), ("N=5,n=3,decay=0", "decay"),
                          ("N=5,n=3,decay=inf", "decay"), ("N=5,n=3,maxnorm=nan", "maxnorm"),
                          ("N=5,n=3,maxnorm=-2", "maxnorm"))],
    (["stoch", "--p", "0", "--methods", "sgd-a", "--iters", "5"], "sgd-a.csv", "--p"),
    *[(["stoch", "--p", "5", "--methods", "sgd-a", "--iters", "5", flag, "-1"], "sgd-a.csv", flag)
      for flag in ("--seed", "--sigma-seed", "--beta-seed")],
    (["run", "--method", "gd-a", "--synthetic-quadratic", "dim=3", "--sc-scale", "abc"],
     "gd-a.csv", "--sc-scale"),
    # refused whatever the rest of the command line: a problem source or
    # method that never reads the flag, a --sigma-from-data run
    (["run", "--method", "gd-a", "--synthetic-quadratic", "dim=3", "--sc-scale", "nan"],
     "gd-a.csv", "--sc-scale"),
    (["run", "--method", "bfgs-a", "--synthetic-logistic", "N=50,n=5", "--lbfgs-memory", "0"],
     "bfgs-a.csv", "--lbfgs-memory"),
    *[(["run", "--method", method, "--synthetic-quadratic", "dim=3",
        "--lbfgs-memory", "99999999999999999999"], f"{method}.csv", "--lbfgs-memory")
      for method in ("lbfgs-a", "gd-a")],
    (["stoch", "--p", "3", "--methods", "sgd-a", "--iters", "5",
      "--sigma-from-data", os.devnull, "--eig-low", "-5"], "sgd-a.csv", "--eig-low"),
    (["run", "--method", "gd-a", "--synthetic-quadratic", "dim=abc"], "gd-a.csv", "'dim=abc'"),
    (["run", "--method", "gd-a,bfgs-a", "--synthetic-quadratic", "dim=3"], "gd-a.csv",
     "run takes one method"),
], ids=["grad-tol-nan", "lbfgs-memory-0", "eig-low-0",
        "sc-scale-0", "sc-scale--1", "sc-scale-nan", "sc-scale-inf",
        "run-max-seconds-nan", "run-max-seconds--1",
        "stoch-max-seconds-nan", "stoch-max-seconds--1",
        "quadratic-dim-0", "quadratic-dim-2.5", "quadratic-seed--1",
        "quadratic-cond--1", "quadratic-cond-inf", "quadratic-unknown-key",
        "logistic-N-0", "logistic-n-0", "logistic-seed-1.5",
        "logistic-separation-inf", "logistic-separation-nan",
        "logistic-decay-0", "logistic-decay-inf",
        "logistic-maxnorm-nan", "logistic-maxnorm--2", "stoch-p-0",
        "stoch-seed--1", "stoch-sigma-seed--1", "stoch-beta-seed--1", "sc-scale-abc",
        "quadratic-sc-scale-nan", "bfgs-lbfgs-memory-0", "lbfgs-memory-1e20",
        "gd-lbfgs-memory-1e20", "sigma-from-data-eig-low--5",
        "quadratic-dim-abc", "run-two-methods"])
def test_invalid_numeric_flag_is_usage_error(tmp_path, capsys, argv, csv_name, named):
    rc = main(argv + ["--out", str(tmp_path)])
    assert rc == 64
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err
    assert not (tmp_path / csv_name).exists()


@pytest.mark.parametrize("argv, named", [
    (["bench", "--methods", "gd-a,bfgs-a,gd-a", "--synthetic-quadratic", "dim=3"], "'gd-a'"),
    (["stoch", "--methods", "sgd-a,sgd-a", "--p", "3", "--iters", "5"], "'sgd-a'"),
], ids=["bench", "stoch"])
def test_method_listed_twice_is_usage_error(tmp_path, capsys, argv, named):
    out = tmp_path / "out"
    rc = main(argv + ["--out", str(out)])
    assert rc == 64
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err and "twice" in err
    assert not out.exists()


@pytest.mark.parametrize("argv, named", [
    (["run", "--method", "gd-a", "--synthetic-quadratic", "dim=5,dim=3"], "'dim'"),
    (["run", "--method", "gd-a", "--synthetic-quadratic", "dim=3,seed=1,seed=2"], "'seed'"),
    (["run", "--method", "gd-a", "--synthetic-logistic", "N=20,n=5,N=30"], "'N'"),
], ids=["quadratic-dim", "quadratic-seed", "logistic-N"])
def test_spec_key_given_twice_is_usage_error(tmp_path, capsys, argv, named):
    out = tmp_path / "out"
    rc = main(argv + ["--out", str(out)])
    assert rc == 64
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err and "twice" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["stoch", "--methods", "sgd-a,sbfgs-1", "--p", "3", "--iters", "-1"],
    ["stoch", "--methods", "sgd-a,sbfgs-1", "--p", "3", "--max-seconds", "nan"],
    ["bench", "--methods", "gd-a,bfgs-a", "--synthetic-quadratic", "dim=3", "--max-iters", "-1"],
], ids=["stoch-iters--1", "stoch-max-seconds-nan", "bench-max-iters--1"])
def test_refusal_creates_no_output_directory(tmp_path, argv):
    out = tmp_path / "fresh"
    assert main(argv + ["--out", str(out)]) == 64
    assert not out.exists()


def test_perfbench_runs_the_cli_methods(monkeypatch):
    # perfbench/workloads.py builds its own configurations; they must be
    # the ones the CLI resolves for the same method names and flags.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.modules.pop("workloads", None)
        sys.modules.pop("tracing", None)

    det = {m for w in workloads.WORKLOADS.values() if w.uses_driver for m in w.methods}
    assert det
    for method in det:
        for n in (3, 200, 1500):
            assert workloads._det_config(method, n, 1e-5) == run_config(
                method, dim=n, grad_tol=1e-5, max_iters=workloads.MAX_ITERS), (method, n)

    class Called(Exception):
        pass

    def capture(*args):
        raise Called(args[:3])

    monkeypatch.setattr(workloads, "stochastic_run", capture)
    stoch = workloads.WORKLOADS["stoch-online"]
    assert stoch.p == 30 and stoch.methods
    for method in stoch.methods:
        with pytest.raises(Called) as called:
            stoch._solve(None, method, None)
        assert called.value.args[0] == stoch_config(method, p=30, batch="small"), method


def test_refused_dataset_is_usage_error(tmp_path, capsys):
    # a dataset of labels only, or of nothing, has no sc_scale to apply
    labels = tmp_path / "labels.svm"
    labels.write_text("+1\n-1\n")
    empty = tmp_path / "empty.svm"
    empty.write_text("")
    for path, why in ((labels, "all feature rows are zero"), (empty, "empty dataset")):
        rc = main(["run", "--method", "gd-a", "--data", str(path), "--out", str(tmp_path)])
        assert rc == 64
        assert why in capsys.readouterr().err


@pytest.mark.parametrize("case", ["out-is-a-file", "out-under-a-file", "trace-is-a-dir"])
def test_output_failure_exits_73(tmp_path, capsys, case):
    afile = tmp_path / "afile"
    afile.write_text("")
    (tmp_path / "gd-a.csv").mkdir()
    out = {"out-is-a-file": afile, "out-under-a-file": afile / "sub",
           "trace-is-a-dir": tmp_path}[case]
    rc = main(["run", "--method", "gd-a", "--synthetic-quadratic", "dim=3",
               "--out", str(out)])
    assert rc == 73
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output: ") and err.count("\n") == 1


def test_run_seed_flag_is_gone(tmp_path, capsys):
    # the spec's seed= key picks the synthetic problem; stoch --seed stays
    rc = main(["run", "--method", "gd-a", "--synthetic-logistic", "N=20,n=3",
               "--seed", "3", "--out", str(tmp_path)])
    assert rc == 64
    assert "--seed" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
def test_sigma_from_data_needs_two_rows(tmp_path, capsys):
    one_row = tmp_path / "one_row.svm"
    one_row.write_text("+1 1:1 2:2 3:3\n")
    rc = main(["stoch", "--methods", "sgd-a", "--p", "3", "--iters", "5",
               "--sigma-from-data", str(one_row), "--out", str(tmp_path)])
    assert rc == 64
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--sigma-from-data" in err and "has 1" in err
    assert not (tmp_path / "sgd-a.csv").exists()


@pytest.mark.filterwarnings("error")
def test_sigma_from_data_with_non_finite_covariance_is_usage_error(tmp_path, capsys):
    # the first feature's squared deviations overflow
    huge = tmp_path / "huge.svm"
    huge.write_text("+1 1:1e200 2:1\n-1 1:-1e200 2:3\n+1 1:2e200 2:-1\n")
    out = tmp_path / "out"
    rc = main(["stoch", "--methods", "sgd-a", "--p", "2", "--iters", "5",
               "--sigma-from-data", str(huge), "--out", str(out)])
    assert rc == 64
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--sigma-from-data" in err and "not finite" in err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_underflowing_row_norm_is_usage_error(tmp_path, capsys):
    # no row is zero, but every squared row norm underflows; the refusal
    # names the underflow and --sc-scale, which lets the run go ahead
    tiny = tmp_path / "tiny.svm"
    tiny.write_text("+1 1:1e-170 2:1e-170\n-1 1:-1e-170\n")
    out = tmp_path / "out"
    for source in (["--data", str(tiny)], ["--synthetic-logistic", "N=5,n=40,maxnorm=1e-200"]):
        rc = main(["run", "--method", "gd-a", *source, "--out", str(out)])
        assert rc == 64, source
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "underflows" in err and "--sc-scale" in err, err
        assert "all feature rows are zero" not in err
        assert not out.exists()
        assert main(["run", "--method", "gd-a", *source, "--sc-scale", "none",
                     "--out", str(out)]) == 0
        shutil.rmtree(out)


@pytest.mark.filterwarnings("error")
def test_overflowing_row_norm_is_usage_error(tmp_path, capsys):
    # ||x||^2 overflows; the refusal names the row norm, not --sc-scale
    huge = tmp_path / "huge.svm"
    huge.write_text("+1 1:1e308 2:1e308\n")
    rc = main(["run", "--method", "bfgs-a", "--data", str(huge), "--out", str(tmp_path)])
    assert rc == 64
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "feature-row norm B = inf" in err and "sc_scale" not in err
