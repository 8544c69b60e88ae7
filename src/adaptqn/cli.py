"""Command-line harness: single runs, method-grid benchmarks, and
stochastic experiments, all emitting machine-readable CSV traces."""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import data_io
from .directions import (BfgsDense, GradientDescent, LBfgs, Newton,
                         default_lbfgs_memory)
from .driver import RunConfig, Trace, run, t_settle_index
from .errors import OptimError, ParseError
from .oracles import LogisticObjective, QuadraticObjective
from .steps import Adaptive, ArmijoWolfe, Hybrid, Constant
from .stochastic import (CONSTANT_STEP_SIZES, ConstantBatch, GrowingBatch,
                         OnlineSampler, make_sparse_beta, make_synthetic_sigma,
                         stochastic_run)

TRACE_HEADER = "k,f,gnorm,t,eta,step_kind,evals_f,evals_g,evals_hv,elapsed_s,log_gap,err_ratio"
SUMMARY_HEADER = "method,identity_scaling,iters,final_gnorm,termination,iters_until_t_near_1"

DETERMINISTIC_METHODS = ("gd-a", "gd-ls", "newton-a", "bfgs-a", "bfgs-ls",
                         "bfgs-h", "lbfgs-a", "lbfgs-ls")
STOCHASTIC_METHODS = ("sgd-a", "sgd-1", "sgd-2", "sgd-3", "sgd-4",
                      "sn-a", "sn-1", "sbfgs-a", "sbfgs-1")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BUDGET = 2
EXIT_USAGE = 64
EXIT_NOINPUT = 66


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _fmt(v) -> str:
    """Round-trip float formatting; empty string for missing values."""
    if v is None:
        return ""
    if isinstance(v, float) and math.isnan(v):
        return ""
    return repr(float(v))


def write_trace_csv(path, trace: Trace) -> None:
    lines = [TRACE_HEADER]
    for r in trace.records:
        lines.append(",".join([
            str(r.k), _fmt(r.f), _fmt(r.gnorm), _fmt(r.t), _fmt(r.eta),
            r.step_kind, str(r.cum_evals_f), str(r.cum_evals_g),
            str(r.cum_evals_hv), _fmt(r.elapsed), _fmt(r.log_gap),
            _fmt(r.err_ratio),
        ]))
    _write_file(path, "\n".join(lines) + "\n")


def _write_file(path, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())


def _parse_kv(spec: str) -> dict:
    out = {}
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        key, _, val = item.partition("=")
        if not val:
            raise UsageError(f"expected key=value, got {item!r}")
        try:
            out[key.strip()] = float(val)
        except ValueError:
            raise UsageError(f"expected a number in {item!r}") from None
    return out


def make_synthetic_quadratic(dim: int, cond: float = 100.0, seed: int = 0) -> QuadraticObjective:
    """Random SPD quadratic with a log-spaced spectrum in [1, cond]."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    eigs = np.logspace(0.0, np.log10(cond), dim)
    A = (q * eigs) @ q.T
    A = 0.5 * (A + A.T)
    b = rng.standard_normal(dim)
    return QuadraticObjective(A, b)


def _build_oracle(args):
    """Oracle described by --data / --synthetic-logistic / --synthetic-quadratic."""
    chosen = [s for s in (args.data, args.synthetic_logistic, args.synthetic_quadratic)
              if s is not None]
    if len(chosen) != 1:
        raise UsageError("exactly one of --data, --synthetic-logistic, "
                         "--synthetic-quadratic is required")
    if args.synthetic_quadratic is not None:
        kv = _parse_kv(args.synthetic_quadratic)
        if "dim" not in kv:
            raise UsageError("--synthetic-quadratic needs dim=<int>")
        return make_synthetic_quadratic(int(kv["dim"]), kv.get("cond", 100.0),
                                        int(kv.get("seed", 0)))
    if args.data is not None:
        try:
            ds = data_io.load_libsvm(args.data)
        except OSError as exc:
            raise FileNotFoundError(str(exc)) from exc
    else:
        kv = _parse_kv(args.synthetic_logistic)
        if "N" not in kv or "n" not in kv:
            raise UsageError("--synthetic-logistic needs N=<int>,n=<int>")
        ds = data_io.synth_logistic(
            int(kv["N"]), int(kv["n"]), seed=int(kv.get("seed", args.seed)),
            separation=kv.get("separation", 1.5),
            feature_decay=kv.get("decay", 0.6),
            max_norm=kv.get("maxnorm", 2.0))
    sc = args.sc_scale
    return LogisticObjective(ds, None if sc == "auto" else 1.0 if sc == "none" else float(sc))


def _method_config(method: str, n: int, args, identity_scaling: bool) -> RunConfig:
    family, _, suffix = method.partition("-")
    if family == "gd":
        direction = GradientDescent()
    elif family == "newton":
        direction = Newton()
    elif family == "bfgs":
        direction = BfgsDense(identity_scaling=identity_scaling)
    elif family == "lbfgs":
        mem = default_lbfgs_memory(n) if args.lbfgs_memory is None else args.lbfgs_memory
        direction = LBfgs(memory=mem, identity_scaling=identity_scaling)
    else:
        raise UsageError(f"unknown method {method!r}")
    if suffix == "a":
        step = Adaptive()
    elif suffix == "ls":
        step = ArmijoWolfe(c1=0.1, c2=0.75)
    elif suffix == "h":
        step = Hybrid()
    else:
        raise UsageError(f"unknown method {method!r}")
    return RunConfig(direction=direction, step=step, grad_tol=args.grad_tol,
                     max_iters=args.max_iters, max_seconds=args.max_seconds)


def _summary_line(method: str, trace: Trace) -> str:
    final = trace.final
    return (f"{method}: iters={trace.iterations} final_gnorm={final.gnorm:.3e} "
            f"termination={trace.termination.kind}")


def cmd_run(args) -> int:
    if args.method not in DETERMINISTIC_METHODS:
        raise UsageError(f"unknown method {args.method!r}; choose from "
                         f"{', '.join(DETERMINISTIC_METHODS)}")
    oracle = _build_oracle(args)
    config = _method_config(args.method, oracle.dim, args,
                            identity_scaling=args.identity_scaling == "on")
    trace = run(config, oracle)
    os.makedirs(args.out, exist_ok=True)
    write_trace_csv(os.path.join(args.out, f"{args.method}.csv"), trace)
    print(_summary_line(args.method, trace))
    kind = trace.termination.kind
    if kind == "grad_tol":
        return EXIT_OK
    if kind in ("max_iters", "time_budget"):
        return EXIT_BUDGET
    return EXIT_ERROR


def cmd_bench(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if len(methods) < 2:
        raise UsageError("bench needs at least two methods")
    for m in methods:
        if m not in DETERMINISTIC_METHODS:
            raise UsageError(f"unknown method {m!r}")
    oracle = _build_oracle(args)
    scaling_grid = {"on": [True], "off": [False], "both": [False, True]}[args.identity_scaling]
    # built before any run, so that an invalid flag is a usage error
    grid = [(method, identity_scaling, _method_config(method, oracle.dim, args, identity_scaling))
            for identity_scaling in scaling_grid for method in methods]
    os.makedirs(args.out, exist_ok=True)
    rows = [SUMMARY_HEADER]
    worst = EXIT_OK
    for method, identity_scaling, config in grid:
        tag = f"{method}-scaled" if identity_scaling else method
        try:
            trace = run(config, oracle)
        except (OptimError, ValueError) as exc:
            rows.append(f"{method},{int(identity_scaling)},,,error: {exc},")
            worst = EXIT_ERROR
            continue
        write_trace_csv(os.path.join(args.out, f"{tag}.csv"), trace)
        settle = ""
        if not isinstance(config.step, Constant):
            idx = t_settle_index(trace.step_sizes())
            settle = "" if idx is None else str(idx)
        rows.append(",".join([
            method, str(int(identity_scaling)), str(trace.iterations),
            _fmt(trace.final.gnorm), trace.termination.kind, settle,
        ]))
        print(_summary_line(tag, trace))
        kind = trace.termination.kind
        if kind == "numerical_error":
            worst = EXIT_ERROR
        elif kind in ("max_iters", "time_budget") and worst == EXIT_OK:
            worst = EXIT_BUDGET
    _write_file(os.path.join(args.out, "summary.csv"), "\n".join(rows) + "\n")
    return worst


def _stoch_schedule(method: str, p: int, args):
    if method.startswith("sgd-") and method[4:].isdigit():
        factor = {"small": 0.5, "medium": 1.0, "large": 4.0}[args.batch]
        return ConstantBatch(size=max(1, int(math.ceil(factor * p))))
    return GrowingBatch(base=int(math.ceil(p / 2)))


def _stoch_step(method: str):
    suffix = method.rsplit("-", 1)[1]
    if suffix == "a":
        return Adaptive()
    return Constant(CONSTANT_STEP_SIZES[f"alpha{suffix}"])


def cmd_stoch(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    for m in methods:
        if m not in STOCHASTIC_METHODS:
            raise UsageError(f"unknown stochastic method {m!r}; choose from "
                             f"{', '.join(STOCHASTIC_METHODS)}")
    p = args.p
    if args.sigma_from_data is not None:
        ds = data_io.load_libsvm(args.sigma_from_data)
        X = ds.to_dense()
        if X.shape[1] < p:
            raise UsageError(f"dataset has {X.shape[1]} features, need >= p = {p}")
        X = X[:, :p]
        sigma = np.cov(X, rowvar=False)
        sigma = 0.5 * (sigma + sigma.T) + 1e-10 * np.eye(p)
    else:
        sigma = make_synthetic_sigma(p, seed=args.sigma_seed,
                                     eig_low=args.eig_low, eig_high=args.eig_high)
    beta = make_sparse_beta(p, seed=args.beta_seed)
    lam = 1.0 / p
    os.makedirs(args.out, exist_ok=True)
    worst = EXIT_OK
    for method in methods:
        base = method.rsplit("-", 1)[0]
        kernel = {"sgd": "sgd", "sn": "snewton", "sbfgs": "sbfgs"}[base]
        sampler = OnlineSampler(sigma, beta, lam, seed=args.seed)
        trace = stochastic_run(kernel, _stoch_schedule(method, p, args),
                               _stoch_step(method), sampler,
                               x0=np.zeros(p), budget=args.iters,
                               max_seconds=args.max_seconds)
        write_trace_csv(os.path.join(args.out, f"{method}.csv"), trace)
        gap = trace.final.log_gap
        gap_s = "n/a" if gap is None else f"{gap:.3f}"
        print(f"{method}: iters={trace.iterations} final_log_gap={gap_s} "
              f"termination={trace.termination.kind}")
        if trace.termination.kind == "numerical_error":
            worst = EXIT_ERROR
    return worst


def build_parser() -> _Parser:
    parser = _Parser(prog="adaptqn",
                     description="Curvature-adaptive optimization benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--data", help="LIBSVM text file")
        p.add_argument("--synthetic-logistic", metavar="SPEC",
                       help="e.g. N=500,n=50,seed=38,separation=1.5,decay=0.6")
        p.add_argument("--synthetic-quadratic", metavar="SPEC",
                       help="e.g. dim=5,cond=100,seed=0")
        p.add_argument("--sc-scale", default="auto",
                       help="auto (B^2 N/4), 1/none, or an explicit factor")
        p.add_argument("--grad-tol", type=float, default=1e-7)
        p.add_argument("--max-iters", type=int, default=5000)
        p.add_argument("--max-seconds", type=float, default=math.inf)
        p.add_argument("--identity-scaling", choices=["on", "off", "both"], default="off")
        p.add_argument("--lbfgs-memory", type=int, default=None,
                       help="default min(n//2, 20)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=".", help="output directory for CSV traces")

    p_run = sub.add_parser("run", help="run one method, write <method>.csv")
    p_run.add_argument("--method", required=True)
    add_common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_bench = sub.add_parser("bench", help="run a method grid, write summary.csv")
    p_bench.add_argument("--methods", required=True, help="comma-separated list")
    add_common(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    p_st = sub.add_parser("stoch", help="stochastic online least-squares experiments")
    p_st.add_argument("--methods", required=True,
                      help=f"comma-separated from {', '.join(STOCHASTIC_METHODS)}")
    p_st.add_argument("--p", type=int, default=30, help="problem dimension")
    p_st.add_argument("--iters", type=int, default=3000)
    p_st.add_argument("--seed", type=int, default=7, help="sampling stream seed")
    p_st.add_argument("--sigma-seed", type=int, default=3)
    p_st.add_argument("--beta-seed", type=int, default=12)
    p_st.add_argument("--eig-low", type=float, default=1.0)
    p_st.add_argument("--eig-high", type=float, default=100.0)
    p_st.add_argument("--sigma-from-data", help="LIBSVM file; empirical covariance")
    p_st.add_argument("--batch", choices=["small", "medium", "large"], default="small",
                      help="constant batch for sgd-1..4: p/2, p, or 4p")
    p_st.add_argument("--max-seconds", type=float, default=math.inf)
    p_st.add_argument("--out", default=".")
    p_st.set_defaults(func=cmd_stoch)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FileNotFoundError, PermissionError, IsADirectoryError, ParseError) as exc:
        print(f"error: cannot read dataset: {exc}", file=sys.stderr)
        return EXIT_NOINPUT
    except OptimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except ValueError as exc:
        # a configuration the library refuses, such as dense BFGS above
        # MAX_DENSE_DIM or a negative iteration budget
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
