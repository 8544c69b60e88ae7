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
from .driver import RunConfig, Trace, check_config, run, t_settle_index
from .errors import NumericalError, ParseError
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
EXIT_CANTCREAT = 73

# exit code of each termination kind; stoch counts max_iters as success
_EXIT = {"grad_tol": EXIT_OK, "max_iters": EXIT_BUDGET, "time_budget": EXIT_BUDGET,
         "numerical_error": EXIT_ERROR}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


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


def _parse_kv(spec: str, keys: tuple) -> dict:
    """The key=value pairs of spec as numbers, each key one of keys."""
    out = {}
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        key, _, val = item.partition("=")
        key = key.strip()
        if key not in keys:
            raise ValueError(f"unknown key {key!r} in {spec!r}; choose from {', '.join(keys)}")
        try:
            out[key] = float(val)
        except ValueError:
            raise ValueError(f"expected key=number, got {item!r}") from None
    return out


def _count(kv: dict, key: str, low: int, default=None) -> int:
    """kv[key] (or default) as a whole number >= low."""
    v = kv.get(key, default)
    if v is None or not (float(v).is_integer() and v >= low):
        raise ValueError(f"{key} must be a whole number >= {low}"
                         + ("" if v is None else f", got {v}"))
    return int(v)


def _real(kv: dict, key: str, default: float, positive: bool = True) -> float:
    """kv[key] (or default) as a finite number, positive if asked."""
    v = kv.get(key, default)
    if not (0.0 if positive else -math.inf) < v < math.inf:
        raise ValueError(f"{key} must be {'positive and ' * positive}finite, got {v}")
    return v


def make_synthetic_quadratic(dim: int, cond: float = 100.0, seed: int = 0) -> QuadraticObjective:
    """Random SPD quadratic with a log-spaced spectrum in [1, cond]."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    eigs = np.logspace(0.0, np.log10(cond), dim)
    A = (q * eigs) @ q.T
    A = 0.5 * (A + A.T)
    b = rng.standard_normal(dim)
    return QuadraticObjective(A, b)


def _read_dataset(path):
    """The LIBSVM dataset at path; a file that cannot be read raises
    ParseError, like one that cannot be parsed."""
    try:
        return data_io.load_libsvm(path)
    except OSError as exc:
        raise ParseError(str(exc)) from exc


def _build_oracle(args):
    """Oracle described by --data / --synthetic-logistic / --synthetic-quadratic."""
    chosen = [s for s in (args.data, args.synthetic_logistic, args.synthetic_quadratic)
              if s is not None]
    if len(chosen) != 1:
        raise ValueError("exactly one of --data, --synthetic-logistic, "
                         "--synthetic-quadratic is required")
    if args.synthetic_quadratic is not None:
        kv = _parse_kv(args.synthetic_quadratic, ("dim", "cond", "seed"))
        return make_synthetic_quadratic(_count(kv, "dim", 1), _real(kv, "cond", 100.0),
                                        _count(kv, "seed", 0, 0))
    if args.data is not None:
        ds = _read_dataset(args.data)
    else:
        kv = _parse_kv(args.synthetic_logistic,
                       ("N", "n", "seed", "separation", "decay", "maxnorm"))
        ds = data_io.synth_logistic(
            _count(kv, "N", 1), _count(kv, "n", 1), seed=_count(kv, "seed", 0, 0),
            separation=_real(kv, "separation", 1.5, positive=False),
            feature_decay=_real(kv, "decay", 0.6),
            max_norm=_real(kv, "maxnorm", 2.0))
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
    else:
        mem = default_lbfgs_memory(n) if args.lbfgs_memory is None else args.lbfgs_memory
        direction = LBfgs(memory=mem, identity_scaling=identity_scaling)
    step = {"a": Adaptive(), "ls": ArmijoWolfe(c1=0.1, c2=0.75), "h": Hybrid()}[suffix]
    return RunConfig(direction=direction, step=step, grad_tol=args.grad_tol,
                     max_iters=args.max_iters, max_seconds=args.max_seconds)


def _summary_line(method: str, trace: Trace) -> str:
    final = trace.final
    return (f"{method}: iters={trace.iterations} final_gnorm={final.gnorm:.3e} "
            f"termination={trace.termination.kind}")


def _methods(text: str, known: tuple) -> list:
    """The comma-separated method names in text, each one of known."""
    methods = [m.strip() for m in text.split(",") if m.strip()]
    for m in methods:
        if m not in known:
            raise ValueError(f"unknown method {m!r}; choose from {', '.join(known)}")
    return methods


def _worst(codes) -> int:
    """The gravest exit code: an error over a spent budget over success."""
    return max(codes, key=(EXIT_OK, EXIT_BUDGET, EXIT_ERROR).index, default=EXIT_OK)


def cmd_run(args) -> int:
    methods = _methods(args.method, DETERMINISTIC_METHODS)
    if len(methods) != 1:
        raise ValueError("run takes one method; bench runs several")
    if args.identity_scaling == "both":
        raise ValueError("run takes --identity-scaling on or off; bench runs both")
    method = methods[0]
    oracle = _build_oracle(args)
    config = _method_config(method, oracle.dim, args,
                            identity_scaling=args.identity_scaling == "on")
    trace = run(config, oracle)
    os.makedirs(args.out, exist_ok=True)
    write_trace_csv(os.path.join(args.out, f"{method}.csv"), trace)
    print(_summary_line(method, trace))
    return _EXIT[trace.termination.kind]


def cmd_bench(args) -> int:
    methods = _methods(args.methods, DETERMINISTIC_METHODS)
    if len(methods) < 2:
        raise ValueError("bench needs at least two methods")
    oracle = _build_oracle(args)
    scaling_grid = {"on": [True], "off": [False], "both": [False, True]}[args.identity_scaling]
    # built and checked before any run, so that an invalid flag or a
    # configuration run refuses is a usage error and writes nothing
    grid = [(method, identity_scaling, _method_config(method, oracle.dim, args, identity_scaling))
            for identity_scaling in scaling_grid for method in methods]
    for _, _, config in grid:
        check_config(config, oracle)
    os.makedirs(args.out, exist_ok=True)
    rows = [SUMMARY_HEADER]
    codes = []
    for method, identity_scaling, config in grid:
        tag = f"{method}-scaled" if identity_scaling else method
        trace = run(config, oracle)
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
        codes.append(_EXIT[trace.termination.kind])
    _write_file(os.path.join(args.out, "summary.csv"), "\n".join(rows) + "\n")
    return _worst(codes)


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
    methods = _methods(args.methods, STOCHASTIC_METHODS)
    p = args.p
    if p < 1:
        raise ValueError(f"--p must be >= 1, got {p}")
    if args.sigma_from_data is not None:
        X = _read_dataset(args.sigma_from_data).to_dense()
        if X.shape[1] < p:
            raise ValueError(f"dataset has {X.shape[1]} features, need >= p = {p}")
        X = X[:, :p]
        sigma = np.cov(X, rowvar=False)
        sigma = 0.5 * (sigma + sigma.T) + 1e-10 * np.eye(p)
    else:
        sigma = make_synthetic_sigma(p, seed=args.sigma_seed,
                                     eig_low=args.eig_low, eig_high=args.eig_high)
    beta = make_sparse_beta(p, seed=args.beta_seed)
    lam = 1.0 / p
    os.makedirs(args.out, exist_ok=True)
    codes = []
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
        codes.append({**_EXIT, "max_iters": EXIT_OK}[trace.termination.kind])
    return _worst(codes)


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
    except ParseError as exc:
        print(f"error: cannot read dataset: {exc}", file=sys.stderr)
        return EXIT_NOINPUT
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except ValueError as exc:
        # a bad flag, or a configuration the library refuses, such as
        # dense BFGS above MAX_DENSE_DIM or a negative iteration budget
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # dataset reads raise ParseError, so this is output
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CANTCREAT


if __name__ == "__main__":
    sys.exit(main())
