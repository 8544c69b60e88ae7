"""Command-line harness: single runs, method-grid benchmarks, and
stochastic experiments, all emitting machine-readable CSV traces."""

from __future__ import annotations

import argparse
import math
import os
import sys
from numbers import Integral

import numpy as np

from . import data_io
from .directions import (BfgsDense, GradientDescent, LBfgs, Newton,
                         default_lbfgs_memory)
from .driver import RunConfig, Trace, check_config, run, t_settle_index
from .errors import NumericalError, ParseError
from .oracles import LogisticObjective, QuadraticObjective
from .steps import Adaptive, ArmijoWolfe, Hybrid, Constant
from .stochastic import (CONSTANT_STEP_SIZES, ConstantBatch, GrowingBatch,
                         OnlineSampler, _run_config, make_sparse_beta,
                         make_synthetic_sigma, stochastic_run)

TRACE_HEADER = "k,f,gnorm,t,eta,step_kind,evals_f,evals_g,evals_hv,elapsed_s,log_gap,err_ratio"
SUMMARY_HEADER = "method,identity_scaling,iters,final_gnorm,termination,iters_until_t_near_1"

# Every CLI method name -> (direction, step, batch): run_config resolves
# the run and bench names (batch None), stoch_config the stoch names.
METHODS = {
    "gd-a": ("gd", Adaptive(), None),
    "gd-ls": ("gd", ArmijoWolfe(), None),
    "newton-a": ("newton", Adaptive(), None),
    "bfgs-a": ("bfgs", Adaptive(), None),
    "bfgs-ls": ("bfgs", ArmijoWolfe(), None),
    "bfgs-h": ("bfgs", Hybrid(), None),
    "lbfgs-a": ("lbfgs", Adaptive(), None),
    "lbfgs-ls": ("lbfgs", ArmijoWolfe(), None),
    "sgd-a": ("sgd", Adaptive(), "growing"),
    "sgd-1": ("sgd", Constant(CONSTANT_STEP_SIZES["alpha1"]), "constant"),
    "sgd-2": ("sgd", Constant(CONSTANT_STEP_SIZES["alpha2"]), "constant"),
    "sgd-3": ("sgd", Constant(CONSTANT_STEP_SIZES["alpha3"]), "constant"),
    "sgd-4": ("sgd", Constant(CONSTANT_STEP_SIZES["alpha4"]), "constant"),
    "sn-a": ("snewton", Adaptive(), "growing"),
    "sn-1": ("snewton", Constant(CONSTANT_STEP_SIZES["alpha1"]), "growing"),
    "sbfgs-a": ("sbfgs", Adaptive(), "growing"),
    "sbfgs-1": ("sbfgs", Constant(CONSTANT_STEP_SIZES["alpha1"]), "growing"),
}
DETERMINISTIC_METHODS = tuple(m for m, (_, _, batch) in METHODS.items() if batch is None)
STOCHASTIC_METHODS = tuple(m for m in METHODS if m not in DETERMINISTIC_METHODS)

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
    return "" if v is None or isinstance(v, float) and math.isnan(v) else repr(float(v))


# How the trace CSV writes each IterationRecord field, in field order
_TRACE_FORMATS = (str, _fmt, _fmt, _fmt, _fmt, str, str, str, str, _fmt, _fmt, _fmt)


def write_trace_csv(path, trace: Trace) -> None:
    lines = [TRACE_HEADER]
    for row in trace.rows():
        lines.append(",".join([fmt(v) for fmt, v in zip(_TRACE_FORMATS, row)]))
    _write_file(path, "\n".join(lines) + "\n")


def _write_file(path, text: str) -> None:
    """Write text to path, creating its directory: --out appears only
    with the first file written, so a run that fails first leaves nothing."""
    os.makedirs(os.path.dirname(path) or os.curdir, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())


def _parse_kv(spec: str, keys: tuple) -> dict:
    """The key=value pairs of spec as numbers, each key one of keys and
    none given twice."""
    out = {}
    for item in filter(None, map(str.strip, spec.split(","))):
        key, _, val = item.partition("=")
        key = key.strip()
        if key not in keys:
            raise ValueError(f"unknown key {key!r} in {spec!r}; choose from {', '.join(keys)}")
        if key in out:
            raise ValueError(f"key {key!r} is given twice in {spec!r}")
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
    """Random SPD quadratic with a log-spaced spectrum in [1, cond]. Raises
    ValueError for what the --synthetic-quadratic spec refuses."""
    if not (isinstance(dim, Integral) and dim >= 1):
        raise ValueError(f"dim must be a whole number >= 1, got {dim!r}")
    if not 0.0 < cond < math.inf:
        raise ValueError(f"cond must be positive and finite, got {cond}")
    if not (isinstance(seed, Integral) and seed >= 0):
        raise ValueError(f"seed must be a whole number >= 0, got {seed!r}")
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
    return LogisticObjective(ds, args.sc_scale)


def run_config(method: str, *, dim: int, grad_tol: float, max_iters: int,
               max_seconds: float = math.inf, identity_scaling: bool = False,
               lbfgs_memory=None) -> RunConfig:
    """The RunConfig of one of DETERMINISTIC_METHODS in dimension dim; L-BFGS
    keeps default_lbfgs_memory(dim) pairs unless lbfgs_memory is given."""
    family, step, _ = METHODS[method]
    memory = default_lbfgs_memory(dim) if lbfgs_memory is None else lbfgs_memory
    direction = {"gd": GradientDescent, "newton": Newton,
                 "bfgs": lambda: BfgsDense(identity_scaling=identity_scaling),
                 "lbfgs": lambda: LBfgs(memory=memory, identity_scaling=identity_scaling),
                 }[family]()
    return RunConfig(direction=direction, step=step, grad_tol=grad_tol,
                     max_iters=max_iters, max_seconds=max_seconds)


def stoch_config(method: str, *, p: int, batch: str = "small") -> tuple:
    """The (stochastic_run method, BatchSchedule, step) of one of
    STOCHASTIC_METHODS in dimension p; batch sizes a constant batch p/2, p or 4p."""
    kernel, step, batching = METHODS[method]
    if batching == "constant":
        factor = {"small": 0.5, "medium": 1.0, "large": 4.0}[batch]
        return kernel, ConstantBatch(size=math.ceil(factor * p)), step
    return kernel, GrowingBatch(base=math.ceil(p / 2)), step


def _methods(text: str, known: tuple) -> list:
    """The comma-separated method names in text, each one of known and
    none listed twice."""
    methods = [m.strip() for m in text.split(",") if m.strip()]
    for i, m in enumerate(methods):
        if m not in known:
            raise ValueError(f"unknown method {m!r}; choose from {', '.join(known)}")
        if m in methods[:i]:
            raise ValueError(f"method {m!r} is listed twice")
    return methods


def _worst(codes) -> int:
    """The gravest exit code: an error over a spent budget over success."""
    return max(codes, key=(EXIT_OK, EXIT_BUDGET, EXIT_ERROR).index, default=EXIT_OK)


def _ended(trace) -> str:
    """The end of a run's stdout line: its termination kind, and the
    detail of why it ended when the run gave one."""
    t = trace.termination
    return f"termination={t.kind}: {t.detail}" if t.detail else f"termination={t.kind}"


def cmd_grid(args) -> int:
    """run one method, or bench two or more under each --identity-scaling,
    tagging the scaled traces and writing summary.csv."""
    bench = args.command == "bench"
    methods = _methods(args.methods, DETERMINISTIC_METHODS)
    if bench and len(methods) < 2:
        raise ValueError("bench needs at least two methods")
    if not bench and len(methods) != 1:
        raise ValueError("run takes one method; bench runs several")
    if not bench and args.identity_scaling == "both":
        raise ValueError("run takes --identity-scaling on or off; bench runs both")
    oracle = _build_oracle(args)
    scalings = {"on": [True], "off": [False], "both": [False, True]}[args.identity_scaling]
    # built and checked before any run, so that an invalid flag or a
    # configuration run refuses is a usage error and writes nothing
    grid = [(method, scaled, run_config(method, dim=oracle.dim, grad_tol=args.grad_tol,
                                        max_iters=args.max_iters, max_seconds=args.max_seconds,
                                        identity_scaling=scaled, lbfgs_memory=args.lbfgs_memory))
            for scaled in scalings for method in methods]
    for _, _, config in grid:
        check_config(config, oracle)
    rows = [SUMMARY_HEADER]
    codes = []
    for method, scaled, config in grid:
        tag = f"{method}-scaled" if scaled and bench else method
        trace = run(config, oracle)
        write_trace_csv(os.path.join(args.out, f"{tag}.csv"), trace)
        settle = t_settle_index(trace.step_sizes())
        rows.append(",".join([
            method, str(int(scaled)), str(trace.iterations), _fmt(trace.final.gnorm),
            trace.termination.kind, "" if settle is None else str(settle)]))
        print(f"{tag}: iters={trace.iterations} final_gnorm={trace.final.gnorm:.3e} "
              f"{_ended(trace)}")
        codes.append(_EXIT[trace.termination.kind])
    if bench:
        _write_file(os.path.join(args.out, "summary.csv"), "\n".join(rows) + "\n")
    return _worst(codes)


def _sigma_from_data(path, p: int) -> np.ndarray:
    """The covariance of the first p features of the LIBSVM file at path,
    symmetrized, plus 1e-10 on the diagonal. Only those p columns are
    made dense."""
    X = _read_dataset(path).X
    if X.shape[0] < 2:
        raise ValueError(f"--sigma-from-data needs >= 2 rows for a covariance, "
                         f"dataset has {X.shape[0]}")
    if X.shape[1] < p:
        raise ValueError(f"dataset has {X.shape[1]} features, need >= p = {p}")
    with np.errstate(over="ignore", invalid="ignore"):
        sigma = np.cov(X[:, :p].toarray(), rowvar=False)
        sigma = 0.5 * (sigma + sigma.T) + 1e-10 * np.eye(p)
    if not np.isfinite(sigma).all():
        raise ValueError(f"--sigma-from-data: the covariance of the first {p} features "
                         f"is not finite")
    return sigma


def cmd_stoch(args) -> int:
    methods = _methods(args.methods, STOCHASTIC_METHODS)
    if not methods:
        raise ValueError("stoch needs at least one method")
    p = args.p
    if p < 1:
        raise ValueError(f"--p must be >= 1, got {p}")
    if args.iters < 0:
        raise ValueError(f"--iters, each run's max_iters, must be >= 0, got {args.iters}")
    if not 0.0 < args.eig_low <= args.eig_high < math.inf:
        raise ValueError(f"need 0 < eig_low <= eig_high < inf, got --eig-low "
                         f"{args.eig_low} --eig-high {args.eig_high}")
    if args.sigma_from_data is not None:
        sigma = _sigma_from_data(args.sigma_from_data, p)
    else:
        sigma = make_synthetic_sigma(p, seed=args.sigma_seed,
                                     eig_low=args.eig_low, eig_high=args.eig_high)
    beta = make_sparse_beta(p, seed=args.beta_seed)
    # each configuration is checked before any run, so a refusal writes nothing
    runs = []
    for method in methods:
        kernel, schedule, step = stoch_config(method, p=p, batch=args.batch)
        sampler = OnlineSampler(sigma, beta, 1.0 / p, seed=args.seed)
        check_config(_run_config(kernel, step, sampler, np.zeros(p), args.iters,
                                 args.max_seconds), sampler.expected_objective())
        runs.append((method, kernel, schedule, step, sampler))
    codes = []
    for method, kernel, schedule, step, sampler in runs:
        trace = stochastic_run(kernel, schedule, step, sampler, x0=np.zeros(p),
                               budget=args.iters, max_seconds=args.max_seconds)
        write_trace_csv(os.path.join(args.out, f"{method}.csv"), trace)
        gap = trace.final.log_gap
        gap_s = "n/a" if gap is None else f"{gap:.3f}"
        print(f"{method}: iters={trace.iterations} final_log_gap={gap_s} {_ended(trace)}")
        codes.append({**_EXIT, "max_iters": EXIT_OK}[trace.termination.kind])
    return _worst(codes)


def build_parser() -> _Parser:
    parser = _Parser(prog="adaptqn",
                     description="Curvature-adaptive optimization benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    # argparse names the flag and the function in a value's refusal
    def sc_scale(text):  # None for auto (B^2 N/4), 1.0 for none, else a positive finite number
        v = None if text == "auto" else 1.0 if text == "none" else float(text)
        if v is not None and not 0.0 < v < math.inf:
            raise ValueError(text)
        return v

    def seed(text):  # a whole number >= 0
        if int(text) < 0:
            raise ValueError(text)
        return int(text)

    def memory(text):  # a whole number in [1, sys.maxsize], as LBfgs takes
        if not 1 <= int(text) <= sys.maxsize:
            raise ValueError(text)
        return int(text)

    def add_common(p):
        p.add_argument("--data", help="LIBSVM text file")
        p.add_argument("--synthetic-logistic", metavar="SPEC",
                       help="e.g. N=500,n=50,seed=38,separation=1.5,decay=0.6")
        p.add_argument("--synthetic-quadratic", metavar="SPEC",
                       help="e.g. dim=5,cond=100,seed=0")
        p.add_argument("--sc-scale", type=sc_scale, default="auto",
                       help="auto (B^2 N/4), 1/none, or an explicit factor")
        p.add_argument("--grad-tol", type=float, default=1e-7)
        p.add_argument("--max-iters", type=int, default=5000)
        p.add_argument("--max-seconds", type=float, default=math.inf)
        p.add_argument("--identity-scaling", choices=["on", "off", "both"], default="off")
        p.add_argument("--lbfgs-memory", type=memory, default=None,
                       help="default min(n//2, 20)")
        p.add_argument("--out", default=".", help="output directory for CSV traces")

    p_run = sub.add_parser("run", help="run one method, write <method>.csv")
    p_run.add_argument("--method", dest="methods", metavar="METHOD", required=True)
    add_common(p_run)
    p_run.set_defaults(func=cmd_grid)

    p_bench = sub.add_parser("bench", help="run a method grid, write summary.csv")
    p_bench.add_argument("--methods", required=True, help="comma-separated list")
    add_common(p_bench)
    p_bench.set_defaults(func=cmd_grid)

    p_st = sub.add_parser("stoch", help="stochastic online least-squares experiments")
    p_st.add_argument("--methods", required=True,
                      help=f"comma-separated from {', '.join(STOCHASTIC_METHODS)}")
    p_st.add_argument("--p", type=int, default=30, help="problem dimension")
    p_st.add_argument("--iters", type=int, default=3000)
    p_st.add_argument("--seed", type=seed, default=7, help="sampling stream seed")
    p_st.add_argument("--sigma-seed", type=seed, default=3)
    p_st.add_argument("--beta-seed", type=seed, default=12)
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
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
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
