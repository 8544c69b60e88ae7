"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the checklist.
The shared desk-scale problem is the synthetic logistic dataset with
N = 500, n = 50, seed 38 (standard self-concordant scaling applied).
"""

import math
import time

import numpy as np
import pytest

from adaptqn import (Adaptive, BfgsDense, Constant, ConstantBatch,
                     GradientDescent, GrowingBatch, Hybrid,
                     LBfgs, LogisticObjective, Newton, OnlineSampler,
                     QuadraticObjective, ReferenceOptimum, RunConfig,
                     SampledBatchOracle, adaptive_step, adaptive_step_size,
                     armijo_check, bfgs_update_dense, compute_direction,
                     default_lbfgs_memory, ingest_pair, make_sparse_beta,
                     make_synthetic_sigma, new_state, omega, parse_libsvm,
                     run, serialize_libsvm,
                     stochastic_run, superlinear_report, synth_logistic,
                     two_loop_direction, wolfe_check)
from adaptqn.stochastic import CONSTANT_STEP_SIZES

from conftest import DESK_SEED, compute_reference, sym

DESK_N, DESK_DIM = 500, 50
GRAD_TOL = 1e-7

# Frozen regression numbers for the seeded stochastic baseline
# (criterion 11). The first baseline run of this implementation gave
# final log-gap -1.4732 (minimum -1.7042) for SBFGS-A and a margin of
# 2.3094 log-gap units over SGD with constant step alpha1; thresholds
# below leave headroom for platform-level rounding drift.
STOCH_SEED = 7
STOCH_SIGMA_SEED = 3
STOCH_BETA_SEED = 12
STOCH_REACH_LOG_GAP = -1.3
STOCH_MARGIN = 2.0


def _report(num, text):
    print(f"ACCEPTANCE {num:>2} PASS: {text}")


# ---------------------------------------------------------------------------
# shared desk-scale runs, instrumented through the public primitives
# ---------------------------------------------------------------------------

ADAPTIVE_RULES = {
    "gd-a": GradientDescent(),
    "newton-a": Newton(),
    "bfgs-a": BfgsDense(),
    "lbfgs-a": LBfgs(memory=default_lbfgs_memory(DESK_DIM)),
}


def instrumented_adaptive_run(obj, rule, grad_tol=GRAD_TOL, max_iters=5000):
    """Adaptive-step loop recording the per-iteration scalars needed by
    the decrease/Armijo/Wolfe checks."""
    x = np.zeros(obj.dim)
    state = new_state(rule, obj.dim)
    f = obj.value(x)
    g = obj.gradient(x)
    steps = []
    for _ in range(max_iters):
        if np.linalg.norm(g) < grad_tol:
            return steps, True
        d, rho = compute_direction(state, obj.at(x), g)
        t, delta, eta = adaptive_step_size(obj.at(x).ray(d), rho)
        x_new = x + t * d
        f_new = obj.value(x_new)
        g_new = obj.gradient(x_new)
        steps.append({
            "f0": f, "f1": f_new, "t": t, "eta": eta,
            "gd0": float(g @ d), "gd1": float(g_new @ d),
        })
        ingest_pair(state, x_new - x, g_new - g)
        x, f, g = x_new, f_new, g_new
    return steps, False


@pytest.fixture(scope="module")
def desk_oracle():
    return LogisticObjective(synth_logistic(DESK_N, DESK_DIM, seed=DESK_SEED))


@pytest.fixture(scope="module")
def desk_runs(desk_oracle):
    t0 = time.perf_counter()
    runs = {name: instrumented_adaptive_run(desk_oracle, rule)
            for name, rule in ADAPTIVE_RULES.items()}
    elapsed = time.perf_counter() - t0
    for name, (steps, converged) in runs.items():
        assert converged, f"{name} did not reach the gradient threshold"
    return runs, elapsed


@pytest.fixture(scope="module")
def desk_ref(desk_oracle):
    return compute_reference(desk_oracle)


def test_criterion_1_damped_newton_recursion():
    """Iterate norms on f = ||x||^2/2 follow r <- r^2/(1+r) from r = 3."""
    obj = QuadraticObjective(np.eye(3), np.zeros(3))
    x0 = np.array([3.0, 0.0, 0.0])
    cfg = RunConfig(direction=Newton(), step=Adaptive(), grad_tol=1e-150,
                    max_iters=20, x0=x0)

    elapsed = min(_timed_run(cfg, obj) for _ in range(3))
    trace = run(cfg, obj)

    refs = [3.0]
    for _ in range(20):
        r = refs[-1]
        refs.append(r * r / (1.0 + r))

    eps = np.finfo(float).eps
    n_steps = trace.iterations
    for k, rec in enumerate(trace.records):
        if rec.step_kind == "terminal":
            assert rec.gnorm < cfg.grad_tol
            break
        # relative 1e-12, floored at the double-precision resolution of
        # one update (the map squares r, so ulp(r_{k-1}) bounds what any
        # double implementation can track once r passes ~1e-4)
        floor = 8.0 * eps * refs[k - 1] if k > 0 else 0.0
        assert abs(rec.gnorm - refs[k]) <= max(1e-12 * refs[k], floor), k
    # iterations 12..20 of the recursion sit below double resolution;
    # the run lands exactly on the optimum there
    assert all(r <= 8.0 * eps * refs[n_steps - 1] for r in refs[n_steps + 1:])
    assert elapsed < 1e-3, f"runtime {elapsed * 1e3:.3f} ms"
    _report(1, f"damped-Newton norm recursion tracked for {n_steps} resolvable "
               f"iterations (rest below fp resolution), {elapsed * 1e6:.0f} us")


def _timed_run(cfg, obj):
    t0 = time.perf_counter()
    run(cfg, obj)
    return time.perf_counter() - t0


def test_criterion_2_decrease_guarantee(desk_runs):
    runs, elapsed = desk_runs
    total = 0
    for name, (steps, _) in runs.items():
        for s in steps:
            bound = s["f0"] - omega(s["eta"]) + 1e-10 * (1.0 + abs(s["f0"]))
            assert s["f1"] <= bound, (name, s)
        total += len(steps)
    assert elapsed < 5.0
    _report(2, f"omega-decrease held on all {total} iterations of "
               f"{'/'.join(runs)} ({elapsed:.2f}s)")


def test_criterion_3_armijo_with_half(desk_runs):
    # The inequality is exact mathematics; near termination its margin
    # (~eta^3 * rho) drops below one ulp of f, so the check carries the
    # same f-evaluation allowance as criterion 2's decrease bound.
    runs, _ = desk_runs
    checked = ties = 0
    for name, (steps, _) in runs.items():
        for s in steps:
            allowance = 1e-10 * (1.0 + abs(s["f0"]))
            assert s["f1"] <= s["f0"] + 0.5 * s["t"] * s["gd0"] + allowance, (name, s)
            checked += 1
            if not armijo_check(s["f0"], s["f1"], s["t"], s["gd0"], 0.5):
                ties += 1
    assert ties <= 0.1 * checked
    _report(3, f"Armijo(c1=1/2) held on {checked}/{checked} adaptive steps "
               f"({ties} sub-ulp ties covered by the fp allowance)")


def test_criterion_4_conditional_wolfe(desk_runs):
    runs, _ = desk_runs
    c2 = 0.75
    threshold = c2 / (2.0 * (1.0 - c2))  # = 1.5
    assert threshold == 1.5
    eligible = 0
    for name, (steps, _) in runs.items():
        for s in steps:
            if s["eta"] <= threshold:
                assert wolfe_check(s["gd1"], s["gd0"], c2), (name, s)
                eligible += 1
    assert eligible > 0
    _report(4, f"Wolfe(c2=0.75) held on all {eligible} steps with eta <= 1.5")


def test_criterion_5_step_optimality():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        rho, delta = 10.0 ** rng.uniform(-3.0, 3.0, size=2)
        t = adaptive_step(rho, delta)
        tau = np.linspace(0.0, 0.999 / delta, 100_000)
        gains = (rho + delta) * tau + np.log1p(-delta * tau)
        best = (rho + delta) * t + np.log1p(-delta * t)
        assert float(gains.max()) <= best + 1e-8
    _report(5, "grid search never beat the adaptive step on 1000 random "
               "(rho, delta) pairs (1e5-point grids)")


def test_criterion_6_bfgs_structure():
    rng = np.random.default_rng(23)
    n = 12
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    H = (q * np.linspace(0.5, 2.0, n)) @ q.T
    for _ in range(1000):
        s = rng.standard_normal(n)
        qm, _ = np.linalg.qr(rng.standard_normal((n, n)))
        M = (qm * (10.0 ** rng.uniform(-1, 1, n))) @ qm.T
        y = M @ s
        H = bfgs_update_dense(H, s, y)
        assert np.linalg.norm(sym(H) @ y - s) <= 1e-10 * (1.0 + np.linalg.norm(s))

    # a two-loop that keeps all 50 pairs equals dense BFGS on a shared trajectory
    A = (q * np.linspace(0.1, 10.0, n)) @ q.T
    obj = QuadraticObjective(A, rng.standard_normal(n))
    dense_state = new_state(BfgsDense(), n)
    loop_state = new_state(LBfgs(memory=50), n)
    x = rng.standard_normal(n)
    g = obj.gradient(x)
    for _ in range(50):
        d1, _ = compute_direction(dense_state, obj.at(x), g)
        d2, _ = compute_direction(loop_state, obj.at(x), g)
        assert np.linalg.norm(d1 - d2) <= 1e-8 * np.linalg.norm(d1)
        x_new = x + 0.05 * d1
        g_new = obj.gradient(x_new)
        ingest_pair(dense_state, x_new - x, g_new - g)
        ingest_pair(loop_state, x_new - x, g_new - g)
        x, g = x_new, g_new
    _report(6, "secant residual <= 1e-10(1+||s||) over 1000 updates; "
               "two-loop == dense over a 50-step trajectory (rel 1e-8)")


def test_criterion_7_superlinear_signature(desk_oracle, desk_ref):
    t0 = time.perf_counter()
    cfg = RunConfig(direction=BfgsDense(), step=Adaptive(), grad_tol=GRAD_TOL,
                    max_iters=5000, reference=desk_ref)
    trace = run(cfg, desk_oracle)
    elapsed = time.perf_counter() - t0
    assert trace.termination.kind == "grad_tol"
    assert trace.final.gnorm < GRAD_TOL

    rep = superlinear_report(trace)
    # |t - 1| < 0.1 across the final 20% of iterations, at the report's
    # 80% consistency level (the same rule the reference tables use)
    window_start = int(math.floor(0.8 * trace.iterations))
    assert rep.settle_index is not None and rep.settle_index <= window_start, rep
    assert len(rep.tail_ratios) == 5
    assert all(r < 0.5 for r in rep.tail_ratios), rep.tail_ratios
    assert rep.final_ratio < 0.1, rep.final_ratio
    assert elapsed < 10.0
    _report(7, f"BFGS-A: {trace.iterations} iters, t settled at index "
               f"{rep.settle_index} (<= {window_start}), tail ratios "
               f"{tuple(round(r, 3) for r in rep.tail_ratios)}, "
               f"final {rep.final_ratio:.3f}")


def test_criterion_8_linear_convergence_envelope(desk_oracle, desk_ref):
    cfg = RunConfig(direction=GradientDescent(), step=Adaptive(),
                    grad_tol=GRAD_TOL, max_iters=20000, reference=desk_ref)
    trace = run(cfg, desk_oracle)
    assert trace.termination.kind == "grad_tol"
    pts = [(r.k, r.log_gap) for r in trace.records if r.log_gap is not None]
    ks = np.array([p[0] for p in pts], dtype=float)
    lg = np.array([p[1] for p in pts])
    slope = np.polyfit(ks, lg, 1)[0]
    assert slope < 0.0
    _report(8, f"GD-A log-gap slope {slope:.4f} < 0 over {len(pts)} iterations")


def test_criterion_9_derivative_correctness(desk_oracle):
    rng = np.random.default_rng(31)

    def check(oracle, scale, n_points=20):
        for _ in range(n_points):
            x = scale * rng.standard_normal(oracle.dim)
            g = oracle.gradient(x)
            fd = np.empty_like(g)
            h = 1e-6
            for i in range(oracle.dim):
                e = np.zeros(oracle.dim)
                e[i] = h
                fd[i] = (oracle.value(x + e) - oracle.value(x - e)) / (2 * h)
            assert np.linalg.norm(fd - g) / np.linalg.norm(g) < 1e-5
            d = rng.standard_normal(oracle.dim)
            hv = oracle.at(x).ray(d).hess_vec()
            h = 1e-5
            fd_hv = (oracle.gradient(x + h * d) - oracle.gradient(x - h * d)) / (2 * h)
            assert np.linalg.norm(fd_hv - hv) / np.linalg.norm(hv) < 1e-4

    check(desk_oracle, scale=0.2)
    X = rng.standard_normal((80, 12))
    Y = X @ rng.standard_normal(12) + rng.standard_normal(80)
    check(SampledBatchOracle(X, Y, lam=1.0 / 12), scale=1.0)
    _report(9, "gradient (rel 1e-5) and Hessian action (rel 1e-4) matched "
               "central differences at 20 points for both oracle families")


def test_criterion_10_self_concordance_audit(desk_oracle):
    from adaptqn import sc_lower_f, sc_lower_gd, sc_upper_f, sc_upper_gd

    rng = np.random.default_rng(37)
    for _ in range(50):
        x = 0.3 * rng.standard_normal(desk_oracle.dim)
        d = rng.standard_normal(desk_oracle.dim)
        delta = float(np.sqrt(d @ desk_oracle.at(x).ray(d).hess_vec()))
        t = rng.uniform(0.0, 0.9) / delta
        f0 = desk_oracle.value(x)
        gd = float(desk_oracle.gradient(x) @ d)
        slack = 1e-8 * (1.0 + abs(f0))
        ft = desk_oracle.value(x + t * d)
        gdt = float(desk_oracle.gradient(x + t * d) @ d)
        assert sc_lower_f(f0, gd, delta, t) - slack <= ft <= sc_upper_f(f0, gd, delta, t) + slack
        assert sc_lower_gd(gd, delta, t) - slack <= gdt <= sc_upper_gd(gd, delta, t) + slack
    _report(10, "all four ray bounds held at 50 random probes of the "
                "scaled logistic oracle")


def test_criterion_11_stochastic_regression():
    # Thresholds are the frozen first-baseline regression numbers (see
    # module docstring constants); the margin clause carries the
    # figure-trend value of 2 log-gap units.
    p = 30
    sigma = make_synthetic_sigma(p, seed=STOCH_SIGMA_SEED)
    beta = make_sparse_beta(p, seed=STOCH_BETA_SEED)
    lam = 1.0 / p
    t0 = time.perf_counter()
    sb = stochastic_run("sbfgs", GrowingBatch(base=int(math.ceil(p / 2))),
                        Adaptive(), OnlineSampler(sigma, beta, lam, seed=STOCH_SEED),
                        x0=np.zeros(p), budget=3000)
    sg = stochastic_run("sgd", ConstantBatch(int(math.ceil(p / 2))),
                        Constant(CONSTANT_STEP_SIZES["alpha1"]),
                        OnlineSampler(sigma, beta, lam, seed=STOCH_SEED),
                        x0=np.zeros(p), budget=3000)
    elapsed = time.perf_counter() - t0
    assert sb.termination.kind == "max_iters"
    gaps = [r.log_gap for r in sb.records if r.log_gap is not None]
    reached = min(gaps)
    assert reached <= STOCH_REACH_LOG_GAP, reached
    margin = sg.final.log_gap - sb.final.log_gap
    assert margin >= STOCH_MARGIN, margin
    assert elapsed < 60.0
    _report(11, f"SBFGS-A reached log-gap {reached:.3f} "
                f"(<= {STOCH_REACH_LOG_GAP}), beat SGD-alpha1 by "
                f"{margin:.2f} units ({elapsed:.1f}s)")


def test_criterion_12_hybrid_behavior(desk_oracle):
    adaptive = run(RunConfig(direction=BfgsDense(), step=Adaptive(),
                             grad_tol=GRAD_TOL, max_iters=5000), desk_oracle)
    hybrid = run(RunConfig(direction=BfgsDense(), step=Hybrid(),
                           grad_tol=GRAD_TOL, max_iters=5000), desk_oracle)
    assert adaptive.termination.kind == hybrid.termination.kind == "grad_tol"
    assert hybrid.iterations <= adaptive.iterations
    _report(12, f"BFGS-H converged in {hybrid.iterations} iterations "
                f"<= BFGS-A's {adaptive.iterations}")


def test_criterion_13_parser_suite():
    ds = parse_libsvm("+1 1:0.5 3:-0.2")
    assert ds.n == 3 and list(ds.X.indices) == [0, 2]
    ds01 = parse_libsvm("0 2:1\n1 1:1")
    assert list(ds01.labels) == [-1.0, 1.0] and ds01.n == 2
    from adaptqn import ParseError
    with pytest.raises(ParseError):
        parse_libsvm("+1 3:1 2:1")
    rng = np.random.default_rng(41)
    lines = []
    for _ in range(30):
        cols = np.sort(rng.choice(25, size=rng.integers(1, 6), replace=False))
        feats = " ".join(f"{c + 1}:{rng.normal():.17g}" for c in cols)
        lines.append(("+1 " if rng.random() < 0.5 else "-1 ") + feats)
    original = parse_libsvm("\n".join(lines), n_features=25)
    reparsed = parse_libsvm(serialize_libsvm(original), n_features=25)
    np.testing.assert_array_equal(original.X.indptr, reparsed.X.indptr)
    np.testing.assert_array_equal(original.X.indices, reparsed.X.indices)
    np.testing.assert_array_equal(original.X.data, reparsed.X.data)
    np.testing.assert_array_equal(original.labels, reparsed.labels)
    _report(13, "LIBSVM round-trip and error cases passed")
