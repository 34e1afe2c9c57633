"""End-to-end acceptance suite.

Each test covers one acceptance criterion at its stated tolerance and
prints a single pass/fail line (bypassing capture so the lines show up
in the normal pytest run). The heavy benchmark runs are shared through
module-scoped fixtures.
"""

import sys
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest

from bregopt import (
    EXIT_TOLERANCE,
    CompositeObjective,
    EuclideanKernel,
    L1Term,
    SolverConfig,
    bpg_solve,
    bpge_solve,
    check_smad,
    harness,
    plip,
    qip,
)
from bregopt.problems import SmoothTerm

from helpers import (fd_gradient, prox_oracle, rate_check_loop, shrink,
                     solve_recording)

PLIP_SIZES = ((100, 10), (100, 50), (1000, 10), (1000, 50))
QIP_SIZES = ((200, 10), (200, 50), (1000, 10), (1000, 50))
SEEDS = (0, 1, 2, 3, 4)


@pytest.fixture
def report(capfd):
    """One pass/fail line per criterion, written past pytest's capture."""
    def _report(num, label, ok):
        with capfd.disabled():
            print("criterion %02d  %-34s %s"
                  % (num, label, "PASS" if ok else "FAIL"))
            sys.stdout.flush()
    return _report


@dataclass(frozen=True)
class Run:
    problem: str
    m: int
    d: int
    seed: int
    obj: object
    x0: np.ndarray
    result: object
    iterates: list


def _run_one(problem, m, d, seed, solve=bpge_solve):
    if problem == "plip":
        inst = plip.generate_plip(m, d, seed)
        obj, x0 = plip.make_objective(inst), plip.default_x0(inst)
    else:
        inst = qip.generate_qip(m, d, seed)
        obj, x0 = qip.make_objective(inst), qip.default_x0(inst)
    cfg = SolverConfig(lam=1.0 / obj.smooth.smad_constant(), tol=1e-6,
                       k_max=5000)
    return Run(problem, m, d, seed, obj, x0,
               *solve_recording(solve, obj, x0, cfg))


@pytest.fixture(scope="module")
def benchmark_runs():
    runs = []
    for m, d in PLIP_SIZES:
        for seed in SEEDS:
            runs.append(_run_one("plip", m, d, seed))
    for m, d in QIP_SIZES:
        for seed in SEEDS:
            runs.append(_run_one("qip", m, d, seed))
    return runs


@pytest.fixture(scope="module")
def acceleration_pairs(benchmark_runs):
    """(BPGe run, matching BPG result) on the overdetermined cell."""
    pairs = []
    for run in benchmark_runs:
        if (run.problem, run.m, run.d) == ("plip", 1000, 10):
            bpg = bpg_solve(run.obj, run.x0, run.result.config)
            pairs.append((run, bpg))
    assert len(pairs) == len(SEEDS)
    return pairs


def test_criterion_01_lyapunov_monotone(benchmark_runs, report):
    failures = []
    for run in benchmark_runs:
        trace = run.result.trace
        for prev, curr in zip(trace, trace[1:]):
            slack = 1e-10 * max(1.0, abs(prev.lyapunov))
            if curr.lyapunov > prev.lyapunov + slack:
                failures.append((run.problem, run.m, run.d, run.seed,
                                 curr.k, curr.lyapunov - prev.lyapunov))
    ok = not failures
    report(1, "lyapunov monotonicity", ok)
    assert ok, failures[:5]


def test_criterion_02_sublinear_rate_bound(benchmark_runs, report):
    failures = []
    for run in benchmark_runs:
        checked, max_slack = rate_check_loop(run.result, slack=1e-10)
        if checked and max_slack > 0.0:
            failures.append((run.problem, run.m, run.d, run.seed, max_slack))
    ok = not failures
    report(2, "sublinear rate bound", ok)
    assert ok, failures


def test_criterion_03_prox_matches_grid_oracle(report):
    """The solvers' prox step: obj.nonsmooth.prox at the mirror point of y."""
    failures = []

    def check(case, obj, lam, g_value, ys, lo, hi):
        kernel = obj.kernel
        for y in ys:
            grad = obj.smooth.gradient(y)
            x = obj.nonsmooth.prox(kernel, kernel.gradient(y) - lam * grad,
                                   lam)
            x_star, v_star = prox_oracle(kernel, g_value, y, grad, lam,
                                         lo=lo, hi=hi)
            phi = (g_value(x) + float(np.dot(grad, x - y))
                   + kernel.bregman(x, y) / lam)
            if np.linalg.norm(x - x_star) > 1e-5 or abs(phi - v_star) > 1e-8:
                failures.append(case + (y,))

    for seed in SEEDS:
        inst = plip.generate_plip(12, 2, seed)
        rng = np.random.default_rng([seed, 7])
        obj = plip.make_objective(inst)
        check(("plip", seed), obj, 1.0 / obj.smooth.smad_constant(),
              lambda u: 0.0, (rng.uniform(0.3, 1.5, 2) for _ in range(10)),
              lo=1e-3, hi=4.0)

    for seed in SEEDS:
        inst = qip.generate_qip(8, 2, seed)
        rng = np.random.default_rng([seed, 8])
        obj = qip.make_objective(inst)
        check(("qip", seed), obj, 1.0 / obj.smooth.smad_constant(),
              lambda u: inst.theta * float(np.sum(np.abs(u))),
              (rng.standard_normal(2) for _ in range(10)), lo=-3.0, hi=3.0)

    ok = not failures
    report(3, "prox vs grid oracle", ok)
    assert ok, failures


class _Quadratic(SmoothTerm):
    def __init__(self, B, c):
        self.B, self.c = B, c
        self.L = float(np.linalg.norm(B, 2)) ** 2

    def value(self, x):
        r = self.B @ x - self.c
        return 0.5 * float(np.dot(r, r))

    def gradient(self, x):
        return self.B.T @ (self.B @ x - self.c)

    def smad_constant(self):
        return self.L


def test_criterion_04_reduction_identities(report):
    ok = True

    # (a) beta0 = 0 reproduces the plain Bregman method bit for bit.
    for problem, m, d in (("plip", 60, 6), ("qip", 60, 6)):
        run = _run_one(problem, m, d, seed=0)
        cfg_zero = SolverConfig(lam=run.result.config.lam, tol=1e-6,
                                k_max=300, beta0=0.0)
        r_e = bpge_solve(run.obj, run.x0, cfg_zero)
        r_0 = bpg_solve(run.obj, run.x0, cfg_zero)
        ok = ok and np.array_equal(r_e.x_final, r_0.x_final)
        ok = ok and len(r_e.trace) == len(r_0.trace)
        for a, b in zip(r_e.trace, r_0.trace):
            ok = ok and a.psi == b.psi and a.dh_step == b.dh_step \
                and a.lyapunov == b.lyapunov

    # (b) Euclidean kernel on smooth + l1 matches an independently coded
    # extrapolated proximal gradient loop per iterate.
    rng = np.random.default_rng(0)
    B = rng.standard_normal((10, 6))
    c = rng.standard_normal(10)
    weight = 0.3
    obj = CompositeObjective(_Quadratic(B, c), L1Term(weight),
                             EuclideanKernel(6))
    lam = 1.0 / obj.smooth.smad_constant()
    cfg = SolverConfig(lam=lam, k_max=100, tol=1e-300, beta0=0.95, eta=0.5,
                       rho=0.9)
    x0 = np.zeros(6)
    result, recorded = solve_recording(bpge_solve, obj, x0, cfg)

    x_prev = x0.copy()
    x_curr = x0.copy()
    iterates = [x0.copy()]
    for _ in range(100):
        delta = x_curr - x_prev
        beta = cfg.beta0
        if np.any(delta):
            n2 = 0.5 * float(np.dot(delta, delta))
            for _ in range(cfg.max_shrinks + 1):
                trial = x_curr + beta * delta
                diff = trial - x_curr
                if 0.5 * float(np.dot(diff, diff)) <= cfg.rho * n2:
                    break
                beta *= cfg.eta
        y = x_curr + beta * delta if np.any(delta) else x_curr
        x_next = shrink(y - lam * obj.smooth.gradient(y), lam * weight)
        iterates.append(x_next.copy())
        x_prev, x_curr = x_curr, x_next

    ok = ok and len(recorded) == len(iterates)
    for a, b in zip(recorded, iterates):
        ok = ok and np.linalg.norm(a - b) <= 1e-12

    report(4, "reduction identities", ok)
    assert ok


def test_criterion_05_gradients_match_finite_differences(report):
    failures = []

    inst = plip.generate_plip(40, 8, seed=0)
    smooth = plip.PlipSmooth(inst)
    rng = np.random.default_rng(11)
    for _ in range(100):
        x = rng.uniform(0.1, 2.0, 8)
        g = smooth.gradient(x)
        fd = fd_gradient(smooth.value, x)
        if np.linalg.norm(g - fd) > 1e-5 * max(1.0, np.linalg.norm(g)):
            failures.append(("plip", x))

    inst = qip.generate_qip(40, 8, seed=0)
    smooth = qip.QipSmooth(inst)
    rng = np.random.default_rng(12)
    for _ in range(100):
        x = rng.standard_normal(8)
        g = smooth.gradient(x)
        fd = fd_gradient(smooth.value, x)
        if np.linalg.norm(g - fd) > 1e-5 * max(1.0, np.linalg.norm(g)):
            failures.append(("qip", x))

    ok = not failures
    report(5, "finite-difference gradients", ok)
    assert ok, failures


def test_criterion_06_smoothness_envelopes(report):
    failures = []
    for seed in SEEDS:
        inst = plip.generate_plip(80, 8, seed)
        smad = check_smad(plip.make_objective(inst), samples=1000,
                          rng_seed=seed)
        if not smad.passed:
            failures.append(("plip", seed, smad))
        inst = qip.generate_qip(80, 8, seed)
        smad = check_smad(qip.make_objective(inst), samples=1000,
                          rng_seed=seed)
        if not smad.passed:
            failures.append(("qip", seed, smad))
    ok = not failures
    report(6, "certified smoothness envelopes", ok)
    assert ok, failures


def test_criterion_07_extrapolation_accelerates(acceleration_pairs, report):
    failures = []
    for run, bpg in acceleration_pairs:
        n_e, n_0 = run.result.iterations, bpg.iterations
        if not n_e <= 0.5 * n_0:
            failures.append((run.seed, n_e, n_0))
    ok = not failures
    report(7, "extrapolation halves iterations", ok)
    assert ok, failures


def test_criterion_08_stationarity_at_exit(benchmark_runs, acceleration_pairs,
                                            report):
    """Known red, left failing deliberately, on both problem families.

    Every tolerance exit in this grid is outside the band: 10 plip runs
    and 11 qip runs (the runs that stop at k_max are skipped).

    For the Poisson problem the nonsmooth part is zero and the kernel step
    is exact, so the recorded subgradient residual is identically equal to
    ||grad f(x_final)||. The iterate-relative exit fires when the step
    ||x^k - x^{k-1}|| drops to ~1e-6, and for the Burg kernel the step and
    the gradient are linked by x - y = lam * x*y*grad, so the gradient norm
    at exit scales like tol * L, i.e. 2e-4 to 0.2 for these sizes, 2x to
    1700x above the 1e-4 band no matter how the solver is coded.

    The quadratic inverse runs fail the same way: at an iterate-relative
    exit the residual is about ||grad h(x^k) - grad h(y^{k-1})|| / lam,
    which also scales like tol * L, and qip's L is 7e4 to 8e6. Their
    residuals are 0.11 to 2.9 against a band of 1.6e-4 to 3e-4. The band
    and the 1e-6 exit tolerance cannot both hold on either family.
    """
    labelled = [(run.problem, run.m, run.d, run.seed, run.obj, run.result)
                for run in benchmark_runs]
    labelled += [("plip-bpg", run.m, run.d, run.seed, run.obj, bpg)
                 for run, bpg in acceleration_pairs]
    failures = []
    for problem, m, d, seed, obj, result in labelled:
        if result.exit_reason != EXIT_TOLERANCE:
            continue
        grad_norm = np.linalg.norm(obj.smooth.gradient(result.x_final))
        if not result.trace[-1].residual < 1e-4 * (1.0 + grad_norm):
            failures.append((problem, m, d, seed,
                             float(result.trace[-1].residual),
                             float(grad_norm)))
    ok = not failures
    report(8, "stationarity residual at exit", ok)
    counts = Counter(row[0].split("-")[0] for row in failures)
    assert ok, "%d tolerance exits outside the band (%s):\n%s" % (
        len(failures), ", ".join("%s %d" % kv for kv in sorted(counts.items())),
        "\n".join(map(str, failures)))


def test_criterion_09_line_search_safety(benchmark_runs, report):
    failures = []
    for run in benchmark_runs:
        cfg = run.result.config
        kernel = run.obj.kernel
        inv_lam = 1.0 / cfg.lam
        mu = run.obj.smooth.weak_convexity_constant()
        C_k = inv_lam / (inv_lam + mu)
        iterates = run.iterates
        for i, rec in enumerate(run.result.trace):
            if i == 0:
                continue
            if rec.shrink_count > cfg.max_shrinks:
                failures.append(("overran", run.problem, run.seed, rec.k))
            x_curr = iterates[i - 1]
            x_prev = iterates[i - 2] if i >= 2 else iterates[0]
            direction = x_curr - x_prev
            if not np.any(direction):
                continue
            if rec.beta_accepted == 0.0:
                failures.append(("fallback", run.problem, run.m, run.d,
                                 run.seed, rec.k))
                continue
            trial = x_curr + rec.beta_accepted * direction
            lhs = kernel.bregman(x_curr, trial)
            rhs = cfg.rho * C_k * kernel.bregman(x_prev, x_curr)
            if lhs > rhs * (1.0 + 1e-12) + 1e-15:
                failures.append(("inequality", run.problem, run.m, run.d,
                                 run.seed, rec.k, lhs - rhs))
    ok = not failures
    report(9, "line-search safety", ok)
    assert ok, failures[:5]


def test_criterion_10_determinism(tmp_path, report):
    spec = harness.ExperimentSpec(problem="plip", sizes=((1000, 10),),
                                  repetitions=len(SEEDS), seed=0)
    harness.run_comparison(spec, out_dir=tmp_path / "a")
    harness.run_comparison(spec, out_dir=tmp_path / "b")
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    ok = names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        a = (tmp_path / "a" / name).read_text(encoding="utf-8")
        b = (tmp_path / "b" / name).read_text(encoding="utf-8")
        ok = ok and (harness.strip_timing_columns(a)
                     == harness.strip_timing_columns(b))
    report(10, "byte-identical reruns", ok)
    assert ok
