import cProfile
import dataclasses
import inspect
import math
import pickle
import pstats
import types
import warnings

import numpy as np
import pytest

from bregopt import (
    BurgKernel,
    CompositeObjective,
    EuclideanKernel,
    L1Term,
    NumericalError,
    SolverConfig,
    ValidationError,
    bpg_solve,
    bpge_solve,
    line_search_beta,
)
from bregopt import checks, plip, problems, qip, solvers
from bregopt.kernels import Kernel, QuarticKernel, _NEGATIVE_SLACK
from bregopt.problems import NonsmoothTerm, SmoothTerm
from bregopt.solvers import IterationRecord, Trace

from helpers import (FailingBurgKernel, TiltedConstantKernel,
                     blocked_evaluate_loop, lyapunov_increase_loop,
                     rate_check_loop, shrink, solve_recording)


class QuadraticSmooth(SmoothTerm):
    """f(x) = ||B x - c||^2 / 2; globally Lipschitz gradient."""

    def __init__(self, B, c):
        self.B, self.c = B, c
        self.L = float(np.linalg.norm(B.T @ B, 2))

    def value(self, x):
        r = self.B @ x - self.c
        return 0.5 * float(np.dot(r, r))

    def gradient(self, x):
        return self.B.T @ (self.B @ x - self.c)

    def smad_constant(self):
        return self.L


def lasso_objective(d=6, m=10, seed=0, weight=0.3):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((m, d))
    c = rng.standard_normal(m)
    return CompositeObjective(QuadraticSmooth(B, c), L1Term(weight),
                              EuclideanKernel(d))


class TestLineSearch:
    def test_equal_points_accept_beta0_immediately(self):
        cfg = SolverConfig(lam=1.0, beta0=0.7)
        x = np.array([1.0, 2.0])
        kernel = EuclideanKernel(2)
        beta, shrinks, trial, hgrad = line_search_beta(
            kernel, x, x.copy(), cfg, 1.0, 0.0)
        assert beta == 0.7 and shrinks == 0
        # The first trial is x_curr itself: D_h(x, x) = 0 meets the bound 0.
        assert np.array_equal(trial, x) and np.array_equal(
            hgrad, kernel.gradient(x))

    def test_euclidean_accepts_beta0_below_sqrt_rho(self):
        # D_h(x, x + b*delta) = b^2 ||delta||^2 / 2, so b <= sqrt(rho*C) passes.
        rho = 0.82
        cfg = SolverConfig(lam=1.0, beta0=0.9, rho=rho)
        rng = np.random.default_rng(0)
        kernel = EuclideanKernel(3)
        for _ in range(20):
            x_prev = rng.standard_normal(3)
            x_curr = rng.standard_normal(3)
            beta, shrinks, trial, hgrad = line_search_beta(
                kernel, x_prev, x_curr, cfg, 1.0,
                kernel.bregman(x_prev, x_curr))
            assert beta == pytest.approx(0.9) and shrinks == 0
            assert np.array_equal(trial, x_curr + beta * (x_curr - x_prev))
            assert np.array_equal(hgrad, kernel.gradient(trial))

    def test_euclidean_shrinks_above_threshold(self):
        rho = 0.25
        cfg = SolverConfig(lam=1.0, beta0=0.99, eta=0.5, rho=rho)
        kernel = EuclideanKernel(1)
        x_prev, x_curr = np.array([0.0]), np.array([1.0])
        beta, shrinks, trial, _ = line_search_beta(
            kernel, x_prev, x_curr, cfg, 1.0, kernel.bregman(x_prev, x_curr))
        assert beta <= np.sqrt(rho) + 1e-12
        assert shrinks >= 1
        # The accepted beta satisfies the inequality as evaluated.
        assert np.array_equal(trial, x_curr + beta * (x_curr - x_prev))
        assert kernel.bregman(x_curr, trial) <= rho * kernel.bregman(x_prev, x_curr)

    def test_burg_trial_evaluated_numerically(self):
        kernel = BurgKernel(1)
        cfg = SolverConfig(lam=1.0, beta0=0.99, eta=0.5, rho=0.99)
        x_prev, x_curr = np.array([2.0]), np.array([1.0])
        beta, shrinks, trial, hgrad = line_search_beta(
            kernel, x_prev, x_curr, cfg, 1.0, kernel.bregman(x_prev, x_curr))
        assert np.array_equal(trial, x_curr + beta * (x_curr - x_prev))
        assert np.array_equal(hgrad, kernel.gradient(trial))
        assert np.all(trial > 0)
        assert (kernel.bregman(x_curr, trial)
                <= 0.99 * kernel.bregman(x_prev, x_curr) + 1e-15)

    def test_a_raising_distance_is_a_failed_trial(self):
        # The default formula gives D_h(x_curr, trial) = -c beta here, which
        # raises NumericalError while c beta passes the slack. Each raise
        # shrinks beta; the first trial inside the slack is clamped to 0
        # and accepted.
        c = 1e-9
        cfg = SolverConfig(lam=1.0, beta0=0.99, eta=0.5, rho=0.5)
        beta, shrinks, trial, _ = line_search_beta(
            TiltedConstantKernel(c), np.array([2.0]), np.array([1.0]), cfg,
            1.0, 1.0)
        expect = next(k for k in range(cfg.max_shrinks)
                      if c * 0.99 * 0.5 ** k <= _NEGATIVE_SLACK)
        assert expect >= 1
        assert (beta, shrinks) == (0.99 * 0.5 ** expect, expect)
        np.testing.assert_array_equal(trial, [1.0 - beta])

    def test_domain_violating_trials_shrink(self):
        # Trial 1 + 0.99*(1 - 5) < 0 leaves the Burg domain; beta must shrink
        # until the trial is positive and the distance test passes.
        kernel = BurgKernel(1)
        cfg = SolverConfig(lam=1.0, beta0=0.99, eta=0.5, rho=0.99)
        x_prev, x_curr = np.array([5.0]), np.array([1.0])
        beta, shrinks, trial, _ = line_search_beta(
            kernel, x_prev, x_curr, cfg, 1.0, kernel.bregman(x_prev, x_curr))
        assert shrinks >= 1
        assert 1.0 + beta * (1.0 - 5.0) > 0
        assert np.array_equal(trial, [1.0 + beta * (1.0 - 5.0)])

    def test_quartic_returns_trial_and_its_kernel_gradient(self):
        kernel = QuarticKernel(4)
        cfg = SolverConfig(lam=1.0, beta0=0.99, eta=0.5, rho=0.5)
        rng = np.random.default_rng(1)
        x_prev, x_curr = rng.standard_normal(4), rng.standard_normal(4)
        beta, shrinks, trial, hgrad = line_search_beta(
            kernel, x_prev, x_curr, cfg, 1.0, kernel.bregman(x_prev, x_curr))
        assert beta > 0.0
        assert np.array_equal(trial, x_curr + beta * (x_curr - x_prev))
        assert np.array_equal(hgrad, kernel.gradient(trial))
        # Every trial 1e-20 + beta * (1e-20 - 1) leaves the Burg domain:
        # beta = 0 after max_shrinks, a step from x_curr with no new point.
        assert line_search_beta(BurgKernel(1), np.array([1.0]),
                                np.array([1e-20]), cfg, 1.0, 1.0) == (
            0.0, cfg.max_shrinks, None, None)


class TestReductions:
    def test_beta0_zero_matches_bpg_bitwise(self):
        inst = plip.generate_plip(40, 5, seed=1)
        obj, x0 = plip.make_objective(inst), plip.default_x0(inst)
        lam = 1.0 / obj.smooth.smad_constant()
        cfg = SolverConfig(lam=lam, k_max=100, beta0=0.0)
        r_e = bpge_solve(obj, x0, cfg)
        r_0 = bpg_solve(obj, x0, cfg)
        assert r_e.iterations == r_0.iterations
        assert np.array_equal(r_e.x_final, r_0.x_final)
        for a, b in zip(r_e.trace, r_0.trace):
            assert a.psi == b.psi and a.dh_step == b.dh_step

    def test_matches_hand_coded_pge_on_lasso(self):
        obj = lasso_objective(seed=2)
        d = obj.kernel.dim
        lam = 1.0 / obj.smooth.smad_constant()
        cfg = SolverConfig(lam=lam, k_max=100, tol=1e-300, beta0=0.95,
                           eta=0.5, rho=0.9)
        x0 = np.zeros(d)
        result, recorded = solve_recording(bpge_solve, obj, x0, cfg)

        # Independent extrapolated proximal gradient loop.
        weight = obj.nonsmooth.weight
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
            grad = obj.smooth.gradient(y)
            x_next = shrink(y - lam * grad, lam * weight)
            iterates.append(x_next.copy())
            x_prev, x_curr = x_curr, x_next

        assert len(recorded) == len(iterates)
        for a, b in zip(recorded, iterates):
            assert np.linalg.norm(a - b) <= 1e-12

    def test_pg_matches_gradient_descent_on_smooth_problem(self):
        rng = np.random.default_rng(3)
        B = rng.standard_normal((8, 4))
        c = rng.standard_normal(8)
        from bregopt.problems import ZeroTerm
        obj = CompositeObjective(QuadraticSmooth(B, c), ZeroTerm(),
                                 EuclideanKernel(4))
        lam = 1.0 / obj.smooth.smad_constant()
        cfg = SolverConfig(lam=lam, k_max=50, tol=1e-300)
        # With the Euclidean kernel BPG is the proximal gradient method.
        _, recorded = solve_recording(bpg_solve, obj, np.zeros(4), cfg)
        x = np.zeros(4)
        for a in recorded[1:]:
            x = x - lam * obj.smooth.gradient(x)
            assert np.linalg.norm(a - x) <= 1e-12


class TestDescentDiagnostics:
    def test_bpg_objective_monotone_on_tiny_plip(self):
        inst = plip.generate_plip(5, 2, seed=5)
        obj, x0 = plip.make_objective(inst), plip.default_x0(inst)
        cfg = SolverConfig(lam=1.0 / obj.smooth.smad_constant())
        result = bpg_solve(obj, x0, cfg)
        psis = [rec.psi for rec in result.trace]
        assert all(b <= a + 1e-12 * max(1.0, abs(a))
                   for a, b in zip(psis, psis[1:]))

    def test_final_residual_small_on_converged_run(self):
        inst = plip.generate_plip(5, 2, seed=5)
        obj, x0 = plip.make_objective(inst), plip.default_x0(inst)
        cfg = SolverConfig(lam=1.0 / obj.smooth.smad_constant(), tol=1e-9)
        result = bpg_solve(obj, x0, cfg)
        assert result.exit_reason == "tolerance"
        assert result.trace[-1].residual < 1e-6

    @pytest.mark.parametrize("problem,seed", [("plip", 6), ("qip", 7)])
    def test_lyapunov_nonincreasing(self, problem, seed):
        if problem == "plip":
            inst = plip.generate_plip(60, 6, seed=seed)
            obj, x0 = plip.make_objective(inst), plip.default_x0(inst)
        else:
            inst = qip.generate_qip(60, 6, seed=seed)
            obj, x0 = qip.make_objective(inst), qip.default_x0(inst)
        cfg = SolverConfig(lam=1.0 / obj.smooth.smad_constant(), k_max=800)
        result = bpge_solve(obj, x0, cfg)
        trace = result.trace
        for prev, curr in zip(trace, trace[1:]):
            assert (curr.lyapunov
                    <= prev.lyapunov + 1e-10 * max(1.0, abs(prev.lyapunov)))

    @pytest.mark.parametrize("problem,m,d", [("plip", 100, 10),
                                             ("qip", 200, 10)])
    @pytest.mark.parametrize("solve", [bpge_solve, bpg_solve],
                             ids=["bpge", "bpg"])
    def test_certificate_constant_is_one_over_lam(self, problem, m, d, solve):
        # H_k = Psi(x^k) + M * D_h(x^{k-1}, x^k) with M = 1/lam, bit for bit.
        obj, x0 = _shipped(problem, m, d, seed=24)
        cfg = SolverConfig(lam=1.0 / obj.smooth.smad_constant(), k_max=400)
        result = solve(obj, x0, cfg)
        assert result.iterations > 10
        for rec in result.trace:
            assert rec.lyapunov == rec.psi + (1.0 / cfg.lam) * rec.dh_step

    def test_accepted_betas_satisfy_contract_post_hoc(self):
        inst = qip.generate_qip(40, 5, seed=8)
        obj, x0 = qip.make_objective(inst), qip.default_x0(inst)
        lam = 1.0 / obj.smooth.smad_constant()
        cfg = SolverConfig(lam=lam, k_max=400)
        result, xs = solve_recording(bpge_solve, obj, x0, cfg)
        mu = obj.smooth.weak_convexity_constant()
        C = (1.0 / lam) / (1.0 / lam + mu)
        rho = cfg.rho
        kernel = obj.kernel
        for k in range(1, len(xs) - 1):
            rec = result.trace[k + 1]
            trial = xs[k] + rec.beta_accepted * (xs[k] - xs[k - 1])
            lhs = kernel.bregman(xs[k], trial)
            rhs = rho * C * kernel.bregman(xs[k - 1], xs[k])
            assert lhs <= rhs + 1e-12 * max(1.0, rhs)

    @pytest.mark.parametrize("solve,m,d,seed", [
        (bpge_solve, 1000, 10, 0), (bpg_solve, 1000, 10, 0),
        (bpge_solve, 1000, 50, 4)], ids=["bpge-10-0", "bpg-10-0", "bpge-50-4"])
    def test_qip_lyapunov_nonincreasing_past_tolerance_exit(self, solve, m, d,
                                                            seed):
        # Past the iterate exit D_h is near 1e-16 and H_k adds L * D_h, with
        # qip's L up to 8e6: D_h must be a distance, not rounding noise.
        obj, x0 = _shipped("qip", m, d, seed=seed)
        cfg = SolverConfig(lam=1.0 / obj.smooth.smad_constant(), tol=1e-300)
        result = solve(obj, x0, cfg)
        # Each run goes on to k_max or to an exact fixed point, thousands of
        # steps past its tol 1e-6 exit.
        assert result.iterations > 3000
        assert lyapunov_increase_loop(result.trace) == 0.0

    @pytest.mark.parametrize("solve,m,d,seed", [
        (bpge_solve, 1000, 10, 0), (bpg_solve, 1000, 10, 0),
        (bpge_solve, 100, 10, 1)], ids=["bpge-10-0", "bpg-10-0", "bpge-100x10-1"])
    def test_plip_lyapunov_nonincreasing_past_tolerance_exit(self, solve, m, d,
                                                             seed):
        # Past the exit D_h and psi are near their floors; the phi forms keep
        # their digits there, so H_k = psi + D_h / lam must not rise.
        obj, x0 = _shipped("plip", m, d, seed=seed)
        cfg = SolverConfig(lam=1.0 / obj.smooth.smad_constant(), tol=1e-300)
        result = solve(obj, x0, cfg)
        assert result.iterations > 1000
        assert lyapunov_increase_loop(result.trace) == 0.0

    def test_dh_step_small_at_tolerance_exit(self):
        inst = plip.generate_plip(100, 5, seed=9)
        obj, x0 = plip.make_objective(inst), plip.default_x0(inst)
        cfg = SolverConfig(lam=1.0 / obj.smooth.smad_constant())
        result = bpge_solve(obj, x0, cfg)
        assert result.exit_reason == "tolerance"
        assert result.trace[-1].dh_step < 1e-8


class TestRateBound:
    @pytest.mark.parametrize("problem,seed", [("plip", 10), ("qip", 11)])
    def test_sublinear_bound_holds(self, problem, seed):
        if problem == "plip":
            inst = plip.generate_plip(80, 6, seed=seed)
            obj, x0 = plip.make_objective(inst), plip.default_x0(inst)
        else:
            inst = qip.generate_qip(80, 6, seed=seed)
            obj, x0 = qip.make_objective(inst), qip.default_x0(inst)
        cfg = SolverConfig(lam=1.0 / obj.smooth.smad_constant(), k_max=600)
        result = bpge_solve(obj, x0, cfg)
        checked, max_slack = rate_check_loop(result)
        assert checked == result.iterations - 1 and max_slack <= 0.0
        for k_max in (1, 2, 3):
            short = bpge_solve(obj, x0, dataclasses.replace(cfg, k_max=k_max))
            checked, max_slack = rate_check_loop(short)
            assert checked == k_max - 1 and max_slack <= 0.0
        capped = bpge_solve(obj, x0, dataclasses.replace(cfg, k_max=200))
        assert checks._check_lyapunov(obj, x0).detail == (
            "max increase beyond slack %.3e"
            % lyapunov_increase_loop(capped.trace))

    def test_single_window_reduces_to_two_step_inequality(self):
        inst = plip.generate_plip(30, 4, seed=12)
        obj, x0 = plip.make_objective(inst), plip.default_x0(inst)
        lam = 1.0 / obj.smooth.smad_constant()
        cfg = SolverConfig(lam=lam, k_max=2, tol=1e-300)
        result = bpge_solve(obj, x0, cfg)
        rho = cfg.rho
        bound = ((result.trace[1].lyapunov - result.trace[2].lyapunov)
                 / ((1.0 / lam) * (1.0 - rho)))
        assert result.trace[1].dh_step <= bound + 1e-10
        checked, max_slack = rate_check_loop(result)
        assert checked == 1 and max_slack <= 0.0


class TestConfigValidation:
    def test_rejects_step_above_one_over_L(self):
        inst = plip.generate_plip(10, 3, seed=14)
        obj, x0 = plip.make_objective(inst), plip.default_x0(inst)
        cfg = SolverConfig(lam=2.0 / obj.smooth.smad_constant())
        with pytest.raises(ValidationError):
            bpge_solve(obj, x0, cfg)

    def test_rejects_bad_line_search_parameters(self):
        for field, value, message in (
                ("beta0", 1.0, r"beta0 must be a number in \[0, 1\)"),
                ("beta0", -0.1, r"beta0 must be a number in \[0, 1\)"),
                ("eta", 0.0, r"eta must be a number in \(0, 1\)"),
                ("eta", 1.0, r"eta must be a number in \(0, 1\)"),
                ("rho", 1.5, r"rho must be a number in \(0, 1\)"),
                ("rho", float("nan"), r"rho must be a number in \(0, 1\)")):
            with pytest.raises(ValidationError, match=message):
                SolverConfig(lam=0.1, **{field: value})
        # The line-search parameters are checked first, so a spec with a
        # bad tol and a bad beta0 names beta0.
        with pytest.raises(ValidationError, match="beta0"):
            SolverConfig(lam=0.1, tol="1", beta0=1.0)

    def test_fields_are_the_step_exit_and_line_search_parameters(self):
        assert [f.name for f in dataclasses.fields(SolverConfig)] == [
            "lam", "tol", "k_max", "exit_mode", "beta0", "eta", "rho"]
        cfg = SolverConfig(0.1)
        assert (cfg.tol, cfg.k_max, cfg.exit_mode) == (
            1e-6, 5000, "iterate_relative")
        assert (cfg.beta0, cfg.eta, cfg.rho) == (0.99, 0.5, 0.99)
        assert SolverConfig.max_shrinks == cfg.max_shrinks == 60
        assert "max_shrinks" not in {f.name for f in dataclasses.fields(cfg)}

    def test_rejects_unknown_exit_mode(self):
        assert solvers.EXIT_MODES == ("iterate_relative", "stationarity")
        for mode in ("bogus", "objective_relative"):
            with pytest.raises(ValidationError, match="exit_mode"):
                SolverConfig(lam=0.1, exit_mode=mode)

    def test_rejects_nan_step(self):
        with pytest.raises(ValidationError):
            SolverConfig(lam=float("nan"))

    def test_rejects_nan_tol(self):
        with pytest.raises(ValidationError):
            SolverConfig(lam=0.1, tol=float("nan"))

    @pytest.mark.parametrize("field,value", [
        ("k_max", 2.5), ("k_max", True), ("k_max", "5"), ("tol", "1"),
        ("lam", "0.1"), ("lam", True),
    ])
    def test_rejects_mistyped_field(self, field, value):
        with pytest.raises(ValidationError):
            SolverConfig(**{"lam": 0.1, field: value})

    @pytest.mark.parametrize("field", ["beta0", "eta", "rho"])
    @pytest.mark.parametrize("value", ["0.5", False], ids=["str", "bool"])
    def test_line_search_rejects_mistyped_field(self, field, value):
        with pytest.raises(ValidationError, match="%s must be a number" % field):
            SolverConfig(lam=0.1, **{field: value})

    @pytest.mark.parametrize("solve", [bpge_solve, bpg_solve],
                             ids=["bpge", "bpg"])
    @pytest.mark.parametrize("cfg", [
        None, {"lam": 0.01},
        types.SimpleNamespace(beta0=0.99, eta=0.5, rho=0.99),
        types.SimpleNamespace(**dataclasses.asdict(SolverConfig(lam=0.01)))],
        ids=["none", "dict", "line_search", "lookalike"])
    def test_rejects_cfg_that_is_not_a_solver_config(self, solve, cfg):
        inst = plip.generate_plip(10, 3, seed=14)
        obj, x0 = plip.make_objective(inst), plip.default_x0(inst)
        with pytest.raises(ValidationError, match="SolverConfig"):
            solve(obj, x0, cfg)

    @pytest.mark.parametrize("solve", [bpge_solve, bpg_solve],
                             ids=["bpge", "bpg"])
    @pytest.mark.parametrize("make", [
        lambda obj: None, lambda obj: {"smooth": obj.smooth},
        lambda obj: obj.smooth], ids=["none", "dict", "smooth_term"])
    def test_rejects_obj_that_is_not_a_composite_objective(self, solve, make):
        inst = plip.generate_plip(10, 3, seed=14)
        obj, x0 = plip.make_objective(inst), plip.default_x0(inst)
        cfg = SolverConfig(lam=1.0 / obj.smooth.smad_constant())
        with pytest.raises(ValidationError, match="CompositeObjective"):
            solve(make(obj), x0, cfg)

    @pytest.mark.parametrize("solve", [bpge_solve, bpg_solve],
                             ids=["bpge", "bpg"])
    @pytest.mark.parametrize("L,mu", [
        (0.0, 0.0), (-1.0, 0.0), (np.nan, 0.0), (np.inf, 0.0),
        (1.0, -5.0), (1.0, np.nan), (1.0, np.inf),
    ], ids=["L0", "Lneg", "Lnan", "Linf", "mu-5", "munan", "muinf"])
    def test_rejects_bad_smooth_constants(self, solve, L, mu):
        class Constants(SmoothTerm):
            """Constants only: any read of f before the check fails."""

            def evaluate(self, x, u_prev, beta, y):
                raise AssertionError("evaluated before the constants check")

            def smad_constant(self):
                return L

            def weak_convexity_constant(self):
                return mu

        obj = CompositeObjective(Constants(), L1Term(0.1), EuclideanKernel(3))
        with pytest.raises(ValidationError, match="constants"):
            solve(obj, np.ones(3), SolverConfig(lam=1e-3, k_max=5))


@pytest.fixture(scope="module")
def stationarity_runs():
    """(label, obj, result, iterates) of BPGe and BPG under the
    stationarity exit at tol 1e-4 and lam = 1/L, on plip 1000x10 and qip
    200x10, seeds 0 to 4."""
    runs = []
    for problem, m, d in (("plip", 1000, 10), ("qip", 200, 10)):
        for seed in range(5):
            obj, x0 = _shipped(problem, m, d, seed)
            cfg = SolverConfig(lam=1.0 / obj.smooth.smad_constant(),
                               tol=1e-4, exit_mode="stationarity")
            for solve in (bpge_solve, bpg_solve):
                label = (problem, seed, solve.__name__)
                runs.append((label, obj,
                             *solve_recording(solve, obj, x0, cfg)))
    return runs


def _meets_stationarity(obj, x, residual, tol):
    """The exit test at x with its own arithmetic: ||r|| <= tol (1 + ||grad f||)."""
    g = obj.smooth.gradient(x)
    return residual <= tol * (1 + math.sqrt(g.dot(g)))


class TestExitModes:
    def test_stationarity_exit_is_the_first_row_in_its_band(
            self, stationarity_runs):
        stopped = set()
        for label, obj, result, iterates in stationarity_runs:
            tol = result.config.tol
            met = [_meets_stationarity(obj, x, rec.residual, tol)
                   for x, rec in zip(iterates[1:], result.trace[1:])]
            if result.exit_reason == "tolerance":
                stopped.add(label[::2])
                # The last row is the certificate: the test is evaluated
                # again at x_final, from the recorded residual alone.
                assert _meets_stationarity(obj, result.x_final,
                                           result.trace[-1].residual, tol), label
                assert met[-1] and not any(met[:-1]), label
            else:
                assert result.exit_reason == "max_iterations", label
                assert not any(met), label
        # Within k_max = 5000, plip BPG never reaches the band here.
        assert stopped == {("plip", "bpge_solve"), ("qip", "bpge_solve"),
                           ("qip", "bpg_solve")}

    def test_recorded_residual_is_the_subgradient_at_its_step(
            self, stationarity_runs):
        # Row k's residual is ||r|| for the step from y = x_{k-1} +
        # beta_k (x_{k-1} - x_{k-2}) (x_{-1} = x0) to x_k; the exit tests it.
        for label, obj, result, iterates in stationarity_runs:
            lam, f, h = result.config.lam, obj.smooth, obj.kernel
            for k in range(1, len(iterates)):
                x, prev = iterates[k - 1], iterates[max(k - 2, 0)]
                y = x + result.trace[k].beta_accepted * (x - prev)
                r = (f.gradient(iterates[k]) - f.gradient(y)
                     - (h.gradient(iterates[k]) - h.gradient(y)) / lam)
                assert math.isclose(math.sqrt(r.dot(r)),
                                    result.trace[k].residual,
                                    rel_tol=1e-8), (label, k)

    def test_stationarity_runs_keep_the_certificate_monotone(
            self, stationarity_runs):
        for label, _, result, _ in stationarity_runs:
            H = result.trace.column("lyapunov")
            slack = 1e-10 * np.maximum(1.0, np.abs(H[:-1]))
            assert np.all(H[1:] <= H[:-1] + slack), label

    def test_iterate_relative_exit_is_the_first_small_step(self):
        obj, x0 = _shipped("qip", 200, 10, seed=0)
        cfg = SolverConfig(lam=1.0 / obj.smooth.smad_constant(), tol=1e-5)
        result, iterates = solve_recording(bpge_solve, obj, x0, cfg)
        assert result.exit_reason == "tolerance"
        gaps = [np.linalg.norm(b - a) / max(1.0, np.linalg.norm(b))
                for a, b in zip(iterates, iterates[1:])]
        assert gaps[-1] <= 1e-5 and min(gaps[:-1]) > 1e-5

    def test_determinism_identical_traces(self):
        inst = qip.generate_qip(30, 5, seed=16)
        obj, x0 = qip.make_objective(inst), qip.default_x0(inst)
        cfg = SolverConfig(lam=1.0 / obj.smooth.smad_constant(), k_max=200)
        r1 = bpge_solve(obj, x0, cfg)
        r2 = bpge_solve(obj, x0, cfg)
        assert np.array_equal(r1.x_final, r2.x_final)
        assert [(rec.psi, rec.dh_step, rec.beta_accepted) for rec in r1.trace] \
            == [(rec.psi, rec.dh_step, rec.beta_accepted) for rec in r2.trace]


class CountingSmooth(SmoothTerm):
    """Delegates to a shipped term and counts evaluations of f and grad f."""

    def __init__(self, inner):
        self.inner = inner
        self.f_evals = self.grad_evals = 0

    def value(self, x):
        self.f_evals += 1
        return self.inner.value(x)

    def gradient(self, x):
        self.grad_evals += 1
        return self.inner.gradient(x)

    def smad_constant(self):
        return self.inner.smad_constant()

    def weak_convexity_constant(self):
        return self.inner.weak_convexity_constant()


class TwoMethodSmooth(SmoothTerm):
    """Defines value and gradient only, so the default evaluate runs."""

    def __init__(self, inner):
        self.inner = inner

    def value(self, x):
        return self.inner.value(x)

    def gradient(self, x):
        return self.inner.gradient(x)

    def smad_constant(self):
        return self.inner.smad_constant()

    def weak_convexity_constant(self):
        return self.inner.weak_convexity_constant()


class WeightedEuclideanKernel(Kernel):
    """h(x) = sum_j w_j x_j^2 / 2; defines only `_value`, `_gradient` and
    `in_interior_domain`, so D_h is the base-class formula."""

    def __init__(self, w):
        super().__init__(w.size)
        self.w = w

    def _value(self, x):
        return 0.5 * float(np.dot(self.w * x, x))

    def _gradient(self, x):
        return self.w * x

    def in_interior_domain(self, x):
        return bool(np.all(np.isfinite(x)))


class WeightedMirrorStep(NonsmoothTerm):
    """g = 0 under WeightedEuclideanKernel: u = z / w."""

    def value(self, x):
        return 0.0

    def prox(self, kernel, z, lam):
        return z / kernel.w


def _counting_kernel(base):
    """Subclass of the kernel class `base` that counts `_gradient`,
    `_bregman` and `_value` calls apart."""

    class Counting(base):
        calls = bregman_calls = value_calls = 0

        def _gradient(self, x):
            self.calls += 1
            return super()._gradient(x)

        def _bregman(self, x, y):
            self.bregman_calls += 1
            return super()._bregman(x, y)

        def _value(self, x):
            self.value_calls += 1
            return super()._value(x)

    return Counting


def _count_accepted_trials(monkeypatch):
    """A list that gets, per line search the solvers run, whether it
    accepted a trial."""
    accepted = []

    def counting(*args):
        out = line_search_beta(*args)
        accepted.append(out[2] is not None)
        return out

    monkeypatch.setattr(solvers, "line_search_beta", counting)
    return accepted


def _counting_evaluate(smooth):
    """The shipped term `smooth`, counting its `evaluate` calls."""

    class Counting(type(smooth)):
        calls = 0

        def evaluate(self, x, u_prev, beta, y):
            self.calls += 1
            return super().evaluate(x, u_prev, beta, y)

    return Counting(smooth.inst)


def _recomputing(smooth):
    """The shipped term `smooth` with M y formed afresh at each extrapolated
    y: its test of the carried M y always fails. Counts those tests."""

    class Recomputing(type(smooth)):
        calls = 0

        def _in_domain(self, u):
            self.calls += 1
            return False

    return Recomputing(smooth.inst)


def _one_block(smooth):
    """The shipped term `smooth` rebuilt with all of M in one block."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(problems, "_BLOCK_BYTES", 1 << 62)
        single = type(smooth)(smooth.inst)
    assert single._blocks is None
    return single


def _shipped(problem, m, d, seed):
    mod = {"plip": plip, "qip": qip}[problem]
    inst = getattr(mod, "generate_" + problem)(m, d, seed=seed)
    return mod.make_objective(inst), mod.default_x0(inst)


def _timeless(trace):
    return [dataclasses.replace(rec, wall_time=0.0) for rec in trace]


class TestTraceRows:
    @pytest.fixture(scope="class")
    def result(self):
        obj, x0 = _shipped("plip", 40, 4, seed=24)
        return bpge_solve(obj, x0, SolverConfig(
            lam=1.0 / obj.smooth.smad_constant(), k_max=30))

    def test_index_slice_iteration_and_columns_agree(self, result):
        trace = result.trace
        rows = list(trace)
        assert len(trace) == len(rows) == result.iterations + 1 == 31
        assert rows == [trace[i] for i in range(len(trace))]
        assert trace[-1] == rows[-1] and trace[-1].k == result.iterations
        part = trace[3:7]
        assert isinstance(part, Trace) and list(part) == rows[3:7]
        for f in dataclasses.fields(IterationRecord):
            np.testing.assert_array_equal(
                trace.column(f.name), [getattr(r, f.name) for r in rows])
            np.testing.assert_array_equal(part.column(f.name),
                                          trace.column(f.name)[3:7])
        for rec in rows:
            assert type(rec.k) is int and type(rec.shrink_count) is int
            assert all(type(getattr(rec, name)) is float for name in
                       ("psi", "dh_step", "lyapunov", "beta_accepted",
                        "residual", "wall_time"))

    def test_rows_are_frozen_records(self, result):
        rec = result.trace[5]
        timeless = dataclasses.replace(rec, wall_time=0.0)
        assert timeless.wall_time == 0.0
        assert dataclasses.replace(timeless, wall_time=rec.wall_time) == rec
        with pytest.raises(dataclasses.FrozenInstanceError):
            rec.psi = 0.0

    def test_record_zero_of_identical_runs_is_equal(self, result):
        obj, x0 = _shipped("plip", 40, 4, seed=24)
        again = bpge_solve(obj, x0, result.config)
        assert result.trace[0].residual is np.nan
        assert again.trace[0] == result.trace[0]
        assert _timeless(again.trace) == _timeless(result.trace)

    def test_pickled_result_keeps_its_records_read_only(self, result):
        # A trace that is unpickled is rebuilt read-only through Trace(data).
        again = pickle.loads(pickle.dumps(result))
        assert isinstance(again.trace, Trace)
        assert list(again.trace) == list(result.trace)
        assert np.array_equal(again.x_final, result.x_final)
        assert again.config == result.config
        assert not again.trace.data.flags.writeable
        with pytest.raises(ValueError):
            again.trace.column("psi")[0] = 0.0

    @pytest.mark.parametrize("name", ["x_final", "", "PSI", None, 3])
    def test_column_names_the_fields_for_an_unknown_name(self, result, name):
        with pytest.raises(ValidationError, match=(
                "no trace field .*; the fields are k, psi, dh_step, lyapunov, "
                "beta_accepted, shrink_count, residual, wall_time$")):
            result.trace.column(name)

    def test_column_is_a_read_only_float64_view(self, result):
        psi = result.trace.column("psi")
        assert psi.dtype == np.float64
        before = result.trace[0].psi
        with pytest.raises(ValueError):
            psi[0] = 0.0
        assert result.trace[0].psi == before == result.trace.column("psi")[0]


class TestFusedIteration:
    @pytest.mark.parametrize("problem,m,d", [("plip", 100, 10),
                                             ("qip", 200, 10)])
    def test_bpg_evaluates_f_and_grad_once_per_iteration(self, problem, m, d):
        obj, x0 = _shipped(problem, m, d, seed=21)
        counting = CountingSmooth(obj.smooth)
        obj = dataclasses.replace(obj, smooth=counting)
        cfg = SolverConfig(lam=1.0 / counting.smad_constant(), k_max=300)
        result = bpg_solve(obj, x0, cfg)
        assert result.exit_reason != "numerical_failure"
        assert result.iterations > 10
        # One evaluation per iterate, x0 included.
        assert counting.f_evals == result.iterations + 1
        assert counting.grad_evals == result.iterations + 1

    @pytest.mark.parametrize("problem,m,d", [("plip", 100, 10),
                                             ("qip", 200, 10)])
    @pytest.mark.parametrize("solve", [bpge_solve, bpg_solve],
                             ids=["bpge", "bpg"])
    def test_kernel_gradient_once_per_new_point(self, problem, m, d, solve,
                                                monkeypatch):
        obj, x0 = _shipped(problem, m, d, seed=21)
        kernel = _counting_kernel(type(obj.kernel))(obj.kernel.dim)
        obj = dataclasses.replace(obj, kernel=kernel)
        accepted = _count_accepted_trials(monkeypatch)
        cfg = SolverConfig(lam=1.0 / obj.smooth.smad_constant(), k_max=300)
        result = solve(obj, x0, cfg)
        assert result.exit_reason != "numerical_failure"
        extrapolated = sum(rec.beta_accepted != 0.0 for rec in result.trace)
        assert (extrapolated > 0) == (solve is bpge_solve)
        # D_h runs once per step and once per line-search trial inside the
        # domain.
        trials = kernel.bregman_calls - result.iterations
        assert (trials > 0) == (solve is bpge_solve)
        assert (sum(accepted) > 0) == (solve is bpge_solve)
        # x0, each prox output and each accepted trial: the line search
        # hands the accepted trial's grad h to the step from it, and the
        # prox reuses grad h(y) through its mirror point.
        assert kernel.calls == result.iterations + 1 + sum(accepted)
        # No shipped D_h reads h.
        assert kernel.value_calls == 0

    @pytest.mark.parametrize("problem,m,d", [("plip", 100, 10),
                                             ("qip", 200, 10)])
    @pytest.mark.parametrize("solve", [bpge_solve, bpg_solve],
                             ids=["bpge", "bpg"])
    def test_default_value_and_gradient_gives_identical_trace(
            self, problem, m, d, solve):
        obj, x0 = _shipped(problem, m, d, seed=22)
        cfg = SolverConfig(lam=1.0 / obj.smooth.smad_constant(), k_max=400)
        # The shipped terms carry M y into BPGe's extrapolated steps, which
        # the two-method term cannot; its BPGe reference forms M y afresh.
        reference = solve(obj if solve is bpg_solve else dataclasses.replace(
            obj, smooth=_recomputing(obj.smooth)), x0, cfg)
        plain = solve(dataclasses.replace(obj, smooth=TwoMethodSmooth(
            obj.smooth)), x0, cfg)
        assert _timeless(plain.trace) == _timeless(reference.trace)
        assert np.array_equal(plain.x_final, reference.x_final)
        assert plain.exit_reason == reference.exit_reason

    def test_quartic_bregman_reuses_kernel_gradient(self):
        obj, x0 = _shipped("qip", 200, 10, seed=21)
        obj = dataclasses.replace(
            obj, kernel=_counting_kernel(QuarticKernel)(obj.kernel.dim))
        cfg = SolverConfig(lam=1.0 / obj.smooth.smad_constant(), k_max=300)
        result = bpg_solve(obj, x0, cfg)
        assert result.exit_reason != "numerical_failure"
        # grad h at x0 and at each prox output; D_h(x_curr, x_next) reads
        # neither h nor grad h.
        assert obj.kernel.calls == result.iterations + 1
        assert obj.kernel.bregman_calls == result.iterations
        assert obj.kernel.value_calls == 0

    def test_bpge_quartic_gradient_once_per_trial(self, monkeypatch):
        obj, x0 = _shipped("qip", 200, 10, seed=21)
        obj = dataclasses.replace(
            obj, kernel=_counting_kernel(QuarticKernel)(obj.kernel.dim))
        accepted = _count_accepted_trials(monkeypatch)
        cfg = SolverConfig(lam=1.0 / obj.smooth.smad_constant(), k_max=300)
        result = bpge_solve(obj, x0, cfg)
        assert result.exit_reason != "numerical_failure"
        assert sum(rec.beta_accepted != 0.0 for rec in result.trace) > 10
        trials = obj.kernel.bregman_calls - result.iterations
        assert trials > result.iterations >= sum(accepted) > 10
        # x0, each prox output and each accepted trial, which is not
        # evaluated again as y; a rejected trial costs D_h only.
        assert obj.kernel.calls == result.iterations + 1 + sum(accepted)
        assert obj.kernel.value_calls == 0

    def test_kernel_with_only_required_methods_runs(self):
        rng = np.random.default_rng(23)
        B = rng.standard_normal((12, 5))
        smooth = QuadraticSmooth(B, rng.standard_normal(12))
        kernel = WeightedEuclideanKernel(rng.uniform(1.0, 2.0, 5))
        obj = CompositeObjective(smooth, WeightedMirrorStep(), kernel)
        cfg = SolverConfig(lam=1.0 / smooth.smad_constant(), tol=1e-8)
        result, xs = solve_recording(bpge_solve, obj,
                                     rng.standard_normal(5), cfg)
        assert result.exit_reason == "tolerance"
        assert any(rec.beta_accepted > 0.0 for rec in result.trace[2:])
        lyap = [rec.lyapunov for rec in result.trace[1:]]
        assert all(b <= a + 1e-12 for a, b in zip(lyap, lyap[1:]))
        for k in range(1, len(xs)):
            assert result.trace[k].dh_step == kernel.bregman(xs[k - 1], xs[k])


class TestForwardCarry:
    @pytest.mark.parametrize("problem,m,d", [("plip", 100, 10),
                                             ("qip", 200, 10)])
    def test_bpge_forms_one_forward_product_per_iterate(self, problem, m, d):
        obj, x0 = _shipped(problem, m, d, seed=21)
        obj = dataclasses.replace(obj, smooth=_counting_evaluate(obj.smooth))
        cfg = SolverConfig(lam=1.0 / obj.smooth.smad_constant(), k_max=300)
        result = bpge_solve(obj, x0, cfg)
        assert result.exit_reason != "numerical_failure"
        assert sum(rec.beta_accepted != 0.0 for rec in result.trace) > 10
        # One evaluate, and in it one product M x, at x0 and each prox
        # output; grad f at each extrapolated y comes from the same call.
        assert obj.smooth.calls == result.iterations + 1

    def test_plip_carry_falls_back_to_forward_product(self):
        A = np.array([[1.0, 0.3], [0.2, 0.9]])
        x_true = np.array([0.4, 0.7])
        smooth = plip.PlipSmooth(plip.PlipInstance(A=A, b=A @ x_true, seed=0,
                                                   x_true=x_true))
        b, x, y = smooth.inst.b, np.array([0.5, 0.5]), np.array([0.3, 0.6])
        u = A @ x
        u_prev = np.array([1.0, 1.0])
        got_u, f, grad, grad_y = smooth.evaluate(x, u_prev, 0.5, y)
        assert np.array_equal(got_u, u) and f == smooth.value(x)
        assert np.array_equal(grad, smooth.gradient(x))
        carried = u + 0.5 * (u - u_prev)
        assert (carried > 0.0).all() and not np.array_equal(carried, A @ y)
        assert np.array_equal(grad_y, A.T @ (1.0 - b / carried))
        # 0.55 + 0.5 * (0.55 - 2) < 0: the carry leaves u > 0, so A y.
        fallback = smooth.evaluate(x, np.array([1.0, 2.0]), 0.5, y)[3]
        assert np.array_equal(fallback, A.T @ (1.0 - b / (A @ y)))
        assert np.array_equal(fallback, smooth.gradient(y))

    @pytest.mark.parametrize("problem,m,d", [("plip", 100, 10),
                                             ("qip", 200, 10)])
    def test_carried_matches_recomputed(self, problem, m, d):
        obj, x0 = _shipped(problem, m, d, seed=22)
        cfg = SolverConfig(lam=1.0 / obj.smooth.smad_constant(), k_max=400)
        carried = bpge_solve(obj, x0, cfg)
        recomputing = _recomputing(obj.smooth)
        recomputed, xs = solve_recording(
            bpge_solve, dataclasses.replace(obj, smooth=recomputing), x0, cfg)
        # One test per extrapolated y: every step after the first (which
        # extrapolates from x_prev = x0, so y = x0) with beta != 0, and
        # the look-ahead after the last step if its beta is not 0.
        trace = recomputed.trace
        mu = obj.smooth.weak_convexity_constant()
        last_beta = line_search_beta(
            obj.kernel, xs[-2], xs[-1], cfg,
            (1.0 / cfg.lam) / (1.0 / cfg.lam + mu), trace[-1].dh_step)[0]
        assert recomputing.calls == sum(
            rec.beta_accepted != 0.0 for rec in trace[2:]) + (
                last_beta != 0.0) > 10
        assert carried.iterations == recomputed.iterations
        assert carried.exit_reason == recomputed.exit_reason
        for field in ("beta_accepted", "shrink_count"):
            assert ([getattr(rec, field) for rec in carried.trace]
                    == [getattr(rec, field) for rec in recomputed.trace])
        assert carried.psi_final == pytest.approx(recomputed.psi_final,
                                                  rel=1e-12)
        scale = np.linalg.norm(recomputed.x_final)
        assert np.linalg.norm(carried.x_final - recomputed.x_final) \
            <= 1e-12 * scale


def _relative_gap(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


class TestBlockedPass:
    """At 2000 x 200, M (3.2 MB) is 6 blocks of 320 rows and one of 80."""

    @pytest.mark.parametrize("problem", ["plip", "qip"])
    def test_blocked_evaluate_matches_one_block(self, problem):
        obj, x = _shipped(problem, 2000, 200, seed=25)
        blocked = obj.smooth
        sizes = [M_B.shape[0] for _, M_B in blocked._blocks]
        assert sizes == [320] * 6 + [80]
        single = _one_block(blocked)
        rng = np.random.default_rng(25)
        x_prev = x * rng.uniform(0.9, 1.1, x.size)
        u_prev = blocked.M @ x_prev
        y = x + 0.5 * (x - x_prev)
        got = blocked.evaluate(x, u_prev, 0.5, y)
        ref = single.evaluate(x, u_prev, 0.5, y)
        assert np.array_equal(got[0], ref[0]) and got[1] == ref[1]
        assert _relative_gap(got[2], ref[2]) <= 1e-13
        assert _relative_gap(got[3], ref[3]) <= 1e-13
        # Without a y, the same u and f, and no grad f(y).
        alone = blocked.evaluate(x, None, 0.0, None)
        assert np.array_equal(alone[0], ref[0]) and alone[1] == ref[1]
        assert _relative_gap(alone[2], ref[2]) <= 1e-13
        assert alone[3] is None
        assert _relative_gap(blocked.gradient(y), ref[3]) <= 1e-13

    @pytest.mark.parametrize("problem, case", [
        ("plip", "y"), ("plip", "no y"), ("plip", "carry fails"),
        ("qip", "y"), ("qip", "no y")])
    def test_blocked_evaluate_is_the_per_block_loop(self, problem, case):
        obj, x = _shipped(problem, 2000, 200, seed=25)
        smooth = obj.smooth
        rng = np.random.default_rng(25)
        x_prev = x * rng.uniform(0.9, 1.1, x.size)
        u_prev = smooth.M @ x_prev
        y = x + 0.5 * (x - x_prev)
        if case == "carry fails":
            # u + 0.5 (u - 4u) = -u/2 at one row of the fourth block only.
            u_prev = smooth.M @ x
            row = smooth._blocks[3][0].start + 5
            u_prev[row] *= 4.0
        args = (x, None, 0.0, None) if case == "no y" else (x, u_prev, 0.5, y)
        got = smooth.evaluate(*args)
        ref = blocked_evaluate_loop(smooth, *args)
        assert got[0].tobytes() == ref[0].tobytes()
        assert np.float64(got[1]).tobytes() == np.float64(ref[1]).tobytes()
        assert got[2].tobytes() == ref[2].tobytes()
        if case == "no y":
            assert got[3] is None and ref[3] is None
        else:
            assert got[3].tobytes() == ref[3].tobytes()

    @pytest.mark.parametrize("problem, case", [
        ("plip", "no y"), ("qip", "no y")])
    def test_one_row_gradient_never_reads_the_blocks(self, problem, case):
        obj, x = _shipped(problem, 2000, 200, seed=25)
        smooth = obj.smooth
        row = smooth._blocks[3][0].start + 5

        class Unreadable:
            def __iter__(self):
                raise AssertionError("the per-block loop ran")

        smooth._blocks = Unreadable()
        u_prev = smooth.M @ x
        u_prev[row] *= 4.0  # u + 0.5 (u - 4u) = -u/2 at one row
        y = 1.01 * x
        args = (x, None, 0.0, None) if case == "no y" else (x, u_prev, 0.5, y)
        got = smooth.evaluate(*args)
        assert got[2].tobytes() == (smooth.M.T @ smooth._phi(
            got[0], smooth.inst.b)[1]).tobytes()
        assert (got[3] is None) == (case == "no y")
        with pytest.raises(AssertionError, match="per-block loop"):
            smooth.evaluate(x, smooth.M @ (0.9 * x), 0.5, 1.05 * x)

    @pytest.mark.parametrize("problem", ["plip", "qip"])
    def test_carried_evaluate_reads_each_block_once(self, problem):
        obj, x = _shipped(problem, 2000, 200, seed=25)
        products = []

        class Tagged(np.ndarray):
            """M or one block M_B, logging each ufunc (matmul too) it enters
            as (ufunc, tag, operand position)."""

            def __array_finalize__(self, parent):
                self.tag = getattr(parent, "tag", None)

            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                products.extend((ufunc.__name__, a.tag, i)
                                for i, a in enumerate(inputs)
                                if isinstance(a, Tagged))
                inputs = [np.asarray(a) for a in inputs]
                return getattr(ufunc, method)(*inputs, **kwargs)

        def tagged(a, tag):
            view = a.view(Tagged)
            view.tag = tag
            return view

        class Counting(type(obj.smooth)):
            phi_calls = domain_calls = 0

            def _phi(self, u, b, value=True):
                self.phi_calls += 1
                return super()._phi(u, b, value)

            def _in_domain(self, u):
                self.domain_calls += 1
                return super()._in_domain(u)

        smooth = Counting(obj.smooth.inst)
        M, blocks = smooth.M, smooth._blocks
        assert len(blocks) == 7
        smooth.M = tagged(M, "M")
        smooth._blocks = [(rows, tagged(M_B, k))
                          for k, (rows, M_B) in enumerate(blocks)]
        # u_y = 1.05 u stays in the domain.
        got = smooth.evaluate(x, M @ (0.9 * x), 0.5, 1.05 * x)
        assert got[3] is not None
        # M_B x, then W_B M_B, block after block: M enters no product.
        assert products == [("matmul", k, i) for k in range(7) for i in (0, 1)]
        assert smooth.phi_calls <= len(blocks) + 1
        assert smooth.domain_calls <= 1

    def test_carry_at_zero_in_the_last_block_warns_nothing(self):
        # The blocked pass forms phi' of the carry before its domain test
        # and, like every solver hook, runs under the solver's errstate.
        obj, x0 = _shipped("plip", 2000, 200, seed=25)
        last = np.arange(2000)[obj.smooth._blocks[-1][0]]
        assert last.size == 80
        seen = []

        class Doctored(type(obj.smooth)):
            """Sets the first carried step's u_prev and beta = 0.5 so that
            one carried entry of the last block is exactly 0 and one < 0."""

            def evaluate(self, x, u_prev, beta, y):
                if y is None or seen:
                    return super().evaluate(x, u_prev, beta, y)
                u, u_prev = self.M @ x, u_prev.copy()
                # u + 0.5 (u - 3u) is exactly 0 where 3u rounds to itself;
                # u + 0.5 (u - 5u) is about -u.
                zero = last[u[last] + 0.5 * (u[last] - 3.0 * u[last]) == 0.0][0]
                negative = last[last != zero][-1]
                u_prev[zero], u_prev[negative] = 3.0 * u[zero], 5.0 * u[negative]
                carry = u + 0.5 * (u - u_prev)
                assert carry[zero] == 0.0 and carry[negative] < 0.0
                args = (x, u_prev, 0.5, y)
                seen.append((args, super().evaluate(*args)))
                return seen[0][1]

        smooth = Doctored(obj.smooth.inst)
        cfg = SolverConfig(lam=1.0 / smooth.smad_constant(), k_max=3,
                           tol=1e-300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bpge_solve(CompositeObjective(smooth, obj.nonsmooth, smooth.kernel),
                       x0, cfg)
        (args, got), = seen
        with np.errstate(all="ignore"):  # as the solver calls the hook
            ref = blocked_evaluate_loop(smooth, *args)
        assert got[0].tobytes() == ref[0].tobytes()
        assert np.float64(got[1]).tobytes() == np.float64(ref[1]).tobytes()
        assert got[2].tobytes() == ref[2].tobytes()
        assert got[3].tobytes() == ref[3].tobytes()

    def test_plip_carry_outside_domain_in_one_block(self):
        obj, x = _shipped("plip", 2000, 200, seed=26)
        smooth = obj.smooth
        u = smooth.M @ x
        # u + 0.5 (u - 4u) = -u/2 at one row of the fourth block only.
        u_prev = u.copy()
        row = smooth._blocks[3][0].start + 5
        u_prev[row] = 4.0 * u[row]
        y = x * 1.01
        grad_y = smooth.evaluate(x, u_prev, 0.5, y)[3]
        assert np.array_equal(grad_y, smooth.gradient(y))

    @pytest.mark.parametrize("problem", ["plip", "qip"])
    @pytest.mark.parametrize("solve", [bpge_solve, bpg_solve],
                             ids=["bpge", "bpg"])
    def test_blocked_solve_matches_one_block(self, problem, solve):
        obj, x0 = _shipped(problem, 2000, 200, seed=27)
        cfg = SolverConfig(lam=1.0 / obj.smooth.smad_constant(), k_max=30)
        blocked = solve(obj, x0, cfg)
        single = solve(dataclasses.replace(obj, smooth=_one_block(obj.smooth)),
                       x0, cfg)
        assert blocked.iterations == single.iterations
        assert blocked.exit_reason == single.exit_reason
        for field in ("beta_accepted", "shrink_count"):
            assert ([getattr(rec, field) for rec in blocked.trace]
                    == [getattr(rec, field) for rec in single.trace])
        assert (solve is bpge_solve) == any(
            rec.beta_accepted != 0.0 for rec in blocked.trace[2:])
        for a, b in zip(blocked.trace, single.trace):
            assert a.psi == pytest.approx(b.psi, rel=1e-12)


class TestFailureContainment:
    def test_line_search_failure_is_recorded_not_raised(self):
        obj, x0 = _shipped("plip", 40, 4, seed=24)
        cfg = SolverConfig(lam=1.0 / obj.smooth.smad_constant())
        reference = bpge_solve(obj, x0, cfg)
        # Domain tests run on x0, on the first prox output, then on the
        # first line-search trial of iteration 2.
        kernel = FailingBurgKernel(obj.kernel.dim, fail_at=3)
        result = bpge_solve(dataclasses.replace(obj, kernel=kernel), x0, cfg)
        assert kernel.failed_in == "line_search_beta"
        assert result.exit_reason == "numerical_failure"
        assert result.iterations == 1
        assert _timeless(result.trace) == _timeless(reference.trace[:2])

    def test_look_ahead_failure_after_last_step_keeps_tolerance_exit(self):
        obj, x0 = _shipped("plip", 40, 4, seed=24)
        cfg = SolverConfig(lam=1.0 / obj.smooth.smad_constant())
        reference = bpge_solve(obj, x0, cfg)
        assert reference.exit_reason == "tolerance"

        class Recording(BurgKernel):
            callers = []

            def in_interior_domain(self, x):
                self.callers.append(
                    inspect.currentframe().f_back.f_code.co_name)
                return super().in_interior_domain(x)

        bpge_solve(dataclasses.replace(obj, kernel=Recording(obj.kernel.dim)),
                   x0, cfg)
        # The solver tests each prox output; after the last one, the line
        # search for a step that is never taken tests its trials.
        callers = Recording.callers
        last_prox = max(i for i, name in enumerate(callers)
                        if name == "bpge_solve")
        assert callers[last_prox + 1:]
        assert set(callers[last_prox + 1:]) == {"line_search_beta"}
        kernel = FailingBurgKernel(obj.kernel.dim, fail_at=last_prox + 2)
        result = bpge_solve(dataclasses.replace(obj, kernel=kernel), x0, cfg)
        assert kernel.failed_in == "line_search_beta"
        # The tolerance test on the last step runs before the failure ends
        # the run.
        assert result.exit_reason == "tolerance"
        assert _timeless(result.trace) == _timeless(reference.trace)
        assert np.array_equal(result.x_final, reference.x_final)

    @pytest.mark.parametrize("solve", [bpge_solve, bpg_solve],
                             ids=["bpge", "bpg"])
    def test_nan_gradient_under_the_quartic_prox_is_recorded(self, solve):
        class NanGradient(SmoothTerm):
            def value(self, x):
                return 0.0

            def gradient(self, x):
                return np.full_like(x, np.nan)

            def smad_constant(self):
                return 1.0

        # The mirror point is NaN, so its norm is NaN and so is the prox
        # output, which the solver's domain test rejects.
        obj = CompositeObjective(NanGradient(), L1Term(0.5), QuarticKernel(3))
        result = solve(obj, np.ones(3), SolverConfig(lam=1.0, k_max=50))
        assert result.exit_reason == "numerical_failure"
        assert result.iterations == 0

    @pytest.mark.parametrize("solve", [bpge_solve, bpg_solve],
                             ids=["bpge", "bpg"])
    def test_overflowing_burg_step_is_recorded_not_raised(self, solve):
        class Linear(SmoothTerm):
            """f(x) = sum x, smooth adaptable to any kernel for every L > 0."""

            def value(self, x):
                return float(np.sum(x))

            def gradient(self, x):
                return np.ones_like(x)

            def smad_constant(self):
                return 1e-300

        # From x0 = 1e300 the mirror point -1/x0 - lam is -1e300, so the
        # step lands on 1e-300 and D_h(x0, x1) overflows in x0 / x1 (a
        # RuntimeWarning is an error in this suite): D_h = inf ends the run.
        obj = CompositeObjective(Linear(), problems.ZeroTerm(), BurgKernel(1))
        result = solve(obj, np.array([1e300]),
                       SolverConfig(lam=1e300, k_max=50))
        assert result.exit_reason == "numerical_failure"
        assert result.iterations == 0

    @pytest.mark.parametrize("solve", [bpge_solve, bpg_solve],
                             ids=["bpge", "bpg"])
    def test_recorded_iterates_end_at_the_last_accepted_step(self, solve):
        obj, x0 = _shipped("plip", 40, 4, seed=24)

        class FailingEvaluate(type(obj.smooth)):
            """Raises at its sixth evaluate: x0, four steps, then the fifth
            prox output, which the step rejects."""
            calls, rejected = 0, None

            def evaluate(self, x, u_prev, beta, y):
                self.calls += 1
                if self.calls == 6:
                    self.rejected = x.copy()
                    raise NumericalError("boom")
                return super().evaluate(x, u_prev, beta, y)

        smooth = FailingEvaluate(obj.smooth.inst)
        cfg = SolverConfig(lam=1.0 / smooth.smad_constant(), k_max=50)
        _, reference = solve_recording(solve, obj, x0, cfg)
        result, iterates = solve_recording(
            solve, dataclasses.replace(obj, smooth=smooth), x0, cfg)
        assert result.exit_reason == "numerical_failure"
        assert result.iterations == 4 and len(iterates) == 5
        assert iterates[-1].tobytes() == result.x_final.tobytes()
        assert all(np.array_equal(a, b) for a, b in zip(iterates, reference))
        assert np.array_equal(smooth.rejected, reference[5])


class TestHotPath:
    """The solver step calls only the unchecked hooks; each new point is
    checked once, by the loop or the line search."""

    @pytest.mark.parametrize("solve", [bpge_solve, bpg_solve],
                             ids=["bpge", "bpg"])
    @pytest.mark.parametrize("problem", ["plip", "qip"])
    def test_step_calls_no_checked_method(self, monkeypatch, solve, problem):
        obj, x0 = _shipped(problem, 40, 5, seed=31)
        calls = {}

        def counting(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counting(Kernel, "require_interior")
        counting(Kernel, "inverse_gradient")
        counting(L1Term, "prox")
        cfg = SolverConfig(lam=1.0 / obj.smooth.smad_constant(), k_max=50,
                           tol=1e-300)
        result = solve(obj, x0, cfg)
        assert result.iterations == 50
        assert calls == {"require_interior": 1}

    # cProfile calls, builtins included, of a 2000-iteration solve at seed 0,
    # lam = 1/L, tol 1e-300 (35.05, 25.02, 42.03 and 31.02 per iteration):
    # the dispatch budget of the solver step.
    CALL_BUDGET = {("plip", "bpge"): 70110, ("plip", "bpg"): 50041,
                   ("qip", "bpge"): 84068, ("qip", "bpg"): 62033}

    @pytest.mark.parametrize("problem,m", [("plip", 1000), ("qip", 200)])
    def test_calls_per_iteration_within_budget(self, problem, m):
        obj, x0 = _shipped(problem, m, 10, seed=0)
        cfg = SolverConfig(lam=1.0 / obj.smooth.smad_constant(),
                           k_max=2000, tol=1e-300)
        for name, solve in (("bpge", bpge_solve), ("bpg", bpg_solve)):
            profile = cProfile.Profile()
            result = profile.runcall(solve, obj, x0, cfg)
            assert result.iterations == 2000
            calls = pstats.Stats(profile).total_calls
            assert calls <= self.CALL_BUDGET[problem, name], name

    # The same at 2000 x 200, where M is 7 row blocks, over 300 iterations
    # (44.28, 25.14, 56.11 and 31.11 per iteration): only a step with a
    # carried y runs the per-block loop, one phi' call per block.
    BLOCKED_CALL_BUDGET = {("plip", "bpge"): 13285, ("plip", "bpg"): 7541,
                           ("qip", "bpge"): 16832, ("qip", "bpg"): 9333}

    @pytest.mark.parametrize("problem", ["plip", "qip"])
    def test_blocked_calls_per_iteration_within_budget(self, problem):
        obj, x0 = _shipped(problem, 2000, 200, seed=0)
        assert len(obj.smooth._blocks) == 7
        cfg = SolverConfig(lam=1.0 / obj.smooth.smad_constant(),
                           k_max=300, tol=1e-300)
        for name, solve in (("bpge", bpge_solve), ("bpg", bpg_solve)):
            profile = cProfile.Profile()
            result = profile.runcall(solve, obj, x0, cfg)
            assert result.iterations == 300
            calls = pstats.Stats(profile).total_calls
            assert calls <= self.BLOCKED_CALL_BUDGET[problem, name], name
