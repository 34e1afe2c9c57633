import dataclasses
import inspect
import pickle

import numpy as np
import pytest

from bregopt import (
    BurgKernel,
    CompositeObjective,
    EuclideanKernel,
    L1Term,
    LineSearchConfig,
    SolverConfig,
    ValidationError,
    bpg_solve,
    bpge_solve,
    line_search_beta,
    soft_threshold,
)
from bregopt import checks, plip, problems, qip, solvers
from bregopt.kernels import Kernel, QuarticKernel
from bregopt.problems import NonsmoothTerm, SmoothTerm
from bregopt.solvers import IterationRecord, Trace

from helpers import (FailingBurgKernel, lyapunov_increase_loop,
                     rate_check_loop)


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
        cfg = LineSearchConfig(beta0=0.7)
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
        cfg = LineSearchConfig(beta0=0.9, rho=rho)
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
        cfg = LineSearchConfig(beta0=0.99, eta=0.5, rho=rho)
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
        cfg = LineSearchConfig(beta0=0.99, eta=0.5, rho=0.99)
        x_prev, x_curr = np.array([2.0]), np.array([1.0])
        beta, shrinks, trial, hgrad = line_search_beta(
            kernel, x_prev, x_curr, cfg, 1.0, kernel.bregman(x_prev, x_curr))
        assert np.array_equal(trial, x_curr + beta * (x_curr - x_prev))
        assert np.array_equal(hgrad, kernel.gradient(trial))
        assert np.all(trial > 0)
        assert (kernel.bregman(x_curr, trial)
                <= 0.99 * kernel.bregman(x_prev, x_curr) + 1e-15)

    def test_domain_violating_trials_shrink(self):
        # Trial 1 + 0.99*(1 - 5) < 0 leaves the Burg domain; beta must shrink
        # until the trial is positive and the distance test passes.
        kernel = BurgKernel(1)
        cfg = LineSearchConfig(beta0=0.99, eta=0.5, rho=0.99)
        x_prev, x_curr = np.array([5.0]), np.array([1.0])
        beta, shrinks, trial, _ = line_search_beta(
            kernel, x_prev, x_curr, cfg, 1.0, kernel.bregman(x_prev, x_curr))
        assert shrinks >= 1
        assert 1.0 + beta * (1.0 - 5.0) > 0
        assert np.array_equal(trial, [1.0 + beta * (1.0 - 5.0)])

    def test_quartic_returns_trial_and_its_kernel_gradient(self):
        kernel = QuarticKernel(4)
        cfg = LineSearchConfig(beta0=0.99, eta=0.5, rho=0.5)
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
        cfg = SolverConfig(lam=lam, k_max=100,
                           line_search=LineSearchConfig(beta0=0.0))
        r_e = bpge_solve(obj, x0, cfg)
        r_0 = bpg_solve(obj, x0, cfg)
        assert r_e.iterations == r_0.iterations
        assert np.array_equal(r_e.x_final, r_0.x_final)
        for a, b in zip(r_e.trace, r_0.trace):
            assert a.psi == b.psi and a.dh_step == b.dh_step

    def test_matches_hand_coded_pge_on_lasso(self):
        obj = lasso_objective(seed=2)
        d = obj.dim
        lam = 1.0 / obj.smooth.smad_constant()
        ls = LineSearchConfig(beta0=0.95, eta=0.5, rho=0.9)
        cfg = SolverConfig(lam=lam, k_max=100, tol=1e-300,
                           line_search=ls, keep_iterates=True)
        x0 = np.zeros(d)
        result = bpge_solve(obj, x0, cfg)

        # Independent extrapolated proximal gradient loop.
        weight = obj.nonsmooth.weight
        x_prev = x0.copy()
        x_curr = x0.copy()
        iterates = [x0.copy()]
        for _ in range(100):
            delta = x_curr - x_prev
            beta = ls.beta0
            if np.any(delta):
                n2 = 0.5 * float(np.dot(delta, delta))
                for _ in range(ls.max_shrinks + 1):
                    trial = x_curr + beta * delta
                    diff = trial - x_curr
                    if 0.5 * float(np.dot(diff, diff)) <= ls.rho * n2:
                        break
                    beta *= ls.eta
            y = x_curr + beta * delta if np.any(delta) else x_curr
            grad = obj.smooth.gradient(y)
            x_next = soft_threshold(y - lam * grad, lam * weight)
            iterates.append(x_next.copy())
            x_prev, x_curr = x_curr, x_next

        assert len(result.iterates) == len(iterates)
        for a, b in zip(result.iterates, iterates):
            assert np.linalg.norm(a - b) <= 1e-12

    def test_pg_matches_gradient_descent_on_smooth_problem(self):
        rng = np.random.default_rng(3)
        B = rng.standard_normal((8, 4))
        c = rng.standard_normal(8)
        from bregopt.problems import ZeroTerm
        obj = CompositeObjective(QuadraticSmooth(B, c), ZeroTerm(),
                                 EuclideanKernel(4))
        lam = 1.0 / obj.smooth.smad_constant()
        cfg = SolverConfig(lam=lam, k_max=50, tol=1e-300, keep_iterates=True)
        # With the Euclidean kernel BPG is the proximal gradient method.
        result = bpg_solve(obj, np.zeros(4), cfg)
        x = np.zeros(4)
        for a in result.iterates[1:]:
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
        cfg = SolverConfig(lam=lam, k_max=400, keep_iterates=True)
        result = bpge_solve(obj, x0, cfg)
        mu = obj.smooth.weak_convexity_constant()
        C = (1.0 / lam) / (1.0 / lam + mu)
        rho = cfg.line_search.rho
        kernel = obj.kernel
        xs = result.iterates
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
        rho = cfg.line_search.rho
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
        with pytest.raises(ValidationError):
            LineSearchConfig(beta0=1.0)
        with pytest.raises(ValidationError):
            LineSearchConfig(eta=0.0)
        with pytest.raises(ValidationError):
            LineSearchConfig(rho=1.5)

    def test_rejects_unknown_exit_mode(self):
        with pytest.raises(ValidationError):
            SolverConfig(lam=0.1, exit_mode="bogus")

    def test_rejects_nan_step(self):
        with pytest.raises(ValidationError):
            SolverConfig(lam=float("nan"))

    def test_rejects_nan_tol(self):
        with pytest.raises(ValidationError):
            SolverConfig(lam=0.1, tol=float("nan"))

    @pytest.mark.parametrize("field,value", [
        ("k_max", 2.5), ("k_max", True), ("k_max", "5"), ("tol", "1"),
        ("lam", "0.1"), ("lam", True), ("line_search", None),
        ("line_search", {"beta0": 0.5}), ("keep_iterates", "no"),
        ("keep_iterates", 1),
    ])
    def test_rejects_mistyped_field(self, field, value):
        with pytest.raises(ValidationError):
            SolverConfig(**{"lam": 0.1, field: value})

    @pytest.mark.parametrize("field", ["beta0", "eta", "rho"])
    @pytest.mark.parametrize("value", ["0.5", False], ids=["str", "bool"])
    def test_line_search_rejects_mistyped_field(self, field, value):
        with pytest.raises(ValidationError):
            LineSearchConfig(**{field: value})


class TestExitModes:
    def test_objective_relative_exit(self):
        inst = plip.generate_plip(40, 4, seed=15)
        obj, x0 = plip.make_objective(inst), plip.default_x0(inst)
        cfg = SolverConfig(lam=1.0 / obj.smooth.smad_constant(),
                           exit_mode="objective_relative", tol=1e-10)
        result = bpge_solve(obj, x0, cfg)
        assert result.exit_reason == "tolerance"
        last, prev = result.trace[-1], result.trace[-2]
        gap = abs(last.psi - prev.psi) / max(1.0, abs(last.psi))
        assert gap <= 1e-10

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
        # A sweep worker returns its SolveResults to the caller by pickle.
        again = pickle.loads(pickle.dumps(result))
        assert isinstance(again.trace, Trace)
        assert list(again.trace) == list(result.trace)
        assert np.array_equal(again.x_final, result.x_final)
        assert again.config == result.config
        assert not again.trace.data.flags.writeable
        with pytest.raises(ValueError):
            again.trace.column("psi")[0] = 0.0

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
        kernel = _counting_kernel(type(obj.kernel))(obj.dim)
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
            obj, kernel=_counting_kernel(QuarticKernel)(obj.dim))
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
            obj, kernel=_counting_kernel(QuarticKernel)(obj.dim))
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
        cfg = SolverConfig(lam=1.0 / smooth.smad_constant(), tol=1e-8,
                           keep_iterates=True)
        result = bpge_solve(obj, rng.standard_normal(5), cfg)
        assert result.exit_reason == "tolerance"
        assert any(rec.beta_accepted > 0.0 for rec in result.trace[2:])
        lyap = [rec.lyapunov for rec in result.trace[1:]]
        assert all(b <= a + 1e-12 for a, b in zip(lyap, lyap[1:]))
        xs = result.iterates
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
        cfg = SolverConfig(lam=1.0 / obj.smooth.smad_constant(), k_max=400,
                           keep_iterates=True)
        carried = bpge_solve(obj, x0, cfg)
        recomputing = _recomputing(obj.smooth)
        recomputed = bpge_solve(dataclasses.replace(obj, smooth=recomputing),
                                x0, cfg)
        # One test per extrapolated y: every step after the first (which
        # extrapolates from x_prev = x0, so y = x0) with beta != 0, and
        # the look-ahead after the last step if its beta is not 0.
        trace, xs = recomputed.trace, recomputed.iterates
        mu = obj.smooth.weak_convexity_constant()
        last_beta = line_search_beta(
            obj.kernel, xs[-2], xs[-1], cfg.line_search,
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
        sizes = [M_B.shape[0] for _, M_B, _ in blocked._blocks]
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
        kernel = FailingBurgKernel(obj.dim, fail_at=3)
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

        bpge_solve(dataclasses.replace(obj, kernel=Recording(obj.dim)), x0,
                   cfg)
        # The solver tests each prox output; after the last one, the line
        # search for a step that is never taken tests its trials.
        callers = Recording.callers
        last_prox = max(i for i, name in enumerate(callers)
                        if name == "bpge_solve")
        assert callers[last_prox + 1:]
        assert set(callers[last_prox + 1:]) == {"line_search_beta"}
        kernel = FailingBurgKernel(obj.dim, fail_at=last_prox + 2)
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

        # The mirror point is NaN, so the cubic root of its norm is NaN and
        # so is the prox output, which the solver's domain test rejects.
        obj = CompositeObjective(NanGradient(), L1Term(0.5), QuarticKernel(3))
        result = solve(obj, np.ones(3), SolverConfig(lam=1.0, k_max=50))
        assert result.exit_reason == "numerical_failure"
        assert result.iterations == 0
