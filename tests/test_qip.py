import dataclasses
import math

import numpy as np
import pytest

from bregopt import (QuarticKernel, SolverConfig, ValidationError, bpge_solve,
                     cubic_root_scale)
from bregopt import qip

from helpers import bisect_cubic, fd_gradient, prox_oracle, shrink


def scalar_instance(b=1.0, theta=1.0):
    return qip.QipInstance(a=np.array([[1.0]]), b=np.array([b]), theta=theta,
                           seed=0, x_true=np.array([1.0]))


def prox(inst, y, grad, lam):
    """The solvers' prox step: obj.nonsmooth.prox at the mirror point of y."""
    obj = qip.make_objective(inst)
    return obj.nonsmooth.prox(obj.kernel, obj.kernel.gradient(y) - lam * grad,
                              lam)


class TestGeneration:
    def test_sparsity_five_percent(self):
        inst = qip.generate_qip(100, 20, seed=7)
        assert int(np.sum(inst.x_true != 0.0)) == math.ceil(0.05 * 20)
        inst = qip.generate_qip(50, 60, seed=7)
        assert int(np.sum(inst.x_true != 0.0)) == math.ceil(0.05 * 60)

    def test_consistent_measurements(self):
        inst = qip.generate_qip(40, 10, seed=8)
        assert np.allclose(inst.b, (inst.a @ inst.x_true) ** 2)

    def test_determinism(self):
        a = qip.generate_qip(30, 8, seed=9)
        b = qip.generate_qip(30, 8, seed=9)
        assert a.to_json() == b.to_json()

    def test_certified_constants(self):
        inst = qip.generate_qip(25, 6, seed=10)
        n2 = np.sum(inst.a ** 2, axis=1)
        L = np.sum(3.0 * n2 ** 2 + n2 * np.abs(inst.b))
        mu = np.sum(n2 * np.abs(inst.b))
        smooth = qip.QipSmooth(inst)
        assert smooth.smad_constant() == pytest.approx(L)
        assert smooth.weak_convexity_constant() == pytest.approx(mu)
        assert mu <= L


class TestValueAndGradient:
    def test_zero_at_ground_truth_without_regularizer(self):
        inst = qip.generate_qip(30, 8, seed=11, theta=0.0)
        psi = qip.make_objective(inst).value(inst.x_true)
        assert psi == pytest.approx(0.0, abs=1e-12)

    def test_value_at_zero(self):
        inst = qip.generate_qip(20, 5, seed=12)
        assert qip.make_objective(inst).value(np.zeros(5)) == pytest.approx(
            0.25 * np.sum(inst.b ** 2))

    def test_scalar_hand_values(self):
        inst = scalar_instance()
        psi = qip.make_objective(inst).value(np.array([2.0]))
        assert psi == pytest.approx(4.25)
        assert qip.QipSmooth(inst).gradient(np.array([2.0])) == \
            pytest.approx([6.0])

    def test_gradient_zero_at_origin(self):
        inst = qip.generate_qip(20, 5, seed=13)
        assert np.array_equal(qip.QipSmooth(inst).gradient(np.zeros(5)),
                              np.zeros(5))

    def test_overflow_is_silent(self):
        # u^2 overflows at x = 1e200: value and gradient are non-finite, and
        # raise no RuntimeWarning (an error in this suite).
        smooth = qip.make_objective(qip.generate_qip(20, 4, 1)).smooth
        x = np.full(4, 1e200)
        assert smooth.value(x) == np.inf
        assert not np.isfinite(smooth.gradient(x)).all()

    def test_gradient_matches_finite_differences(self):
        inst = qip.generate_qip(15, 5, seed=14)
        smooth = qip.QipSmooth(inst)
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = rng.standard_normal(5)
            g = smooth.gradient(x)
            fd = fd_gradient(smooth.value, x)
            assert np.linalg.norm(g - fd) <= 1e-5 * max(1.0, np.linalg.norm(g))


class TestCubicRoot:
    def test_reexported_and_correct(self):
        assert cubic_root_scale(2.0) == pytest.approx(1.0, abs=1e-12)

    def test_against_bisection_oracle(self):
        # r^3 + r = 10 has the exact root r = 2.
        r = cubic_root_scale(10.0)
        assert abs(r ** 3 + r - 10.0) <= 1e-12
        assert r == pytest.approx(bisect_cubic(10.0), abs=1e-10)
        assert r == pytest.approx(2.0, abs=1e-12)
        for s in [0.01, 0.7, 3.3, 47.0]:
            assert cubic_root_scale(s) == pytest.approx(
                bisect_cubic(s), abs=1e-10)


class TestProx:
    def test_zero_gradient_zero_weight_fixed_point(self):
        inst = qip.generate_qip(10, 4, seed=15, theta=0.0)
        y = np.array([0.3, -1.0, 0.7, 0.1])
        x = prox(inst, y, np.zeros(4), 0.05)
        assert np.linalg.norm(x - y) < 1e-9

    def test_fully_thresholded_input_gives_zero(self):
        inst = scalar_instance(theta=100.0)
        x = prox(inst, np.array([0.1]), np.array([0.0]), 0.5)
        assert np.array_equal(x, np.zeros(1))

    def test_norm_equals_cubic_root_of_thresholded_norm(self):
        inst = qip.generate_qip(20, 6, seed=16)
        kernel = QuarticKernel(6)
        lam = 1.0 / qip.QipSmooth(inst).smad_constant()
        rng = np.random.default_rng(1)
        for _ in range(50):
            y = rng.standard_normal(6)
            grad = qip.QipSmooth(inst).gradient(y)
            x = prox(inst, y, grad, lam)
            c = kernel.gradient(y) - lam * grad
            v = shrink(c, lam * inst.theta)
            r = cubic_root_scale(float(np.linalg.norm(v)))
            assert np.linalg.norm(x) == pytest.approx(r, abs=1e-12)

    def test_first_order_inclusion(self):
        inst = qip.generate_qip(20, 6, seed=17)
        kernel = QuarticKernel(6)
        lam = 1.0 / qip.QipSmooth(inst).smad_constant()
        rng = np.random.default_rng(2)
        for _ in range(50):
            y = rng.standard_normal(6)
            grad = qip.QipSmooth(inst).gradient(y)
            x = prox(inst, y, grad, lam)
            c = kernel.gradient(y) - lam * grad
            tau = lam * inst.theta
            gx = kernel.gradient(x)
            for j in range(6):
                if x[j] != 0.0:
                    assert abs(gx[j] + tau * np.sign(x[j]) - c[j]) < 1e-9
                else:
                    assert abs(c[j]) <= tau + 1e-9

    def test_matches_grid_oracle(self):
        inst = qip.generate_qip(8, 2, seed=18)
        kernel = QuarticKernel(2)
        lam = 1.0 / qip.QipSmooth(inst).smad_constant()
        rng = np.random.default_rng(3)

        def g_value(u):
            return inst.theta * float(np.sum(np.abs(u)))

        for _ in range(10):
            y = rng.standard_normal(2)
            grad = qip.QipSmooth(inst).gradient(y)
            x = prox(inst, y, grad, lam)
            x_star, v_star = prox_oracle(kernel, g_value, y, grad, lam,
                                         lo=-3.0, hi=3.0)
            assert np.linalg.norm(x - x_star) < 1e-5
            phi = (g_value(x) + float(np.dot(grad, x - y))
                   + kernel.bregman(x, y) / lam)
            assert phi <= v_star + 1e-8


def test_lyapunov_monotone_on_bpge_run():
    inst = qip.generate_qip(50, 8, seed=19)
    obj, x0 = qip.make_objective(inst), qip.default_x0(inst)
    cfg = SolverConfig(lam=1.0 / obj.smooth.smad_constant(), k_max=500)
    result = bpge_solve(obj, x0, cfg)
    trace = result.trace
    for prev, curr in zip(trace, trace[1:]):
        assert curr.lyapunov <= prev.lyapunov + 1e-10 * max(1.0, abs(prev.lyapunov))


def test_default_x0_unit_norm():
    inst = qip.generate_qip(10, 30, seed=20)
    x0 = qip.default_x0(inst)
    assert np.linalg.norm(x0) == pytest.approx(1.0)
    assert np.array_equal(x0, qip.default_x0(inst))


class TestValidation:
    def instance(self, **changes):
        """The seed-23 6 x 3 instance, built again with changes."""
        return dataclasses.replace(qip.generate_qip(6, 3, seed=23), **changes)

    @pytest.mark.parametrize("changes", [
        {"b": np.array([1.0] * 5 + [np.inf])},
        {"theta": -2.0}, {"theta": np.nan}, {"seed": -1},
        {"theta": "0.5"}, {"seed": 1.7},
    ], ids=["inf-b", "negative-theta", "nan-theta",
            "negative-seed", "string-theta", "float-seed"])
    def test_construction_rejects(self, changes):
        with pytest.raises(ValidationError):
            self.instance(**changes)

    def test_generate_rejects_negative_seed(self):
        for seed in (-1, True):  # a bool is not an integer seed
            with pytest.raises(ValidationError, match="seed"):
                qip.generate_qip(6, 3, seed=seed)
        with pytest.raises(ValidationError, match="seed"):
            qip.QipInstance(a=np.array([[1.0]]), b=np.array([1.0]),
                            theta=1.0, seed=1.5, x_true=np.array([1.0]))

    def test_negative_b_is_allowed(self):
        # Noisy measurements may be negative; only finiteness is required.
        inst = self.instance(b=np.full(6, -1.0))
        assert (inst.b == -1.0).all()

    @pytest.mark.parametrize("a,b,x_true", [
        (np.ones((2, 3)), np.ones(3), np.ones(3)),
        (np.ones((2, 3)), np.ones(2), np.ones(4)),
        (np.ones(3), np.ones(3), np.ones(1)),
        ([[1.0]], [1.0], [1.0]),
        (np.array([["x"]]), np.array(["1"]), np.array(["1"])),
        (np.ones((1, 1), dtype=object), np.ones(1, dtype=object), np.ones(1)),
    ], ids=["b-length", "x-length", "flat-a", "nested-lists",
            "string-arrays", "object-arrays"])
    def test_construction_rejects_shape_mismatch(self, a, b, x_true):
        with pytest.raises(ValidationError):
            qip.QipInstance(a=a, b=b, theta=1.0, seed=0, x_true=x_true)

    def test_generate_rejects_bad_theta(self):
        for theta in (-1.0, np.nan, np.inf, "1", True, None, [1.0]):
            with pytest.raises(ValidationError, match="theta"):
                qip.generate_qip(10, 3, seed=0, theta=theta)

    def test_bounds_are_computed_once(self):
        smooth = qip.QipSmooth(qip.generate_qip(25, 6, seed=10))
        assert smooth.smad_constant() is smooth.smad_constant()
        assert smooth.weak_convexity_constant() is \
            smooth.weak_convexity_constant()
