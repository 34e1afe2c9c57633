import numpy as np
import pytest

from bregopt import (
    BurgKernel,
    EuclideanKernel,
    L1Term,
    QuarticKernel,
    ValidationError,
    ZeroTerm,
    check_smad,
    cubic_root_scale,
    objective_value,
    soft_threshold,
)
from bregopt import plip, qip
from bregopt.problems import CompositeObjective, SmoothTerm

from helpers import fd_gradient, prox_oracle


def test_plip_objective_zero_at_consistent_data():
    inst = plip.generate_plip(20, 4, seed=0)
    obj = plip.make_objective(inst)
    # b = A x_true exactly, so the KL fit vanishes at the ground truth.
    assert objective_value(obj, inst.x_true + 1e-30) == pytest.approx(0.0, abs=1e-10)


def test_qip_objective_at_zero():
    inst = qip.generate_qip(30, 5, seed=1, theta=1.0)
    obj = qip.make_objective(inst)
    assert objective_value(obj, np.zeros(5)) == pytest.approx(
        0.25 * np.sum(inst.b ** 2))


def test_qip_objective_scalar_hand_value():
    inst = qip.QipInstance(a=np.array([[1.0]]), b=np.array([1.0]), theta=1.0,
                           seed=0, x_true=np.array([1.0]))
    obj = qip.make_objective(inst)
    assert objective_value(obj, np.array([2.0])) == pytest.approx(4.25)


class TestCheckSmad:
    def test_plip_certified_constant(self):
        inst = plip.generate_plip(100, 8, seed=2)
        report = check_smad(plip.make_objective(inst), samples=1000, rng_seed=0)
        assert not report.failed

    def test_qip_certified_constants(self):
        inst = qip.generate_qip(60, 6, seed=3)
        report = check_smad(qip.make_objective(inst), samples=1000, rng_seed=0)
        assert not report.failed

    def test_inflated_constant_still_passes(self):
        inst = plip.generate_plip(50, 5, seed=4)

        class Inflated(plip.PlipSmooth):
            def smad_constant(self):
                return 10.0 * super().smad_constant()

        obj = CompositeObjective(Inflated(inst), ZeroTerm(), BurgKernel(inst.d))
        report = check_smad(obj, samples=500, rng_seed=0)
        assert not report.failed

    def test_deflated_constant_fails(self):
        inst = qip.generate_qip(40, 4, seed=5)

        class Deflated(qip.QipSmooth):
            def smad_constant(self):
                return 1e-4 * super().smad_constant()

        obj = CompositeObjective(Deflated(inst), L1Term(1.0), QuarticKernel(inst.d))
        report = check_smad(obj, samples=500, rng_seed=0)
        assert report.failed


class TestGradients:
    def test_plip_gradient_fd(self):
        inst = plip.generate_plip(30, 6, seed=6)
        smooth = plip.PlipSmooth(inst)
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = rng.uniform(0.1, 2.0, 6)
            g = smooth.gradient(x)
            fd = fd_gradient(smooth.value, x)
            assert np.linalg.norm(g - fd) <= 1e-5 * max(1.0, np.linalg.norm(g))

    def test_qip_gradient_fd(self):
        inst = qip.generate_qip(25, 5, seed=7)
        smooth = qip.QipSmooth(inst)
        rng = np.random.default_rng(1)
        for _ in range(100):
            x = rng.standard_normal(5)
            g = smooth.gradient(x)
            fd = fd_gradient(smooth.value, x)
            assert np.linalg.norm(g - fd) <= 1e-5 * max(1.0, np.linalg.norm(g))


def test_soft_threshold():
    assert np.array_equal(soft_threshold(np.array([3.0, -0.5]), 1.0),
                          np.array([2.0, 0.0]))
    z = np.array([0.2, -1.7, 4.0])
    assert np.array_equal(soft_threshold(z, 0.0), z)
    rng = np.random.default_rng(2)
    for _ in range(50):
        z = rng.standard_normal(6)
        tau = rng.uniform(0.0, 2.0)
        assert np.linalg.norm(soft_threshold(z, tau)) <= np.linalg.norm(z)


class TestProxFirstOrder:
    def test_zero_term_mirror_step(self):
        # g == 0: prox must satisfy grad h(u) = grad h(y) - lam * grad f(y).
        kernel = BurgKernel(4)
        term = ZeroTerm()
        rng = np.random.default_rng(3)
        for _ in range(50):
            y = rng.uniform(0.3, 2.0, 4)
            grad = rng.uniform(-0.2, 0.5, 4)
            lam = rng.uniform(0.05, 0.5)
            u = term.prox(kernel, y, grad, lam)
            resid = np.linalg.norm(kernel.gradient(u) - kernel.gradient(y)
                                   + lam * grad)
            assert resid < 1e-8

    def test_l1_quartic_subdifferential(self):
        kernel = QuarticKernel(5)
        weight = 0.8
        term = L1Term(weight)
        rng = np.random.default_rng(4)
        for _ in range(50):
            y = rng.standard_normal(5)
            grad = rng.standard_normal(5)
            lam = rng.uniform(0.05, 0.5)
            u = term.prox(kernel, y, grad, lam)
            c = kernel.gradient(y) - lam * grad
            gu = kernel.gradient(u)
            tau = lam * weight
            for j in range(5):
                if u[j] != 0.0:
                    assert abs(gu[j] + tau * np.sign(u[j]) - c[j]) < 1e-9
                else:
                    assert abs(c[j]) <= tau + 1e-9

    def test_l1_rejects_burg_kernel(self):
        with pytest.raises(ValidationError):
            L1Term(1.0).prox(BurgKernel(2), np.ones(2), np.zeros(2), 0.1)

    def test_l1_quartic_is_hand_formula(self):
        kernel = QuarticKernel(6)
        rng = np.random.default_rng(7)
        for weight in (0.3, 1.0, 5.0):
            for _ in range(50):
                y = rng.standard_normal(6)
                grad = rng.standard_normal(6)
                lam = rng.uniform(0.05, 0.5)
                c = (float(np.dot(y, y)) + 1.0) * y - lam * grad
                v = soft_threshold(c, lam * weight)
                r = cubic_root_scale(float(np.linalg.norm(v)))
                got = L1Term(weight).prox(kernel, y, grad, lam)
                assert np.array_equal(got, v / (r * r + 1.0))

    @pytest.mark.parametrize("kernel", [EuclideanKernel(5), BurgKernel(5),
                                        QuarticKernel(5)],
                             ids=lambda k: type(k).__name__)
    def test_zero_term_is_weight_zero_l1(self, kernel):
        rng = np.random.default_rng(8)
        for _ in range(50):
            y = rng.uniform(0.3, 2.0, 5)
            grad = rng.uniform(-0.2, 0.5, 5)
            lam = rng.uniform(0.05, 0.5)
            a = ZeroTerm().prox(kernel, y, grad, lam)
            b = L1Term(0.0).prox(kernel, y, grad, lam)
            assert a.tobytes() == b.tobytes()
        assert ZeroTerm().value(y) == 0.0


class TestProxOracle:
    def test_zero_term_burg_matches_grid(self):
        kernel = BurgKernel(2)
        term = ZeroTerm()
        rng = np.random.default_rng(5)
        for _ in range(10):
            y = rng.uniform(0.4, 1.5, 2)
            grad = rng.uniform(-0.3, 0.8, 2)
            lam = rng.uniform(0.1, 0.4)
            u = term.prox(kernel, y, grad, lam)
            u_star, v_star = prox_oracle(kernel, lambda x: 0.0, y, grad, lam,
                                         lo=1e-3, hi=4.0)
            assert np.linalg.norm(u - u_star) < 1e-5
            phi_u = (float(np.dot(grad, u - y)) + kernel.bregman(u, y) / lam)
            assert phi_u <= v_star + 1e-8

    def test_l1_quartic_matches_grid(self):
        kernel = QuarticKernel(2)
        weight = 0.5
        term = L1Term(weight)
        rng = np.random.default_rng(6)
        for _ in range(10):
            y = rng.standard_normal(2)
            grad = rng.standard_normal(2)
            lam = rng.uniform(0.05, 0.3)

            def g_value(x):
                return weight * float(np.sum(np.abs(x)))

            u = term.prox(kernel, y, grad, lam)
            u_star, v_star = prox_oracle(kernel, g_value, y, grad, lam,
                                         lo=-3.0, hi=3.0)
            assert np.linalg.norm(u - u_star) < 1e-5
            phi_u = (g_value(u) + float(np.dot(grad, u - y))
                     + kernel.bregman(u, y) / lam)
            assert phi_u <= v_star + 1e-8


def test_smooth_constants_ordering():
    inst = qip.generate_qip(50, 8, seed=8)
    smooth = qip.QipSmooth(inst)
    assert 0.0 <= smooth.weak_convexity_constant() <= smooth.smad_constant()


def test_smooth_term_interface_is_abstract():
    with pytest.raises(NotImplementedError):
        SmoothTerm().value(np.zeros(1))
