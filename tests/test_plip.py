import dataclasses
import sys
from decimal import Decimal

import numpy as np
import pytest

from bregopt import (BurgKernel, DomainError, SolverConfig, ValidationError,
                     bpge_solve)
from bregopt import plip

from helpers import burg_decimal, fd_gradient, prox_oracle, solve_recording


def _identity_instance(b):
    """A = I, so that f(x) is the KL fit at u = x exactly."""
    b = np.asarray(b, dtype=float)
    return plip.PlipInstance(A=np.eye(b.size), b=b, seed=0, x_true=b)


class TestGeneration:
    def test_entry_bounds(self):
        inst = plip.generate_plip(50, 5, seed=3)
        assert np.all(inst.A > 0.0) and np.all(inst.A <= 1.0)
        assert np.all(inst.b > 0.0)
        assert inst.m == 50 and inst.d == 5

    def test_determinism(self):
        a = plip.generate_plip(100, 10, seed=42)
        b = plip.generate_plip(100, 10, seed=42)
        assert np.array_equal(a.A, b.A)
        assert np.array_equal(a.b, b.b)
        assert a.to_json() == b.to_json()

    def test_one_generator_checks_theta(self):
        assert plip.generate is plip.generate_plip
        for theta in (-1.0, np.nan, "1", True):
            with pytest.raises(ValidationError, match="theta"):
                plip.generate_plip(6, 3, seed=0, theta=theta)
        assert plip.generate_plip(6, 3, 0, theta=2.5).to_json() == \
            plip.generate_plip(6, 3, 0).to_json()

    def test_smad_bound_is_l1_norm_of_data(self):
        inst = plip.generate_plip(20, 4, seed=2)
        assert plip.PlipSmooth(inst).smad_constant() == pytest.approx(
            np.sum(inst.b))


class TestKlValue:
    def test_zero_at_consistent_data(self):
        inst = plip.generate_plip(30, 6, seed=4)
        assert plip.PlipSmooth(inst).value(inst.x_true) == pytest.approx(
            0.0, abs=1e-10)

    def test_scalar_hand_value(self):
        inst = plip.PlipInstance(A=np.array([[1.0]]), b=np.array([1.0]),
                                 seed=0, x_true=np.array([1.0]))
        assert plip.PlipSmooth(inst).value(np.array([2.0])) == pytest.approx(
            1.0 - np.log(2.0))

    def test_nonnegative(self):
        inst = plip.generate_plip(40, 5, seed=5)
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = rng.uniform(0.05, 3.0, 5)
            assert plip.PlipSmooth(inst).value(x) >= -1e-12

    def test_rejects_nonpositive_point(self):
        inst = plip.generate_plip(10, 3, seed=6)
        with pytest.raises(DomainError):
            plip.PlipSmooth(inst).value(np.array([1.0, 0.0, 1.0]))

    @pytest.mark.parametrize("eps", [10.0 ** -k for k in range(1, 11)])
    def test_accurate_near_the_data(self, eps):
        # u = b (1 + eps v), where the consistent data put plip's iterates:
        # relative error below 1e-15 / eps of an 80-digit evaluation.
        rng = np.random.default_rng(8)
        for _ in range(20):
            b, v = rng.uniform(0.1, 10.0, 10), rng.uniform(-1.0, 1.0, 10)
            u = b * (1.0 + eps * v)
            exact = burg_decimal(u, b, b)
            got = plip.PlipSmooth(_identity_instance(b)).value(u)
            assert abs(Decimal(got) - exact) <= Decimal(1e-15 / eps) * exact

    @pytest.mark.parametrize("scale", [1e-20, 1e-300, 1e20, 1e300])
    def test_finite_where_the_ratio_leaves_the_float_range(self, scale):
        # At u = 1e-20 b, (u - b)/b rounds to -1; the value stays finite
        # (112.63 at b = [0.5, 2]), inf only past the largest float, and
        # no RuntimeWarning (an error in this module).
        b = np.array([0.5, 2.0])
        exact = burg_decimal(scale * b, b, b)
        got = plip.PlipSmooth(_identity_instance(b)).value(scale * b)
        if exact > Decimal(sys.float_info.max):
            assert got == np.inf
        else:
            assert got == pytest.approx(float(exact), rel=1e-14)


class TestKlGradient:
    def test_zero_at_consistent_data(self):
        inst = plip.generate_plip(30, 6, seed=7)
        g = plip.PlipSmooth(inst).gradient(inst.x_true)
        assert np.linalg.norm(g) < 1e-9

    def test_scalar_hand_value(self):
        inst = plip.PlipInstance(A=np.array([[1.0]]), b=np.array([1.0]),
                                 seed=0, x_true=np.array([1.0]))
        assert plip.PlipSmooth(inst).gradient(np.array([2.0])) == \
            pytest.approx([0.5])

    def test_matches_finite_differences(self):
        inst = plip.generate_plip(25, 5, seed=8)
        rng = np.random.default_rng(1)
        for _ in range(100):
            x = rng.uniform(0.1, 2.0, 5)
            g = plip.PlipSmooth(inst).gradient(x)
            fd = fd_gradient(lambda u: plip.PlipSmooth(inst).value(u), x)
            assert np.linalg.norm(g - fd) <= 1e-5 * max(1.0, np.linalg.norm(g))


class TestProx:
    def test_zero_gradient_is_fixed_point(self):
        inst = plip.generate_plip(10, 4, seed=9)
        y = np.array([0.4, 1.2, 0.8, 2.0])
        assert np.allclose(plip.plip_prox(inst, y, np.zeros(4), 0.01), y)

    def test_scalar_hand_value(self):
        inst = plip.PlipInstance(A=np.array([[1.0]]), b=np.array([1.0]),
                                 seed=0, x_true=np.array([1.0]))
        got = plip.plip_prox(inst, np.array([1.0]), np.array([0.5]), 1.0)
        assert got == pytest.approx([2.0 / 3.0])

    def test_mirror_step_residual(self):
        inst = plip.generate_plip(50, 6, seed=10)
        kernel = BurgKernel(6)
        lam = 1.0 / plip.PlipSmooth(inst).smad_constant()
        rng = np.random.default_rng(2)
        for _ in range(50):
            y = rng.uniform(0.2, 2.0, 6)
            grad = plip.PlipSmooth(inst).gradient(y)
            x = plip.plip_prox(inst, y, grad, lam)
            assert np.all(x > 0.0)
            resid = np.linalg.norm(kernel.gradient(x) - kernel.gradient(y)
                                   + lam * grad)
            assert resid < 1e-10

    def test_matches_grid_oracle(self):
        inst = plip.generate_plip(12, 2, seed=11)
        kernel = BurgKernel(2)
        lam = 1.0 / plip.PlipSmooth(inst).smad_constant()
        rng = np.random.default_rng(3)
        for _ in range(10):
            y = rng.uniform(0.3, 1.5, 2)
            grad = plip.PlipSmooth(inst).gradient(y)
            x = plip.plip_prox(inst, y, grad, lam)
            x_star, _ = prox_oracle(kernel, lambda u: 0.0, y, grad, lam,
                                    lo=1e-3, hi=4.0)
            assert np.linalg.norm(x - x_star) < 1e-5

    def test_objective_prox_matches_closed_form(self):
        # An independent oracle, the closed form y/(1 + lam*y*grad) of
        # Bauschke, Bolte and Teboulle (2017), against the step
        # -1/(-1/y - lam*grad): they agree to a few ulps.
        inst = plip.generate_plip(40, 6, seed=13)
        lam = 1.0 / plip.PlipSmooth(inst).smad_constant()
        rng = np.random.default_rng(4)
        for _ in range(100):
            y = rng.uniform(0.05, 3.0, 6)
            grad = plip.PlipSmooth(inst).gradient(y)
            np.testing.assert_allclose(
                plip.plip_prox(inst, y, grad, lam), y / (1.0 + lam * y * grad),
                rtol=1e-14, atol=0.0)

    def test_is_the_solvers_step_bit_for_bit(self):
        # The solvers' step from y: the nonsmooth term's unchecked prox of
        # the mirror point, as `bpge_solve` forms it.
        inst = plip.generate_plip(10, 4, seed=9)
        obj = plip.make_objective(inst)
        lam = 1.0 / obj.smooth.smad_constant()
        rng = np.random.default_rng(5)
        for _ in range(1000):
            y = rng.uniform(0.05, 3.0, 4)
            grad = obj.smooth.gradient(y)
            step = obj.nonsmooth._prox(
                obj.kernel, obj.kernel._gradient(y) - lam * grad, lam)
            assert plip.plip_prox(inst, y, grad, lam).tobytes() == \
                step.tobytes()

    @pytest.mark.parametrize("lam", [-0.01, 0.0, np.inf, np.nan, True, "0.1",
                                     None])
    def test_rejects_bad_step_size(self, lam):
        inst = plip.generate_plip(10, 4, seed=9)
        with pytest.raises(ValidationError, match="lam"):
            plip.plip_prox(inst, np.ones(4), np.ones(4), lam)

    def test_step_past_one_over_L_leaving_the_domain_raises(self):
        # At y = x_true / 2, A y = b / 2 and grad f(y) = -A^T 1 < 0; the step
        # 2 / max(-y * grad) > 1/L puts a denominator 1 + lam*y*grad at -1.
        inst = plip.generate_plip(10, 4, seed=9)
        y = inst.x_true / 2.0
        grad = plip.PlipSmooth(inst).gradient(y)
        lam = 2.0 / np.max(-y * grad)
        assert lam > 1.0 / plip.PlipSmooth(inst).smad_constant()
        assert np.min(1.0 + lam * y * grad) <= 0.0
        with pytest.raises(DomainError, match="prox output"):
            plip.plip_prox(inst, y, grad, lam)
        # Where lam * grad overflows, the same error and no float warning.
        with pytest.raises(DomainError, match="prox output"):
            plip.plip_prox(inst, y, grad, 1e308)

    def test_nonpositive_denominator_raises(self):
        inst = plip.PlipInstance(A=np.array([[1.0]]), b=np.array([1.0]),
                                 seed=0, x_true=np.array([1.0]))
        with pytest.raises(DomainError, match="prox output"):
            plip.plip_prox(inst, np.array([1.0]), np.array([-2.0]), 1.0)


def test_iterates_stay_positive_along_solve():
    inst = plip.generate_plip(60, 5, seed=12)
    obj, x0 = plip.make_objective(inst), plip.default_x0(inst)
    cfg = SolverConfig(lam=1.0 / obj.smooth.smad_constant(), k_max=300)
    _, iterates = solve_recording(bpge_solve, obj, x0, cfg)
    for x in iterates:
        assert np.all(x > 0.0)


def test_default_x0_range_and_determinism():
    inst = plip.generate_plip(10, 50, seed=13)
    x0 = plip.default_x0(inst)
    assert np.all((x0 > 0.5) & (x0 < 1.5))
    assert np.array_equal(x0, plip.default_x0(inst))


class TestValidation:
    def instance(self, **changes):
        """The seed-15 6 x 3 instance, built again with changes."""
        return dataclasses.replace(plip.generate_plip(6, 3, seed=15),
                                   **changes)

    @pytest.mark.parametrize("b", [[1.0] * 5, [1.0] * 5 + [0.0],
                                   [1.0] * 5 + [-2.0], [1.0] * 5 + [np.nan]],
                             ids=["short", "zero", "negative", "nan"])
    def test_construction_rejects_bad_b(self, b):
        with pytest.raises(ValidationError):
            self.instance(b=np.array(b))

    def test_construction_rejects_negative_seed(self):
        for seed in (-1, 1.7):  # nor a non-integer one
            with pytest.raises(ValidationError, match="seed"):
                self.instance(seed=seed)

    def test_generate_rejects_negative_seed(self):
        for seed in (-1, True):  # a bool is not an integer seed
            with pytest.raises(ValidationError, match="seed"):
                plip.generate_plip(6, 3, seed=seed)
        with pytest.raises(ValidationError, match="seed"):
            plip.PlipInstance(A=np.array([[1.0]]), b=np.array([1.0]),
                              seed=1.5, x_true=np.array([1.0]))

    @pytest.mark.parametrize("A,b,x_true", [
        (np.ones((2, 3)), np.ones(3), np.ones(3)),
        (np.ones((2, 3)), np.ones(2), np.ones(2)),
        (np.ones(3), np.ones(3), np.ones(1)),
        (np.ones((0, 3)), np.ones(0), np.ones(3)),
        ([[1.0]], [1.0], [1.0]),
        (np.array([["1"]]), np.array(["1"]), np.array(["1"])),
        (np.ones((1, 1), dtype=object), np.ones(1, dtype=object), np.ones(1)),
    ], ids=["b-length", "x-length", "flat-A", "empty-A", "nested-lists",
            "string-arrays", "object-arrays"])
    def test_construction_rejects_shape_mismatch(self, A, b, x_true):
        with pytest.raises(ValidationError):
            plip.PlipInstance(A=A, b=b, seed=0, x_true=x_true)
