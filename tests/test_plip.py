import json

import numpy as np
import pytest

from bregopt import (BurgKernel, DomainError, NumericalError, SolverConfig,
                     ValidationError, bpge_solve)
from bregopt import plip

from helpers import fd_gradient, prox_oracle


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
        assert plip.to_json(a) == plip.to_json(b)

    def test_smad_bound_is_l1_norm_of_data(self):
        inst = plip.generate_plip(20, 4, seed=2)
        assert inst.smad_bound == pytest.approx(np.sum(inst.b))


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
        lam = 1.0 / inst.smad_bound
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
        lam = 1.0 / inst.smad_bound
        rng = np.random.default_rng(3)
        for _ in range(10):
            y = rng.uniform(0.3, 1.5, 2)
            grad = plip.PlipSmooth(inst).gradient(y)
            x = plip.plip_prox(inst, y, grad, lam)
            x_star, _ = prox_oracle(kernel, lambda u: 0.0, y, grad, lam,
                                    lo=1e-3, hi=4.0)
            assert np.linalg.norm(x - x_star) < 1e-5

    def test_objective_prox_matches_closed_form(self):
        # The solvers' prox is -1/(-1/y - lam*grad); plip_prox is
        # y/(1 + lam*y*grad). They agree to a few ulps.
        inst = plip.generate_plip(40, 6, seed=13)
        obj = plip.make_objective(inst)
        lam = 1.0 / inst.smad_bound
        rng = np.random.default_rng(4)
        for _ in range(100):
            y = rng.uniform(0.05, 3.0, 6)
            grad = plip.PlipSmooth(inst).gradient(y)
            ref = plip.plip_prox(inst, y, grad, lam)
            np.testing.assert_allclose(
                obj.nonsmooth.prox(
                    obj.kernel, obj.kernel.gradient(y) - lam * grad, lam), ref,
                rtol=1e-14, atol=0.0)

    def test_nonpositive_denominator_raises(self):
        inst = plip.PlipInstance(A=np.array([[1.0]]), b=np.array([1.0]),
                                 seed=0, x_true=np.array([1.0]))
        with pytest.raises(NumericalError):
            plip.plip_prox(inst, np.array([1.0]), np.array([-2.0]), 1.0)


def test_iterates_stay_positive_along_solve():
    inst = plip.generate_plip(60, 5, seed=12)
    obj, x0 = plip.make_objective(inst), plip.default_x0(inst)
    cfg = SolverConfig(lam=1.0 / obj.smooth.smad_constant(), k_max=300,
                       keep_iterates=True)
    result = bpge_solve(obj, x0, cfg)
    for x in result.iterates:
        assert np.all(x > 0.0)


def test_default_x0_range_and_determinism():
    inst = plip.generate_plip(10, 50, seed=13)
    x0 = plip.default_x0(inst)
    assert np.all((x0 > 0.5) & (x0 < 1.5))
    assert np.array_equal(x0, plip.default_x0(inst))


class TestValidation:
    def doc(self, **changes):
        doc = json.loads(plip.to_json(plip.generate_plip(6, 3, seed=15)))
        doc.update(changes)
        return json.dumps(doc)

    @pytest.mark.parametrize("b", [[1.0] * 5, [1.0] * 5 + [0.0],
                                   [1.0] * 5 + [-2.0], [1.0] * 5 + [np.nan]],
                             ids=["short", "zero", "negative", "nan"])
    def test_from_json_rejects_bad_b(self, b):
        with pytest.raises(ValidationError):
            plip.from_json(self.doc(b=b))

    def test_from_json_rejects_short_A(self):
        with pytest.raises(ValidationError):
            plip.from_json(self.doc(A=[1.0] * 17))

    def test_from_json_rejects_negative_seed(self):
        for seed in (-1, 1.7):  # nor a non-integer one
            with pytest.raises(ValidationError, match="seed"):
                plip.from_json(self.doc(seed=seed))

    def test_generate_rejects_negative_seed(self):
        for seed in (-1, True):  # a bool is not an integer seed
            with pytest.raises(ValidationError, match="seed"):
                plip.generate_plip(6, 3, seed=seed)
        with pytest.raises(ValidationError, match="seed"):
            plip.PlipInstance(A=np.array([[1.0]]), b=np.array([1.0]),
                              seed=1.5, x_true=np.array([1.0]))

    @pytest.mark.parametrize("case", [
        "not-json", "list", "missing-field", "ragged-A", "string-in-A",
        "flat-A"])
    def test_from_json_rejects_malformed(self, case):
        doc = json.loads(self.doc())
        A = doc["A"]
        text = {
            "not-json": "{",
            "list": "[]",
            "missing-field": json.dumps({k: v for k, v in doc.items()
                                         if k != "x_true"}),
            "ragged-A": self.doc(A=A[:-1] + [A[-1][:2]]),
            "string-in-A": self.doc(A=[["0.5"] + A[0][1:]] + A[1:]),
            "flat-A": self.doc(A=[v for row in A for v in row]),
        }[case]
        with pytest.raises(ValidationError):
            plip.from_json(text)

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
