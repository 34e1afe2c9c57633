import json
import math
import tracemalloc
from dataclasses import fields

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
    soft_threshold,
)
from bregopt import harness, plip, qip
from bregopt.problems import CompositeObjective, SmoothTerm, _row_blocks

from helpers import (fd_gradient, prox_oracle, reference_plip_draw,
                     reference_qip_bounds)


@pytest.mark.parametrize("name", sorted(harness.PROBLEM_MODULES))
def test_instance_document_is_fields_plus_m_and_d(name):
    # One format for every problem: the matrix as a list of rows.
    inst = harness.generate_instance(name, 4, 3, seed=5)
    doc = json.loads(inst.to_json())
    assert set(doc) == {f.name for f in fields(inst)} | {"m", "d"}
    assert (doc["m"], doc["d"]) == (4, 3)
    assert doc[inst.MATRIX] == getattr(inst, inst.MATRIX).tolist()


def test_plip_objective_zero_at_consistent_data():
    inst = plip.generate_plip(20, 4, seed=0)
    obj = plip.make_objective(inst)
    # b = A x_true exactly, so the KL fit vanishes at the ground truth.
    assert obj.value(inst.x_true + 1e-30) == pytest.approx(0.0, abs=1e-10)


def test_qip_objective_at_zero():
    inst = qip.generate_qip(30, 5, seed=1, theta=1.0)
    obj = qip.make_objective(inst)
    assert obj.value(np.zeros(5)) == pytest.approx(
        0.25 * np.sum(inst.b ** 2))


def test_qip_objective_scalar_hand_value():
    inst = qip.QipInstance(a=np.array([[1.0]]), b=np.array([1.0]), theta=1.0,
                           seed=0, x_true=np.array([1.0]))
    obj = qip.make_objective(inst)
    assert obj.value(np.array([2.0])) == pytest.approx(4.25)


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
            u = term.prox(kernel, kernel.gradient(y) - lam * grad, lam)
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
            c = kernel.gradient(y) - lam * grad
            u = term.prox(kernel, c, lam)
            gu = kernel.gradient(u)
            tau = lam * weight
            for j in range(5):
                if u[j] != 0.0:
                    assert abs(gu[j] + tau * np.sign(u[j]) - c[j]) < 1e-9
                else:
                    assert abs(c[j]) <= tau + 1e-9

    def test_l1_rejects_burg_kernel(self):
        with pytest.raises(ValidationError):
            L1Term(1.0).prox(BurgKernel(2), -np.ones(2), 0.1)

    @pytest.mark.parametrize("weight", [-1.0, np.nan, np.inf])
    def test_l1_rejects_bad_weight(self, weight):
        with pytest.raises(ValidationError):
            L1Term(weight)

    @pytest.mark.parametrize("make,value", [
        (QuarticKernel, 2.5), (QuarticKernel, True), (QuarticKernel, "3"),
        (BurgKernel, np.float64(2.0)), (L1Term, "0.5"), (L1Term, True),
    ], ids=["dim-float", "dim-bool", "dim-str", "dim-numpy-float",
            "weight-str", "weight-bool"])
    def test_rejects_mistyped_dim_and_weight(self, make, value):
        # Integers for a dimension, numbers for a weight; bools are
        # neither, numpy integers and floats are accepted.
        with pytest.raises(ValidationError):
            make(value)
        assert make(np.int64(2) if make is not L1Term
                    else np.float64(0.5)) is not None

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
                got = L1Term(weight).prox(
                    kernel, kernel.gradient(y) - lam * grad, lam)
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
            z = kernel.gradient(y) - lam * grad
            a = ZeroTerm().prox(kernel, z, lam)
            b = L1Term(0.0).prox(kernel, z, lam)
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
            u = term.prox(kernel, kernel.gradient(y) - lam * grad, lam)
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

            u = term.prox(kernel, kernel.gradient(y) - lam * grad, lam)
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


# 3000 x 200 is 10 row blocks of 320 rows, the last one of 120.
SIZES = [(9, 3), (1000, 10), (3000, 200)]


class TestOneMatrixCopy:
    """Building an instance holds one m x d array, with the bits of the
    formulas that made a second one."""

    def test_row_blocks_of_3000_by_200(self):
        blocks = _row_blocks(np.empty((3000, 200)))
        assert [b.stop - b.start for b in blocks] == [320] * 9 + [120]
        assert blocks[-1].stop == 3000
        assert _row_blocks(np.empty((9, 3))) == [slice(0, 9)]

    @pytest.mark.parametrize("m,d", SIZES)
    @pytest.mark.parametrize("seed", [0, 1, 17])
    def test_plip_draw_is_the_two_array_formula(self, m, d, seed):
        inst = plip.generate_plip(m, d, seed)
        A, b, x_true = reference_plip_draw(m, d, seed)
        for got, want in ((inst.A, A), (inst.b, b), (inst.x_true, x_true)):
            assert got.tobytes() == want.tobytes()
        assert inst.smad_bound == float(np.sum(np.abs(b)))

    @pytest.mark.parametrize("m,d", SIZES)
    @pytest.mark.parametrize("seed", [0, 1, 17])
    def test_qip_bounds_are_the_unblocked_formula(self, m, d, seed):
        inst = qip.generate_qip(m, d, seed, theta=0.5)
        rng = np.random.default_rng([seed, 0])
        a = rng.standard_normal((m, d))
        assert inst.a.tobytes() == a.tobytes()
        nnz = math.ceil(0.05 * d)
        support = rng.choice(d, size=nnz, replace=False)
        x_true = np.zeros(d)
        x_true[support] = rng.standard_normal(nnz)
        assert inst.x_true.tobytes() == x_true.tobytes()
        assert inst.b.tobytes() == ((a @ x_true) ** 2).tobytes()
        assert (inst.smad_bound, inst.weak_convexity_bound) == \
            reference_qip_bounds(a, inst.b)

    @pytest.mark.parametrize("name", sorted(harness.PROBLEM_MODULES))
    def test_build_peaks_below_a_quarter_matrix_over_what_it_keeps(self, name):
        module, (m, d) = harness.PROBLEM_MODULES[name], (4000, 200)
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        try:
            obj = module.make_objective(module.generate(m, d, 3, theta=1.0))
            obj.smooth.smad_constant()
            obj.smooth.weak_convexity_constant()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            if started:
                tracemalloc.stop()
        matrix = 8 * m * d
        assert held - base >= matrix
        assert peak - base <= held - base + matrix // 4


class TestSizeCheck:
    @pytest.mark.parametrize("m,d", [(10.5, 3), ("10", 3), (True, 3),
                                     (10, 3.0), (10, None), (0, 3), (10, -1)],
                             ids=["float-m", "string-m", "bool-m", "float-d",
                                  "none-d", "zero-m", "negative-d"])
    @pytest.mark.parametrize("name", sorted(harness.PROBLEM_MODULES))
    def test_generate_rejects_a_bad_size(self, name, m, d):
        module = harness.PROBLEM_MODULES[name]
        for generate in (module.generate, getattr(module, "generate_" + name)):
            with pytest.raises(ValidationError, match="m and d"):
                generate(m, d, 0)

    @pytest.mark.parametrize("name", sorted(harness.PROBLEM_MODULES))
    def test_numpy_integer_sizes_are_accepted(self, name):
        module = harness.PROBLEM_MODULES[name]
        inst = module.generate(np.int64(6), np.int32(3), 0)
        assert (inst.m, inst.d) == (6, 3)
        assert inst.to_json() == module.generate(6, 3, 0).to_json()


@pytest.mark.parametrize("name", sorted(harness.PROBLEM_MODULES))
def test_from_json_round_trip_is_byte_identical(name):
    module = harness.PROBLEM_MODULES[name]
    inst = module.generate(7, 4, seed=2)
    text = module.to_json(inst)
    back = module.from_json(text)
    assert module.to_json(back) == text
    matrix = getattr(back, back.MATRIX)
    assert matrix.tobytes() == getattr(inst, inst.MATRIX).tobytes()
    # An integer document loads as float64.
    doc = json.loads(text)
    doc[inst.MATRIX] = [[1] * 4] * 7
    doc["b"], doc["x_true"] = [2] * 7, [1] * 4
    ints = module.from_json(json.dumps(doc))
    assert all(getattr(ints, f).dtype == np.float64
               for f in (inst.MATRIX, "b", "x_true"))
