import json
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from bregopt import (
    BurgKernel,
    DomainError,
    EuclideanKernel,
    L1Term,
    QuarticKernel,
    SolverConfig,
    ValidationError,
    ZeroTerm,
    check_smad,
    cubic_root_scale,
)
from bregopt import harness, plip, qip
from bregopt.checks import CheckOutcome
from bregopt.kernels import Kernel
from bregopt.problems import (CompositeObjective, SmoothTerm, _row_blocks,
                              empty_aligned)

from helpers import (fd_gradient, prox_oracle, reference_plip_draw,
                     reference_qip_bounds, reference_qip_draw, shrink)


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
        assert report.passed

    def test_qip_certified_constants(self):
        inst = qip.generate_qip(60, 6, seed=3)
        report = check_smad(qip.make_objective(inst), samples=1000, rng_seed=0)
        assert report.passed

    def test_returns_the_suite_outcome(self):
        inst = plip.generate_plip(20, 3, seed=1)
        report = check_smad(plip.make_objective(inst), samples=10)
        assert isinstance(report, CheckOutcome)
        assert report.name == "smad_envelopes" and report.passed
        assert report.detail.startswith("max upper ")

    @pytest.mark.parametrize("kwargs,name", [
        ({"samples": 0}, "samples"), ({"samples": -5}, "samples"),
        ({"samples": True}, "samples"), ({"samples": 2.5}, "samples"),
        ({"rng_seed": -1}, "seed"), ({"rng_seed": 1.5}, "seed"),
    ], ids=["samples-0", "samples-negative", "samples-bool",
            "samples-float", "seed-negative", "seed-float"])
    def test_rejects_what_it_cannot_check(self, kwargs, name):
        # Raised before the objective is read, so no sample is drawn.
        with pytest.raises(ValidationError, match=name):
            check_smad(object(), **kwargs)

    @pytest.mark.parametrize("obj", [
        None, {}, object(), "plip",
        plip.make_objective(plip.generate_plip(20, 3, seed=1)).smooth,
    ], ids=["None", "dict", "object", "str", "smooth-term"])
    def test_rejects_what_is_not_an_objective(self, obj):
        with pytest.raises(ValidationError,
                           match="obj must be a CompositeObjective"):
            check_smad(obj, samples=10)

    def test_inflated_constant_still_passes(self):
        inst = plip.generate_plip(50, 5, seed=4)

        class Inflated(plip.PlipSmooth):
            def smad_constant(self):
                return 10.0 * super().smad_constant()

        obj = CompositeObjective(Inflated(inst), ZeroTerm(), BurgKernel(inst.d))
        report = check_smad(obj, samples=500, rng_seed=0)
        assert report.passed

    def test_deflated_constant_fails(self):
        inst = qip.generate_qip(40, 4, seed=5)

        class Deflated(qip.QipSmooth):
            def smad_constant(self):
                return 1e-4 * super().smad_constant()

        obj = CompositeObjective(Deflated(inst), L1Term(1.0), QuarticKernel(inst.d))
        report = check_smad(obj, samples=500, rng_seed=0)
        assert not report.passed


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


def euclidean_l1_prox(z, tau):
    """The soft threshold of z by tau, as the library gives it: the l1 prox
    of weight tau under the Euclidean kernel at lam = 1."""
    return L1Term(tau).prox(EuclideanKernel(len(z)), z, 1.0)


def test_soft_threshold():
    assert np.array_equal(euclidean_l1_prox(np.array([3.0, -0.5]), 1.0),
                          np.array([2.0, 0.0]))
    z = np.array([0.2, -1.7, 4.0])
    assert np.array_equal(euclidean_l1_prox(z, 0.0), z)
    rng = np.random.default_rng(2)
    for _ in range(50):
        z = rng.standard_normal(6) * rng.choice([1e-3, 1.0, 1e3], 6)
        tau = rng.uniform(0.0, 2.0)
        got = euclidean_l1_prox(z, tau)
        assert np.linalg.norm(got) <= np.linalg.norm(z)
        # bits and the sign of each zero as the case split has them
        assert got.tobytes() == shrink(z, tau).tobytes()


@pytest.mark.parametrize("z, tau", [
    ([1.0, -2.0], np.nan), ([1.0], "0.5"), ([1.0], -0.5), ([1.0], True),
    ([1.0], None), (["1", "-2"], 0.5), ([[1.0, -2.0]], 0.5),
    ([True, False], 0.5)], ids=repr)
def test_soft_threshold_rejects_bad_input(z, tau):
    with pytest.raises(ValidationError):
        euclidean_l1_prox(z, tau)


@pytest.mark.parametrize("term", [ZeroTerm(), L1Term(0.5)],
                         ids=lambda t: "weight=%g" % t.weight)
def test_prox_reads_z_by_the_vector_rule(term):
    with pytest.raises(ValidationError):
        term.prox(QuarticKernel(2), ["1", "-2"], 1.0)


@pytest.mark.parametrize("weight", [0.0, 1.0])
@pytest.mark.parametrize("lam", ["0.1", None, [0.1], True, -1.0, 0.0, np.nan,
                                 np.inf], ids=repr)
def test_prox_checks_lam_as_solver_config_does(lam, weight):
    # The rule of SolverConfig.lam: a number, finite and > 0; at weight 0
    # too, where lam enters no formula.
    kernel, term = QuarticKernel(3), L1Term(weight)
    z = np.array([0.5, -2.0, 0.05])
    with pytest.raises(ValidationError):
        SolverConfig(lam=lam)
    with pytest.raises(ValidationError):
        term.prox(kernel, z, lam)
    assert (term.prox(kernel, z, 0.1).tobytes()
            == term._prox(kernel, z, 0.1).tobytes())


def test_prox_output_is_held_to_the_domain():
    # Burg's (grad h)^-1(z) = -1/z leaves dom h where z > 0.
    with pytest.raises(DomainError):
        ZeroTerm().prox(BurgKernel(2), np.array([-1.0, 1.0]), 0.1)


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

    @pytest.mark.parametrize("weight", [
        -1.0, np.nan, np.inf, pytest.param(10 ** 400, id="int-past-max")])
    def test_l1_rejects_bad_weight(self, weight):
        with pytest.raises(ValidationError,
                           match="l1 weight must be a finite number >= 0"):
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
                v = shrink(c, lam * weight)
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


class TestObjectiveValue:
    """CompositeObjective.value checks x once, by its kernel, and keeps the
    errors of a bad x."""

    @pytest.mark.parametrize("name", ["plip", "qip"])
    def test_one_require_interior_call_per_value(self, name, monkeypatch):
        inst = harness.generate_instance(name, 40, 5, seed=2)
        obj, x0 = harness.problem_bundle(name, inst)
        want = obj.smooth.value(x0) + obj.nonsmooth.value(x0)
        calls, require = [], Kernel.require_interior

        def counted(self, x, name="x"):
            calls.append(name)
            return require(self, x, name)
        monkeypatch.setattr(Kernel, "require_interior", counted)
        got = [obj.value(x0) for _ in range(3)]
        assert calls == ["x"] * 3
        assert got == [want] * 3

    @pytest.mark.parametrize("name, outside", [("plip", -1.0),
                                               ("qip", np.inf)])
    def test_bad_x_raises(self, name, outside):
        inst = harness.generate_instance(name, 40, 5, seed=2)
        obj, x0 = harness.problem_bundle(name, inst)
        with pytest.raises(ValidationError, match="x has size 4"):
            obj.value(x0[:4])
        with pytest.raises(DomainError, match="x is outside"):
            obj.value(np.where(np.arange(5) == 2, outside, x0))

    def test_a_smooth_term_without_a_check_is_checked(self):
        class Unchecked(SmoothTerm):
            def value(self, x):
                return float(np.sum(x))

        obj = CompositeObjective(Unchecked(), ZeroTerm(), BurgKernel(2))
        assert obj.value([1, 2]) == 3.0
        with pytest.raises(DomainError, match="x is outside"):
            obj.value([-1.0, 2.0])
        with pytest.raises(ValidationError, match="x has size 3"):
            obj.value([1.0, 2.0, 3.0])


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
        assert plip.PlipSmooth(inst).smad_constant() == \
            float(np.sum(np.abs(b)))

    @pytest.mark.parametrize("m,d", SIZES)
    @pytest.mark.parametrize("seed", [0, 1, 17])
    def test_qip_bounds_are_the_unblocked_formula(self, m, d, seed):
        inst = qip.generate_qip(m, d, seed, theta=0.5)
        a, b, x_true = reference_qip_draw(m, d, seed)
        for got, want in ((inst.a, a), (inst.b, b), (inst.x_true, x_true)):
            assert got.tobytes() == want.tobytes()
        smooth = qip.QipSmooth(inst)
        assert (smooth.smad_constant(), smooth.weak_convexity_constant()) == \
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


REFERENCE_DRAWS = {"plip": reference_plip_draw, "qip": reference_qip_draw}


class TestAlignedMatrix:
    """Generated matrices, and so their row blocks, start on a 64-byte
    boundary and hold the bytes of a fresh-array draw; an instance built
    from the caller's arrays keeps the caller's array."""

    SIZES = [(1, 1), (7, 3), (1000, 50), (10000, 200)]

    @pytest.mark.parametrize("m,d", SIZES)
    @pytest.mark.parametrize("name", sorted(harness.PROBLEM_MODULES))
    def test_generated_matrix_and_its_blocks_are_aligned(self, name, m, d):
        module = harness.PROBLEM_MODULES[name]
        smooth = module.make_objective(module.generate(m, d, 1)).smooth
        M = getattr(smooth.inst, smooth.inst.MATRIX)
        assert smooth.M is M
        assert M.ctypes.data % 64 == 0
        assert M.flags.c_contiguous and M.flags.writeable
        blocks = smooth._blocks or []
        assert bool(blocks) == (m * d * 8 > 512 * 1024)
        for _, M_B in blocks:
            assert M_B.ctypes.data % 64 == 0

    @pytest.mark.parametrize("m,d", SIZES)
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("name", sorted(harness.PROBLEM_MODULES))
    def test_draw_is_byte_equal_to_the_reference(self, name, m, d, seed):
        inst = harness.PROBLEM_MODULES[name].generate(m, d, seed)
        want = REFERENCE_DRAWS[name](m, d, seed)
        got = (getattr(inst, inst.MATRIX), inst.b, inst.x_true)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("name", sorted(harness.PROBLEM_MODULES))
    def test_size_check_counts_the_spare_bytes(self, name):
        # 8 m d = 2**63 - 8 bytes fit in np.intp, but not with 64 more.
        with pytest.raises(ValidationError, match="too big"):
            harness.PROBLEM_MODULES[name].generate(2 ** 60 - 1, 1, 0)

    @pytest.mark.parametrize("name", sorted(harness.PROBLEM_MODULES))
    def test_caller_array_is_kept_where_it_lies(self, name):
        module = harness.PROBLEM_MODULES[name]
        inst = module.generate(9, 4, 2)
        # A copy 16 bytes past a 64-byte boundary, which the generators avoid.
        buf = empty_aligned(1, 9 * 4 + 2).reshape(-1)
        A = buf[2:].reshape(9, 4)
        A[:] = getattr(inst, inst.MATRIX)
        own = replace(inst, **{inst.MATRIX: A})
        smooth = module.make_objective(own).smooth
        assert getattr(own, own.MATRIX) is A and smooth.M is A
        assert smooth.M.ctypes.data % 64 == 16


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
