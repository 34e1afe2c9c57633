import itertools
import math
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from bregopt import (
    BurgKernel,
    DomainError,
    EuclideanKernel,
    Kernel,
    NumericalError,
    QuarticKernel,
    ValidationError,
    cubic_root_scale,
)
from bregopt import kernels
from bregopt.kernels import _NEGATIVE_SLACK, burg_phi_sum

from helpers import (TiltedConstantKernel, bisect_cubic, burg_decimal,
                     fd_gradient, three_point_identity_residual)


def all_kernels(d):
    return [EuclideanKernel(d), BurgKernel(d), QuarticKernel(d)]


def sample_interior(kernel, rng):
    if isinstance(kernel, BurgKernel):
        return rng.uniform(0.05, 3.0, kernel.dim)
    return rng.standard_normal(kernel.dim)


class TestBregman:
    def test_euclidean_half_squared_distance(self):
        k = EuclideanKernel(2)
        assert k.bregman(np.array([1.0, 0.0]), np.zeros(2)) == pytest.approx(0.5)

    def test_burg_zero_at_equal_points(self):
        k = BurgKernel(2)
        x = np.array([3.7, 0.2])
        assert k.bregman(x, x) == 0.0

    def test_burg_scalar_value(self):
        k = BurgKernel(1)
        got = k.bregman(np.array([2.0]), np.array([1.0]))
        assert got == pytest.approx(2.0 - np.log(2.0) - 1.0, abs=1e-12)

    def test_burg_matches_defining_formula(self):
        k = BurgKernel(3)
        rng = np.random.default_rng(0)
        for _ in range(50):
            x, y = sample_interior(k, rng), sample_interior(k, rng)
            direct = k.bregman(x, y)
            generic = k.value(x) - k.value(y) - np.dot(k.gradient(y), x - y)
            assert direct == pytest.approx(generic, abs=1e-10)

    @pytest.mark.parametrize("kernel", all_kernels(4), ids=lambda k: type(k).__name__)
    def test_nonnegative_on_random_pairs(self, kernel):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            x = sample_interior(kernel, rng)
            y = sample_interior(kernel, rng)
            assert kernel.bregman(x, y) >= 0.0

    @pytest.mark.parametrize("kernel", all_kernels(4), ids=lambda k: type(k).__name__)
    def test_identity_of_indiscernibles(self, kernel):
        rng = np.random.default_rng(2)
        for _ in range(200):
            x = sample_interior(kernel, rng)
            y = sample_interior(kernel, rng)
            if kernel.bregman(x, y) < 1e-14:
                assert np.linalg.norm(x - y) < 1e-6

    @pytest.mark.parametrize("kernel", all_kernels(5), ids=lambda k: type(k).__name__)
    def test_closed_form_matches_defining_formula(self, kernel):
        # Kernel._bregman is h(x) - h(y) - <grad h(y), x - y>, exact enough
        # where x and y are far apart.
        rng = np.random.default_rng(6)
        for _ in range(200):
            x, y = sample_interior(kernel, rng), sample_interior(kernel, rng)
            reference = Kernel._bregman(kernel, x, y)
            assert kernel._bregman(x, y) == pytest.approx(reference, rel=1e-12)

    def test_burg_domain_error(self):
        k = BurgKernel(2)
        with pytest.raises(DomainError):
            k.bregman(np.array([1.0, -0.5]), np.array([1.0, 1.0]))
        with pytest.raises(DomainError):
            k.value(np.array([0.0, 1.0]))

    @pytest.mark.parametrize("eps", [10.0 ** -k for k in range(1, 11)])
    def test_burg_is_accurate_near_the_diagonal(self, eps):
        # x = y (1 + eps v): t - log t - 1 at t = x/y loses every digit by
        # eps = 1e-8; the phi form keeps a relative error below 1e-15 / eps.
        rng = np.random.default_rng(7)
        k = BurgKernel(10)
        for _ in range(20):
            y, v = rng.uniform(0.1, 10.0, 10), rng.uniform(-1.0, 1.0, 10)
            x = y * (1.0 + eps * v)
            exact = burg_decimal(x, y)
            assert abs(Decimal(k.bregman(x, y)) - exact) <= (
                Decimal(1e-15 / eps) * exact)

    @pytest.mark.parametrize("x,y", [
        ([1e300], [1e-300]), ([1e308], [1e-10]),
        ([1e-200], [1e200]), ([1e-300], [1e300]), ([1.0, 1e-300], [1e300, 1.0])],
        ids=repr)
    def test_burg_at_the_float_extremes(self, x, y):
        # inf only where the exact value passes the largest float; never NaN
        # and no RuntimeWarning (an error in this module).
        exact = burg_decimal(x, y)
        got = BurgKernel(len(x)).bregman(x, y)
        if exact > Decimal(sys.float_info.max):
            assert got == math.inf
        else:
            assert got == pytest.approx(float(exact), rel=1e-14)


class TestGradients:
    @pytest.mark.parametrize("kernel", all_kernels(5), ids=lambda k: type(k).__name__)
    def test_gradient_matches_finite_differences(self, kernel):
        rng = np.random.default_rng(3)
        for _ in range(100):
            x = sample_interior(kernel, rng)
            g = kernel.gradient(x)
            fd = fd_gradient(kernel.value, x)
            assert np.linalg.norm(g - fd) <= 1e-5 * max(1.0, np.linalg.norm(g))

    @pytest.mark.parametrize("x,expect", [
        ([1e160, 0.0], [np.inf, 0.0]), ([-1e160, 0.0, 3.0], [-np.inf, 0.0, np.inf]),
        ([1e308, -1e308], [np.inf, -np.inf]), ([0.0, -0.0, 1e155], [0.0, 0.0, np.inf])],
        ids=repr)
    def test_quartic_where_the_squared_norm_overflows(self, x, expect):
        # (||x||^2 + 1) x: +-inf where x_j != 0 and 0 where x_j = 0, not NaN.
        np.testing.assert_array_equal(QuarticKernel(len(x)).gradient(x), expect)

    def test_burg_domain_ends_where_the_gradient_is_finite(self):
        # x_j > 1/max float: the subnormal 5e-324 is outside, and at the
        # smallest float inside -1/x is finite (RuntimeWarnings are errors).
        k = BurgKernel(1)
        for x in ([5e-324], [1.0 / sys.float_info.max]):
            assert not k.in_interior_domain(np.array(x))
            with pytest.raises(DomainError):
                k.gradient(x)
        x = float(np.nextafter(1.0 / sys.float_info.max, 1.0))
        assert k.in_interior_domain(np.array([x]))
        g = k.gradient([x])
        assert np.isfinite(g).all() and g[0] == -1.0 / x


class TestThreePointIdentity:
    @pytest.mark.parametrize("kernel", all_kernels(3), ids=lambda k: type(k).__name__)
    def test_residual_vanishes(self, kernel):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            x, y, z = (sample_interior(kernel, rng) for _ in range(3))
            assert abs(three_point_identity_residual(kernel, x, y, z)) < 1e-10

    def test_burg_specific_triple(self):
        k = BurgKernel(2)
        r = three_point_identity_residual(
            k, np.array([1.0, 2.0]), np.array([2.0, 1.0]), np.array([1.0, 1.0]))
        assert abs(r) < 1e-10


class _ScaledSumKernel(Kernel):
    """alpha*h1 + beta*h2, used only to exercise linear additivity."""

    def __init__(self, alpha, k1, beta, k2):
        super().__init__(k1.dim)
        self.alpha, self.k1, self.beta, self.k2 = alpha, k1, beta, k2

    def _value(self, x):
        return self.alpha * self.k1.value(x) + self.beta * self.k2.value(x)

    def _gradient(self, x):
        return self.alpha * self.k1.gradient(x) + self.beta * self.k2.gradient(x)

    def in_interior_domain(self, x):
        return self.k1.in_interior_domain(x) and self.k2.in_interior_domain(x)


class TestDefaultFormulaClamp:
    def test_rounding_noise_is_zero(self):
        assert TiltedConstantKernel(1e-15).bregman([1.0], [0.0]) == 0.0

    def test_negative_beyond_rounding_raises(self):
        with pytest.raises(NumericalError, match="negative beyond rounding"):
            TiltedConstantKernel(1e-6).bregman([1.0], [0.0])

    def test_slack_scales_with_the_terms(self):
        # |h(x)| + |h(y)| + |inner| is about 2e6: D_h down to -2e6 times the
        # slack is noise, and clamped; below it, it raises.
        scale = 2e6
        noise = 0.5 * _NEGATIVE_SLACK * scale
        assert TiltedConstantKernel(noise, 1e6).bregman([1.0], [0.0]) == 0.0
        with pytest.raises(NumericalError):
            TiltedConstantKernel(4.0 * noise, 1e6).bregman([1.0], [0.0])


def test_linear_additivity():
    d = 3
    alpha, beta = 0.7, 2.3
    k1, k2 = EuclideanKernel(d), QuarticKernel(d)
    combo = _ScaledSumKernel(alpha, k1, beta, k2)
    rng = np.random.default_rng(5)
    for _ in range(100):
        x, y = rng.standard_normal(d), rng.standard_normal(d)
        expect = alpha * k1.bregman(x, y) + beta * k2.bregman(x, y)
        assert combo.bregman(x, y) == pytest.approx(expect, abs=1e-10)


class TestInverseGradient:
    def test_euclidean_identity_map(self):
        k = EuclideanKernel(2)
        z = np.array([4.0, -1.0])
        assert np.array_equal(k.inverse_gradient(z), z)

    def test_burg_scalar(self):
        k = BurgKernel(1)
        assert k.inverse_gradient(np.array([-0.5])) == pytest.approx([2.0])

    def test_burg_rejects_nonnegative(self):
        with pytest.raises(DomainError):
            BurgKernel(2).inverse_gradient(np.array([-1.0, 0.5]))

    def test_quartic_zero(self):
        k = QuarticKernel(3)
        assert np.array_equal(k.inverse_gradient(np.zeros(3)), np.zeros(3))

    @pytest.mark.parametrize("v", [1e154, 1e200, 1e300])
    def test_quartic_past_overflow_of_the_squared_norm(self, v):
        # ||z||^2 overflows (np.dot warns), ||z|| = sqrt(3) v does not.
        k = QuarticKernel(3)
        z = v * np.array([1.0, -1.0, 1.0])
        with np.errstate(over="ignore"):
            x = k.inverse_gradient(z)
        assert np.isfinite(x).all()
        assert np.max(np.abs(k.gradient(x) - z)) <= 1e-14 * v

    @pytest.mark.parametrize("z", [
        [sys.float_info.max, 0.0], [0.0, -sys.float_info.max],
        [1.7976931348621736e308, 0.0]], ids=repr)
    def test_quartic_at_the_largest_floats(self, z):
        k = QuarticKernel(2)
        x = k.inverse_gradient(z)
        assert np.isfinite(x).all() and np.any(x != 0.0)
        np.testing.assert_allclose(k.gradient(x), z, rtol=1e-14)

    @pytest.mark.parametrize("z", [
        [1e-200, 0.0], [1e-170, -3e-171], [5e-324, -0.0], [0.0, -1e-180]],
        ids=repr)
    def test_quartic_tiny_z_is_its_own_preimage(self, z):
        # dot(z, z) underflows to 0, so r = 0 and x = z / (0 + 1) = z,
        # where grad h(z) = (||z||^2 + 1) z rounds to z.
        k = QuarticKernel(2)
        x = k.inverse_gradient(z)
        assert x.tobytes() == np.array(z).tobytes()
        assert k.gradient(x).tobytes() == x.tobytes()

    def test_quartic_rejects_an_infinite_norm(self):
        with np.errstate(over="ignore"), pytest.raises(DomainError):
            QuarticKernel(3).inverse_gradient(np.full(3, 1.7e308))

    @pytest.mark.parametrize("kernel", all_kernels(4), ids=lambda k: type(k).__name__)
    def test_round_trip(self, kernel):
        rng = np.random.default_rng(6)
        for _ in range(200):
            y = sample_interior(kernel, rng)
            back = kernel.inverse_gradient(kernel.gradient(y))
            err = np.linalg.norm(back - y) / max(1.0, np.linalg.norm(y))
            assert err < 1e-9


class TestCubicRootScale:
    def test_zero(self):
        assert cubic_root_scale(0.0) == 0.0

    def test_exact_root_at_two(self):
        assert cubic_root_scale(2.0) == pytest.approx(1.0, abs=1e-12)

    def test_against_bisection(self):
        for s in [1e-6, 0.3, 1.0, 10.0, 123.4, 1e4]:
            r = cubic_root_scale(s)
            assert abs(r ** 3 + r - s) <= max(1e-12, 1e-14 * (1 + s))
            assert r == pytest.approx(bisect_cubic(s), abs=1e-10)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            cubic_root_scale(-1.0)

    @pytest.mark.parametrize("s", [-np.inf, "2.0", True, None,
                                   np.array([2.0])], ids=repr)
    def test_rejects_a_bad_scalar(self, s):
        with pytest.raises(ValidationError):
            cubic_root_scale(s)

    @pytest.mark.parametrize("s", [2, np.int64(2), np.uint8(2),
                                   np.float32(2.0), np.float64(2.0)],
                             ids=repr)
    def test_takes_every_kind_of_number(self, s):
        assert cubic_root_scale(s) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("s", [
        1e-300, 1e-20, 1e-4, 0.01, 0.1, 0.7, 2.0, 2.5, 10.0, 100.0, 123.4,
        1e4, 1e8, 1e100, 1e300])
    def test_root_is_bracketed_by_its_neighbours(self, s):
        # p(r) = r^3 + r - s, in exact arithmetic, changes sign between the
        # floats on either side of r: r is within one ulp of the root.
        def p(r):
            r = Fraction(r)
            return r ** 3 + r - Fraction(s)

        r = cubic_root_scale(s)
        assert p(math.nextafter(r, -math.inf)) < 0 < p(math.nextafter(r, math.inf))

    def test_nan_gives_nan(self):
        assert math.isnan(cubic_root_scale(float("nan")))

    def test_largest_floats_give_a_finite_root(self):
        # r^3 overflows at 711 of the top 713 floats, the lowest
        # 1.7976931348621736e308: the root stays finite and bracketed.
        def p(r, s):
            r = Fraction(r)
            return r ** 3 + r - Fraction(s)

        s = sys.float_info.max
        for _ in range(800):
            r = cubic_root_scale(s)
            assert math.isfinite(r)
            assert p(math.nextafter(r, -math.inf), s) < 0 < p(
                math.nextafter(r, math.inf), s)
            s = math.nextafter(s, 0.0)

    @pytest.mark.parametrize("s", [math.inf, np.float64(np.inf)], ids=repr)
    def test_inf_gives_inf(self, s):
        # inf is a number >= 0 and the root of r^3 + r = inf, not NaN.
        assert cubic_root_scale(s) == math.inf


class TestValidation:
    def test_dimension_below_one(self):
        for cls in (EuclideanKernel, BurgKernel, QuarticKernel):
            with pytest.raises(ValidationError):
                cls(0)

    def test_size_mismatch(self):
        with pytest.raises(ValidationError):
            QuarticKernel(3).require_interior(np.ones(2))

    def test_not_a_vector(self):
        with pytest.raises(ValidationError):
            QuarticKernel(4).value(np.ones((2, 2)))

    @pytest.mark.parametrize("kernel", all_kernels(3), ids=lambda k: type(k).__name__)
    def test_inverse_gradient_needs_a_vector(self, kernel):
        for z in (-np.ones((3, 1)), "ab"):
            with pytest.raises(ValidationError):
                kernel.inverse_gradient(z)


def _checked_calls(kernel, bad):
    """Every public method of `kernel` with the point `bad` in each slot."""
    good = np.ones(kernel.dim)
    return [lambda: kernel.value(bad), lambda: kernel.gradient(bad),
            lambda: kernel.bregman(bad, good), lambda: kernel.bregman(good, bad)]


@pytest.mark.parametrize("kernel", all_kernels(3), ids=lambda k: type(k).__name__)
@pytest.mark.parametrize("bad", [np.ones(5), np.ones(2), np.ones((3, 3)),
                                 np.ones((1, 3)), "ab", "abc"],
                         ids=["size5", "size2", "3x3", "1x3", "ab", "abc"])
def test_public_methods_reject_malformed_points(kernel, bad):
    for call in _checked_calls(kernel, bad):
        with pytest.raises(ValidationError):
            call()


@pytest.mark.parametrize("kernel", all_kernels(3), ids=lambda k: type(k).__name__)
def test_public_methods_reject_points_outside_the_domain(kernel):
    outside = [1.0, -2.0, 1.0] if isinstance(kernel, BurgKernel) else [1.0, np.inf, 1.0]
    for bad in ([np.nan, 1.0, 1.0], outside):
        for call in _checked_calls(kernel, bad):
            with pytest.raises(DomainError):
                call()


@pytest.mark.parametrize("x", [
    [np.nan], [1.0, np.nan], [np.inf], [2.0, -np.inf], [0.0], [-0.0],
    [5e-324], [-5e-324, -1.0], [1, 3], [0, 3], [0.5, 2.0],
    # -x is the bound of the Burg gradient's range, then the next float in.
    [1.0 / sys.float_info.max],
    [float(np.nextafter(1.0 / sys.float_info.max, 1.0))],
], ids=repr)
def test_burg_domain_tests_match_elementwise_expressions(x):
    # The reductions must decide as the elementwise tests they replaced,
    # for x and for -x: x in (1/max float, inf)^d, where -1/x is finite,
    # z in (-inf, -1/max float)^d, where -1/z is finite (RuntimeWarnings
    # are errors here).
    kernel = BurgKernel(len(x))
    for v in (np.array(x, dtype=float), -np.array(x, dtype=float)):
        assert kernel.in_interior_domain(v) == bool(
            np.isfinite(v).all() and (v > 1.0 / sys.float_info.max).all())
        if np.isfinite(v).all() and (v < -1.0 / sys.float_info.max).all():
            np.testing.assert_array_equal(kernel.inverse_gradient(v), -1.0 / v)
        else:
            with pytest.raises(DomainError):
                kernel.inverse_gradient(v)


# The floats from -max float up: -1/z rounds to 1/max float, outside the
# domain, for the first three, and lands inside it from the fourth on.
@pytest.mark.parametrize("z", [-1.7976931348623157e308, -1.7976931348623155e308,
                               -1.7976931348623153e308], ids=repr)
def test_burg_inverse_gradient_rejects_z_whose_preimage_leaves_the_domain(z):
    kernel = BurgKernel(2)
    assert not kernel.in_interior_domain(-1.0 / np.array([z, -1.0]))
    with pytest.raises(DomainError):
        kernel.inverse_gradient([z, -1.0])


def test_burg_inverse_gradient_accepts_the_next_float():
    z = -1.7976931348623151e308
    assert float(np.nextafter(-sys.float_info.max, 0.0)) == -1.7976931348623155e308
    assert float(np.nextafter(-1.7976931348623153e308, 0.0)) == z
    kernel = BurgKernel(2)
    x = kernel.inverse_gradient([z, -1.0])
    np.testing.assert_array_equal(x, [-1.0 / z, 1.0])
    assert kernel.in_interior_domain(x)


def test_quartic_inverse_gradient_matches_linalg_norm_form():
    def with_linalg_norm(z):
        s = float(np.linalg.norm(z))
        r = cubic_root_scale(s)
        return z / (r * r + 1.0)

    rng = np.random.default_rng(5)
    kernel = QuarticKernel(7)
    for scale in (1e-300, 1e-3, 1.0, 1e3, 1e100):
        for _ in range(50):
            z = scale * rng.standard_normal(7)
            assert np.array_equal(kernel.inverse_gradient(z),
                                  with_linalg_norm(z))


@pytest.mark.parametrize("kernel", all_kernels(6), ids=lambda k: type(k).__name__)
def test_inverse_gradient_hook_is_the_public_map(kernel):
    rng = np.random.default_rng(8)
    zs = [kernel.gradient(sample_interior(kernel, rng)) for _ in range(100)]
    if isinstance(kernel, BurgKernel):  # the range's ends, as floats go
        zs += [np.full(6, -1.7976931348623151e308),
               np.full(6, np.nextafter(-1.0 / sys.float_info.max, -1.0))]
    else:  # ||z||^2 overflows, and z = 0
        zs += [1e200 * rng.standard_normal(6), np.zeros(6)]
    for z in zs:
        with np.errstate(all="ignore"):  # as the solvers call the hook
            hook = kernel._inverse_gradient(z)
        assert hook.tobytes() == kernel.inverse_gradient(z).tobytes()


def _phi_crossing(lo, hi, target):
    """Adjacent floats x, on either side of the x in [lo, hi] where
    phi(x - 1) = x - 1 - log1p(x - 1), monotone there, reaches target."""
    below = lambda x: (x - 1.0) - math.log1p(x - 1.0) < target
    lo_below = below(lo)
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return [lo, hi]
        if below(mid) == lo_below:
            lo = mid
        else:
            hi = mid


# (x_j, y_j) pairs: s_j = -1/2 and its neighbouring floats, phi(s_j) on
# either side of 0.193 and of half of it, s_j < -1/2, and entries with
# inf, NaN, zero, a negative x or an overflowing s_j.
_PHI_ENTRIES = [(x, 1.0) for x in (
    [0.5, float(np.nextafter(0.5, 0.0)), float(np.nextafter(0.5, 1.0)), 0.25,
     1.0, 1.5, 0.0, -1.0, math.inf, math.nan]
    + _phi_crossing(1.0, 2.0, 0.193) + _phi_crossing(0.5, 1.0, 0.193)
    + _phi_crossing(1.0, 2.0, 0.0965) + _phi_crossing(0.5, 1.0, 0.0965))] + [
    # At y = 3, s_j is rounded, so log x_j - log y_j and log1p(s_j) differ.
    (x, 3.0) for x in (1.5, float(np.nextafter(1.5, 0.0)), 1.4999, 1.4, 0.3)
] + [(1e300, 1e-300), (1e-300, 1e300), (1e308, 1e-10), (1.0, 0.0)]


def test_burg_phi_sum_short_circuit_is_the_full_path(monkeypatch):
    # Below -inf no sum is, so the patched function always reads min s.
    pairs = [[e] for e in _PHI_ENTRIES] + [
        list(p) for p in itertools.product(_PHI_ENTRIES, repeat=2)]
    sides = set()
    for entries in pairs:
        x, y = (np.array(v) for v in zip(*entries))
        n = len(x)
        for w in (None, np.ones(n), np.full(n, 0.01), np.array([2.0, 0.5][:n])):
            with np.errstate(all="ignore"):
                got = burg_phi_sum(x, y, w)
                with monkeypatch.context() as m:
                    m.setattr(kernels, "_PHI_HALF", -math.inf)
                    full = burg_phi_sum(x, y, w)
            assert np.float64(got).tobytes() == np.float64(full).tobytes(), (
                entries, w)
            if w is None:
                sides.add(got < kernels._PHI_HALF)
    assert sides == {True, False}
