import math
from fractions import Fraction

import numpy as np
import pytest

from bregopt import (
    BurgKernel,
    DomainError,
    EuclideanKernel,
    Kernel,
    QuarticKernel,
    ValidationError,
    cubic_root_scale,
)

from helpers import (bisect_cubic, fd_gradient,
                     three_point_identity_residual)


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


class TestGradients:
    @pytest.mark.parametrize("kernel", all_kernels(5), ids=lambda k: type(k).__name__)
    def test_gradient_matches_finite_differences(self, kernel):
        rng = np.random.default_rng(3)
        for _ in range(100):
            x = sample_interior(kernel, rng)
            g = kernel.gradient(x)
            fd = fd_gradient(kernel.value, x)
            assert np.linalg.norm(g - fd) <= 1e-5 * max(1.0, np.linalg.norm(g))


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
    [5e-324], [-5e-324, -1.0], [1, 3], [0, 3], [], [0.5, 2.0],
], ids=repr)
def test_burg_domain_tests_match_elementwise_expressions(x):
    # The reductions must decide as the elementwise tests they replaced,
    # for x and for -x, the empty vector included.
    kernel = BurgKernel(1)
    for v in (x, [-t for t in x]):
        a = np.asarray(v, dtype=float)
        assert kernel.in_interior_domain(v) == bool(
            np.isfinite(a).all() and (a > 0.0).all())
        with np.errstate(all="ignore"):
            if (a < 0.0).all():
                np.testing.assert_array_equal(kernel.inverse_gradient(v),
                                              -1.0 / a)
            else:
                with pytest.raises(DomainError):
                    kernel.inverse_gradient(v)


def test_quartic_inverse_gradient_matches_linalg_norm_form():
    def with_linalg_norm(z):
        s = float(np.linalg.norm(z))
        if s == 0.0:
            return np.zeros_like(z)
        r = cubic_root_scale(s)
        return z / (r * r + 1.0)

    rng = np.random.default_rng(5)
    kernel = QuarticKernel(7)
    for scale in (1e-300, 1e-3, 1.0, 1e3, 1e100):
        for _ in range(50):
            z = scale * rng.standard_normal(7)
            assert np.array_equal(kernel.inverse_gradient(z),
                                  with_linalg_norm(z))
