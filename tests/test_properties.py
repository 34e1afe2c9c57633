"""Property tests: Bregman identities, the prox first-order condition and
the scalar cubic root, over generated inputs."""

import math
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bregopt import (
    BurgKernel,
    EuclideanKernel,
    QuarticKernel,
    cubic_root_scale,
    plip,
    qip,
)
from bregopt.checks import _prox_residual
from bregopt.kernels import burg_phi_sum

from helpers import three_point_identity_residual

SETTINGS = settings(max_examples=60, deadline=None, database=None)
EPS = float(np.finfo(float).eps)
TINY = float(np.finfo(float).tiny)
KERNELS = {"euclidean": EuclideanKernel, "burg": BurgKernel,
           "quartic": QuarticKernel}


def points(kernel_name, d, count):
    """count interior points of dimension d for the named kernel."""
    if kernel_name == "burg":
        entries = st.floats(1e-2, 1e2)
    else:
        entries = st.floats(-1e2, 1e2)
    return st.tuples(*[arrays(float, d, elements=entries)] * count)


@st.composite
def kernel_and_points(draw, count):
    name = draw(st.sampled_from(sorted(KERNELS)))
    d = draw(st.integers(1, 8))
    pts = list(draw(points(name, d, count)))
    # Nearby pairs are where cancellation in D_h is worst.
    if draw(st.booleans()):
        scale = draw(st.floats(1e-12, 1e-4))
        pts[1] = pts[0] * (1.0 + scale * draw(st.sampled_from([-1.0, 1.0])))
    return KERNELS[name](d), pts


@SETTINGS
@given(kernel_and_points(count=2))
def test_bregman_is_nonnegative(case):
    kernel, (x, y) = case
    assert kernel.bregman(x, y) >= 0.0
    assert kernel.bregman(x, x) == 0.0


@SETTINGS
@given(kernel_and_points(count=3))
def test_three_point_identity(case):
    kernel, (x, y, z) = case
    terms = (kernel.value(x), kernel.value(y), kernel.value(z),
             float(np.dot(kernel.gradient(y), x)),
             float(np.dot(kernel.gradient(z), x)),
             float(np.dot(kernel.gradient(y), y)),
             float(np.dot(kernel.gradient(z), y)))
    scale = sum(abs(t) for t in terms)
    residual = three_point_identity_residual(kernel, x, y, z)
    assert abs(residual) <= 64 * EPS * max(1.0, scale)


@st.composite
def quartic_nearby_pairs(draw):
    """(x, y) with x = y + eps * v for eps from 1e-1 down to 1e-12."""
    y, v = draw(points("quartic", draw(st.integers(1, 8)), 2))
    eps = draw(st.sampled_from([10.0 ** -k for k in range(1, 13)]))
    return y + eps * v, y


@SETTINGS
@given(quartic_nearby_pairs())
def test_quartic_bregman_is_exact_at_nearby_points(pair):
    x, y = pair
    fx, fy = [Fraction(a) for a in x], [Fraction(b) for b in y]
    sx, sy = sum(a * a for a in fx), sum(b * b for b in fy)
    exact = (sx * sx / 4 + sx / 2 - sy * sy / 4 - sy / 2
             - (sy + 1) * sum(b * (a - b) for a, b in zip(fx, fy)))
    got = QuarticKernel(x.size).bregman(x, y)
    # A few ulps of D_h itself; below the normal range floats have no
    # relative precision.
    assert abs(Fraction(got) - exact) <= 8 * EPS * exact + Fraction(TINY)


@SETTINGS
@given(st.floats(-300.0, 300.0), st.booleans(), st.floats(-300.0, 300.0))
def test_phi_is_nonnegative_in_floats(log_s, negative, log_y):
    # phi(s) = s - log1p(s) >= 0 at every float s > -1, since a faithfully
    # rounded log1p(s) never exceeds s; so Burg's D_h needs no clamp. |s| is
    # log-uniform; s > -1 needs |s| < 1 when s < 0.
    s = 10.0 ** log_s
    if negative:
        s = -min(s, float(np.nextafter(1.0, 0.0)))
    assert s - np.log1p(np.array([s]))[0] >= 0.0
    # s as the shared sum forms it, rounded, from a pair (x, y).
    y = 10.0 ** log_y
    with np.errstate(over="ignore", under="ignore"):
        x = y * (1.0 + s)
    if BurgKernel(2).in_interior_domain(np.array([x, y])):
        assert burg_phi_sum(np.array([x]), np.array([y])) >= 0.0
        assert BurgKernel(1).bregman([x], [y]) >= 0.0


PROBLEMS = {
    "plip": (plip.make_objective(plip.generate_plip(40, 5, seed=3)),
             st.floats(0.05, 3.0)),
    "qip": (qip.make_objective(qip.generate_qip(40, 5, seed=3, theta=0.5)),
            st.floats(-3.0, 3.0)),
}


@SETTINGS
@given(st.sampled_from(sorted(PROBLEMS)), st.data())
def test_prox_first_order_condition(problem, data):
    obj, entries = PROBLEMS[problem]
    y = data.draw(arrays(float, obj.kernel.dim, elements=entries))
    lam = 1.0 / obj.smooth.smad_constant()
    assert _prox_residual(obj, y, lam) < 1e-8


@SETTINGS
@given(st.floats(1e-300, 1e300))
def test_cubic_root_scale(v):
    r = cubic_root_scale(v)
    assert 0.0 < r <= max(1.0, v)
    assert math.isfinite(r * r * r)
    assert abs(r * r * r + r - v) <= max(1e-12, 8.0 * EPS * (1.0 + v))
