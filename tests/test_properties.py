"""Property tests: Bregman identities, the prox first-order condition and
the scalar cubic root, over generated inputs."""

import math

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

from helpers import three_point_identity_residual

SETTINGS = settings(max_examples=60, deadline=None, database=None)
EPS = float(np.finfo(float).eps)
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
    y = data.draw(arrays(float, obj.dim, elements=entries))
    lam = 1.0 / obj.smooth.smad_constant()
    assert _prox_residual(obj, y, lam) < 1e-8


@SETTINGS
@given(st.floats(1e-300, 1e300))
def test_cubic_root_scale(v):
    r = cubic_root_scale(v)
    assert 0.0 < r <= max(1.0, v)
    assert math.isfinite(r * r * r)
    assert abs(r * r * r + r - v) <= max(1e-12, 8.0 * EPS * (1.0 + v))
