"""Poisson linear inverse problems under Burg-entropy geometry.

The data fit is the Kullback-Leibler divergence between the measurements b
and the forward model A x, minimized without regularization over the open
positive orthant. The matching kernel is the Burg entropy, under which the
mirror step has the closed form x_j = y_j / (1 + lam * y_j * grad_j).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .kernels import BurgKernel, EuclideanKernel
from .problems import (CompositeObjective, Instance, LinearModelSmooth,
                       ZeroTerm, check_seed, check_size, check_theta)


@dataclass(frozen=True)
class PlipInstance(Instance):
    """Positive measurement matrix A, positive data b, and generation metadata."""

    A: np.ndarray
    b: np.ndarray
    seed: int
    x_true: np.ndarray

    MATRIX = "A"

    def __post_init__(self):
        super().__post_init__()
        if not (np.isfinite(self.b).all() and (self.b > 0.0).all()):
            raise ValidationError("b must be finite and positive")

    @property
    def smad_bound(self) -> float:
        """Tightest certified envelope constant, ||b||_1."""
        return float(np.sum(np.abs(self.b)))


def generate_plip(m: int, d: int, seed: int) -> PlipInstance:
    """Seeded instance: A and x_true entrywise uniform, b = A x_true.

    Entries of A are drawn in (0, 1], as 1 - U[0, 1) formed in place, so
    that A is the one m x d array the draw holds; columns that end up
    entirely below 1e-12 are resampled so no coordinate of x is
    unconstrained.
    """
    check_size(m, d)
    check_seed(seed)
    rng = np.random.default_rng([seed, 0])
    A = rng.random((m, d))
    np.subtract(1.0, A, out=A)
    while True:
        dead = np.max(A, axis=0) < 1e-12
        if not np.any(dead):
            break
        A[:, dead] = 1.0 - rng.random((m, int(np.sum(dead))))
    x_true = rng.random(d)
    while np.min(A @ x_true) <= 0.0:
        x_true = rng.random(d)
    return PlipInstance(A=A, b=A @ x_true, seed=int(seed), x_true=x_true)


def generate(m: int, d: int, seed: int, theta: float = 1.0) -> PlipInstance:
    """`generate_plip` for the problem table; theta is checked, then unused."""
    check_theta(theta)
    return generate_plip(m, d, seed)


def plip_prox(inst: PlipInstance, y, grad, lam: float) -> np.ndarray:
    """Closed-form mirror step x_j = y_j / (1 + lam * y_j * grad_j).

    Valid for lam <= 1 / ||b||_1, which keeps every denominator positive;
    a nonpositive denominator signals an inadmissible step size or
    inconsistent inputs. The solvers take the same step through
    `ZeroTerm.prox` as -1 / (-1/y - lam * grad), which agrees to a few ulps.
    """
    y = BurgKernel(inst.d).require_interior(y, "y")
    grad = EuclideanKernel(inst.d).require_interior(grad, "grad")
    denom = 1.0 + lam * y * grad
    if not (denom > 0.0).all():
        raise NumericalError("nonpositive denominator in the Burg mirror step")
    return y / denom


class PlipSmooth(LinearModelSmooth):
    """KL data fit of u = A x; convex, hence mu = 0, with L = ||b||_1."""

    KERNEL = BurgKernel

    @staticmethod
    def _phi(u, b, value=True):
        """sum_i { b_i log(b_i / u_i) + u_i - b_i } and 1 - b/u."""
        ratio = b / u
        return (float((b * np.log(ratio) + u - b).sum()) if value else None,
                1.0 - ratio)

    @staticmethod
    def _in_domain(u):
        return u.min() > 0.0


def make_objective(inst: PlipInstance) -> CompositeObjective:
    smooth = PlipSmooth(inst)
    return CompositeObjective(smooth, ZeroTerm(), smooth.kernel)


def default_x0(inst: PlipInstance) -> np.ndarray:
    """Strictly positive start, entrywise uniform on (0.5, 1.5), seeded."""
    rng = np.random.default_rng([inst.seed, 1])
    return rng.uniform(0.5, 1.5, inst.d)


to_json = PlipInstance.to_json
from_json = PlipInstance.from_json
