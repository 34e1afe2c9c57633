"""Poisson linear inverse problems under Burg-entropy geometry.

The data fit is the Kullback-Leibler divergence between the measurements b
and the forward model A x, minimized without regularization over the open
positive orthant under the Burg kernel, whose mirror step is `ZeroTerm`'s prox.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .kernels import BurgKernel, EuclideanKernel, burg_phi_sum
from .problems import (CompositeObjective, Instance, LinearModelSmooth,
                       ZeroTerm, check_nonnegative, check_positive,
                       check_seed, check_size, empty_aligned)


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


def generate_plip(m: int, d: int, seed: int, theta: float = 1.0) -> PlipInstance:
    """Seeded instance: A and x_true entrywise uniform, b = A x_true, and
    theta checked, then unused. A is 1 - U[0, 1) formed in place, the one
    m x d array the draw holds; its entries are at least 2^-53, so b > 0
    unless x_true = 0, which `PlipInstance` rejects."""
    check_size(m, d)
    check_seed(seed)
    check_nonnegative(theta, "theta")
    rng = np.random.default_rng([seed, 0])
    A = rng.random(out=empty_aligned(m, d))
    np.subtract(1.0, A, out=A)
    x_true = rng.random(d)
    return PlipInstance(A=A, b=A @ x_true, seed=int(seed), x_true=x_true)


generate = generate_plip


@np.errstate(all="ignore")
def plip_prox(inst: PlipInstance, y, grad, lam: float) -> np.ndarray:
    """The solvers' Burg step, `ZeroTerm`'s prox of grad h(y) - lam * grad;
    y a point of `BurgKernel(d)`, grad of `EuclideanKernel(d)`, lam > 0."""
    kernel = BurgKernel(inst.d)
    y = kernel.require_interior(y, "y")
    grad = EuclideanKernel(inst.d).require_interior(grad, "grad")
    check_positive(lam, "lam")
    return ZeroTerm().prox(kernel, kernel._gradient(y) - lam * grad, lam)


class PlipSmooth(LinearModelSmooth):
    """KL data fit of u = A x; convex (mu = 0) and smooth adaptable relative
    to Burg with L = ||b||_1 (Bauschke, Bolte and Teboulle 2017)."""

    KERNEL = BurgKernel

    @staticmethod
    def _phi(u, b, value=True):
        """KL(b, u), the b-weighted Burg D_h `burg_phi_sum(u, b, b)`; 1 - b/u."""
        return burg_phi_sum(u, b, b) if value else None, 1.0 - b / u

    _in_domain = staticmethod(lambda u: np.minimum.reduce(u, None) > 0.0)

    def smad_constant(self):
        return float(np.sum(np.abs(self.inst.b)))


def make_objective(inst: PlipInstance) -> CompositeObjective:
    smooth = PlipSmooth(inst)
    return CompositeObjective(smooth, ZeroTerm(), smooth.kernel)


def default_x0(inst: PlipInstance) -> np.ndarray:
    """Strictly positive start, entrywise uniform on (0.5, 1.5), seeded."""
    rng = np.random.default_rng([inst.seed, 1])
    return rng.uniform(0.5, 1.5, inst.d)
