"""Sparse quadratic inverse problems under the quartic kernel.

Rank-1 measurements A_i = a_i a_i^T give the nonconvex data fit
(1/4) sum_i (<a_i, x>^2 - b_i)^2, regularized by theta * ||x||_1. Under
the quartic kernel the proximal subproblem splits into a soft-threshold
followed by a scalar cubic root for the norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .kernels import QuarticKernel
from .problems import (CompositeObjective, Instance, L1Term, LinearModelSmooth,
                       _row_blocks, check_nonnegative, check_seed,
                       check_size, empty_aligned)


@dataclass(frozen=True)
class QipInstance(Instance):
    """Measurement vectors a_i (rows of a), data b, l1 weight theta."""

    a: np.ndarray
    b: np.ndarray
    theta: float
    seed: int
    x_true: np.ndarray

    MATRIX = "a"

    def __post_init__(self):
        super().__post_init__()
        if not np.isfinite(self.b).all():
            raise ValidationError("b must be finite")
        check_nonnegative(self.theta, "theta")


def generate_qip(m: int, d: int, seed: int, theta: float = 1.0) -> QipInstance:
    """Seeded instance: Gaussian a_i, 5%-sparse ground truth, b = <a_i, x*>^2.

    The support of x_true has ceil(0.05 * d) positions chosen uniformly
    without replacement, values standard normal.
    """
    check_size(m, d)
    check_seed(seed)
    check_nonnegative(theta, "theta")
    rng = np.random.default_rng([seed, 0])
    a = rng.standard_normal(out=empty_aligned(m, d))
    nnz = math.ceil(0.05 * d)
    support = rng.choice(d, size=nnz, replace=False)
    x_true = np.zeros(d)
    x_true[support] = rng.standard_normal(nnz)
    return QipInstance(a=a, b=(a @ x_true) ** 2, theta=float(theta),
                       seed=int(seed), x_true=x_true)


generate = generate_qip


class QipSmooth(LinearModelSmooth):
    """Quartic data fit of u = a x. With n2_i = ||a_i||^2 = ||A_i||, its
    certified constants (Bolte, Sabach, Teboulle and Vaisbourd 2018) are
    L = sum_i (3 n2_i^2 + n2_i |b_i|) and mu = sum_i n2_i |b_i| <= L, from one
    pass at construction over the row blocks of `_row_blocks` (no m x d
    temporary, each row summed alone; keeping n2 raised peak RSS)."""

    KERNEL = QuarticKernel

    def __init__(self, inst: QipInstance):
        super().__init__(inst)
        a, abs_b = self.M, np.abs(inst.b)
        n2 = np.concatenate([np.sum(a[rows] * a[rows], axis=1)
                             for rows in _row_blocks(a)])
        self._L = float(np.sum(3.0 * n2 * n2 + n2 * abs_b))
        self._mu = float(np.sum(n2 * abs_b))

    @staticmethod
    def _phi(u, b, value=True):
        """(1/4)||u^2 - b||^2 and (u^2 - b) u."""
        r = u * u - b
        return 0.25 * float(r.dot(r)) if value else None, r * u

    def smad_constant(self):
        return self._L

    def weak_convexity_constant(self):
        return self._mu


def make_objective(inst: QipInstance) -> CompositeObjective:
    smooth = QipSmooth(inst)
    return CompositeObjective(smooth, L1Term(inst.theta), smooth.kernel)


def default_x0(inst: QipInstance) -> np.ndarray:
    """Standard normal direction scaled to unit norm, seeded."""
    rng = np.random.default_rng([inst.seed, 1])
    v = rng.standard_normal(inst.d)
    return v / np.linalg.norm(v)
