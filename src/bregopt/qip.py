"""Sparse quadratic inverse problems under the quartic kernel.

Rank-1 measurements A_i = a_i a_i^T give the nonconvex data fit
(1/4) sum_i (<a_i, x>^2 - b_i)^2, regularized by theta * ||x||_1. Under
the quartic kernel the proximal subproblem splits into a soft-threshold
followed by a scalar cubic root for the norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .kernels import QuarticKernel
from .problems import (CompositeObjective, Instance, L1Term, LinearModelSmooth,
                       _row_blocks, check_seed, check_size, check_theta)


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
        check_theta(self.theta)

    @cached_property
    def _bounds(self) -> tuple:
        """Both bounds from one row-norm pass over the row blocks of
        `_row_blocks`, so that no m x d temporary is made; each row is
        still summed alone. Caching n2 raised peak RSS."""
        a = self.a
        n2 = np.concatenate([np.sum(a[rows] * a[rows], axis=1)
                             for rows in _row_blocks(a)])
        return (float(np.sum(3.0 * n2 * n2 + n2 * np.abs(self.b))),
                float(np.sum(n2 * np.abs(self.b))))

    @property
    def smad_bound(self) -> float:
        """sum_i (3 ||A_i||^2 + ||A_i|| |b_i|) with ||A_i|| = ||a_i||^2."""
        return self._bounds[0]

    @property
    def weak_convexity_bound(self) -> float:
        """sum_i ||A_i|| |b_i|; always <= the envelope constant above."""
        return self._bounds[1]


def generate_qip(m: int, d: int, seed: int, theta: float = 1.0) -> QipInstance:
    """Seeded instance: Gaussian a_i, 5%-sparse ground truth, b = <a_i, x*>^2.

    The support of x_true has ceil(0.05 * d) positions chosen uniformly
    without replacement, values standard normal.
    """
    check_size(m, d)
    check_seed(seed)
    rng = np.random.default_rng([seed, 0])
    a = rng.standard_normal((m, d))
    nnz = math.ceil(0.05 * d)
    support = rng.choice(d, size=nnz, replace=False)
    x_true = np.zeros(d)
    x_true[support] = rng.standard_normal(nnz)
    return QipInstance(a=a, b=(a @ x_true) ** 2, theta=float(theta),
                       seed=int(seed), x_true=x_true)


generate = generate_qip


class QipSmooth(LinearModelSmooth):
    """Quartic data fit of u = a x with its certified envelope constants."""

    KERNEL = QuarticKernel

    @staticmethod
    def _phi(u, b, value=True):
        """(1/4)||u^2 - b||^2 and (u^2 - b) u."""
        r = u * u - b
        return 0.25 * float(np.dot(r, r)) if value else None, r * u

    def weak_convexity_constant(self):
        return self.inst.weak_convexity_bound


def make_objective(inst: QipInstance) -> CompositeObjective:
    smooth = QipSmooth(inst)
    return CompositeObjective(smooth, L1Term(inst.theta), smooth.kernel)


def default_x0(inst: QipInstance) -> np.ndarray:
    """Standard normal direction scaled to unit norm, seeded."""
    rng = np.random.default_rng([inst.seed, 1])
    v = rng.standard_normal(inst.d)
    return v / np.linalg.norm(v)


to_json = QipInstance.to_json
from_json = QipInstance.from_json
