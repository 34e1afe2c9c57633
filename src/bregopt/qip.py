"""Sparse quadratic inverse problems under the quartic kernel.

Rank-1 measurements A_i = a_i a_i^T give the nonconvex data fit
(1/4) sum_i (<a_i, x>^2 - b_i)^2, regularized by theta * ||x||_1. Under
the quartic kernel the proximal subproblem splits into a soft-threshold
followed by a scalar cubic root for the norm.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .kernels import QuarticKernel, cubic_root_scale  # noqa: F401  (re-export)
from .problems import (
    CompositeObjective,
    L1Term,
    SmoothTerm,
    soft_threshold,  # noqa: F401  (re-export)
)


@dataclass(frozen=True)
class QipInstance:
    """Measurement vectors a_i (rows of a), data b, l1 weight theta."""

    a: np.ndarray
    b: np.ndarray
    theta: float
    seed: int
    x_true: np.ndarray

    @property
    def m(self) -> int:
        return self.a.shape[0]

    @property
    def d(self) -> int:
        return self.a.shape[1]

    @property
    def smad_bound(self) -> float:
        """sum_i (3 ||A_i||^2 + ||A_i|| |b_i|) with ||A_i|| = ||a_i||^2."""
        n2 = np.sum(self.a * self.a, axis=1)
        return float(np.sum(3.0 * n2 * n2 + n2 * np.abs(self.b)))

    @property
    def weak_convexity_bound(self) -> float:
        """sum_i ||A_i|| |b_i|; always <= the envelope constant above."""
        n2 = np.sum(self.a * self.a, axis=1)
        return float(np.sum(n2 * np.abs(self.b)))


def generate_qip(m: int, d: int, seed: int, theta: float = 1.0,
                 noise_std: float = 0.0) -> QipInstance:
    """Seeded instance: Gaussian a_i, 5%-sparse ground truth, b = <a_i, x*>^2.

    The support of x_true has ceil(0.05 * d) positions chosen uniformly
    without replacement, values standard normal. noise_std > 0 adds
    Gaussian noise to b (off by default).
    """
    if m < 1 or d < 1:
        raise ValidationError("m and d must be >= 1")
    rng = np.random.default_rng([seed, 0])
    a = rng.standard_normal((m, d))
    nnz = math.ceil(0.05 * d)
    support = rng.choice(d, size=nnz, replace=False)
    x_true = np.zeros(d)
    x_true[support] = rng.standard_normal(nnz)
    b = (a @ x_true) ** 2
    if noise_std > 0.0:
        b = b + noise_std * rng.standard_normal(m)
    return QipInstance(a=a, b=b, theta=float(theta), seed=int(seed),
                       x_true=x_true)


def qip_value(inst: QipInstance, x) -> float:
    """(1/4) sum_i (<a_i, x>^2 - b_i)^2 + theta * ||x||_1."""
    return QipSmooth(inst).value(x) + L1Term(inst.theta).value(x)


def qip_gradient(inst: QipInstance, x) -> np.ndarray:
    """Gradient of the smooth part: sum_i (<a_i,x>^2 - b_i) <a_i,x> a_i."""
    x = np.asarray(x, dtype=float)
    ax = inst.a @ x
    return inst.a.T @ ((ax * ax - inst.b) * ax)


def qip_prox(inst: QipInstance, y, grad, lam: float) -> np.ndarray:
    """Closed-form prox of theta*||.||_1 under the quartic kernel.

    c = grad h(y) - lam * grad, v = soft_threshold(c, lam * theta), and the
    result is v / (r^2 + 1) with r the nonnegative root of r^3 + r = ||v||.
    """
    kernel = QuarticKernel(inst.d)
    return L1Term(inst.theta).prox(kernel, np.asarray(y, dtype=float),
                                   np.asarray(grad, dtype=float), lam)


class QipSmooth(SmoothTerm):
    """Quartic data fit with its certified envelope constants."""

    def __init__(self, inst: QipInstance):
        self.inst = inst

    def value(self, x):
        r = (self.inst.a @ np.asarray(x, dtype=float)) ** 2 - self.inst.b
        return 0.25 * float(np.dot(r, r))

    def gradient(self, x):
        return qip_gradient(self.inst, x)

    def value_and_gradient(self, x):
        """value and qip_gradient from one forward product a x."""
        ax = self.inst.a @ x
        r = ax * ax - self.inst.b
        return 0.25 * float(np.dot(r, r)), self.inst.a.T @ (r * ax)

    def smad_constant(self):
        return self.inst.smad_bound

    def weak_convexity_constant(self):
        return self.inst.weak_convexity_bound


def make_objective(inst: QipInstance) -> CompositeObjective:
    return CompositeObjective(
        smooth=QipSmooth(inst),
        nonsmooth=L1Term(inst.theta),
        kernel=QuarticKernel(inst.d),
    )


def default_x0(inst: QipInstance) -> np.ndarray:
    """Standard normal direction scaled to unit norm, seeded."""
    rng = np.random.default_rng([inst.seed, 1])
    v = rng.standard_normal(inst.d)
    return v / np.linalg.norm(v)


def to_json(inst: QipInstance) -> str:
    doc = {
        "m": inst.m,
        "d": inst.d,
        "seed": inst.seed,
        "theta": inst.theta,
        "a": [[float(v) for v in row] for row in inst.a],
        "b": [float(v) for v in inst.b],
        "x_true": [float(v) for v in inst.x_true],
    }
    return json.dumps(doc, sort_keys=True)


def from_json(text: str) -> QipInstance:
    doc = json.loads(text)
    return QipInstance(
        a=np.asarray(doc["a"], dtype=float),
        b=np.asarray(doc["b"], dtype=float),
        theta=float(doc["theta"]),
        seed=int(doc["seed"]),
        x_true=np.asarray(doc["x_true"], dtype=float),
    )
