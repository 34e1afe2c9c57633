"""Poisson linear inverse problems under Burg-entropy geometry.

The data fit is the Kullback-Leibler divergence between the measurements b
and the forward model A x, minimized without regularization over the open
positive orthant. The matching kernel is the Burg entropy, under which the
mirror step has the closed form x_j = y_j / (1 + lam * y_j * grad_j).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError, ValidationError
from .kernels import BurgKernel
from .problems import CompositeObjective, SmoothTerm, ZeroTerm


@dataclass(frozen=True)
class PlipInstance:
    """Positive measurement matrix A, positive data b, and generation metadata."""

    A: np.ndarray
    b: np.ndarray
    seed: int
    x_true: np.ndarray

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def d(self) -> int:
        return self.A.shape[1]

    @property
    def smad_bound(self) -> float:
        """Tightest certified envelope constant, ||b||_1."""
        return float(np.sum(np.abs(self.b)))


def generate_plip(m: int, d: int, seed: int,
                  poisson_noise: bool = False) -> PlipInstance:
    """Seeded instance: A and x_true entrywise uniform, b = A x_true.

    Entries of A are drawn in (0, 1]; columns that end up entirely below
    1e-12 are resampled so no coordinate of x is unconstrained. With
    poisson_noise the data are replaced by a Poisson sample of A x_true
    (floored away from zero, since the KL fit needs b > 0).
    """
    if m < 1 or d < 1:
        raise ValidationError("m and d must be >= 1")
    rng = np.random.default_rng([seed, 0])
    A = 1.0 - rng.random((m, d))
    while True:
        dead = np.max(A, axis=0) < 1e-12
        if not np.any(dead):
            break
        A[:, dead] = 1.0 - rng.random((m, int(np.sum(dead))))
    x_true = rng.random(d)
    while np.min(A @ x_true) <= 0.0:
        x_true = rng.random(d)
    b = A @ x_true
    if poisson_noise:
        b = np.maximum(rng.poisson(b).astype(float), 1e-3)
    return PlipInstance(A=A, b=b, seed=int(seed), x_true=x_true)


def _require_positive(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if not (x > 0.0).all():
        raise DomainError("point must be strictly positive")
    return x


def kl_value(inst: PlipInstance, x) -> float:
    """sum_i { b_i log(b_i / (Ax)_i) + (Ax)_i - b_i }, nonnegative."""
    x = _require_positive(x)
    Ax = inst.A @ x
    return float(np.sum(inst.b * np.log(inst.b / Ax) + Ax - inst.b))


def kl_gradient(inst: PlipInstance, x) -> np.ndarray:
    x = _require_positive(x)
    Ax = inst.A @ x
    return inst.A.T @ (1.0 - inst.b / Ax)


def plip_prox(inst: PlipInstance, y, grad, lam: float) -> np.ndarray:
    """Closed-form mirror step x_j = y_j / (1 + lam * y_j * grad_j).

    Valid for lam <= 1 / ||b||_1, which keeps every denominator positive;
    a nonpositive denominator signals an inadmissible step size or
    inconsistent inputs. The solvers take the same step through
    `ZeroTerm.prox` as -1 / (-1/y - lam * grad), which agrees to a few ulps.
    """
    y = _require_positive(y)
    denom = 1.0 + lam * y * np.asarray(grad, dtype=float)
    if not (denom > 0.0).all():
        raise NumericalError("nonpositive denominator in the Burg mirror step")
    return y / denom


class PlipSmooth(SmoothTerm):
    """KL data fit; convex, hence mu = 0, with L = ||b||_1."""

    def __init__(self, inst: PlipInstance):
        self.inst = inst

    def value(self, x):
        return kl_value(self.inst, x)

    def gradient(self, x):
        return kl_gradient(self.inst, x)

    def value_and_gradient(self, x):
        """kl_value and kl_gradient from one forward product A x."""
        inst = self.inst
        Ax = inst.A @ x
        ratio = inst.b / Ax
        value = float((inst.b * np.log(ratio) + Ax - inst.b).sum())
        return value, inst.A.T @ (1.0 - ratio)

    def smad_constant(self):
        return self.inst.smad_bound


def make_objective(inst: PlipInstance) -> CompositeObjective:
    return CompositeObjective(
        smooth=PlipSmooth(inst),
        nonsmooth=ZeroTerm(),
        kernel=BurgKernel(inst.d),
    )


def default_x0(inst: PlipInstance) -> np.ndarray:
    """Strictly positive start, entrywise uniform on (0.5, 1.5), seeded."""
    rng = np.random.default_rng([inst.seed, 1])
    return rng.uniform(0.5, 1.5, inst.d)


def to_json(inst: PlipInstance) -> str:
    doc = {
        "m": inst.m,
        "d": inst.d,
        "seed": inst.seed,
        "A": [float(v) for v in inst.A.ravel()],
        "b": [float(v) for v in inst.b],
        "x_true": [float(v) for v in inst.x_true],
    }
    return json.dumps(doc, sort_keys=True)


def from_json(text: str) -> PlipInstance:
    doc = json.loads(text)
    m, d = int(doc["m"]), int(doc["d"])
    A = np.asarray(doc["A"], dtype=float).reshape(m, d)
    return PlipInstance(
        A=A,
        b=np.asarray(doc["b"], dtype=float),
        seed=int(doc["seed"]),
        x_true=np.asarray(doc["x_true"], dtype=float),
    )
