"""Composite objectives: a smooth term plus a nonsmooth term under a kernel.

The smooth term carries the constants that drive step sizes (an upper
constant L for the Bregman descent envelope and a weak-convexity constant
mu), the nonsmooth term carries the Bregman proximal rule. Objectives are
immutable and all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .kernels import BurgKernel, Kernel


class SmoothTerm:
    """Differentiable term f with its certified constants."""

    def value(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def gradient(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def value_and_gradient(self, x: np.ndarray):
        """(f(x), grad f(x)) at a point x already checked to be interior.

        The solvers call this once per iterate. Override it to share work
        between the two, such as a forward product. The shipped overrides
        return the separate calls' results bit for bit.
        """
        return self.value(x), self.gradient(x)

    def smad_constant(self) -> float:
        """Constant L such that L*h - f and L*h + f are convex."""
        raise NotImplementedError

    def weak_convexity_constant(self) -> float:
        """Constant mu >= 0 such that f + mu*h is convex (0 for convex f)."""
        return 0.0


class NonsmoothTerm:
    """Nonsmooth term g with its Bregman proximal rule."""

    def value(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def prox(self, kernel: Kernel, y: np.ndarray, grad_f_y: np.ndarray,
             lam: float) -> np.ndarray:
        """Minimize g(u) + <grad_f_y, u - y> + D_h(u, y) / lam over u."""
        raise NotImplementedError


def soft_threshold(z: np.ndarray, tau: float) -> np.ndarray:
    """Componentwise shrinkage sign(z_j) * max(|z_j| - tau, 0)."""
    if tau < 0.0:
        raise ValueError("threshold must be nonnegative")
    z = np.asarray(z, dtype=float)
    return np.sign(z) * np.maximum(np.abs(z) - tau, 0.0)


class L1Term(NonsmoothTerm):
    """g(x) = weight * ||x||_1, with the one Bregman proximal rule.

    prox = grad h^{-1}(shrink(grad h(y) - lam * grad f(y), lam * weight)),
    exact when grad h(u) is a positive multiple of u (Euclidean, quartic);
    the Burg kernel takes weight 0 only. y must be interior: the solvers
    check it, and `CompositeObjective.prox_step` is the checked entry.
    """

    def __init__(self, weight: float):
        if weight < 0.0:
            raise ValueError("l1 weight must be nonnegative")
        self.weight = float(weight)

    def value(self, x):
        return self.weight * float(np.abs(x).sum())

    def prox(self, kernel, y, grad_f_y, lam):
        z = kernel._gradient(y) - lam * grad_f_y
        if self.weight > 0.0:
            if isinstance(kernel, BurgKernel):
                raise ValidationError("no closed-form l1 prox for BurgKernel")
            z = soft_threshold(z, lam * self.weight)
        return kernel.inverse_gradient(z)


class ZeroTerm(L1Term):
    """g identically zero: the weight-0 L1Term, whose prox is a mirror step."""

    def __init__(self):
        super().__init__(0.0)

    def value(self, x):
        return 0.0


@dataclass(frozen=True)
class CompositeObjective:
    """Psi = f + g together with the kernel that makes f smooth adaptable."""

    smooth: SmoothTerm
    nonsmooth: NonsmoothTerm
    kernel: Kernel

    @property
    def dim(self) -> int:
        return self.kernel.dim

    def value(self, x: np.ndarray) -> float:
        x = self.kernel.require_interior(x, "x")
        return self.smooth.value(x) + self.nonsmooth.value(x)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        x = self.kernel.require_interior(x, "x")
        return self.smooth.gradient(x)

    def prox_step(self, y: np.ndarray, lam: float) -> np.ndarray:
        y = self.kernel.require_interior(y, "y")
        return self.nonsmooth.prox(self.kernel, y, self.smooth.gradient(y), lam)


def objective_value(obj: CompositeObjective, x) -> float:
    return obj.value(np.asarray(x, dtype=float))


def default_sampler(kernel: Kernel):
    """Random interior points used by the sampling checks below."""
    d = kernel.dim
    if isinstance(kernel, BurgKernel):
        return lambda rng: rng.uniform(0.05, 3.0, d)
    return lambda rng: rng.standard_normal(d)


@dataclass(frozen=True)
class SmadReport:
    samples: int
    max_upper_violation: float
    max_lower_violation: float
    failures: int

    @property
    def failed(self) -> bool:
        return self.failures > 0


def check_smad(obj: CompositeObjective, samples: int = 1000,
               rng_seed: int = 0, sampler=None) -> SmadReport:
    """Sampling check of the descent envelopes |gap| <= L*D_h and gap >= -mu*D_h.

    gap = f(x) - f(y) - <grad f(y), x - y> over random interior pairs. A
    sample fails when either envelope is violated by more than
    1e-8 * (1 + |f(x)|). This is a regression guard, not a certification.
    """
    if sampler is None:
        sampler = default_sampler(obj.kernel)
    rng = np.random.default_rng(rng_seed)
    L = obj.smooth.smad_constant()
    mu = obj.smooth.weak_convexity_constant()
    max_upper = -np.inf
    max_lower = -np.inf
    failures = 0
    for _ in range(samples):
        x = sampler(rng)
        y = sampler(rng)
        fx = obj.smooth.value(x)
        gap = fx - obj.smooth.value(y) - float(np.dot(obj.smooth.gradient(y), x - y))
        dh = obj.kernel.bregman(x, y)
        upper = abs(gap) - L * dh
        lower = -gap - mu * dh
        max_upper = max(max_upper, upper)
        max_lower = max(max_lower, lower)
        if max(upper, lower) > 1e-8 * (1.0 + abs(fx)):
            failures += 1
    return SmadReport(samples, max_upper, max_lower, failures)
