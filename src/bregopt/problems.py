"""Composite objectives: a smooth term plus a nonsmooth term under a kernel.

The smooth term carries the constants that drive step sizes (an upper
constant L for the Bregman descent envelope and a weak-convexity constant
mu), the nonsmooth term carries the Bregman proximal rule. Objectives are
immutable and all operations are pure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ValidationError
from .kernels import BurgKernel, Kernel


def is_integer(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def is_number(v) -> bool:
    return is_integer(v) or isinstance(v, (float, np.floating))


def check_seed(seed) -> None:
    """Instance seeds feed numpy's generators, which need integers >= 0."""
    if not (is_integer(seed) and seed >= 0):
        raise ValidationError("seed must be an integer >= 0, got %r" % (seed,))


def check_theta(theta) -> None:
    if not (is_number(theta) and math.isfinite(theta) and theta >= 0.0):
        raise ValidationError("theta must be finite and >= 0")


class Instance:
    """Base of the frozen instance dataclasses: a nonempty m x d matrix in
    the field each subclass names as MATRIX, b with m entries, x_true with
    d, all three numpy arrays of ints or floats, and a seed; subclasses add
    their data checks after this `__post_init__`, which reads types and
    shapes only. The JSON document is every field plus m and d, the arrays
    as lists (the matrix as rows)."""

    def __post_init__(self):
        check_seed(self.seed)
        arrays = (getattr(self, self.MATRIX), self.b, self.x_true)
        if not all(isinstance(v, np.ndarray) and v.dtype.kind in "iuf"
                   for v in arrays):
            raise ValidationError("%s, b and x_true must be numpy arrays of "
                                  "numbers" % self.MATRIX)
        shape = arrays[0].shape
        if len(shape) != 2 or 0 in shape:
            raise ValidationError("%s must be a nonempty m x d matrix"
                                  % self.MATRIX)
        if self.b.shape != shape[:1] or self.x_true.shape != shape[1:]:
            raise ValidationError("b needs %d entries and x_true %d" % shape)

    @property
    def m(self) -> int:
        return getattr(self, self.MATRIX).shape[0]

    @property
    def d(self) -> int:
        return getattr(self, self.MATRIX).shape[1]

    def to_json(self) -> str:
        doc = {f.name: np.asarray(getattr(self, f.name)).tolist()
               for f in fields(self)}
        return json.dumps(dict(doc, m=self.m, d=self.d), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Instance":
        """The instance of a `to_json` document. A malformed document, or an
        m and d that disagree with the matrix, raises ValidationError."""
        try:
            doc = json.loads(text)
            args = {f.name: doc[f.name] for f in fields(cls)}
            header = (doc["m"], doc["d"])
            for name, value in args.items():
                if isinstance(value, list):
                    value = np.asarray(value)
                    if value.dtype.kind not in "iuf":
                        raise TypeError("%s holds a non-number" % name)
                    args[name] = value.astype(float)
        except (ValueError, TypeError, KeyError) as exc:
            raise ValidationError("malformed %s document: %s: %s" % (
                cls.__name__, type(exc).__name__, exc)) from exc
        inst = cls(**args)
        if header != (inst.m, inst.d):
            raise ValidationError("m and d disagree with %s" % cls.MATRIX)
        return inst


class SmoothTerm:
    """Differentiable term f with its certified constants.

    The solvers take f and grad f at an iterate x from
    `at_forward(forward(x))`, and grad f at BPGe's extrapolated y from
    `carry`. The defaults (identity map, `value` and `gradient` at u, and
    the affine carry, then y bit for bit) fit any term; f(x) = phi(Mx)
    overrides them with u = Mx, so BPGe carries M y instead of forming it.
    """

    def value(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def gradient(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def forward(self, x: np.ndarray) -> np.ndarray:
        """The forward value u that f and grad f are computed from."""
        return x

    def at_forward(self, u: np.ndarray, value=True, gradient=True):
        """(f, grad f) at the x with forward(x) = u; None if not asked."""
        return (self.value(u) if value else None,
                self.gradient(u) if gradient else None)

    def carry(self, u_curr, u_prev, beta: float, y: np.ndarray):
        """forward(y), given u_curr = forward(x_curr) and u_prev likewise."""
        return u_curr + beta * (u_curr - u_prev)

    def smad_constant(self) -> float:
        """Constant L such that L*h - f and L*h + f are convex."""
        raise NotImplementedError

    def weak_convexity_constant(self) -> float:
        """Constant mu >= 0 such that f + mu*h is convex (0 for convex f)."""
        return 0.0


class LinearModelSmooth(SmoothTerm):
    """f(x) = phi(Mx) with M the instance matrix; a subclass defines
    `at_forward` as phi(u) and M^T phi'(u), and the check `_point` on x."""

    def __init__(self, inst: Instance):
        self.inst = inst
        self.M = getattr(inst, inst.MATRIX)

    _point = staticmethod(np.asarray)

    def forward(self, x):
        return self.M @ x

    def value(self, x):
        return self.at_forward(self.forward(self._point(x)), gradient=False)[0]

    def gradient(self, x):
        return self.at_forward(self.forward(self._point(x)), value=False)[1]

    def smad_constant(self):
        return self.inst.smad_bound


class NonsmoothTerm:
    """Nonsmooth term g with its Bregman proximal rule."""

    def value(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def prox(self, kernel: Kernel, z: np.ndarray, lam: float) -> np.ndarray:
        """Minimize g(u) + (h(u) - <z, u>) / lam over u.

        With the mirror point z = grad h(y) - lam * grad f(y) of a step from
        y this is g(u) + <grad f(y), u - y> + D_h(u, y) / lam up to a constant.
        """
        raise NotImplementedError


def soft_threshold(z: np.ndarray, tau: float) -> np.ndarray:
    """Componentwise shrinkage sign(z_j) * max(|z_j| - tau, 0)."""
    if tau < 0.0:
        raise ValueError("threshold must be nonnegative")
    z = np.asarray(z, dtype=float)
    return np.sign(z) * np.maximum(np.abs(z) - tau, 0.0)


class L1Term(NonsmoothTerm):
    """g(x) = weight * ||x||_1, with the one Bregman proximal rule.

    prox = grad h^{-1}(shrink(z, lam * weight)), exact when grad h(u) is a
    positive multiple of u (Euclidean, quartic); the Burg kernel takes
    weight 0 only.
    """

    def __init__(self, weight: float):
        if not (math.isfinite(weight) and weight >= 0.0):
            raise ValidationError("l1 weight must be nonnegative and finite")
        self.weight = float(weight)

    def value(self, x):
        return self.weight * float(np.abs(x).sum())

    def prox(self, kernel, z, lam):
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
               rng_seed: int = 0) -> SmadReport:
    """Sampling check of the descent envelopes |gap| <= L*D_h and gap >= -mu*D_h.

    gap = f(x) - f(y) - <grad f(y), x - y> over random interior pairs. A
    sample fails when either envelope is violated by more than
    1e-8 * (1 + |f(x)|). This is a regression guard, not a certification.
    """
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
