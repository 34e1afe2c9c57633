"""Kernel generating distances and their Bregman divergences.

A kernel h supplies value/gradient on the interior of its domain, the
Bregman divergence D_h(x, y) = h(x) - h(y) - <grad h(y), x - y>, and the
inverse gradient map where h is of Legendre type. Instances are immutable
and every method is a pure function of its inputs, so kernels can be
shared freely across threads.

`require_interior` and `bregman` check that each point is a 1-D vector of
the kernel's size in the interior of the domain, and so do the Burg
kernel's `value` and `gradient`. The quartic `value` and `gradient` and
the Euclidean `value` check only that the point is 1-D; the Euclidean
`gradient` checks nothing. The solvers check each point once, when it is
created, take what D_h reads of it from one unchecked `_point` call
(grad h and, where `_bregman` needs it, h) and pass those to the
unchecked `_bregman`. A subclass only has to define `value`, `gradient`
and `in_interior_domain`; the unchecked methods default to the checked
ones or to the defining formula.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NumericalError, ValidationError

# Negative values of D_h up to this size times that of its terms (at least 1)
# are rounding noise and clamped to zero; anything more negative is a bug.
_NEGATIVE_SLACK = 1e-12
_EPS = float(np.finfo(float).eps)


def is_integer(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def is_number(v) -> bool:
    return is_integer(v) or isinstance(v, (float, np.floating))


def _as_vector(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValidationError("expected a 1-D vector, got shape %s"
                              % (x.shape,))
    return x


class Kernel:
    """Base class for kernel generating distances."""

    def __init__(self, dim: int):
        if not (is_integer(dim) and dim >= 1):
            raise ValidationError("kernel dimension must be an integer >= 1")
        self.dim = int(dim)

    def value(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def gradient(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def in_interior_domain(self, x: np.ndarray) -> bool:
        """True iff x lies in the interior of dom h."""
        raise NotImplementedError

    def inverse_gradient(self, z: np.ndarray) -> np.ndarray:
        """The map (grad h)^{-1}; defined where h is of Legendre type."""
        raise NotImplementedError

    def require_interior(self, x: np.ndarray, name: str = "x") -> np.ndarray:
        x = _as_vector(x)
        if x.size != self.dim:
            raise ValidationError(
                "%s has size %d, kernel dimension is %d" % (name, x.size, self.dim)
            )
        if not self.in_interior_domain(x):
            raise DomainError(
                "%s is outside the interior of the kernel domain" % name
            )
        return x

    def bregman(self, x: np.ndarray, y: np.ndarray) -> float:
        """D_h(x, y), clamped to zero against tiny negative rounding noise."""
        x = self.require_interior(x, "x")
        y = self.require_interior(y, "y")
        return self._bregman(x, y)

    def _bregman(self, x: np.ndarray, y: np.ndarray, hgrad_y=None, hx=None,
                 hy=None) -> float:
        """`bregman` for interior float vectors, from grad h(y), h(x) and
        h(y) where the caller holds them (None: computed here)."""
        g = self.gradient(y) if hgrad_y is None else hgrad_y
        hx = self.value(x) if hx is None else hx
        hy = self.value(y) if hy is None else hy
        inner = float(np.dot(g, x - y))
        return _clamp_nonnegative(hx - hy - inner,
                                  abs(hx) + abs(hy) + abs(inner))

    def _point(self, x: np.ndarray) -> tuple:
        """(grad h(x), h(x)) for a float vector already known to be interior,
        computed once per point; h is None where `_bregman` never reads it."""
        return self.gradient(x), self.value(x)


def _clamp_nonnegative(d: float, scale: float = 1.0) -> float:
    if d < -_NEGATIVE_SLACK * max(1.0, scale):
        raise NumericalError("Bregman distance is negative beyond rounding: %g" % d)
    return max(d, 0.0)


class EuclideanKernel(Kernel):
    """h(x) = ||x||^2 / 2 on all of R^d; D_h is half the squared distance."""

    def value(self, x):
        x = _as_vector(x)
        return 0.5 * float(np.dot(x, x))

    def gradient(self, x):
        return np.array(x, dtype=float)

    def in_interior_domain(self, x):
        return bool(np.isfinite(x).all())

    def inverse_gradient(self, z):
        return np.array(z, dtype=float)

    def _bregman(self, x, y, hgrad_y=None, hx=None, hy=None):
        r = x - y
        return 0.5 * float(np.dot(r, r))

    def _point(self, x):
        return self.gradient(x), None


class BurgKernel(Kernel):
    """Burg entropy h(x) = -sum log x_j on the open positive orthant."""

    def value(self, x):
        x = self.require_interior(x)
        return -float(np.sum(np.log(x)))

    def gradient(self, x):
        return self._point(self.require_interior(x))[0]

    def _point(self, x):
        return -1.0 / x, None

    def in_interior_domain(self, x):
        x = np.asarray(x, dtype=float)
        return x.size == 0 or bool(0.0 < np.minimum.reduce(x, None)
                                   and np.maximum.reduce(x, None) < np.inf)

    def inverse_gradient(self, z):
        z = _as_vector(z)
        if not np.maximum.reduce(z, initial=-np.inf) < 0.0:
            raise DomainError("Burg inverse gradient needs every component < 0")
        return -1.0 / z

    def _bregman(self, x, y, hgrad_y=None, hx=None, hy=None):
        t = x / y
        return _clamp_nonnegative(float((t - np.log(t) - 1.0).sum()))


class QuarticKernel(Kernel):
    """h(x) = ||x||^4 / 4 + ||x||^2 / 2 on all of R^d."""

    def value(self, x):
        return self._point(_as_vector(x))[1]

    def gradient(self, x):
        return self._point(_as_vector(x))[0]

    def _point(self, x):
        """Both from one ||x||^2: (||x||^2 + 1) x and h(x)."""
        s = float(np.dot(x, x))
        return (s + 1.0) * x, 0.25 * s * s + 0.5 * s

    def in_interior_domain(self, x):
        return bool(np.isfinite(x).all())

    def inverse_gradient(self, z):
        z = _as_vector(z)
        s = math.sqrt(float(np.dot(z, z)))
        if s == 0.0:
            return np.zeros_like(z)
        r = cubic_root_scale(s)
        return z / (r * r + 1.0)


def cubic_root_scale(norm_v: float) -> float:
    """Unique nonnegative root r of r^3 + r = norm_v.

    Safeguarded Newton with a bisection fallback on [0, max(1, norm_v)];
    the equation is strictly increasing so the bracket always contains the
    root. Robust to large norm_v where closed-form Cardano loses digits.
    """
    if norm_v < 0.0:
        raise ValueError("norm_v must be nonnegative")
    if norm_v == 0.0:
        return 0.0
    lo, hi = 0.0, max(1.0, norm_v)
    r = min(norm_v, norm_v ** (1.0 / 3.0))
    tol = max(1e-12, 8.0 * _EPS * (1.0 + norm_v))
    for _ in range(200):
        f = r * r * r + r - norm_v
        if abs(f) <= tol:
            return r
        if f > 0.0:
            hi = r
        else:
            lo = r
        step = f / (3.0 * r * r + 1.0)
        r_next = r - step
        if not (lo < r_next < hi):
            r_next = 0.5 * (lo + hi)
        if r_next == r:
            return r
        r = r_next
    raise NumericalError("cubic root solve did not reach tolerance for %g" % norm_v)


def three_point_identity_residual(kernel: Kernel, x, y, z) -> float:
    """D_h(x,z) - D_h(x,y) - D_h(y,z) - <grad h(y) - grad h(z), x - y>.

    Identically zero in exact arithmetic; exposed for test suites.
    """
    x = kernel.require_interior(x, "x")
    y = kernel.require_interior(y, "y")
    z = kernel.require_interior(z, "z")
    lhs = kernel.bregman(x, z) - kernel.bregman(x, y) - kernel.bregman(y, z)
    rhs = float(np.dot(kernel.gradient(y) - kernel.gradient(z), x - y))
    return lhs - rhs
