"""Kernel generating distances and their Bregman divergences.

A kernel h supplies its value and gradient on the interior of its domain,
the Bregman divergence D_h(x, y) = h(x) - h(y) - <grad h(y), x - y>, and
the inverse gradient map where h is of Legendre type. Instances are
immutable and every method is a pure function of its inputs, so kernels
can be shared freely across threads.

A kernel class defines `_point(x)`, which returns grad h(x) and either
h(x) or None, `in_interior_domain` and `inverse_gradient`; it defines
`_value` only where `_point` leaves h out, and may override `_bregman`
with a formula of its own. The public `value`, `gradient` and `bregman`
are written once, here: each passes its points through
`require_interior` (a 1-D float vector of the kernel's size in the
interior of the domain, else `ValidationError` or `DomainError`) and then
calls the unchecked hook. The solvers check each point once, when it is
created, and call only the hooks.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NumericalError, ValidationError

# Negative values of D_h up to this size times that of its terms (at least 1)
# are rounding noise and clamped to zero; anything more negative is a bug.
_NEGATIVE_SLACK = 1e-12


def is_integer(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def is_number(v) -> bool:
    return is_integer(v) or isinstance(v, (float, np.floating))


def _as_vector(x) -> np.ndarray:
    try:
        x = np.asarray(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError("expected a vector of numbers (%s)"
                              % exc) from None
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
        return self._value(self.require_interior(x))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self._point(self.require_interior(x))[0]

    def bregman(self, x: np.ndarray, y: np.ndarray) -> float:
        """D_h(x, y), clamped to zero against tiny negative rounding noise."""
        return self._bregman(self.require_interior(x, "x"),
                             self.require_interior(y, "y"))

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

    def _point(self, x: np.ndarray) -> tuple:
        """(grad h(x), h(x)) for a float vector already known to be interior,
        computed once per point; h may be None in a class that defines
        `_value` and whose `_bregman` never reads h."""
        raise NotImplementedError

    def _value(self, x: np.ndarray) -> float:
        """h(x) for an interior float vector."""
        return self._point(x)[1]

    def _bregman(self, x: np.ndarray, y: np.ndarray, hgrad_y=None, hx=None,
                 hy=None) -> float:
        """`bregman` for interior float vectors, from grad h(y), h(x) and
        h(y) where the caller holds them (None: computed here)."""
        g = self._point(y)[0] if hgrad_y is None else hgrad_y
        hx = self._value(x) if hx is None else hx
        hy = self._value(y) if hy is None else hy
        inner = float(np.dot(g, x - y))
        return _clamp_nonnegative(hx - hy - inner,
                                  abs(hx) + abs(hy) + abs(inner))


def _clamp_nonnegative(d: float, scale: float = 1.0) -> float:
    if d < -_NEGATIVE_SLACK * max(1.0, scale):
        raise NumericalError("Bregman distance is negative beyond rounding: %g" % d)
    return max(d, 0.0)


class EuclideanKernel(Kernel):
    """h(x) = ||x||^2 / 2 on all of R^d; D_h is half the squared distance."""

    def _point(self, x):
        return x.copy(), 0.5 * float(np.dot(x, x))

    def in_interior_domain(self, x):
        return bool(np.isfinite(x).all())

    def inverse_gradient(self, z):
        return _as_vector(z).copy()

    def _bregman(self, x, y, hgrad_y=None, hx=None, hy=None):
        r = x - y
        return 0.5 * float(np.dot(r, r))


class BurgKernel(Kernel):
    """Burg entropy h(x) = -sum log x_j on the open positive orthant."""

    def _point(self, x):
        return -1.0 / x, None

    def _value(self, x):
        return -float(np.sum(np.log(x)))

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

    def _point(self, x):
        """Both from one ||x||^2: (||x||^2 + 1) x and h(x)."""
        s = float(np.dot(x, x))
        return (s + 1.0) * x, 0.25 * s * s + 0.5 * s

    def in_interior_domain(self, x):
        return bool(np.isfinite(x).all())

    def inverse_gradient(self, z):
        """z / (r^2 + 1) with r^3 + r = ||z||, the norm of the preimage."""
        z = _as_vector(z)
        s = math.sqrt(float(np.dot(z, z)))
        if s == 0.0:
            return np.zeros_like(z)
        r = cubic_root_scale(s)
        return z / (r * r + 1.0)


_INV_SQRT27 = 1.0 / math.sqrt(27.0)


def cubic_root_scale(s: float) -> float:
    """Unique nonnegative root r of r^3 + r = s (NaN for a NaN s).

    Cardano's root r = t - 1/(3t), t^3 = s/2 + sqrt(s^2/4 + 1/27), in the
    form r = s / (t^2 + 1/3 + 1/(9 t^2)), which has no cancellation at any
    s, then one Newton step to round it off.
    """
    if s < 0.0:
        raise ValueError("s must be nonnegative")
    t2 = (0.5 * s + math.hypot(0.5 * s, _INV_SQRT27)) ** (2.0 / 3.0)
    r = s / (t2 + 1.0 / 3.0 + 1.0 / (9.0 * t2))
    return r - (r * r * r + r - s) / (3.0 * r * r + 1.0)
