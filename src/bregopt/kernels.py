"""Kernel generating distances and their Bregman divergences.

A kernel h supplies its value and gradient on the interior of its domain,
the Bregman divergence D_h(x, y) = h(x) - h(y) - <grad h(y), x - y>, and
the inverse gradient map where h is of Legendre type. Instances are
immutable and every method is a pure function of its inputs, so kernels
can be shared freely across threads.

A kernel class defines `_value(x)`, `_gradient(x)`, `in_interior_domain`
and `inverse_gradient`, and may override `_bregman`, the three-term
formula by default, with a closed form of its own, as every shipped
kernel does. The public `value`, `gradient` and `bregman`
are written once, here: each passes its points through `require_interior`,
the package's one rule for a point (the smooth terms and `plip_prox` apply
it too), then calls the unchecked hook. A point is a 1-D vector of ints or
floats (`NUMBER_KINDS`) of the kernel's size, else `ValidationError`, in
the interior of dom h, else `DomainError`. The z of `inverse_gradient`
must lie in the range of grad h instead (at any size for Burg's
componentwise map). The solvers check each point once and call only hooks.
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


NUMBER_KINDS = "iuf"  # the numpy dtype kinds of numbers: ints and floats


def _as_vector(x, size=None, name="z") -> np.ndarray:
    """x as a 1-D float64 array (x itself if it is one) of `size`, if given."""
    try:
        x = np.asarray(x)
    except (TypeError, ValueError) as exc:
        raise ValidationError("expected a vector of numbers (%s)"
                              % exc) from None
    if x.dtype.kind not in NUMBER_KINDS or x.ndim != 1:
        raise ValidationError("expected a 1-D vector of numbers, got %s of "
                              "shape %s" % (x.dtype, x.shape))
    if size is not None and x.size != size:
        raise ValidationError("%s has size %d, kernel dimension is %d"
                              % (name, x.size, size))
    return x if x.dtype == float else x.astype(float)


class Kernel:
    """Base class for kernel generating distances."""

    def __init__(self, dim: int):
        if not (is_integer(dim) and dim >= 1):
            raise ValidationError("kernel dimension must be an integer >= 1")
        self.dim = int(dim)

    def value(self, x: np.ndarray) -> float:
        return self._value(self.require_interior(x))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self._gradient(self.require_interior(x))

    def bregman(self, x: np.ndarray, y: np.ndarray) -> float:
        """D_h(x, y); the default and Burg's forms clamp tiny negative
        rounding noise to zero, the quartic and Euclidean ones have none."""
        return self._bregman(self.require_interior(x, "x"),
                             self.require_interior(y, "y"))

    def in_interior_domain(self, x: np.ndarray) -> bool:
        """True iff x lies in the interior of dom h."""
        raise NotImplementedError

    def inverse_gradient(self, z: np.ndarray) -> np.ndarray:
        """The map (grad h)^{-1}; defined where h is of Legendre type."""
        raise NotImplementedError

    def require_interior(self, x: np.ndarray, name: str = "x") -> np.ndarray:
        x = _as_vector(x, self.dim, name)
        if not self.in_interior_domain(x):
            raise DomainError("%s is outside the interior of the kernel "
                              "domain" % name)
        return x

    def _value(self, x: np.ndarray) -> float:
        """h(x) for an interior float vector."""
        raise NotImplementedError

    def _gradient(self, x: np.ndarray) -> np.ndarray:
        """grad h(x) for an interior float vector."""
        raise NotImplementedError

    def _bregman(self, x: np.ndarray, y: np.ndarray) -> float:
        """`bregman` for interior float vectors by the defining formula
        h(x) - h(y) - <grad h(y), x - y>, which cancels as x nears y."""
        hx, hy = self._value(x), self._value(y)
        inner = float(np.dot(self._gradient(y), x - y))
        return _clamp_nonnegative(hx - hy - inner,
                                  abs(hx) + abs(hy) + abs(inner))


def _clamp_nonnegative(d: float, scale: float = 1.0) -> float:
    if d < -_NEGATIVE_SLACK * max(1.0, scale):
        raise NumericalError("Bregman distance is negative beyond rounding: %g" % d)
    return max(d, 0.0)


class EuclideanKernel(Kernel):
    """h(x) = ||x||^2 / 2 on all of R^d; D_h is half the squared distance."""

    def _value(self, x):
        return 0.5 * float(np.dot(x, x))

    def _gradient(self, x):
        return x.copy()

    def in_interior_domain(self, x):
        return bool(np.isfinite(x).all())

    def inverse_gradient(self, z):
        return self.require_interior(z, "z").copy()

    def _bregman(self, x, y):
        r = x - y
        return 0.5 * float(np.dot(r, r))


class BurgKernel(Kernel):
    """Burg entropy h(x) = -sum log x_j on the open positive orthant."""

    def _value(self, x):
        return -float(np.sum(np.log(x)))

    def _gradient(self, x):
        return -1.0 / x

    def in_interior_domain(self, x):
        x = np.asarray(x, dtype=float)
        return x.size == 0 or bool(0.0 < np.minimum.reduce(x, None)
                                   and np.maximum.reduce(x, None) < np.inf)

    def inverse_gradient(self, z):
        z = _as_vector(z)
        if not np.maximum.reduce(z, initial=-np.inf) < 0.0:
            raise DomainError("Burg inverse gradient needs every component < 0")
        return -1.0 / z

    def _bregman(self, x, y):
        t = x / y
        return _clamp_nonnegative(float((t - np.log(t) - 1.0).sum()))


class QuarticKernel(Kernel):
    """h(x) = ||x||^4 / 4 + ||x||^2 / 2 on all of R^d."""

    def _value(self, x):
        s = float(np.dot(x, x))
        return 0.25 * s * s + 0.5 * s

    def _gradient(self, x):
        return (float(np.dot(x, x)) + 1.0) * x

    def _bregman(self, x, y):
        """||d||^2 (1 + ||y||^2) / 2 + t^2 / 4, where d = x - y and
        t = ||x||^2 - ||y||^2 = <x + y, d>: put t and <y, d> = (t - ||d||^2)/2
        into the three-term formula. Both terms are >= 0; nothing cancels."""
        d = x - y
        s, t = float(np.dot(d, d)), float(np.dot(x + y, d))
        return 0.5 * s * (1.0 + float(np.dot(y, y))) + 0.25 * t * t

    def in_interior_domain(self, x):
        return bool(np.isfinite(x).all())

    def inverse_gradient(self, z):
        """z / (r^2 + 1) with r^3 + r = ||z||, the norm of the preimage."""
        z = _as_vector(z, self.dim)
        s = math.sqrt(float(np.dot(z, z)))
        if not s < math.inf:  # ||z||^2 overflowed, or z is not finite
            s = math.hypot(*z.tolist())  # scaled by max |z_j|, no overflow
            if not s < math.inf:
                raise DomainError("quartic inverse gradient needs finite ||z||")
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
