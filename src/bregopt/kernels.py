"""Kernel generating distances and their Bregman divergences.

A kernel h supplies its value and gradient on the interior of its domain,
the Bregman divergence D_h(x, y) = h(x) - h(y) - <grad h(y), x - y>, and
the inverse gradient map where h is of Legendre type. Instances are
immutable and every method is a pure function of its inputs, so kernels
can be shared freely across threads.

A kernel class defines `_value(x)`, `_gradient(x)`, `in_interior_domain`
(an unchecked predicate on a float vector of the kernel's size) and
`inverse_gradient`, and may override `_bregman`, the three-term formula by
default and the only one that clamps, with a closed form of its own, as
every shipped kernel does (Burg's is `burg_phi_sum`, as is plip's KL fit).
The public `value`, `gradient` and `bregman` are written once, here: each
passes its points through `require_interior`, the package's one rule for a
point, then calls the unchecked hook with numpy's float warnings off. A
point is a 1-D vector of ints or floats (`NUMBER_KINDS`) of the kernel's
size, else `ValidationError`, in the interior of dom h, else `DomainError`.
The z of `inverse_gradient` is read by the same rule, but must lie in the
range of grad h instead. The solvers check each point once, call only hooks.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NumericalError, ValidationError

# Negative values of D_h up to this size times that of its terms (at least 1)
# are rounding noise and clamped to zero; anything more negative is a bug.
_NEGATIVE_SLACK = 1e-12
# Burg's domain is x_j > _BURG_X_MIN, where -1/x_j is finite, and its gradient's
# range is _BURG_Z_MIN <= z_j < _BURG_Z_MAX, where -1/z_j lies in that domain.
_BURG_Z_MAX = -1.0 / float(np.finfo(float).max)
_BURG_X_MIN = -_BURG_Z_MAX
_BURG_Z_MIN = -1.7976931348623151e308  # -1/z is _BURG_X_MIN for the 3 floats below

NUMBER_KINDS = "iuf"  # the numpy dtype kinds of numbers: ints and floats
# Their scalar types, int and float too: `type(v) in NUMBER_TYPES` is
# `is_number(v)` without a call, for the checks a solver step runs.
NUMBER_TYPES = frozenset([int, float] + [t for t in np.sctypeDict.values()
                                         if np.dtype(t).kind in NUMBER_KINDS])


def is_number(v) -> bool:
    return type(v) in NUMBER_TYPES


def is_integer(v) -> bool:
    return is_number(v) and np.dtype(type(v)).kind != "f"


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

    @np.errstate(all="ignore")
    def value(self, x: np.ndarray) -> float:
        return self._value(self.require_interior(x))

    @np.errstate(all="ignore")
    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self._gradient(self.require_interior(x))

    @np.errstate(all="ignore")
    def bregman(self, x: np.ndarray, y: np.ndarray) -> float:
        """D_h(x, y); only the default formula clamps rounding noise."""
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
        d = hx - hy - inner
        if d < -_NEGATIVE_SLACK * max(1.0, abs(hx) + abs(hy) + abs(inner)):
            raise NumericalError("Bregman distance is negative beyond rounding: %g" % d)
        return max(d, 0.0)


def burg_phi_sum(x: np.ndarray, y: np.ndarray, w=None) -> float:
    """sum_j w_j phi(s_j) (w = 1 if None), phi(s) = s - log1p(s) >= 0 in floats,
    s = (x - y)/y: Burg's D_h(x, y), and the KL fit at (u, b, b). Where x_j < y_j/2
    or s_j overflows, log x_j - log y_j stands for log1p(s_j), spoilt near -1."""
    s = (x - y) / y
    phi = s - np.log1p(s)
    d = float(np.add.reduce(phi, None) if w is None else np.dot(w, phi))
    if not (d < math.inf and np.minimum.reduce(s, None) >= -0.5):
        with np.errstate(all="ignore"):
            phi = s - np.where((s >= -0.5) & (s < math.inf), np.log1p(s),
                               np.log(x) - np.log(y))
            d = float(np.add.reduce(phi, None) if w is None else np.dot(w, phi))
    return d


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
        return bool(_BURG_X_MIN < np.minimum.reduce(x, None)
                    and np.maximum.reduce(x, None) < np.inf)

    def inverse_gradient(self, z):
        z = _as_vector(z, self.dim)
        if not (_BURG_Z_MIN <= np.minimum.reduce(z, None)
                and np.maximum.reduce(z, None) < _BURG_Z_MAX):
            raise DomainError("Burg inverse gradient needs z in "
                              "[%r, -1/max float)^d" % _BURG_Z_MIN)
        return -1.0 / z

    def _bregman(self, x, y):
        return burg_phi_sum(x, y)


class QuarticKernel(Kernel):
    """h(x) = ||x||^4 / 4 + ||x||^2 / 2 on all of R^d."""

    def _value(self, x):
        s = float(np.dot(x, x))
        return 0.25 * s * s + 0.5 * s

    def _gradient(self, x):
        s = float(np.dot(x, x))  # where it overflows: +-inf, and 0 at x_j = 0
        return ((s + 1.0) * x if s < math.inf
                else np.where(x == 0.0, 0.0, np.copysign(np.inf, x)))

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
    """Unique nonnegative root r of r^3 + r = s, a number >= 0 (or NaN).

    Cardano's root r = t - 1/(3t), t^3 = s/2 + sqrt(s^2/4 + 1/27), in the
    form r = s / (t^2 + 1/3 + 1/(9 t^2)), which has no cancellation at any
    s, then one Newton step to round it off.
    """
    if not (type(s) in NUMBER_TYPES and not s < 0.0):
        raise ValidationError("s must be a number >= 0, got %r" % (s,))
    if not s < math.inf:  # inf is its own root; NaN stays NaN
        return s
    t2 = (0.5 * s + math.hypot(0.5 * s, _INV_SQRT27)) ** (2.0 / 3.0)
    r = s / (t2 + 1.0 / 3.0 + 1.0 / (9.0 * t2))
    return r - (r * r * r + r - s) / (3.0 * r * r + 1.0)
