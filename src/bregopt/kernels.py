"""Kernel generating distances and their Bregman divergences.

A kernel h supplies its value and gradient on the interior of its domain,
the Bregman divergence D_h(x, y) = h(x) - h(y) - <grad h(y), x - y>, and
the inverse gradient map where h is of Legendre type. Instances are
immutable and every method is a pure function of its inputs, so kernels
can be shared freely across threads.

A kernel class defines `_value(x)`, `_gradient(x)`, `_inverse_gradient(z)`
and `in_interior_domain` (an unchecked predicate on a float vector of the
kernel's size), and may override `_bregman`, the three-term formula by
default and the only one that clamps, with a closed form of its own, as
every shipped kernel does (Burg's is `burg_phi_sum`, as is plip's KL fit).
The public `value`, `gradient`, `bregman` and `inverse_gradient` are written
once, here: each checks by `require_interior`, the package's one rule for a
point, then calls the unchecked hook with numpy's float warnings off. A point
is a 1-D vector of ints or floats (`NUMBER_KINDS`) of the kernel's size, else
`ValidationError`, in the interior of dom h, else `DomainError`. The rule
reads the z of `inverse_gradient` as a vector and holds its preimage to dom h:
z must lie in the range of grad h. The solvers check once, call only hooks.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NumericalError, ValidationError

# Negative values of D_h up to this size times that of its terms (at least 1)
# are rounding noise and clamped to zero; anything more negative is a bug.
_NEGATIVE_SLACK = 1e-12
_FLOAT_MAX = float(np.finfo(float).max)
# Burg's domain is x_j > _BURG_X_MIN, where -1/x_j is finite.
_BURG_X_MIN = 1.0 / _FLOAT_MAX
# phi(s) >= 0 in floats, and phi(s) > phi(-1/2) = 0.19315 where s < -1/2: an
# unweighted sum below this holds no s_j < -1/2 (nor inf nor NaN).
_PHI_HALF = 0.193

NUMBER_KINDS = "iuf"  # the numpy dtype kinds of numbers: ints and floats
# Their scalar types, int and float too: `type(v) in NUMBER_TYPES` is
# `is_number(v)` without a call, for the checks a solver step runs.
NUMBER_TYPES = frozenset([int, float] + [t for t in np.sctypeDict.values()
                                         if np.dtype(t).kind in NUMBER_KINDS])


def is_number(v) -> bool:
    return type(v) in NUMBER_TYPES


def is_integer(v) -> bool:
    return is_number(v) and np.dtype(type(v)).kind != "f"


def check_count(value, name: str) -> None:
    """The one count rule: an integer >= 1 (numpy's too, never a bool)."""
    if not (is_integer(value) and value >= 1):
        raise ValidationError("%s must be an integer >= 1, got %r"
                              % (name, value))


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
        check_count(dim, "kernel dimension")
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

    @np.errstate(all="ignore")
    def inverse_gradient(self, z: np.ndarray) -> np.ndarray:
        """(grad h)^{-1}(z), h of Legendre type: z in the range of grad h."""
        x = self._inverse_gradient(_as_vector(z, self.dim, "z"))
        return self.require_interior(x, "(grad h)^-1(z)")

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

    def _inverse_gradient(self, z: np.ndarray) -> np.ndarray:
        """(grad h)^{-1}(z) for a float z; outside dom h where z is too."""
        raise NotImplementedError

    def _bregman(self, x: np.ndarray, y: np.ndarray) -> float:
        """`bregman` for interior float vectors by the defining formula
        h(x) - h(y) - <grad h(y), x - y>, which cancels as x nears y."""
        hx, hy = self._value(x), self._value(y)
        inner = float(self._gradient(y).dot(x - y))
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
    d = float(np.add.reduce(phi, None) if w is None else w.dot(phi))
    if not ((w is None and d < _PHI_HALF)
            or (d < math.inf and np.minimum.reduce(s, None) >= -0.5)):
        with np.errstate(all="ignore"):
            phi = s - np.where((s >= -0.5) & (s < math.inf), np.log1p(s),
                               np.log(x) - np.log(y))
            d = float(np.add.reduce(phi, None) if w is None else w.dot(phi))
    return d


class EuclideanKernel(Kernel):
    """h(x) = ||x||^2 / 2 on all of R^d; D_h is half the squared distance."""

    def _value(self, x):
        return 0.5 * float(x.dot(x))

    def _gradient(self, x):
        return x.copy()

    def in_interior_domain(self, x):
        return bool(np.logical_and.reduce(np.isfinite(x), None))

    _inverse_gradient = _gradient  # the identity

    def _bregman(self, x, y):
        r = x - y
        return 0.5 * float(r.dot(r))


class BurgKernel(Kernel):
    """Burg entropy h(x) = -sum log x_j on the open positive orthant."""

    def _value(self, x):
        return -float(np.add.reduce(np.log(x), None))

    def _gradient(self, x):
        return -1.0 / x

    def in_interior_domain(self, x):
        return bool(_BURG_X_MIN < np.minimum.reduce(x, None)
                    and np.maximum.reduce(x, None) < np.inf)

    _inverse_gradient = _gradient  # -1/z: grad h is its own inverse

    def _bregman(self, x, y):
        return burg_phi_sum(x, y)


class QuarticKernel(Kernel):
    """h(x) = ||x||^4 / 4 + ||x||^2 / 2 on all of R^d."""

    def _value(self, x):
        s = float(x.dot(x))
        return 0.25 * s * s + 0.5 * s

    def _gradient(self, x):
        s = float(x.dot(x))  # where it overflows: +-inf, and 0 at x_j = 0
        return ((s + 1.0) * x if s < math.inf
                else np.where(x == 0.0, 0.0, np.copysign(np.inf, x)))

    def _bregman(self, x, y):
        """||d||^2 (1 + ||y||^2) / 2 + t^2 / 4, where d = x - y and
        t = ||x||^2 - ||y||^2 = <x + y, d>: put t and <y, d> = (t - ||d||^2)/2
        into the three-term formula. Both terms are >= 0; nothing cancels."""
        d = x - y
        s, t = float(d.dot(d)), float((x + y).dot(d))
        return 0.5 * s * (1.0 + float(y.dot(y))) + 0.25 * t * t

    in_interior_domain = EuclideanKernel.in_interior_domain

    def _inverse_gradient(self, z):
        """z / (r^2 + 1) with r^3 + r = ||z||, the norm of the preimage."""
        s = math.sqrt(z.dot(z))
        if not s < math.inf:  # ||z||^2 overflowed, or z is not finite
            s = math.hypot(*z.tolist())  # scaled by max |z_j|, no overflow
            if not s < math.inf:  # inf or NaN, as is the preimage's norm
                return np.full_like(z, s)
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
    step = (r * r * r + r - s) / (3.0 * r * r + 1.0)
    if not step < math.inf:  # r^3 overflowed: the same step, divided by r
        step = (r * r + 1.0 - s / r) / (3.0 * r + 1.0 / r)
    return r - step
