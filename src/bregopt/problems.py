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
from .kernels import NUMBER_KINDS, BurgKernel, Kernel, is_integer, is_number


def check_seed(seed) -> None:
    """Instance seeds feed numpy's generators, which need integers >= 0."""
    if not (is_integer(seed) and seed >= 0):
        raise ValidationError("seed must be an integer >= 0, got %r" % (seed,))


def check_size(m, d) -> None:
    """Instance sizes are integers >= 1, as the seed is (numpy integers too,
    never a bool, a float or a string), with an addressable m x d matrix."""
    if not (is_integer(m) and is_integer(d) and m >= 1 and d >= 1):
        raise ValidationError("m and d must be integers >= 1, got %r and %r"
                              % (m, d))
    if int(m) * int(d) * 8 > np.iinfo(np.intp).max:
        raise ValidationError("m x d = %d x %d is too big for numpy" % (m, d))


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
        if not all(isinstance(v, np.ndarray) and v.dtype.kind in NUMBER_KINDS
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
                    if value.dtype.kind not in NUMBER_KINDS:
                        raise TypeError("%s holds a non-number" % name)
                    args[name] = value.astype(float, copy=False)
        except (ValueError, TypeError, KeyError) as exc:
            raise ValidationError("malformed %s document: %s: %s" % (
                cls.__name__, type(exc).__name__, exc)) from exc
        inst = cls(**args)
        if header != (inst.m, inst.d):
            raise ValidationError("m and d disagree with %s" % cls.MATRIX)
        return inst


class SmoothTerm:
    """Differentiable term f with its certified constants.

    The solvers read f through one `evaluate` per iterate x, called after
    the line search has chosen the next step's beta and y from x and D_h
    (it never reads f), so that call also returns grad f(y). The default
    uses `value` and `gradient`; `LinearModelSmooth` makes one pass over M.
    """

    def value(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def gradient(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def evaluate(self, x, u_prev, beta: float, y):
        """(u, f(x), grad f(x), grad f(y) or None) at a new iterate x.

        u (here x) comes back as u_prev with the next iterate; y is the
        next step's point x + beta (x - x_prev), or None if it is x."""
        return (x, self.value(x), self.gradient(x),
                None if y is None else self.gradient(y))

    def smad_constant(self) -> float:
        """Constant L such that L*h - f and L*h + f are convex."""
        raise NotImplementedError

    def weak_convexity_constant(self) -> float:
        """Constant mu >= 0 such that f + mu*h is convex (0 for convex f)."""
        return 0.0


# Row blocks of M of at most this size stay in a core's L2 cache from the
# product M_B x to the products with M_B^T that follow it.
_BLOCK_BYTES = 512 * 1024


def _row_blocks(M: np.ndarray) -> list:
    """Slices that cut M's rows into blocks of at most 512 KiB, a multiple
    of 8 rows each (8 rows at least); the last block may be shorter."""
    m, d = M.shape
    rows = max(8, _BLOCK_BYTES // (8 * M.itemsize * d) * 8)
    return [slice(i, min(i + rows, m)) for i in range(0, m, rows)]


class LinearModelSmooth(SmoothTerm):
    """f(x) = phi(Mx) = sum_i phi_i((Mx)_i) with M the instance matrix.

    A subclass defines `_phi(u, b, value=True)`, giving phi(u) (None unless
    value) and the elementwise phi'(u) from the terms they share, the kernel
    class `KERNEL` whose domain f shares (`value` and `gradient` check x by
    `self.kernel`, a `KERNEL` of size d) and, if phi needs it, `_in_domain(u)`.
    M is cut once into the row blocks of `_row_blocks`, so that blocked
    M x is M @ x bit for bit (unless the last block is one row); one block
    keeps the unblocked products. The line search, which never reads f,
    fixes the next y before `evaluate` runs.
    """

    def __init__(self, inst: Instance):
        self.inst = inst
        self.kernel = self.KERNEL(inst.d)
        self.M = M = getattr(inst, inst.MATRIX)
        blocks = _row_blocks(M)
        self._blocks = None if len(blocks) == 1 else [
            (rows, M[rows], inst.b[rows]) for rows in blocks]

    _in_domain = staticmethod(lambda u: True)

    def evaluate(self, x, u_prev, beta, y):
        """One pass over M: per row block, u_B = M_B x, then, while M_B is
        in cache, M_B^T phi'(u_B) and M_B^T phi'(u_B + beta (u_B - u_prev_B))
        for grad f at x and y; grad f(y) is `gradient(y)` where rounding
        leaves that carried M y outside `_in_domain`."""
        M, b, phi = self.M, self.inst.b, self._phi
        if self._blocks is None:
            u = M @ x
            f, w = phi(u, b)
            grad, grad_y = M.T @ w, None
            if y is not None:
                u_y = u + beta * (u - u_prev)
                grad_y = (M.T @ phi(u_y, b, False)[1] if self._in_domain(u_y)
                          else self.gradient(y))
            return u, f, grad, grad_y
        # Row 0 of W holds phi'(u_B), row 1 phi' of the carried u_B (G[1] is
        # dropped once a block fails), so that W_B M_B reads M_B once.
        carried = y is not None
        u = np.empty(M.shape[0])
        W = np.empty((1 + carried, M.shape[0]))
        G = np.zeros((len(W), M.shape[1]))
        for rows, M_B, b_B in self._blocks:
            u_B = np.matmul(M_B, x, out=u[rows])
            W_B = W[:, rows]
            W_B[0] = phi(u_B, b_B, False)[1]
            if carried:
                u_y = u_B + beta * (u_B - u_prev[rows])
                carried = self._in_domain(u_y)
                W_B[1] = phi(u_y, b_B, False)[1]
            G += W_B @ M_B
        grad_y = G[1] if carried else None
        if y is not None and not carried:
            grad_y = self.gradient(y)
        return u, phi(u, b)[0], G[0], grad_y

    def value(self, x):
        x = self.kernel.require_interior(x)
        return self._phi(self.M @ x, self.inst.b)[0]

    def gradient(self, x):
        return self.evaluate(self.kernel.require_interior(x), None, 0.0,
                             None)[2]

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
        if not (is_number(weight) and 0.0 <= weight < math.inf):
            raise ValidationError("l1 weight must be a finite number >= 0")
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
