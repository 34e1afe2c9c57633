"""Composite objectives: a smooth term plus a nonsmooth term under a kernel.

The smooth term carries the constants that drive step sizes (an upper
constant L for the Bregman descent envelope and a weak-convexity constant
mu), the nonsmooth term carries the Bregman proximal rule. Objectives are
immutable and all operations are pure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

import numpy as np

from .errors import ValidationError
from .kernels import (_FLOAT_MAX, NUMBER_KINDS, BurgKernel, Kernel,
                      _as_vector, is_integer, is_number)


def check_seed(seed) -> None:
    """Instance seeds feed numpy's generators, which need integers >= 0."""
    if not (is_integer(seed) and seed >= 0):
        raise ValidationError("seed must be an integer >= 0, got %r" % (seed,))


def check_size(m, d, name: str = "m and d") -> None:
    """Instance sizes are integers >= 1, as the seed is (numpy integers too,
    never a bool, a float or a string), that `empty_aligned` can address."""
    if not (is_integer(m) and is_integer(d) and m >= 1 and d >= 1):
        raise ValidationError("%s must be integers >= 1, got %r and %r"
                              % (name, m, d))
    if int(m) * int(d) * 8 + 64 > np.iinfo(np.intp).max:
        raise ValidationError("m x d = %d x %d is too big for numpy" % (m, d))


def empty_aligned(m: int, d: int) -> np.ndarray:
    """Uninitialised C-contiguous m x d float64 array on a 64-byte boundary,
    where M @ x and M.T @ w ran 10-30% faster than 16 or 48 bytes past one."""
    buf = np.empty(8 * m * d + 64, np.uint8)
    start = -buf.ctypes.data % 64
    return buf[start:start + 8 * m * d].view(np.float64).reshape(m, d)


def check_nonnegative(value, name: str) -> None:
    """theta, l1 weights: a number in [0, max float]; bigger ints refused."""
    if not (is_number(value) and 0.0 <= value <= _FLOAT_MAX):
        raise ValidationError("%s must be a finite number >= 0, got %r"
                              % (name, value))


def check_positive(value, name: str) -> None:
    if not (is_number(value) and 0.0 < value <= _FLOAT_MAX):
        raise ValidationError("%s must be positive and finite" % name)


class Instance:
    """Base of the frozen instance dataclasses: a nonempty m x d matrix in
    the field each subclass names as MATRIX, b with m entries, x_true with
    d, all three numpy arrays of ints or floats, and a seed; subclasses add
    their data checks after this `__post_init__`, which reads types and
    shapes only. `to_json` exports the fields plus m and d (the matrix as
    rows); `generate(m, d, seed, theta)` of those values rebuilds it."""

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


class SmoothTerm:
    """Differentiable term f with its certified constants.

    The solvers read f through one `evaluate` per iterate x, called after
    the line search has chosen the next step's beta and y from x and D_h
    (it never reads f), so that call also returns grad f(y). The default
    uses `value` and `gradient`; `LinearModelSmooth` forms M x once and
    carries M y.
    """

    def value(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def _value(self, x: np.ndarray) -> float:  # x checked by its kernel
        return self.value(x)

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


# Row blocks of M of at most this size carry the one pass over M of
# `evaluate` with a y: u_B = M_B x, then W M = sum_B W_B M_B in that fixed
# order (README); every other product, and a one-block M's, takes all of M.
# Blocks of 8k rows start 64 k d bytes apart, so an aligned M's stay aligned.
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
    value) and the elementwise phi'(u) in one call, the kernel
    class `KERNEL` whose domain f shares (`value` and `gradient` check x by
    `self.kernel`, a `KERNEL` of size d) and, if phi needs it, `_in_domain(u)`.
    M is cut once into the `(rows, M_B)` pairs of `_row_blocks`, which only
    `evaluate` with a carried y reads, in one pass for M x and both
    gradients; every other step, and any step of a one-block M, forms
    `M @ x` and one `M.T @ w` per gradient.
    The line search, which never reads f, fixes the next y before
    `evaluate` runs.
    """

    def __init__(self, inst: Instance):
        self.inst = inst
        self.kernel = self.KERNEL(inst.d)
        self.M = M = getattr(inst, inst.MATRIX)
        blocks = _row_blocks(M)
        self._blocks = None if len(blocks) == 1 else [
            (rows, M[rows]) for rows in blocks]

    _in_domain = staticmethod(lambda u: True)

    def evaluate(self, x, u_prev, beta, y):
        """u = M x and phi, phi' over all of u, and with a y the carried
        u_y = u + beta (u - u_prev) standing in for M y; then M^T phi'(u)
        and, if u_y passes `_in_domain`, M^T phi'(u_y) for grad f at x and
        y. Row blocks with a y take one pass: each M_B is read once for
        U = [u; u_y] and W M = sum_B W_B M_B, both gradients (phi' of a carry
        that left the domain runs under the solvers' errstate). Where
        rounding leaves u_y outside `_in_domain`, grad f(y) is `gradient(y)`."""
        M, b, phi = self.M, self.inst.b, self._phi
        if y is None or self._blocks is None:
            u = M @ x
            f, w = phi(u, b)
            if y is not None:
                u_y = u + beta * (u - u_prev)
                if self._in_domain(u_y):
                    return u, f, M.T @ w, M.T @ phi(u_y, b, False)[1]
        else:
            U, G = np.empty((2, M.shape[0])), np.zeros((2, M.shape[1]))
            for rows, M_B in self._blocks:
                u_B = U[0, rows] = M_B @ x
                U[1, rows] = u_B + beta * (u_B - u_prev[rows])
                G += phi(U[:, rows], b[rows], False)[1] @ M_B
            u = U[0]
            f, w = phi(u, b)  # w only for the failed carry: <1% of the pass
            if self._in_domain(U[1]):
                return u, f, G[0], G[1]
        grad_y = None if y is None else self.evaluate(y, None, 0.0, None)[2]
        return u, f, M.T @ w, grad_y

    def value(self, x):
        return self._value(self.kernel.require_interior(x))

    @np.errstate(all="ignore")
    def _value(self, x):
        return self._phi(self.M @ x, self.inst.b)[0]

    @np.errstate(all="ignore")
    def gradient(self, x):
        return self.evaluate(self.kernel.require_interior(x), None, 0.0,
                             None)[2]


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

    def _prox(self, kernel: Kernel, z: np.ndarray, lam: float) -> np.ndarray:
        """`prox` of a float z of the kernel's size; the solvers check x+."""
        return self.prox(kernel, z, lam)


class L1Term(NonsmoothTerm):
    """g(x) = weight * ||x||_1, with the one Bregman proximal rule.

    prox = grad h^{-1}(shrink(z, lam * weight)), exact when grad h(u) is a
    positive multiple of u (Euclidean, quartic); the Burg kernel takes
    weight 0 only.
    """

    def __init__(self, weight: float):
        check_nonnegative(weight, "l1 weight")
        self.weight = float(weight)

    def value(self, x):
        return self.weight * float(np.add.reduce(np.abs(x), None))

    @np.errstate(all="ignore")
    def prox(self, kernel, z, lam):
        """`_prox` with lam checked as `SolverConfig.lam` is, z as a vector of
        the kernel's size and the output by `kernel.require_interior`."""
        check_positive(lam, "lam")
        x = self._prox(kernel, _as_vector(z, kernel.dim, "z"), lam)
        return kernel.require_interior(x, "prox output")

    def _prox(self, kernel, z, lam):
        if self.weight > 0.0:
            if isinstance(kernel, BurgKernel):
                raise ValidationError("no closed-form l1 prox for BurgKernel")
            z = np.sign(z) * np.maximum(np.abs(z) - lam * self.weight, 0.0)
        return kernel._inverse_gradient(z)


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

    def value(self, x: np.ndarray) -> float:
        x = self.kernel.require_interior(x, "x")
        return self.smooth._value(x) + self.nonsmooth.value(x)
