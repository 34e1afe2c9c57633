"""Bregman proximal gradient iterations, with and without extrapolation.

The extrapolated solver forms y^k = x^k + beta_k (x^k - x^{k-1}) with
beta_k found by geometric line search, then takes a Bregman proximal step
from y^k. Forcing beta_k = 0 recovers the plain Bregman proximal gradient
method; with the Euclidean kernel both reduce to the classical proximal
gradient iterations.

Every run records a full per-iteration trace (objective, Bregman step,
descent certificate H_k = Psi(x^k) + D_h(x^{k-1}, x^k) / lam, accepted beta,
stationarity residual, wall time), stored as one row of eight doubles per
iteration.
"""

from __future__ import annotations

import math
import time
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from .errors import DomainError, NumericalError, ValidationError
from .kernels import Kernel, check_count
from .problems import CompositeObjective, check_positive, is_number

EXIT_TOLERANCE = "tolerance"
EXIT_MAX_ITERATIONS = "max_iterations"
EXIT_NUMERICAL_FAILURE = "numerical_failure"

EXIT_MODES = ("iterate_relative", "stationarity")


@dataclass(frozen=True)
class SolverConfig:
    """Fixed step lam, the exit test and the beta line search's backoff."""

    lam: float
    tol: float = 1e-6
    k_max: int = 5000
    exit_mode: str = "iterate_relative"
    beta0: float = 0.99
    eta: float = 0.5
    rho: float = 0.99
    max_shrinks: ClassVar[int] = 60

    def __post_init__(self):
        if not (is_number(self.beta0) and 0.0 <= self.beta0 < 1.0):
            raise ValidationError("beta0 must be a number in [0, 1)")
        if not (is_number(self.eta) and 0.0 < self.eta < 1.0):
            raise ValidationError("eta must be a number in (0, 1)")
        if not (is_number(self.rho) and 0.0 < self.rho < 1.0):
            raise ValidationError("rho must be a number in (0, 1)")
        check_positive(self.lam, "lam")
        check_positive(self.tol, "tol")
        check_count(self.k_max, "k_max")
        if self.exit_mode not in EXIT_MODES:
            raise ValidationError(
                "exit_mode must be one of %s" % (EXIT_MODES,)
            )


@dataclass(frozen=True)
class IterationRecord:
    k: int
    psi: float
    dh_step: float
    lyapunov: float
    beta_accepted: float
    shrink_count: int
    residual: float
    wall_time: float


_FIELDS = tuple(f.name for f in fields(IterationRecord))


def _record(row) -> IterationRecord:
    k, psi, dh, lyap, beta, shrinks, residual, wall = row
    # np.nan itself, as the solver records it: dataclass equality compares
    # fields as tuples do, where a NaN equals only the same object.
    return IterationRecord(int(k), psi, dh, lyap, beta, int(shrinks),
                           np.nan if residual != residual else residual, wall)


class Trace(Sequence):
    """A run's IterationRecords as the read-only (n, 8) float64 array
    `data`, one row per record in field order. An index builds the record,
    a slice is a Trace and `column(name)` is a view of one field."""

    def __init__(self, data: np.ndarray):
        data.flags.writeable = False
        self.data = data

    def __reduce__(self):  # an unpickled array is writeable until __init__
        return Trace, (self.data,)

    def __len__(self) -> int:
        return len(self.data)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Trace(self.data[i])
        return _record(self.data[i].tolist())

    def __iter__(self):
        return map(_record, self.data.tolist())

    def column(self, name: str) -> np.ndarray:
        if name not in _FIELDS:
            raise ValidationError("no trace field %r; the fields are %s"
                                  % (name, ", ".join(_FIELDS)))
        return self.data[:, _FIELDS.index(name)]


@dataclass(frozen=True)
class SolveResult:
    x_final: np.ndarray
    psi_final: float
    iterations: int
    exit_reason: str
    trace: Trace
    config: SolverConfig


def line_search_beta(kernel: Kernel, x_prev: np.ndarray, x_curr: np.ndarray,
                     cfg: SolverConfig, C_k: float, dh_prev: float):
    """First beta in {beta0, eta*beta0, ...} whose trial point is admissible.

    Admissible means the trial x_curr + beta*(x_curr - x_prev) lies in the
    interior of the kernel domain and
    D_h(x_curr, trial) <= rho * C_k * D_h(x_prev, x_curr). A trial outside
    the domain counts as a failed test and keeps shrinking. Falls back to
    beta = 0 after max_shrinks, which always satisfies the condition.
    dh_prev is D_h(x_prev, x_curr), computed by the caller for points it
    has checked. Returns (beta, shrinks, trial, grad h(trial)), grad h of
    the accepted trial only; trial and grad h are None when beta = 0.
    """
    direction = x_curr - x_prev
    bound = cfg.rho * C_k * dh_prev
    beta = cfg.beta0
    for shrinks in range(cfg.max_shrinks + 1):
        if beta == 0.0:
            return 0.0, shrinks, None, None
        trial = x_curr + beta * direction
        if kernel.in_interior_domain(trial):
            try:
                if kernel._bregman(x_curr, trial) <= bound:
                    return beta, shrinks, trial, kernel._gradient(trial)
            except NumericalError:
                pass
        beta *= cfg.eta
    return 0.0, cfg.max_shrinks, None, None


@np.errstate(all="ignore")
def bpge_solve(obj: CompositeObjective, x0: np.ndarray,
               cfg: SolverConfig, _extrapolate: bool = True) -> SolveResult:
    """Run the extrapolated Bregman proximal gradient iteration from x0.

    A step from y (x_curr when beta = 0) runs the prox to x_next, then
    grad h(x_next), D_h(x_curr, x_next), the line search for the next
    beta and y (it reads D_h, never f), one `smooth.evaluate` for f and
    grad f at x_next and grad f at that y (one product for Mx, M y
    carried), and the record. A failed line search ends the run at
    the start of the step it was for, after the tolerance test. Each new
    point gets one domain check (x0 here, each trial, each prox output);
    grad h is computed at x0, each prox output and each accepted trial.
    Float warnings are off, as in the public kernel methods: a step that
    overflows fails the loop's domain or finiteness test (numerical_failure).
    """
    if type(cfg) is not SolverConfig:
        raise ValidationError("cfg must be a SolverConfig, got %r" % (cfg,))
    if type(obj) is not CompositeObjective:
        raise ValidationError("obj must be a CompositeObjective: %r" % (obj,))
    kernel, smooth, nonsmooth = obj.kernel, obj.smooth, obj.nonsmooth
    x0 = kernel.require_interior(x0, "x0")
    L, mu = smooth.smad_constant(), smooth.weak_convexity_constant()
    if not (is_number(L) and 0.0 < L < math.inf
            and is_number(mu) and 0.0 <= mu < math.inf):
        raise ValidationError("the smooth term's constants must be finite, "
                              "L > 0 and mu >= 0, got %r and %r" % (L, mu))
    lam, tol = cfg.lam, cfg.tol
    if lam > (1.0 / L) * (1.0 + 1e-12):
        raise ValidationError("step size %g exceeds 1/L = %g" % (lam, 1.0 / L))
    inv_lam = 1.0 / lam
    C_k = inv_lam / (inv_lam + mu)
    relative = cfg.exit_mode == "iterate_relative"

    x_curr = x0.copy()
    u_curr, f_curr, grad_curr, _ = smooth.evaluate(x_curr, None, 0.0, None)
    psi_curr = f_curr + nonsmooth.value(x_curr)
    hgrad_curr = kernel._gradient(x_curr)
    ahead = (cfg.beta0 if _extrapolate else 0.0, 0, None, None)
    failed = False
    rows = array("d", (0, psi_curr, 0.0, psi_curr, 0.0, 0, np.nan, 0.0))
    exit_reason = EXIT_MAX_ITERATIONS
    start = time.perf_counter()

    for k in range(cfg.k_max):
        if failed:
            exit_reason = EXIT_NUMERICAL_FAILURE
            break
        beta, shrinks, y, hgrad_y = ahead
        if y is None:
            grad_y, hgrad_y = grad_curr, hgrad_curr
        try:
            x_next = nonsmooth._prox(kernel, hgrad_y - lam * grad_y, lam)
            if not kernel.in_interior_domain(x_next):
                raise NumericalError("prox left the kernel domain")
            hgrad_next = kernel._gradient(x_next)
            dh = kernel._bregman(x_curr, x_next)
            ahead = (0.0, 0, None, None)
            if _extrapolate:
                try:
                    ahead = line_search_beta(kernel, x_curr, x_next, cfg,
                                             C_k, dh)
                except (DomainError, NumericalError):
                    failed = True
            u_next, f_next, grad_next, grad_y_next = smooth.evaluate(
                x_next, u_curr, ahead[0], ahead[2])
            psi_next = f_next + nonsmooth.value(x_next)
            r = grad_next - grad_y - inv_lam * (hgrad_next - hgrad_y)
            residual = math.sqrt(r.dot(r))
            if not (math.isfinite(psi_next) and math.isfinite(dh)):
                raise NumericalError("non-finite objective or Bregman step")
        except (DomainError, NumericalError):
            exit_reason = EXIT_NUMERICAL_FAILURE
            break
        rows.extend((k + 1, psi_next, dh, psi_next + inv_lam * dh, beta,
                     shrinks, residual, time.perf_counter() - start))
        if relative:
            step = x_next - x_curr
            done = (math.sqrt(step.dot(step))
                    / max(1.0, math.sqrt(x_next.dot(x_next)))) <= tol
        else:  # the residual just recorded: r is in dPsi(x_next)
            done = residual <= tol * (1 + math.sqrt(grad_next.dot(grad_next)))
        x_curr, psi_curr, u_curr = x_next, psi_next, u_next
        grad_curr, hgrad_curr, grad_y = grad_next, hgrad_next, grad_y_next
        if done:
            exit_reason = EXIT_TOLERANCE
            break

    trace = Trace(np.frombuffer(rows).reshape(-1, len(_FIELDS)))
    return SolveResult(x_final=x_curr, psi_final=psi_curr,
                       iterations=len(trace) - 1, exit_reason=exit_reason,
                       trace=trace, config=cfg)


def bpg_solve(obj: CompositeObjective, x0, cfg: SolverConfig) -> SolveResult:
    """Plain Bregman proximal gradient: beta forced to 0, no line search."""
    return bpge_solve(obj, x0, cfg, _extrapolate=False)
