"""Bregman proximal gradient iterations, with and without extrapolation.

The extrapolated solver forms y^k = x^k + beta_k (x^k - x^{k-1}) with
beta_k found by geometric line search, then takes a Bregman proximal step
from y^k. Forcing beta_k = 0 recovers the plain Bregman proximal gradient
method; with the Euclidean kernel both reduce to the classical proximal
gradient iterations.

Every run records a full per-iteration trace (objective, Bregman step,
descent certificate H_k = Psi(x^k) + D_h(x^{k-1}, x^k) / lam, accepted beta,
stationarity residual, wall time).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import ClassVar, List, Optional

import numpy as np

from .errors import DomainError, NumericalError, ValidationError
from .kernels import Kernel
from .problems import CompositeObjective, is_integer, is_number

EXIT_TOLERANCE = "tolerance"
EXIT_MAX_ITERATIONS = "max_iterations"
EXIT_NUMERICAL_FAILURE = "numerical_failure"

EXIT_MODES = ("iterate_relative", "objective_relative")


@dataclass(frozen=True)
class LineSearchConfig:
    """Geometric backoff parameters for the extrapolation line search."""

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


@dataclass(frozen=True)
class SolverConfig:
    """Fixed-step solver configuration."""

    lam: float
    line_search: LineSearchConfig = field(default_factory=LineSearchConfig)
    tol: float = 1e-6
    k_max: int = 5000
    exit_mode: str = "iterate_relative"
    keep_iterates: bool = False

    def __post_init__(self):
        for name in ("lam", "tol"):
            v = getattr(self, name)
            if not (is_number(v) and math.isfinite(v) and v > 0.0):
                raise ValidationError("%s must be positive and finite" % name)
        if not (is_integer(self.k_max) and self.k_max >= 1):
            raise ValidationError("k_max must be a positive integer")
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


@dataclass(frozen=True)
class SolveResult:
    x_final: np.ndarray
    psi_final: float
    iterations: int
    exit_reason: str
    trace: List[IterationRecord]
    config: SolverConfig
    iterates: Optional[List[np.ndarray]] = None


def line_search_beta(kernel: Kernel, x_prev: np.ndarray, x_curr: np.ndarray,
                     cfg: LineSearchConfig, C_k: float, dh_prev: float):
    """First beta in {beta0, eta*beta0, ...} whose trial point is admissible.

    Admissible means the trial x_curr + beta*(x_curr - x_prev) lies in the
    interior of the kernel domain and
    D_h(x_curr, trial) <= rho * C_k * D_h(x_prev, x_curr). A trial outside
    the domain counts as a failed test and keeps shrinking. Falls back to
    beta = 0 after max_shrinks, which always satisfies the condition.
    dh_prev is D_h(x_prev, x_curr), which the caller has already computed
    for points it has checked.
    Returns (beta, shrinks).
    """
    direction = x_curr - x_prev
    if not direction.any():
        return cfg.beta0, 0
    bound = cfg.rho * C_k * dh_prev
    beta = cfg.beta0
    for shrinks in range(cfg.max_shrinks + 1):
        if beta == 0.0:
            return 0.0, shrinks
        trial = x_curr + beta * direction
        if kernel.in_interior_domain(trial):
            try:
                if kernel._bregman(x_curr, trial) <= bound:
                    return beta, shrinks
            except NumericalError:
                pass
        beta *= cfg.eta
    return 0.0, cfg.max_shrinks


def bpge_solve(obj: CompositeObjective, x0: np.ndarray,
               cfg: SolverConfig, _extrapolate: bool = True) -> SolveResult:
    """Run the extrapolated Bregman proximal gradient iteration from x0.

    Each new point is checked against the kernel domain once: x0 here,
    each line-search trial in `line_search_beta` and each prox output
    below. f and grad f come from one `smooth.forward` per iterate, grad h
    once per new point, and grad f, grad h and D_h are carried over to the
    next iteration where it needs them at the same point. At an
    extrapolated y, `smooth.carry` forms forward(y) from those held: for
    f(x) = phi(Mx), M y = M x + beta (M x - M x_prev) with no product.
    """
    kernel = obj.kernel
    smooth, nonsmooth = obj.smooth, obj.nonsmooth
    x0 = kernel.require_interior(np.asarray(x0, dtype=float), "x0")
    L = smooth.smad_constant()
    if cfg.lam > (1.0 / L) * (1.0 + 1e-12):
        raise ValidationError(
            "step size %g exceeds 1/L = %g" % (cfg.lam, 1.0 / L)
        )
    inv_lam = 1.0 / cfg.lam
    mu = smooth.weak_convexity_constant()
    C_k = inv_lam / (inv_lam + mu)

    x_prev = x_curr = x0.copy()
    u_prev = u_curr = smooth.forward(x_curr)
    f_curr, grad_curr = smooth.at_forward(u_curr)
    psi_curr = f_curr + nonsmooth.value(x_curr)
    hgrad_curr = kernel._gradient(x_curr)
    dh = 0.0  # D_h(x_prev, x_curr)
    trace = [IterationRecord(0, psi_curr, 0.0, psi_curr, 0.0, 0, np.nan, 0.0)]
    iterates = [x0.copy()] if cfg.keep_iterates else None
    exit_reason = EXIT_MAX_ITERATIONS
    start = time.perf_counter()

    for k in range(cfg.k_max):
        try:
            if _extrapolate:
                beta, shrinks = line_search_beta(kernel, x_prev, x_curr,
                                                 cfg.line_search, C_k, dh)
            else:
                beta, shrinks = 0.0, 0
            if beta != 0.0:
                y = x_curr + beta * (x_curr - x_prev)
                grad_y = smooth.at_forward(
                    smooth.carry(u_curr, u_prev, beta, y), value=False)[1]
                hgrad_y = kernel._gradient(y)
            else:
                grad_y, hgrad_y = grad_curr, hgrad_curr
            x_next = nonsmooth.prox(kernel, hgrad_y - cfg.lam * grad_y,
                                    cfg.lam)
            if not kernel.in_interior_domain(x_next):
                raise NumericalError("prox left the kernel domain")
            u_next = smooth.forward(x_next)
            f_next, grad_curr = smooth.at_forward(u_next)
            psi_next = f_next + nonsmooth.value(x_next)
            hgrad_curr = kernel._gradient(x_next)
            dh = kernel._bregman(x_curr, x_next, hgrad_curr)
            r = grad_curr - grad_y - inv_lam * (hgrad_curr - hgrad_y)
            residual = math.sqrt(float(np.dot(r, r)))
            if not (math.isfinite(psi_next) and math.isfinite(dh)):
                raise NumericalError("non-finite objective or Bregman step")
        except (DomainError, NumericalError):
            exit_reason = EXIT_NUMERICAL_FAILURE
            break
        trace.append(IterationRecord(
            k + 1, psi_next, dh, psi_next + inv_lam * dh, beta, shrinks,
            residual, time.perf_counter() - start,
        ))
        if iterates is not None:
            iterates.append(x_next.copy())
        if cfg.exit_mode == "iterate_relative":
            step = x_next - x_curr
            gap = (math.sqrt(float(np.dot(step, step)))
                   / max(1.0, math.sqrt(float(np.dot(x_next, x_next)))))
        else:
            gap = abs(psi_next - psi_curr) / max(1.0, abs(psi_next))
        x_prev, x_curr, psi_curr = x_curr, x_next, psi_next
        u_prev, u_curr = u_curr, u_next
        if gap <= cfg.tol:
            exit_reason = EXIT_TOLERANCE
            break

    return SolveResult(
        x_final=x_curr,
        psi_final=psi_curr,
        iterations=trace[-1].k,
        exit_reason=exit_reason,
        trace=trace,
        config=cfg,
        iterates=iterates,
    )


def bpg_solve(obj: CompositeObjective, x0, cfg: SolverConfig) -> SolveResult:
    """Plain Bregman proximal gradient: beta forced to 0, no line search."""
    return bpge_solve(obj, x0, cfg, _extrapolate=False)


@dataclass(frozen=True)
class RateReport:
    checked: int
    max_slack: float

    @property
    def holds(self) -> bool:
        return self.checked == 0 or self.max_slack <= 0.0


def sublinear_rate_check(result: SolveResult, slack: float = 1e-10) -> RateReport:
    """Check the O(1/K) bound on min_k D_h(x^{k-1}, x^k) along a trace.

    For every K with records 1..K+1 present, verifies
    min_{1<=k<=K} dh_step <= (H_1 - H_{K+1}) / (K * (1 - rho) / lam) + slack.
    H_k is the trace's certificate, whose M is 1/lam. Returns the max
    violation (negative when the bound holds everywhere with room to spare).
    """
    cfg = result.config
    inv_lam = 1.0 / cfg.lam
    denom_unit = inv_lam - cfg.line_search.rho * inv_lam
    trace = result.trace
    max_slack = -np.inf
    checked = 0
    running_min = np.inf
    for K in range(1, len(trace) - 1):
        running_min = min(running_min, trace[K].dh_step)
        bound = (trace[1].lyapunov - trace[K + 1].lyapunov) / (K * denom_unit)
        max_slack = max(max_slack, running_min - bound - slack)
        checked += 1
    if checked == 0:
        max_slack = 0.0
    return RateReport(checked, max_slack)
