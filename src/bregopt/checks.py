"""Runtime invariant suite backing the `check` CLI subcommand and
`bregopt.check_smad`; every check returns a CheckOutcome.

These are the same guards the test suite exercises, packaged so a seeded
instance can be vetted from the command line: finite-difference gradient
agreement, the sampled descent envelopes, the first-order condition of
the closed-form prox, and monotonicity of the descent certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from . import harness
from .errors import ValidationError
from .kernels import BurgKernel, check_count
from .problems import CompositeObjective, check_seed
from .solvers import SolverConfig, bpge_solve


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    passed: bool
    detail: str


def _sampler(kernel):
    """Random interior points used by the sampling checks below."""
    d = kernel.dim
    if isinstance(kernel, BurgKernel):
        return lambda rng: rng.uniform(0.05, 3.0, d)
    return lambda rng: rng.standard_normal(d)


def finite_difference_gradient(fn, x, step: float = 1e-6) -> np.ndarray:
    g = np.zeros_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = step
        g[j] = (fn(x + e) - fn(x - e)) / (2.0 * step)
    return g


def _check_gradient(obj, rng, points: int = 20) -> CheckOutcome:
    sampler = _sampler(obj.kernel)
    worst = 0.0
    for _ in range(points):
        x = sampler(rng)
        g = obj.smooth.gradient(x)
        fd = finite_difference_gradient(obj.smooth.value, x)
        err = np.linalg.norm(g - fd) / max(1.0, np.linalg.norm(g))
        worst = max(worst, err)
    return CheckOutcome("gradient_fd", worst < 1e-5,
                        "max relative error %.3e" % worst)


def check_smad(obj, samples: int = 1000, rng_seed: int = 0) -> CheckOutcome:
    """Sampling check of the descent envelopes |gap| <= L*D_h and gap >= -mu*D_h.

    gap = f(x) - f(y) - <grad f(y), x - y> over random interior pairs. A
    sample fails when either envelope is violated by more than
    1e-8 * (1 + |f(x)|). This is a regression guard, not a certification.
    It needs an integer samples >= 1 and an integer rng_seed >= 0.
    """
    check_count(samples, "samples")
    check_seed(rng_seed)
    if type(obj) is not CompositeObjective:
        raise ValidationError("obj must be a CompositeObjective: %r" % (obj,))
    sampler = _sampler(obj.kernel)
    rng = np.random.default_rng(rng_seed)
    L, mu = obj.smooth.smad_constant(), obj.smooth.weak_convexity_constant()
    max_upper = max_lower = -np.inf
    failures = 0
    for _ in range(samples):
        x, y = sampler(rng), sampler(rng)
        fx = obj.smooth.value(x)
        gap = fx - obj.smooth.value(y) - float(np.dot(obj.smooth.gradient(y), x - y))
        dh = obj.kernel.bregman(x, y)
        upper = abs(gap) - L * dh
        lower = -gap - mu * dh
        max_upper = max(max_upper, upper)
        max_lower = max(max_lower, lower)
        if max(upper, lower) > 1e-8 * (1.0 + abs(fx)):
            failures += 1
    detail = "max upper %.3e, max lower %.3e" % (max_upper, max_lower)
    return CheckOutcome("smad_envelopes", failures == 0, detail)


def _prox_residual(obj, y, lam: float) -> float:
    """Largest violation at the prox output u of grad h(u) + tau sign(u) = c
    (u != 0), |c| <= tau (u = 0); c the mirror point of y, tau = lam w."""
    kernel = obj.kernel
    tau = lam * obj.nonsmooth.weight
    c = kernel.gradient(y) - lam * obj.smooth.gradient(y)
    u = obj.nonsmooth.prox(kernel, c, lam)
    r = np.where(u != 0.0, np.abs(kernel.gradient(u) + tau * np.sign(u) - c),
                 np.abs(c) - tau)
    return float(np.max(r, initial=0.0))


def _check_prox(obj, rng, calls: int = 20) -> CheckOutcome:
    """First-order condition of the prox output at random interior points."""
    sampler = _sampler(obj.kernel)
    lam = 1.0 / obj.smooth.smad_constant()
    worst = max(_prox_residual(obj, sampler(rng), lam) for _ in range(calls))
    return CheckOutcome("prox_first_order", worst < 1e-8,
                        "max residual %.3e" % worst)


def _check_lyapunov(obj, x0) -> CheckOutcome:
    cfg = SolverConfig(lam=1.0 / obj.smooth.smad_constant(), k_max=200)
    H = bpge_solve(obj, x0, cfg).trace.column("lyapunov")
    slack = 1e-10 * np.maximum(1.0, np.abs(H[:-1]))
    worst = float(np.max(H[1:] - H[:-1] - slack, initial=0.0))
    return CheckOutcome("lyapunov_monotone", worst <= 0.0,
                        "max increase beyond slack %.3e" % worst)


def run_invariant_checks(problem: str, m: int, d: int, seed: int,
                         theta: float = 1.0) -> List[CheckOutcome]:
    inst = harness.generate_instance(problem, m, d, seed, theta=theta)
    obj, x0 = harness.problem_bundle(problem, inst)
    rng = np.random.default_rng([seed, 2])
    return [
        _check_gradient(obj, rng),
        check_smad(obj, samples=200, rng_seed=seed),
        _check_prox(obj, rng),
        _check_lyapunov(obj, x0),
    ]
