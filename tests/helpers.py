"""Independent oracles shared by the test modules.

These deliberately avoid the closed-form code paths they are used to
check: gradients come from central finite differences, prox solutions
from a dense grid plus Nelder-Mead refinement, the l1 shrink from a case
split, the scalar cubic from plain bisection, the three-point identity
from the public kernel methods, the Burg distance from 80-digit decimal
logarithms, trace CSVs from csv.writer over the records, and a run's
iterates from its prox outputs, and the blocked data-fit pass from its
per-block loop.
"""

import csv
import dataclasses
import decimal
import inspect
import math
from decimal import Decimal

import numpy as np
from scipy.optimize import minimize

from bregopt import BurgKernel, Kernel, NumericalError, harness
from bregopt.problems import NonsmoothTerm, _row_blocks


class ProxRecorder(NonsmoothTerm):
    """The nonsmooth term `inner`, keeping a copy of each prox output."""

    def __init__(self, inner):
        self.inner, self.outputs = inner, []

    def value(self, x):
        return self.inner.value(x)

    def prox(self, kernel, z, lam):
        x = self.inner.prox(kernel, z, lam)
        self.outputs.append(x.copy())
        return x


def solve_recording(solve, obj, x0, cfg):
    """(result, iterates) of solve(obj, x0, cfg), with obj's nonsmooth term
    wrapped in a ProxRecorder. The solvers call prox once per step, so the
    iterates are x0 and the first result.iterations prox outputs; a prox
    output that its step then rejected comes after them and is left out."""
    recorder = ProxRecorder(obj.nonsmooth)
    result = solve(dataclasses.replace(obj, nonsmooth=recorder), x0, cfg)
    x0 = np.array(x0, dtype=float)
    return result, [x0] + recorder.outputs[:result.iterations]


def burg_decimal(x, y, w=None, digits=80) -> Decimal:
    """sum_j w_j (t_j - ln t_j - 1), t = x/y, in `digits`-digit decimal
    arithmetic on the exact values of the floats: Burg's D_h(x, y), and at
    (u, b, b) the KL fit sum_i b_i log(b_i / u_i) + u_i - b_i."""
    w = np.ones(len(x)) if w is None else w
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        total = Decimal(0)
        for a, c, weight in zip(x, y, w):
            t = Decimal(float(a)) / Decimal(float(c))
            total += Decimal(float(weight)) * (t - t.ln() - 1)
        return total


def fd_gradient(fn, x, step=1e-6):
    g = np.zeros_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = step
        g[j] = (fn(x + e) - fn(x - e)) / (2.0 * step)
    return g


def shrink(z, tau):
    """The soft threshold of z by tau >= 0 as a case split: z moved tau
    towards 0 where |z| > tau, else a zero with the sign of z."""
    return np.where(np.abs(z) > tau, z - np.copysign(tau, z), 0.0 * z)


def prox_subproblem(kernel, g_value, y, grad, lam):
    """The map u -> g(u) + <grad, u - y> + D_h(u, y) / lam, inf off-domain."""
    def phi(u):
        u = np.asarray(u, dtype=float)
        if not kernel.in_interior_domain(u):
            return np.inf
        return (g_value(u) + float(np.dot(grad, u - y))
                + kernel.bregman(u, y) / lam)
    return phi


def prox_oracle(kernel, g_value, y, grad, lam, lo, hi, grid_n=41):
    """Dense-grid scan over [lo, hi]^d followed by Nelder-Mead refinement."""
    d = y.size
    assert d <= 3, "oracle is exponential in the dimension"
    phi = prox_subproblem(kernel, g_value, y, grad, lam)
    axes = [np.linspace(lo, hi, grid_n)] * d
    best_u, best_v = None, np.inf
    for point in np.stack(np.meshgrid(*axes), axis=-1).reshape(-1, d):
        v = phi(point)
        if v < best_v:
            best_u, best_v = point, v
    res = minimize(phi, best_u, method="Nelder-Mead",
                   options={"xatol": 1e-10, "fatol": 1e-14,
                            "maxiter": 20000, "maxfev": 20000})
    return (res.x, res.fun) if res.fun <= best_v else (best_u, best_v)


def bisect_cubic(s, tol=1e-13):
    """Root of r^3 + r = s by bisection on [0, max(1, s)]."""
    lo, hi = 0.0, max(1.0, s)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid ** 3 + mid < s:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def three_point_identity_residual(kernel, x, y, z) -> float:
    """D_h(x,z) - D_h(x,y) - D_h(y,z) - <grad h(y) - grad h(z), x - y>,
    identically zero in exact arithmetic."""
    x = kernel.require_interior(x, "x")
    y = kernel.require_interior(y, "y")
    z = kernel.require_interior(z, "z")
    lhs = kernel.bregman(x, z) - kernel.bregman(x, y) - kernel.bregman(y, z)
    rhs = float(np.dot(kernel.gradient(y) - kernel.gradient(z), x - y))
    return lhs - rhs


class FailingBurgKernel(BurgKernel):
    """Burg kernel whose n-th domain test raises NumericalError."""

    def __init__(self, dim, fail_at):
        super().__init__(dim)
        self.calls, self.fail_at, self.failed_in = 0, fail_at, None

    def in_interior_domain(self, x):
        self.calls += 1
        if self.calls == self.fail_at:
            self.failed_in = inspect.stack()[1].function
            raise NumericalError("boom")
        return super().in_interior_domain(x)


class TiltedConstantKernel(Kernel):
    """h = h0 on R with its gradient reported as c instead of 0, so that the
    default three-term formula gives D_h(x, y) = -c (x - y): rounding noise
    for a tiny c, a bug for a larger one."""

    def __init__(self, c, h0=0.0):
        super().__init__(1)
        self.c, self.h0 = c, h0

    def _value(self, x):
        return self.h0

    def _gradient(self, x):
        return np.full(1, self.c)

    def in_interior_domain(self, x):
        return bool(np.isfinite(x).all())


def _fmt(v):
    v = v.item() if isinstance(v, np.generic) else v
    return repr(v) if isinstance(v, float) else str(v)


def reference_trace_csv(result, path):
    """A trace CSV written by csv.writer, one IterationRecord at a time,
    each float printed by repr: what harness.write_trace_csv must match."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(harness.TRACE_HEADER)
        for rec in result.trace:
            writer.writerow([
                rec.k,
                _fmt(rec.psi),
                _fmt(abs(rec.psi - result.psi_final)),
                _fmt(rec.dh_step),
                _fmt(rec.lyapunov),
                _fmt(rec.beta_accepted),
                rec.shrink_count,
                _fmt(rec.residual),
                _fmt(rec.wall_time),
            ])


def rate_check_loop(result, slack=1e-10):
    """Check the O(1/K) bound on min_k D_h(x^{k-1}, x^k) along a trace.

    For every K with records 1..K+1 present, the bound is
    min_{1<=k<=K} dh_step <= (H_1 - H_{K+1}) / (K * (1 - rho) / lam) + slack,
    with H_k the trace's certificate. Returns (checked, max_slack): the
    number of K checked and the largest violation, negative when the bound
    holds everywhere with room to spare (0.0 when nothing is checked). The
    bound fails when `checked and max_slack > 0.0`.
    """
    inv_lam = 1.0 / result.config.lam
    denom_unit = inv_lam - result.config.rho * inv_lam
    trace = list(result.trace)
    max_slack, running_min = -np.inf, np.inf
    for K in range(1, len(trace) - 1):
        running_min = min(running_min, trace[K].dh_step)
        bound = (trace[1].lyapunov - trace[K + 1].lyapunov) / (K * denom_unit)
        max_slack = max(max_slack, running_min - bound - slack)
    return max(len(trace) - 2, 0), max_slack if len(trace) > 2 else 0.0


def reference_plip_draw(m, d, seed):
    """(A, b, x_true) of plip.generate_plip by its first formula, where
    1 - U[0, 1) is a second m x d array."""
    rng = np.random.default_rng([seed, 0])
    A = 1.0 - rng.random((m, d))
    while True:
        dead = np.max(A, axis=0) < 1e-12
        if not np.any(dead):
            break
        A[:, dead] = 1.0 - rng.random((m, int(np.sum(dead))))
    x_true = rng.random(d)
    while np.min(A @ x_true) <= 0.0:
        x_true = rng.random(d)
    return A, A @ x_true, x_true


def reference_qip_draw(m, d, seed):
    """(a, b, x_true) of qip.generate_qip drawn into fresh arrays: a from
    `standard_normal((m, d))`, then x_true's support and values."""
    rng = np.random.default_rng([seed, 0])
    a = rng.standard_normal((m, d))
    nnz = math.ceil(0.05 * d)
    support = rng.choice(d, size=nnz, replace=False)
    x_true = np.zeros(d)
    x_true[support] = rng.standard_normal(nnz)
    return a, (a @ x_true) ** 2, x_true


def reference_qip_bounds(a, b):
    """(smad_constant(), weak_convexity_constant()) of a qip instance's
    `QipSmooth` from one unblocked row-norm pass, n2 = sum(a * a, axis=1)."""
    n2 = np.sum(a * a, axis=1)
    return (float(np.sum(3.0 * n2 * n2 + n2 * np.abs(b))),
            float(np.sum(n2 * np.abs(b))))


def blocked_evaluate_loop(smooth, x, u_prev, beta, y):
    """`smooth.evaluate(x, u_prev, beta, y)` of a `LinearModelSmooth` by the
    per-block loop: per row block of `_row_blocks`, u_B = M_B x, phi'(u_B),
    the carry u_B + beta (u_B - u_prev_B), its domain test and phi' of it,
    then G += W_B M_B; phi(u) at the end. A one-row gradient, with no y or
    after a failed carry, is M^T phi'(u) instead, and grad f(y) after a
    failed carry M^T phi'(M y)."""
    M, b, phi = smooth.M, smooth.inst.b, smooth._phi
    carried = y is not None
    u = np.empty(M.shape[0])
    W = np.zeros((1 + carried, M.shape[0]))
    G = np.zeros((len(W), M.shape[1]))
    for rows in _row_blocks(M):
        M_B, b_B = M[rows], b[rows]
        u_B = np.matmul(M_B, x, out=u[rows])
        W_B = W[:, rows]
        W_B[0] = phi(u_B, b_B, False)[1]
        if carried:
            u_y = u_B + beta * (u_B - u_prev[rows])
            carried = smooth._in_domain(u_y)
            W_B[1] = phi(u_y, b_B, False)[1]
        G += W_B @ M_B
    if carried:
        return u, phi(u, b)[0], G[0], G[1]
    grad_y = None if y is None else M.T @ phi(M @ y, b, False)[1]
    return u, phi(u, b)[0], M.T @ W[0], grad_y


def lyapunov_increase_loop(trace):
    """Largest rise of H_k beyond 1e-10 * max(1, |H_{k-1}|), at least 0."""
    worst = 0.0
    for prev, curr in zip(trace, trace[1:]):
        slack = 1e-10 * max(1.0, abs(prev.lyapunov))
        worst = max(worst, curr.lyapunov - prev.lyapunov - slack)
    return worst
