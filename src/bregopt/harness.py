"""Experiment orchestration: seeded instances, sweeps, and CSV emission.

A sweep runs solver-vs-solver comparisons over a grid of problem sizes,
step-size rules and line-search rho values. Every cell derives its own
seed from the master seed so cells are independent yet reproducible, and
both solvers in a cell share the same instance and the same start point.
CSV output is deterministic modulo the wall-time columns.
"""

from __future__ import annotations

import csv
import hashlib
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Sequence, Tuple

import numpy as np

from . import plip, qip
from .errors import ValidationError
from .solvers import (
    EXIT_MODES,
    LineSearchConfig,
    SolveResult,
    SolverConfig,
    bpg_solve,
    bpge_solve,
)

PROBLEMS = ("plip", "qip")
LAMBDA_RULES = {"1/L": 1.0, "1/2L": 2.0, "1/3L": 3.0}
SOLVERS = ("bpg", "bpge", "pg", "pge")

TRACE_HEADER = ("iter", "psi", "psi_gap", "dh_step", "lyapunov", "beta",
                "shrinks", "residual", "cum_time_s")
# Columns excluded from determinism comparisons.
TIMING_COLUMNS = ("cum_time_s", "T_bpge", "T_bpg", "T_ratio")


def require_bregman_solver(solver: str, problem: str) -> None:
    """Reject pg/pge: neither shipped problem has a Lipschitz gradient."""
    if solver in ("pg", "pge"):
        raise ValidationError(
            "%s cannot be applied to %s: the smooth part has no globally "
            "Lipschitz gradient" % (solver, problem)
        )


@dataclass(frozen=True)
class ExperimentSpec:
    problem: str
    sizes: Sequence[Tuple[int, int]]
    lambdas: Sequence[str] = ("1/L",)
    rhos: Sequence[float] = (0.99,)
    solvers: Sequence[str] = ("bpge", "bpg")
    seed: int = 0
    repetitions: int = 1
    tol: float = 1e-6
    k_max: int = 5000
    exit_mode: str = "iterate_relative"
    beta0: float = 0.99
    eta: float = 0.5
    theta: float = 1.0

    def __post_init__(self):
        if self.problem not in PROBLEMS:
            raise ValidationError("problem must be one of %s" % (PROBLEMS,))
        if not self.sizes:
            raise ValidationError("sizes must be nonempty")
        for pair in self.sizes:
            if len(pair) != 2 or pair[0] < 1 or pair[1] < 1:
                raise ValidationError("each size must be a positive (m, d) pair")
        for rule in self.lambdas:
            if rule not in LAMBDA_RULES:
                raise ValidationError(
                    "unknown lambda rule %r (expected one of %s)"
                    % (rule, sorted(LAMBDA_RULES))
                )
        for rho in self.rhos:
            if not 0.0 < rho < 1.0:
                raise ValidationError("rho must be in (0, 1)")
        for solver in self.solvers:
            if solver not in SOLVERS:
                raise ValidationError("unknown solver %r" % (solver,))
            require_bregman_solver(solver, self.problem)
        for name in ("seed", "repetitions", "k_max"):
            value = getattr(self, name)
            if (isinstance(value, bool)
                    or not isinstance(value, (int, np.integer))):
                raise ValidationError("%s must be an integer" % name)
        if self.repetitions < 1:
            raise ValidationError("repetitions must be positive")
        if self.exit_mode not in EXIT_MODES:
            raise ValidationError("exit_mode must be one of %s" % (EXIT_MODES,))

    @staticmethod
    def from_dict(doc: dict) -> "ExperimentSpec":
        known = {f for f in ExperimentSpec.__dataclass_fields__}
        unknown = set(doc) - known
        if unknown:
            raise ValidationError("unknown spec fields: %s" % sorted(unknown))
        if "problem" not in doc or "sizes" not in doc:
            raise ValidationError("spec needs at least 'problem' and 'sizes'")
        doc = dict(doc)
        doc["sizes"] = tuple((int(m), int(d)) for m, d in doc["sizes"])
        for key in ("lambdas", "rhos", "solvers"):
            if key in doc:
                doc[key] = tuple(doc[key])
        return ExperimentSpec(**doc)


@dataclass(frozen=True)
class ComparisonRow:
    m: int
    d: int
    lambda_rule: str
    rho: float
    rep: int
    T_bpge: float
    T_ratio: float
    N_bpge: int
    N_ratio: float
    exit_bpge: str
    exit_bpg: str
    T_bpg: float = np.nan
    N_bpg: int = 0


def derive_seed(master_seed: int, *parts) -> int:
    """Stable per-cell seed from the master seed and cell coordinates."""
    digest = hashlib.sha256(repr((master_seed,) + parts).encode()).digest()
    return int.from_bytes(digest[:8], "little")


def generate_instance(problem: str, m: int, d: int, seed: int,
                      theta: float = 1.0):
    if problem == "plip":
        return plip.generate_plip(m, d, seed)
    if problem == "qip":
        return qip.generate_qip(m, d, seed, theta=theta)
    raise ValidationError("unknown problem %r" % (problem,))


def problem_bundle(problem: str, inst):
    """(objective, x0) for a generated instance."""
    if problem == "plip":
        return plip.make_objective(inst), plip.default_x0(inst)
    if problem == "qip":
        return qip.make_objective(inst), qip.default_x0(inst)
    raise ValidationError("unknown problem %r" % (problem,))


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_trace_csv(result: SolveResult, path) -> None:
    """Per-iteration trace with the objective gap taken against the run's
    own terminal objective value."""
    psi_final = result.psi_final
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        for rec in result.trace:
            writer.writerow([
                rec.k,
                _fmt(rec.psi),
                _fmt(abs(rec.psi - psi_final)),
                _fmt(rec.dh_step),
                _fmt(rec.lyapunov),
                _fmt(rec.beta_accepted),
                rec.shrink_count,
                _fmt(rec.residual),
                _fmt(rec.wall_time),
            ])


def emit_convergence_curves(results: dict, out_dir) -> List[Path]:
    """Write one trace CSV per named run; returns the written paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, result in results.items():
        path = out_dir / ("trace_%s.csv" % name)
        write_trace_csv(result, path)
        paths.append(path)
    return paths


def _run_cell(spec: ExperimentSpec, m: int, d: int, li: int, ri: int,
              rep: int):
    rule = spec.lambdas[li]
    rho = spec.rhos[ri]
    cell_seed = derive_seed(spec.seed, m, d, li, ri, rep)
    inst = generate_instance(spec.problem, m, d, cell_seed, theta=spec.theta)
    obj, x0 = problem_bundle(spec.problem, inst)
    lam = 1.0 / (LAMBDA_RULES[rule] * obj.smooth.smad_constant())
    cfg = SolverConfig(
        lam=lam,
        line_search=LineSearchConfig(beta0=spec.beta0, eta=spec.eta, rho=rho),
        tol=spec.tol,
        k_max=spec.k_max,
        exit_mode=spec.exit_mode,
    )
    results = {}
    times = {}
    for solver in spec.solvers:
        run = bpge_solve if solver == "bpge" else bpg_solve
        start = time.perf_counter()
        results[solver] = run(obj, x0, cfg)
        times[solver] = time.perf_counter() - start
    bpge_res = results.get("bpge")
    bpg_res = results.get("bpg")
    n_bpge = bpge_res.iterations if bpge_res else 0
    n_bpg = bpg_res.iterations if bpg_res else 0
    t_bpge = times.get("bpge", np.nan)
    t_bpg = times.get("bpg", np.nan)
    row = ComparisonRow(
        m=m, d=d, lambda_rule=rule, rho=rho, rep=rep,
        T_bpge=t_bpge,
        T_ratio=t_bpge / t_bpg if bpg_res else np.nan,
        N_bpge=n_bpge,
        N_ratio=n_bpge / n_bpg if (bpg_res and n_bpg) else np.nan,
        exit_bpge=bpge_res.exit_reason if bpge_res else "",
        exit_bpg=bpg_res.exit_reason if bpg_res else "",
        T_bpg=t_bpg,
        N_bpg=n_bpg,
    )
    return row, results


def run_comparison(spec: ExperimentSpec, out_dir=None) -> List[ComparisonRow]:
    """Run every (size x lambda x rho x rep) cell of the sweep, in order.

    Writes one trace CSV per run plus an aggregate comparison table when
    out_dir is given. A numerical failure inside a run is recorded in its
    row, not fatal to the sweep.
    """
    cells = [
        (m, d, li, ri, rep)
        for (m, d) in spec.sizes
        for li in range(len(spec.lambdas))
        for ri in range(len(spec.rhos))
        for rep in range(spec.repetitions)
    ]
    outcomes = [_run_cell(spec, *c) for c in cells]

    rows = [row for row, _ in outcomes]
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for (m, d, li, ri, rep), (_, results) in zip(cells, outcomes):
            for solver, result in results.items():
                name = "%s_m%d_d%d_lam%d_rho%d_rep%d_%s" % (
                    spec.problem, m, d, li, ri, rep, solver,
                )
                write_trace_csv(result, out_dir / ("trace_%s.csv" % name))
        write_comparison_csv(rows, out_dir / "comparison.csv")
    return rows


def write_comparison_csv(rows: Sequence[ComparisonRow], path) -> None:
    header = ("m", "d", "lambda_rule", "rho", "rep",
              "T_bpge", "T_bpg", "T_ratio",
              "N_bpge", "N_bpg", "N_ratio",
              "exit_bpge", "exit_bpg")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for r in rows:
            writer.writerow([
                r.m, r.d, r.lambda_rule, _fmt(r.rho), r.rep,
                _fmt(r.T_bpge), _fmt(r.T_bpg), _fmt(r.T_ratio),
                r.N_bpge, r.N_bpg, _fmt(r.N_ratio),
                r.exit_bpge, r.exit_bpg,
            ])


def strip_timing_columns(csv_text: str) -> str:
    """Drop wall-time columns, for byte-level determinism comparisons."""
    lines = csv_text.splitlines()
    if not lines:
        return ""
    header = lines[0].split(",")
    keep = [i for i, name in enumerate(header) if name not in TIMING_COLUMNS]
    out = []
    for line in lines:
        parts = line.split(",")
        out.append(",".join(parts[i] for i in keep))
    return "\n".join(out) + "\n"
