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
import itertools
import os
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import List, Sequence, Tuple

import numpy as np

from . import plip, qip
from .errors import ValidationError
from .problems import check_size, check_theta, is_integer, is_number
from .solvers import (
    LineSearchConfig,
    SolveResult,
    SolverConfig,
    bpg_solve,
    bpge_solve,
)

PROBLEM_MODULES = {"plip": plip, "qip": qip}
PROBLEMS = tuple(PROBLEM_MODULES)
LAMBDA_RULES = {"1/L": 1.0, "1/2L": 2.0, "1/3L": 3.0}
SOLVERS = ("bpge", "bpg")

TRACE_HEADER = ("iter", "psi", "psi_gap", "dh_step", "lyapunov", "beta",
                "shrinks", "residual", "cum_time_s")
# Columns excluded from determinism comparisons.
TIMING_COLUMNS = ("cum_time_s", "T_bpge", "T_bpg", "T_ratio")


def _is_size(v) -> bool:
    return (isinstance(v, (list, tuple)) and len(v) == 2
            and all(map(is_integer, v)))


def _list_of(test):
    return lambda v: isinstance(v, (list, tuple)) and all(map(test, v))


# Spec field types, checked before any range check so that a value of the
# wrong type never reaches a comparison.
_FIELD_TYPES = (
    (("seed", "repetitions", "k_max"), is_integer, "an integer"),
    (("tol", "beta0", "eta", "theta"), is_number, "a number"),
    (("rhos",), _list_of(is_number), "a list of numbers"),
    (("lambdas", "solvers"), _list_of(lambda v: isinstance(v, str)),
     "a list of strings"),
    (("sizes",), _list_of(_is_size), "a list of [m, d] integer pairs"),
)


@dataclass(frozen=True)
class ExperimentSpec:
    problem: str
    sizes: Sequence[Tuple[int, int]]
    lambdas: Sequence[str] = ("1/L",)
    rhos: Sequence[float] = (LineSearchConfig.rho,)
    solvers: Sequence[str] = ("bpge", "bpg")
    seed: int = 0
    repetitions: int = 1
    tol: float = SolverConfig.tol
    k_max: int = SolverConfig.k_max
    exit_mode: str = SolverConfig.exit_mode
    beta0: float = LineSearchConfig.beta0
    eta: float = LineSearchConfig.eta
    theta: float = 1.0

    def __post_init__(self):
        if self.problem not in PROBLEMS:
            raise ValidationError("problem must be one of %s" % (PROBLEMS,))
        for names, test, what in _FIELD_TYPES:
            for name in names:
                if not test(getattr(self, name)):
                    raise ValidationError("%s must be %s" % (name, what))
        for name in ("sizes", "lambdas", "rhos", "solvers"):
            if not getattr(self, name):
                raise ValidationError("%s must be nonempty" % name)
        for m, d in self.sizes:
            check_size(m, d)
        for rule in self.lambdas:
            if rule not in LAMBDA_RULES:
                raise ValidationError(
                    "unknown lambda rule %r (expected one of %s)"
                    % (rule, sorted(LAMBDA_RULES))
                )
        for rho in self.rhos:  # beta0, eta, rho, tol, k_max and exit_mode
            self.solver_config(1.0, "1/L", rho)
        check_theta(self.theta)
        for solver in self.solvers:
            if solver not in SOLVERS:
                raise ValidationError("unknown solver %r" % (solver,))
        if self.repetitions < 1:
            raise ValidationError("repetitions must be positive")

    def solver_config(self, L: float, rule: str, rho: float) -> SolverConfig:
        """One cell's configuration; lam = 1 / (c L) for lambda rule 1/cL."""
        return SolverConfig(
            lam=1.0 / (LAMBDA_RULES[rule] * L),
            line_search=LineSearchConfig(beta0=self.beta0, eta=self.eta,
                                         rho=rho),
            tol=self.tol,
            k_max=self.k_max,
            exit_mode=self.exit_mode,
        )

    @staticmethod
    def from_dict(doc: dict) -> "ExperimentSpec":
        if not isinstance(doc, dict):
            raise ValidationError("a spec must be a JSON object")
        known = {f for f in ExperimentSpec.__dataclass_fields__}
        unknown = set(doc) - known
        if unknown:
            raise ValidationError("unknown spec fields: %s" % sorted(unknown))
        if "problem" not in doc or "sizes" not in doc:
            raise ValidationError("spec needs at least 'problem' and 'sizes'")
        doc = dict(doc)
        for key in ("sizes", "lambdas", "rhos", "solvers"):
            if isinstance(doc.get(key), list):
                doc[key] = tuple(tuple(v) if isinstance(v, list) else v
                                 for v in doc[key])
        return ExperimentSpec(**doc)


@dataclass(frozen=True)
class ComparisonRow:
    """One sweep cell; the fields are comparison.csv's columns, in order.
    A solver the spec does not run keeps its defaults."""

    m: int
    d: int
    lambda_rule: str
    rho: float
    rep: int
    T_bpge: float = np.nan
    T_bpg: float = np.nan
    T_ratio: float = np.nan
    N_bpge: int = 0
    N_bpg: int = 0
    N_ratio: float = np.nan
    exit_bpge: str = ""
    exit_bpg: str = ""


def _plain(v):
    """A numpy scalar as the Python value it holds, so that it hashes and
    prints like that value; anything else unchanged."""
    return v.item() if isinstance(v, np.generic) else v


def derive_seed(master_seed: int, *parts) -> int:
    """Stable per-cell seed from the master seed and cell coordinates."""
    key = tuple(map(_plain, (master_seed,) + parts))
    digest = hashlib.sha256(repr(key).encode()).digest()
    return int.from_bytes(digest[:8], "little")


def problem_module(problem: str):
    if problem not in PROBLEM_MODULES:
        raise ValidationError("unknown problem %r" % (problem,))
    return PROBLEM_MODULES[problem]


def generate_instance(problem: str, m: int, d: int, seed: int,
                      theta: float = 1.0):
    return problem_module(problem).generate(m, d, seed, theta=theta)


def problem_bundle(problem: str, inst):
    """(objective, x0) for a generated instance."""
    module = problem_module(problem)
    return module.make_objective(inst), module.default_x0(inst)


def _fmt(v) -> str:
    v = _plain(v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


# One trace row as csv.writer prints it, every float by repr.
_TRACE_ROW = "%d,%r,%r,%r,%r,%r,%d,%r,%r\r\n"


def write_trace_csv(result: SolveResult, path) -> None:
    """Per-iteration trace with the objective gap taken against the run's
    own terminal objective value."""
    psi_final = float(result.psi_final)  # np.float64 would print its type
    rows = "".join(_TRACE_ROW % (k, psi, abs(psi - psi_final), dh, h, beta,
                                 shrinks, residual, t)
                   for k, psi, dh, h, beta, shrinks, residual, t
                   in result.trace.data.tolist())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(TRACE_HEADER) + "\r\n" + rows)


def run_cell(spec: ExperimentSpec, m: int, d: int, rule: str, rho: float,
             seed: int, rep: int = 0):
    """Every solver of the spec on the instance generated from seed, from
    one start point. Returns (ComparisonRow, {solver: SolveResult})."""
    inst = generate_instance(spec.problem, m, d, seed, theta=spec.theta)
    obj, x0 = problem_bundle(spec.problem, inst)
    cfg = spec.solver_config(obj.smooth.smad_constant(), rule, rho)
    results, cols = {}, {}
    for solver in spec.solvers:
        run = bpge_solve if solver == "bpge" else bpg_solve
        start = time.perf_counter()
        result = results[solver] = run(obj, x0, cfg)
        cols["T_" + solver] = time.perf_counter() - start
        cols["N_" + solver] = result.iterations
        cols["exit_" + solver] = result.exit_reason
    row = ComparisonRow(m, d, rule, rho, rep, **cols)
    if "bpg" in results:
        row = replace(row, T_ratio=row.T_bpge / row.T_bpg,
                      N_ratio=row.N_bpge / row.N_bpg if row.N_bpg else np.nan)
    return row, results


def run_comparison(spec: ExperimentSpec, out_dir=None,
                   jobs: int = 1) -> List[ComparisonRow]:
    """Run every (size x lambda x rho x rep) cell of the sweep, in order,
    on min(jobs, cells, usable CPUs) processes: this one runs cell i if
    i % jobs == 0 and forked workers run the rest, each cell submitted once
    this one is within 2 jobs cells of it (without fork, this one runs all).
    Creates out_dir, if given, before the first cell; writes each run's
    trace CSV when this one reaches its cell and comparison.csv at the end,
    the files of jobs = 1. A cell's exception is raised at its turn, a dead
    worker's as BrokenProcessPool; a run's numerical failure is in its row."""
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
    cells = [("trace_%s_m%d_d%d_lam%d_rho%d_rep%d_" % (spec.problem, m, d,
                                                        li, ri, rep),
              (spec, m, d, spec.lambdas[li], spec.rhos[ri],
               derive_seed(spec.seed, m, d, li, ri, rep), rep))
             for (m, d), li, ri, rep in itertools.product(
                 spec.sizes, range(len(spec.lambdas)), range(len(spec.rhos)),
                 range(spec.repetitions))]
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    jobs, pool = min(jobs, len(cells), cpus), None
    if jobs > 1:  # fork: workers start without importing numpy again and
        import multiprocessing as mp  # leave no tracker or server running
        from concurrent.futures import ProcessPoolExecutor as Pool
        if "fork" in mp.get_all_start_methods():
            pool = Pool(jobs - 1, mp_context=mp.get_context("fork"))
    rows, futures = [], {}
    try:
        for i, (stem, args) in enumerate(cells):
            for j in range(i, min(i + 2 * jobs, len(cells))):
                if pool is not None and j % jobs and j not in futures:
                    futures[j] = pool.submit(run_cell, *cells[j][1])
            row, results = (futures.pop(i).result() if i in futures
                            else run_cell(*args))
            rows.append(row)
            if out_dir is not None:
                for solver, result in results.items():
                    write_trace_csv(result, out_dir / (stem + solver + ".csv"))
            del results  # before the next cell runs
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    if out_dir is not None:
        write_comparison_csv(rows, out_dir / "comparison.csv")
    return rows


def write_comparison_csv(rows: Sequence[ComparisonRow], path) -> None:
    header = [f.name for f in fields(ComparisonRow)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for r in rows:
            writer.writerow([_fmt(getattr(r, name)) for name in header])


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
