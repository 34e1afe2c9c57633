"""The benchmark's workloads: accept-grid, matvec-large and cli-sweep.

Each workload is a closed loop in a single process: the next solve (or
sweep invocation) starts when the previous one has returned. The work of
one pass is fixed by the seed, and a run repeats it as many times as fit
in its --seconds, so every count and hash is the same on every pass and
every run with that seed. Timings take the fastest repeat (see
`us_per_iter`); set-up time is the median of several set-ups.

- accept-grid: the acceptance grid (plip 100x10 .. 1000x50, qip 200x10 ..
  1000x50, BPGe and BPG, lam = 1/L, tol 1e-6, k_max 5000). At d <= 50 the
  cost is dispatch and validation rather than arithmetic, and about half
  the runs stop at k_max, so censoring is exercised too.
- matvec-large: plip and qip at 10000x200 under an iteration cap, so the
  m x d products dominate. Every run is censored by design; it reports
  cost per iteration and never a time to tolerance.
- cli-sweep: `python -m bregopt.cli sweep` as a subprocess on a plip
  1000x10 spec with --jobs = nproc, writing trace CSVs. It is the only
  workload in which the harness thread pool, CSV emission and CLI start-up
  do real work.
"""

from __future__ import annotations

import csv
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from bregopt import harness, plip, qip, solvers
from bregopt.solvers import EXIT_TOLERANCE, SolverConfig

import fingerprint
import tracer as tracing
import verify

SOLVERS = ("bpge", "bpg")
MODULES = {"plip": plip, "qip": qip}
TOL = 1e-6
WARMUP_K_MAX = 50
CHUNK_ITERS = 100
SUBPROCESS_TIMEOUT_S = 170


@dataclass(frozen=True)
class Scale:
    """Sizes of every workload; SMALL keeps the self-test quick."""

    accept_sizes: tuple
    accept_seeds: int
    accept_k_max: int
    pair: tuple
    matvec_sizes: tuple
    matvec_k_max: int
    sweep_size: tuple
    sweep_reps: int
    setup_repeats: int
    # Planned length of one pass of each workload on a 2-core Xeon; a run
    # of --seconds makes round(seconds / pass_s) passes, at least one.
    accept_pass_s: float
    matvec_pass_s: float
    sweep_pass_s: float


FULL = Scale(
    accept_sizes=(("plip", 100, 10), ("plip", 100, 50), ("plip", 1000, 10),
                  ("plip", 1000, 50), ("qip", 200, 10), ("qip", 200, 50),
                  ("qip", 1000, 10), ("qip", 1000, 50)),
    accept_seeds=3,
    accept_k_max=5000,
    pair=("plip", 1000, 10),
    matvec_sizes=(("plip", 10000, 200), ("qip", 10000, 200)),
    matvec_k_max=40,
    sweep_size=(1000, 10),
    sweep_reps=6,
    setup_repeats=11,
    accept_pass_s=26.0,
    matvec_pass_s=0.6,
    sweep_pass_s=10.0,
)

SMALL = Scale(
    accept_sizes=(("plip", 40, 4), ("plip", 80, 6), ("qip", 40, 4),
                  ("qip", 80, 6)),
    accept_seeds=1,
    accept_k_max=400,
    pair=("plip", 80, 6),
    matvec_sizes=(("plip", 300, 20), ("qip", 300, 20)),
    matvec_k_max=10,
    sweep_size=(80, 6),
    sweep_reps=2,
    setup_repeats=3,
    accept_pass_s=0.3,
    matvec_pass_s=0.05,
    sweep_pass_s=0.5,
)


@dataclass(frozen=True)
class Case:
    problem: str
    m: int
    d: int
    seed: int

    @property
    def label(self) -> str:
        return "%s_m%d_d%d_seed%d" % (self.problem, self.m, self.d, self.seed)


@dataclass
class Run:
    case: Case
    solver: str
    iterations: int
    exit_reason: str
    seconds: float
    signature: tuple = ()
    reasons: list = field(default_factory=list)
    chunk_us: np.ndarray = field(default_factory=lambda: np.zeros(0))


@dataclass
class Outcome:
    """What one benchmark run measured.

    metrics and report map a name to (value, unit): metrics are the ones
    the final JSON line carries, report the further figures printed above
    it. failed counts failed runs, problems lists failures of the run as a
    whole (such as results that changed between passes).
    """

    metrics: dict
    report: dict
    details: dict
    attempted: int
    failed: int
    problems: list


def pass_count(seconds: float, pass_s: float, trace: bool) -> int:
    """Passes in a run; a traced run makes one, its untraced reference."""
    return 1 if trace else max(1, round(seconds / pass_s))


def make_cases(sizes, seeds_per_cell: int, master_seed: int) -> list:
    return [Case(p, m, d, harness.derive_seed(master_seed, p, m, d, rep))
            for (p, m, d) in sizes for rep in range(seeds_per_cell)]


def build(case: Case, k_max: int):
    """Set-up of one case: instance, objective, start point and config."""
    inst = harness.generate_instance(case.problem, case.m, case.d, case.seed)
    module = MODULES[case.problem]
    obj, x0 = module.make_objective(inst), module.default_x0(inst)
    cfg = SolverConfig(lam=1.0 / obj.smooth.smad_constant(), tol=TOL,
                       k_max=k_max)
    return obj, x0, cfg


def solve(solver: str, obj, x0, cfg):
    # Looked up on each call so that a traced run reaches the wrappers.
    fn = solvers.bpge_solve if solver == "bpge" else solvers.bpg_solve
    return fn(obj, x0, cfg)


def run_solve(case: Case, solver: str, bundle) -> tuple:
    """(Run, SolveResult) for one timed solve, with its correctness check."""
    obj, x0, cfg = bundle
    start = time.perf_counter()
    result = solve(solver, obj, x0, cfg)
    seconds = time.perf_counter() - start
    run = Run(case, solver, result.iterations, result.exit_reason, seconds,
              signature=(result.iterations, result.exit_reason,
                         np.float64(result.psi_final).tobytes(),
                         result.x_final.tobytes()),
              reasons=verify.check_result(result),
              chunk_us=chunk_us([rec.wall_time for rec in result.trace[1:]]))
    return run, result


def chunk_us(wall_times) -> np.ndarray:
    """Microseconds per iteration over consecutive windows of at least
    CHUNK_ITERS iterations (one window if the run is shorter), from a
    trace's cumulative wall times after record 0."""
    t = np.concatenate(([0.0], np.asarray(wall_times, dtype=float)))
    n = t.size - 1
    if n == 0:
        return np.zeros(0)
    edges = np.linspace(0, n, max(1, n // CHUNK_ITERS) + 1).round().astype(int)
    return 1e6 * np.diff(t[edges]) / np.diff(edges)


def failed_runs(runs) -> int:
    return sum(1 for r in runs if r.reasons)


def peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def geomean(values) -> float:
    return float(math.exp(statistics.fmean(math.log(v) for v in values)))


def us_per_iter(passes, solver: str) -> float:
    """Per case, the fastest iteration window over all passes; then the
    geometric mean over cases, so that every size weighs the same.

    The fastest window rather than a median: the speed of a shared 2-core
    host was seen to drift by up to 60% over tens of seconds, which moved
    per-run medians by up to 40% between runs.
    """
    per_case = {}
    for runs in passes:
        for r in runs:
            if r.solver == solver and r.chunk_us.size:
                best = per_case.get(r.case, math.inf)
                per_case[r.case] = min(best, float(r.chunk_us.min()))
    return geomean(per_case.values())


def fastest_pass_s(passes) -> float:
    """Wall time of one pass, each solve taken at its fastest repeat."""
    return sum(min(runs[i].seconds for runs in passes)
               for i in range(len(passes[0])))


def sweep_us_per_iter(invocations, solver: str) -> float:
    """Solve seconds over iterations of one sweep, as the harness timed
    them on its worker threads; the fastest invocation."""
    return min(1e6 * sum(r.seconds for r in runs if r.solver == solver)
               / sum(r.iterations for r in runs if r.solver == solver)
               for runs in invocations)


def counts_report(passes, with_time_to_tol: bool) -> dict:
    """Deterministic counts of one pass and, if asked, time to tolerance:
    the median over passes of each run that reached tol, summed. Censored
    runs never get a time to tolerance."""
    out = {}
    for s in SOLVERS:
        mine = [r for r in passes[0] if r.solver == s]
        out["iterations.%s" % s] = (sum(r.iterations for r in mine), "count")
        out["censored.%s" % s] = (
            sum(verify.is_censored(r.exit_reason) for r in mine), "count")
        if with_time_to_tol:
            at_tol = [i for i, r in enumerate(passes[0])
                      if r.solver == s and r.exit_reason == EXIT_TOLERANCE]
            out["time_to_tol_s.%s" % s] = (
                sum(statistics.median(runs[i].seconds for runs in passes)
                    for i in at_tol), "s")
    return out


def pair_ratios(runs, pair) -> list:
    """Criterion 7's N_bpge / N_bpg on each case of the pair's size."""
    by_case = {}
    for r in runs:
        if (r.case.problem, r.case.m, r.case.d) == pair:
            by_case.setdefault(r.case, {})[r.solver] = r
    out = []
    for case, rs in by_case.items():
        e, b = rs["bpge"], rs["bpg"]
        out.append(dict(verify.iteration_ratio(e.iterations, e.exit_reason,
                                               b.iterations, b.exit_reason),
                        case=case.label))
    return out


def _hash_results(results, workdir: Path) -> str:
    """Write each trace CSV with the harness, then hash them stripped."""
    digest = verify.TraceHash()
    for name, result in results:
        path = workdir / ("trace_%s.csv" % name)
        harness.write_trace_csv(result, path)
        digest.add(name, path.read_text(encoding="utf-8"))
        path.unlink()
    return digest.hexdigest()


def _compare_pass(runs, reference) -> int:
    """Mark runs whose result differs from the first pass; returns how many."""
    changed = 0
    for r, ref in zip(runs, reference):
        if r.signature != ref.signature:
            r.reasons.append("result differs from the first pass")
            changed += 1
    return changed


# -- in-process workloads ---------------------------------------------------


def run_in_process(cases, k_max: int, n_passes: int, trace: bool,
                   workdir: Path, scale: Scale, src: Path, time_to_tol: bool,
                   pair=None) -> Outcome:
    setup_times = []
    for _ in range(scale.setup_repeats):
        start = time.perf_counter()
        bundles = [build(c, k_max) for c in cases]
        setup_times.append(time.perf_counter() - start)

    # Warm-up: one discarded short solve per problem at its largest size.
    for problem in dict.fromkeys(c.problem for c in cases):
        i = max((i for i, c in enumerate(cases) if c.problem == problem),
                key=lambda i: cases[i].m * cases[i].d)
        obj, x0, cfg = bundles[i]
        solve("bpge", obj, x0, replace(cfg, k_max=min(k_max, WARMUP_K_MAX)))

    passes = []
    for _ in range(n_passes):
        runs, results = [], []
        for case, bundle in zip(cases, bundles):
            for s in SOLVERS:
                run, result = run_solve(case, s, bundle)
                runs.append(run)
                if not passes:
                    results.append(("%s_%s" % (case.label, s), result))
        if passes:
            _compare_pass(runs, passes[0])
        else:
            trace_hash = _hash_results(results, workdir)
        passes.append(runs)

    all_runs = [r for runs in passes for r in runs]
    details = {"trace_sha256": trace_hash, "passes": len(passes),
               "runs_per_pass": len(passes[0]),
               "all_censored": all(verify.is_censored(r.exit_reason)
                                   for r in passes[0])}
    if pair is not None:
        details["criterion7_pair"] = pair_ratios(passes[0], pair)
    problems = []
    if trace:
        startup = cli_startup_s(src, workdir, scale.setup_repeats)
        metrics, traced_runs = _traced_pass(cases, k_max, passes[0],
                                            trace_hash, workdir, startup,
                                            problems)
        all_runs += traced_runs
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (fastest_pass_s(passes), "s"),
            "us_per_iter.bpge": (us_per_iter(passes, "bpge"), "us"),
            "us_per_iter.bpg": (us_per_iter(passes, "bpg"), "us"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    report = counts_report(passes, time_to_tol)
    report["failed_runs"] = (failed_runs(all_runs), "count")
    return Outcome(metrics, report, details, len(all_runs),
                   failed_runs(all_runs), problems)


def _traced_pass(cases, k_max, untraced, untraced_hash, workdir, startup_s,
                 problems):
    """One pass under the tracer, set-up and trace CSVs included."""
    tracer = tracing.Tracer()
    runs, results = [], []
    with tracer:
        started = time.perf_counter()
        for case in cases:
            bundle = build(case, k_max)
            for s in SOLVERS:
                run, result = run_solve(case, s, bundle)
                runs.append(run)
                results.append(("%s_%s" % (case.label, s), result))
        traced_hash = _hash_results(results, workdir)
        wall = time.perf_counter() - started
    if _compare_pass(runs, untraced):
        problems.append("traced results differ from untraced ones")
    if traced_hash != untraced_hash:
        problems.append("traced trace hash differs from the untraced one")
    overhead = (sum(r.seconds for r in runs)
                / sum(r.seconds for r in untraced) - 1.0)
    metrics = tracing.layer_metrics(tracer.spans(), wall_s=wall, jobs=1,
                                    startup_s=startup_s,
                                    overhead_frac=overhead)
    return metrics, runs


def accept_grid(seed, seconds, trace, workdir, scale, src) -> Outcome:
    # Per-iteration layer figures need only the first seed of each cell;
    # tracing all of them would hold millions of spans in memory.
    cases = make_cases(scale.accept_sizes, 1 if trace else scale.accept_seeds,
                       seed)
    return run_in_process(cases, scale.accept_k_max,
                          pass_count(seconds, scale.accept_pass_s, trace),
                          trace, workdir, scale, src, time_to_tol=True,
                          pair=scale.pair)


def matvec_large(seed, seconds, trace, workdir, scale, src) -> Outcome:
    cases = make_cases(scale.matvec_sizes, 1, seed)
    return run_in_process(cases, scale.matvec_k_max,
                          pass_count(seconds, scale.matvec_pass_s, trace),
                          trace, workdir, scale, src, time_to_tol=False)


# -- cli-sweep ----------------------------------------------------------------


def _subprocess_env(src: Path) -> dict:
    """This process's environment, BLAS pinning included, importing `src`."""
    return dict(os.environ, PYTHONPATH=str(src))


def _run_child(cmd, env, cwd) -> tuple:
    start = time.perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=SUBPROCESS_TIMEOUT_S)
    return proc, time.perf_counter() - start


def cli_startup_s(src: Path, workdir: Path, repeats: int) -> float:
    """Median time to start Python and import bregopt.cli. The first start
    compiles bytecode and fills the page cache, and is discarded."""
    cmd = [sys.executable, "-c", "import bregopt.cli"]
    env = _subprocess_env(src)
    _run_child(cmd, env, workdir)
    return statistics.median(_run_child(cmd, env, workdir)[1]
                             for _ in range(repeats))


def _read_sweep(out_dir: Path, spec: dict) -> tuple:
    """Runs of one sweep from its comparison.csv and trace CSVs, and the
    hash of all of them with timing columns stripped."""
    m, d = spec["sizes"][0]
    digest = verify.TraceHash()
    comparison = (out_dir / "comparison.csv").read_text(encoding="utf-8")
    digest.add("comparison", comparison)
    runs = []
    for row in csv.DictReader(comparison.splitlines()):
        rep = int(row["rep"])
        case = Case("plip", m, d,
                    harness.derive_seed(spec["seed"], m, d, 0, 0, rep))
        for s in SOLVERS:
            name = "plip_m%d_d%d_lam0_rho0_rep%d_%s" % (m, d, rep, s)
            text = (out_dir / ("trace_%s.csv" % name)).read_text(
                encoding="utf-8")
            digest.add(name, text)
            n, exit_reason = int(row["N_" + s]), row["exit_" + s]
            runs.append(Run(case, s, n, exit_reason, float(row["T_" + s]),
                            reasons=verify.check_trace_csv(text, exit_reason)))
    return runs, digest.hexdigest()


def cli_sweep(seed, seconds, trace, workdir, scale, src: Path) -> Outcome:
    m, d = scale.sweep_size
    spec = {"problem": "plip", "sizes": [[m, d]], "solvers": list(SOLVERS),
            "seed": seed, "repetitions": scale.sweep_reps, "tol": TOL,
            "k_max": scale.accept_k_max}
    spec_path = workdir / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    jobs = fingerprint.nproc()
    env = _subprocess_env(src)
    startup = cli_startup_s(src, workdir, scale.setup_repeats)
    cases = [Case("plip", m, d, harness.derive_seed(seed, m, d, 0, 0, rep))
             for rep in range(scale.sweep_reps)]
    generation = []
    for _ in range(scale.setup_repeats):
        start = time.perf_counter()
        for case in cases:
            build(case, scale.accept_k_max)
        generation.append(time.perf_counter() - start)

    def sweep_cmd(out_dir):
        return ["sweep", "--spec", str(spec_path), "--out", str(out_dir),
                "--jobs", str(jobs)]

    problems, invocations, hashes, walls = [], [], [], []
    for _ in range(pass_count(seconds, scale.sweep_pass_s, trace)):
        out_dir = workdir / ("sweep%d" % len(invocations))
        proc, wall = _run_child([sys.executable, "-m", "bregopt.cli"]
                                + sweep_cmd(out_dir), env, workdir)
        walls.append(wall)
        runs, digest = _sweep_outcome(proc, out_dir, spec, cases, problems)
        invocations.append(runs)
        hashes.append(digest)
        shutil.rmtree(out_dir, ignore_errors=True)
    if len(set(hashes)) > 1:
        problems.append("sweep outputs differ between invocations")

    all_runs = [r for runs in invocations for r in runs]
    details = {"trace_sha256": hashes[0], "invocations": len(invocations),
               "jobs": jobs, "runs_per_invocation": len(invocations[0]),
               "criterion7_pair": pair_ratios(invocations[0], ("plip", m, d))}
    if trace:
        metrics, traced_runs = _traced_sweep(
            spec, cases, sweep_cmd, env, workdir, invocations[0], hashes[0],
            jobs, startup, problems)
        all_runs += traced_runs
    else:
        metrics = {
            "setup_s": (startup + statistics.median(generation), "s"),
            "wall_s": (min(walls) - startup, "s"),
            "us_per_iter.bpge": (sweep_us_per_iter(invocations, "bpge"), "us"),
            "us_per_iter.bpg": (sweep_us_per_iter(invocations, "bpg"), "us"),
            "peak_rss_mb": (peak_rss_mb(resource.RUSAGE_CHILDREN), "MB"),
        }
    report = counts_report(invocations, with_time_to_tol=False)
    report["failed_runs"] = (failed_runs(all_runs), "count")
    return Outcome(metrics, report, details, len(all_runs),
                   failed_runs(all_runs), problems)


def _sweep_outcome(proc, out_dir, spec, cases, problems):
    """Runs of one invocation; all of them failed if the sweep did not end
    cleanly or left no readable output."""
    try:
        runs, digest = _read_sweep(out_dir, spec)
    except (OSError, KeyError, ValueError) as exc:
        problems.append("sweep output unreadable: %s" % exc)
        runs = [Run(c, s, 0, "missing", 0.0, reasons=["no output"])
                for c in cases for s in SOLVERS]
        digest = ""
    if proc.returncode != 0:
        problems.append("sweep exited with %d: %s"
                        % (proc.returncode, proc.stderr.strip()[-300:]))
        for r in runs:
            r.reasons.append("sweep exit %d" % proc.returncode)
    return runs, digest


def _traced_sweep(spec, cases, sweep_cmd, env, workdir, untraced,
                  untraced_hash, jobs, startup_s, problems) -> tuple:
    """One sweep under the tracer, in a child that installs it itself."""
    out_dir = workdir / "sweep_traced"
    spans_path = workdir / "spans.npz"
    bootstrap = Path(__file__).resolve().parent / "traced_cli.py"
    cmd = [sys.executable, str(bootstrap), str(spans_path)] + sweep_cmd(
        out_dir)
    proc, _ = _run_child(cmd, env, workdir)
    runs, digest = _sweep_outcome(proc, out_dir, spec, cases, problems)
    shutil.rmtree(out_dir, ignore_errors=True)
    if digest != untraced_hash:
        problems.append("traced sweep output differs from the untraced one")
    if not spans_path.is_file():
        raise RuntimeError("traced sweep wrote no spans: %s"
                           % proc.stderr.strip()[-300:])
    overhead = (sum(r.seconds for r in runs)
                / sum(r.seconds for r in untraced) - 1.0)
    spans = tracing.load_spans(spans_path)
    extra = spans["meta"]["extra"]
    metrics = tracing.layer_metrics(spans, wall_s=extra["wall_s"], jobs=jobs,
                                    startup_s=startup_s,
                                    overhead_frac=overhead)
    return metrics, runs


WORKLOADS = {
    "accept-grid": accept_grid,
    "matvec-large": matvec_large,
    "cli-sweep": cli_sweep,
}
