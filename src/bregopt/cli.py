"""Command-line entry point: instance generation, single solves, sweeps,
and the invariant check suite.

Every behavior here is a thin shell over the library API. Exit status is
0 on success, 1 on validation and file errors, 2 on numerical failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from . import checks, harness
from .errors import NumericalError, ValidationError
from .problems import check_seed
from .solvers import EXIT_NUMERICAL_FAILURE

log = logging.getLogger("bregopt")

_EXIT_MODE_FLAG = {"iterate": "iterate_relative", "stationarity": "stationarity"}


def _configure_logging():
    level = os.environ.get("BREGOPT_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO,
              "debug": logging.DEBUG}
    logging.basicConfig(level=levels.get(level, logging.ERROR),
                        format="%(levelname)s %(name)s: %(message)s")


_SPEC = harness.ExperimentSpec  # its field defaults are the flag defaults


def _add_instance_flags(p):
    p.add_argument("--problem", required=True, choices=harness.PROBLEMS)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--seed", type=int, default=_SPEC.seed)
    p.add_argument("--theta", type=float, default=_SPEC.theta)


def _add_solver_flags(p):
    p.add_argument("--solver", default="bpge", choices=harness.SOLVERS)
    p.add_argument("--lambda-rule", default=_SPEC.lambdas[0],
                   choices=sorted(harness.LAMBDA_RULES))
    p.add_argument("--rho", type=float, default=_SPEC.rhos[0])
    p.add_argument("--beta0", type=float, default=_SPEC.beta0)
    p.add_argument("--eta", type=float, default=_SPEC.eta)
    p.add_argument("--tol", type=float, default=_SPEC.tol)
    p.add_argument("--kmax", type=int, default=_SPEC.k_max)
    p.add_argument("--exit-mode", default="iterate",
                   choices=sorted(_EXIT_MODE_FLAG))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bregopt",
        description="Bregman proximal gradient solvers and benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a seeded instance JSON")
    _add_instance_flags(p_gen)
    p_gen.add_argument("--out", default=".", help="output directory")

    p_solve = sub.add_parser("solve", help="run one solver on one instance")
    _add_instance_flags(p_solve)
    _add_solver_flags(p_solve)
    p_solve.add_argument("--out", default=".", help="output directory")

    p_sweep = sub.add_parser("sweep", help="execute an experiment spec")
    p_sweep.add_argument("--spec", required=True, help="experiment JSON file")
    p_sweep.add_argument("--out", default=".", help="output directory")
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="processes (>= 1), capped at cells and CPUs: "
                         "this one, writing every file in cell order, and "
                         "jobs - 1 forked workers; each formats its traces")

    p_check = sub.add_parser("check", help="run the invariant suite")
    _add_instance_flags(p_check)

    return parser


def _cmd_generate(args) -> int:
    inst = harness.generate_instance(args.problem, args.m, args.d, args.seed,
                                     theta=args.theta)
    text = inst.to_json()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / ("%s_m%d_d%d_seed%d.json"
                      % (args.problem, args.m, args.d, args.seed))
    path.write_text(text, encoding="utf-8")
    log.info("wrote %s", path)
    print(path)
    return 0


def _cmd_solve(args) -> int:
    """One sweep cell, with --seed as the instance seed."""
    spec = _SPEC(  # checks the flags as a sweep's fields
        problem=args.problem, sizes=((args.m, args.d),), seed=args.seed,
        lambdas=(args.lambda_rule,), rhos=(args.rho,), solvers=(args.solver,),
        tol=args.tol, k_max=args.kmax, beta0=args.beta0, eta=args.eta,
        exit_mode=_EXIT_MODE_FLAG[args.exit_mode], theta=args.theta)
    check_seed(args.seed)  # the instance seed, before --out is created
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _, results = harness.run_cell(spec, args.m, args.d, args.lambda_rule,
                                  args.rho, args.seed)
    result = results[args.solver]

    stem = "%s_m%d_d%d_seed%d_%s" % (args.problem, args.m, args.d,
                                     args.seed, args.solver)
    harness.write_trace_csv(result, out_dir / ("trace_%s.csv" % stem))
    summary = {
        "psi_final": result.psi_final,
        "iterations": result.iterations,
        "exit_reason": result.exit_reason,
        "x_final": [float(v) for v in result.x_final],
    }
    (out_dir / ("result_%s.json" % stem)).write_text(
        json.dumps(summary, sort_keys=True), encoding="utf-8")
    print("%s: %s after %d iterations, psi = %.6e"
          % (args.solver, result.exit_reason, result.iterations,
             result.psi_final))
    if result.exit_reason == EXIT_NUMERICAL_FAILURE:
        return 2
    return 0


def _cmd_sweep(args) -> int:
    try:
        doc = json.loads(Path(args.spec).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValidationError(
            "malformed spec %s: line %d column %d: %s"
            % (args.spec, exc.lineno, exc.colno, exc.msg)
        ) from exc
    except UnicodeDecodeError as exc:
        raise ValidationError("spec %s is not UTF-8: %s"
                              % (args.spec, exc)) from exc
    spec = harness.ExperimentSpec.from_dict(doc)
    rows = harness.run_comparison(spec, out_dir=args.out, jobs=args.jobs)
    failures = sum(
        1 for r in rows
        if EXIT_NUMERICAL_FAILURE in (r.exit_bpge, r.exit_bpg)
    )
    print("sweep wrote %d rows to %s" % (len(rows), args.out))
    return 2 if failures else 0


def _cmd_check(args) -> int:
    outcomes = checks.run_invariant_checks(args.problem, args.m, args.d,
                                           args.seed, theta=args.theta)
    ok = True
    for outcome in outcomes:
        print("%-18s %s  (%s)" % (outcome.name,
                                  "PASS" if outcome.passed else "FAIL",
                                  outcome.detail))
        ok = ok and outcome.passed
    return 0 if ok else 1


_COMMANDS = {
    "generate": _cmd_generate,
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
    "check": _cmd_check,
}


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # usage error, or --help
        return 1 if exc.code else 0
    try:
        return _COMMANDS[args.command](args)
    except (ValidationError, OSError, MemoryError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except NumericalError as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
