"""Benchmark of bregopt's solvers, harness and CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload accept-grid --seed 1 --seconds 20 --trace 0

Workloads are described in `workloads.py`. With `--trace 0` the run prints
the end-to-end metrics, with `--trace 1` it runs the workload once more
under the span tracer of `tracer.py` and prints the per-layer metrics and
the tracing overhead instead. The metric names and units are those listed
in BENCHMARK.json at the root of the checkout.

Every figure is printed as a `metric NAME VALUE UNIT` line, followed by the
machine fingerprint, the details (the stripped trace SHA-256, criterion 7's
iteration ratio with its censoring kind) and the correctness verdict. The
last line is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`.

The program is imported from `src/` of the checkout and nowhere else; the
run fails without printing a result when those sources are missing.
BLAS threads are pinned to 1 in this process and its children, so BLAS
threads x worker threads never exceeds nproc. Scratch files go under
`.bench_build/perfbench/` in the checkout and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREADS = 1
# Read by the BLAS libraries when numpy is first imported, and inherited by
# every child process.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS")
WORKLOAD_NAMES = ("accept-grid", "matvec-large", "cli-sweep")


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py",
                                description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "small"), default="full",
                   help="small runs every workload at toy sizes (self-test)")
    return p.parse_args(argv)


def _import_program():
    """Pin BLAS threads, then import bregopt from the checkout's sources."""
    if not (SRC / "bregopt" / "__init__.py").is_file():
        raise SystemExit("perfbench: no bregopt sources under %s" % SRC)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import bregopt

    if Path(bregopt.__file__).resolve().parent != SRC / "bregopt":
        raise SystemExit("perfbench: bregopt imported from %s, not %s"
                         % (bregopt.__file__, SRC))


def _listed_metrics(trace: bool) -> list:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return doc["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    args = parse_args(argv)
    _import_program()
    import fingerprint
    import workloads

    scale = workloads.FULL if args.scale == "full" else workloads.SMALL
    workdir = ROOT / ".bench_build" / "perfbench" / (
        "%s-%d" % (args.workload, os.getpid()))
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = workloads.WORKLOADS[args.workload]
        outcome = run(args.seed, args.seconds, bool(args.trace), workdir,
                      scale, SRC)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    listed = _listed_metrics(bool(args.trace))
    final = {}
    for spec in listed:
        value, unit = outcome.metrics[spec["name"]]
        if unit != spec["unit"]:
            raise SystemExit("perfbench: %s is measured in %s, listed in %s"
                             % (spec["name"], unit, spec["unit"]))
        final[spec["name"]] = {"value": value, "unit": unit}
    unlisted = set(outcome.metrics) - set(final)
    if unlisted:
        raise SystemExit("perfbench: metrics missing from BENCHMARK.json: %s"
                         % sorted(unlisted))

    correct = outcome.failed == 0 and not outcome.problems
    print("perfbench workload=%s seed=%d seconds=%g trace=%d scale=%s"
          % (args.workload, args.seed, args.seconds, args.trace, args.scale))
    for name, (value, unit) in list(outcome.metrics.items()) + list(
            outcome.report.items()):
        print("metric %s %r %s" % (name, value, unit))
    print("fingerprint %s" % json.dumps(
        fingerprint.fingerprint([args.seed], BLAS_THREADS), sort_keys=True))
    print("details %s" % json.dumps(outcome.details, sort_keys=True))
    for problem in outcome.problems:
        print("problem %s" % problem)
    print("verdict %s attempted=%d failed=%d"
          % ("correct" if correct else "INCORRECT", outcome.attempted,
             outcome.failed))
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": final}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
