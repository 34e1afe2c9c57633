"""Self-test of the benchmark at toy sizes.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

It checks that
- every metric is printed as `metric NAME VALUE UNIT` with its listed unit,
  in both the untraced and the traced run of every workload;
- the deterministic counts (iterations, censored runs, calls per
  iteration, line-search trials) and the trace hash repeat exactly across
  two runs with the same seed;
- a run whose smooth term returns NaN counts as one failed run, and the
  checks flag a rising certificate H_k and a non-finite final objective.
Exit status 0 means every check passed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7
REPORT_METRICS = {
    "iterations.bpge": "count", "iterations.bpg": "count",
    "censored.bpge": "count", "censored.bpg": "count",
    "failed_runs": "count",
}
# Deterministic per-layer figures: counts, not times.
COUNT_SUFFIXES = (".calls_per_iter.", ".trials_per_call.", ".accept_frac.")


def run_bench(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
           "--scale", "small"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    if proc.returncode != 0:
        raise AssertionError("%s exited %d: %s"
                             % (" ".join(cmd), proc.returncode, proc.stderr))
    lines = proc.stdout.strip().splitlines()
    metrics, details = {}, {}
    for line in lines:
        word, _, rest = line.partition(" ")
        if word == "metric":
            name, value, unit = rest.split(" ")
            metrics[name] = (value, unit)
        elif word == "details":
            details = json.loads(rest)
    return {"metrics": metrics, "details": details,
            "final": json.loads(lines[-1])}


def check_printed(out: dict, listed: list, workload: str, trace: int):
    expected = {m["name"]: m["unit"] for m in listed}
    expected.update(REPORT_METRICS)
    if workload == "accept-grid":
        expected.update({"time_to_tol_s.bpge": "s", "time_to_tol_s.bpg": "s"})
    for name, unit in expected.items():
        got = out["metrics"].get(name)
        assert got is not None, "%s trace=%d: %s not printed" % (
            workload, trace, name)
        assert got[1] == unit, "%s: unit %s, expected %s" % (name, got[1], unit)
    final = out["final"]
    assert set(final) == {"correct", "attempted", "failed", "metrics"}, final
    assert final["correct"] is True and final["failed"] == 0, final
    assert final["attempted"] >= 1
    assert set(final["metrics"]) == {m["name"] for m in listed}
    assert "trace_sha256" in out["details"]


def deterministic(out: dict, trace: int) -> dict:
    if trace:
        keep = {k: v for k, v in out["metrics"].items()
                if any(s in k for s in COUNT_SUFFIXES)}
    else:
        keep = {k: out["metrics"][k] for k in REPORT_METRICS}
    keep["trace_sha256"] = out["details"]["trace_sha256"]
    return keep


def check_workloads():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, listed in ((0, bench["end_to_end"]),
                              (1, bench["per_layer"])):
            first, second = run_bench(workload, trace), run_bench(workload, trace)
            check_printed(first, listed, workload, trace)
            a, b = deterministic(first, trace), deterministic(second, trace)
            assert a == b, "%s trace=%d: counts differ: %s" % (
                workload, trace, {k: (a[k], b.get(k)) for k in a
                                  if a[k] != b.get(k)})
            print("ok  %-13s trace=%d  %d metrics, %d deterministic figures "
                  "repeat" % (workload, trace, len(first["metrics"]), len(a)))


def check_failures():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from bregopt import BurgKernel, CompositeObjective, SolverConfig
    from bregopt.problems import SmoothTerm, ZeroTerm

    import verify
    import workloads

    class NanSmooth(SmoothTerm):
        def value(self, x):
            return float("nan")

        def gradient(self, x):
            return np.full_like(x, np.nan)

        def smad_constant(self):
            return 1.0

    good = workloads.Case("plip", 40, 4, 1)
    bad = workloads.Case("nan", 40, 4, 1)
    bundle = workloads.build(good, 200)
    nan_bundle = (CompositeObjective(NanSmooth(), ZeroTerm(), BurgKernel(4)),
                  np.ones(4), SolverConfig(lam=1.0, k_max=200))
    runs = [workloads.run_solve(good, "bpge", bundle)[0],
            workloads.run_solve(good, "bpg", bundle)[0],
            workloads.run_solve(bad, "bpg", nan_bundle)[0]]
    assert workloads.failed_runs(runs) == 1, [r.reasons for r in runs]
    assert "numerical_failure" in runs[2].reasons, runs[2].reasons
    assert verify.check_trace("tolerance", [3.0, 2.0, 2.5], 2.5)
    assert verify.check_trace("tolerance", [3.0, 2.0], float("nan"))
    assert not verify.check_trace("tolerance", [3.0, 3.0 + 1e-11, 2.0], 2.0)
    print("ok  injected NaN smooth term gives failed_runs = 1")


def main() -> int:
    try:
        check_failures()
        check_workloads()
    except AssertionError as exc:
        print("FAIL %s" % exc)
        return 1
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
