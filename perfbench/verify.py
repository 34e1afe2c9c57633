"""Per-run correctness checks, the stripped-trace hash and censoring rules.

A run fails its check when it exits with `numerical_failure`, when its
descent certificate H_k rises by more than acceptance criterion 1's slack
of 1e-10 * max(1, |H|) between two records, or when its final objective
is not finite. Failed runs are counted into `failed_runs`.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math

import numpy as np

from bregopt import harness
from bregopt.solvers import EXIT_MAX_ITERATIONS, EXIT_NUMERICAL_FAILURE


def check_trace(exit_reason: str, lyapunov, psi_final: float) -> list:
    """Reasons a run is wrong; empty when it passes."""
    reasons = []
    if exit_reason == EXIT_NUMERICAL_FAILURE:
        reasons.append("numerical_failure")
    h = np.asarray(lyapunov, dtype=float)
    if h.size > 1:
        prev, curr = h[:-1], h[1:]
        ok = curr <= prev + 1e-10 * np.maximum(1.0, np.abs(prev))
        if not np.all(ok):
            k = int(np.argmin(ok)) + 1
            reasons.append("H_k rose at record %d" % k)
    if not math.isfinite(psi_final):
        reasons.append("psi_final is not finite")
    return reasons


def check_result(result) -> list:
    return check_trace(result.exit_reason,
                       [rec.lyapunov for rec in result.trace],
                       result.psi_final)


def check_trace_csv(text: str, exit_reason: str) -> list:
    """The same check on a trace CSV as written by `harness.write_trace_csv`."""
    rows = list(csv.DictReader(io.StringIO(text)))
    if not rows:
        return ["empty trace"]
    return check_trace(exit_reason, [float(r["lyapunov"]) for r in rows],
                       float(rows[-1]["psi"]))


class TraceHash:
    """SHA-256 over named trace CSVs after `harness.strip_timing_columns`."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, name: str, csv_text: str):
        self._h.update(name.encode() + b"\n")
        self._h.update(harness.strip_timing_columns(csv_text).encode())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def is_censored(exit_reason: str) -> bool:
    return exit_reason == EXIT_MAX_ITERATIONS


def iteration_ratio(n_bpge: int, exit_bpge: str, n_bpg: int,
                    exit_bpg: str) -> dict:
    """N_bpge / N_bpg with what censoring makes of it.

    A censored BPG run would have needed more than its k_max iterations,
    so the ratio is an upper bound; a censored BPGe run against a finished
    BPG run makes it a lower bound; both censored leaves it unknown.
    """
    ratio = n_bpge / n_bpg if n_bpg else math.nan
    kind = {
        (False, False): "measured",
        (False, True): "upper_bound",
        (True, False): "lower_bound",
        (True, True): "unknown",
    }[(is_censored(exit_bpge), is_censored(exit_bpg))]
    return {"N_bpge": n_bpge, "N_bpg": n_bpg, "N_ratio": ratio, "kind": kind}
