import concurrent.futures
import csv
import dataclasses
import multiprocessing
import os
import re

import numpy as np
import pytest

from bregopt import (
    SolverConfig,
    ValidationError,
    bpg_solve,
    bpge_solve,
)
from bregopt import checks, harness, plip
from bregopt.problems import check_size

from helpers import FailingBurgKernel, reference_trace_csv


def tiny_spec(**overrides):
    base = dict(problem="plip", sizes=((30, 4),), lambdas=("1/L",),
                rhos=(0.99,), solvers=("bpge", "bpg"), seed=1, k_max=400)
    base.update(overrides)
    return harness.ExperimentSpec.from_dict(base)


class TestSpecValidation:
    def test_rejects_pg_on_plip(self):
        with pytest.raises(ValidationError, match="unknown solver"):
            tiny_spec(solvers=("pg",))

    def test_rejects_pge_on_qip(self):
        with pytest.raises(ValidationError, match="unknown solver"):
            tiny_spec(problem="qip", solvers=("pge",))

    def test_rejects_unknown_fields(self):
        with pytest.raises(ValidationError, match="unknown spec fields"):
            harness.ExperimentSpec.from_dict(
                {"problem": "plip", "sizes": [[10, 2]], "bogus": 1})

    def test_rejects_bad_lambda_rule(self):
        with pytest.raises(ValidationError, match="lambda rule"):
            tiny_spec(lambdas=("1/4L",))

    def test_rejects_bad_rho(self):
        with pytest.raises(ValidationError):
            tiny_spec(rhos=(1.2,))

    def test_rejects_empty_sizes(self):
        with pytest.raises(ValidationError):
            tiny_spec(sizes=())

    def test_rejects_a_size_numpy_cannot_address(self):
        # 8 m d bytes must fit in np.intp: 2**31 x 2**29 doubles are 2**63
        # bytes, one more than its maximum; one column fewer fits (numpy
        # integers are multiplied as Python integers, so never wrap).
        big = (2 ** 31, 2 ** 29)
        for size in (big, tuple(map(np.int64, big))):
            with pytest.raises(ValidationError, match="too big"):
                tiny_spec(sizes=(size,))
        check_size(2 ** 31, 2 ** 29 - 1)

    def test_exit_modes_are_the_solvers(self):
        spec = tiny_spec(exit_mode="stationarity")
        cfg = spec.solver_config(1.0, "1/L", 0.99)
        assert cfg.exit_mode == "stationarity"
        with pytest.raises(ValidationError, match="exit_mode"):
            tiny_spec(exit_mode="objective_relative")

    def test_solver_config_carries_the_line_search_parameters(self):
        spec = tiny_spec(beta0=0.7, eta=0.25, rhos=(0.5, 0.9), tol=1e-5,
                         k_max=30, lambdas=("1/2L",))
        cfg = spec.solver_config(4.0, "1/2L", 0.9)
        assert cfg == SolverConfig(lam=0.125, tol=1e-5, k_max=30,
                                   beta0=0.7, eta=0.25, rho=0.9)
        default = harness.ExperimentSpec(problem="plip", sizes=((30, 4),))
        assert (default.beta0, default.eta, default.rhos) == (
            SolverConfig.beta0, SolverConfig.eta, (SolverConfig.rho,))

    @pytest.mark.parametrize("field", ["tol", "theta"])
    def test_rejects_an_int_past_the_largest_float(self, field):
        # A JSON integer of 401 digits is a Python int; it is rejected as
        # inf is, not with float()'s OverflowError.
        with pytest.raises(ValidationError, match=field):
            tiny_spec(**{field: 10 ** 400})

    @pytest.mark.parametrize("size", [(0, 3), (30, 0), (-1, 4)])
    def test_size_rule_is_that_of_generate(self, size):
        # The spec rejects what `generate` would, with its message.
        with pytest.raises(ValidationError, match="m and d"):
            tiny_spec(sizes=(size,))


class TestGenerateInstance:
    def test_deterministic_json(self):
        a = harness.generate_instance("plip", 100, 10, 42)
        b = harness.generate_instance("plip", 100, 10, 42)
        assert a.to_json() == b.to_json()

    def test_qip_sparsity(self):
        inst = harness.generate_instance("qip", 100, 20, 7)
        assert int(np.sum(inst.x_true != 0.0)) == 1

    def test_plip_bounds(self):
        inst = harness.generate_instance("plip", 50, 5, 3)
        assert np.all(inst.A > 0.0) and np.all(inst.A <= 1.0)
        assert np.all(inst.b > 0.0)

    def test_unknown_problem(self):
        with pytest.raises(ValidationError):
            harness.generate_instance("lasso", 10, 2, 0)


BAD_NAMES = pytest.mark.parametrize("name", [["plip"], {"plip": 1}, "lasso"],
                                    ids=["list", "dict", "unknown"])


def unknown(what, name, names):
    return re.escape("unknown %s %r (expected one of %s)" % (what, name, names))


class TestNameRules:
    """A problem or lambda rule that is not one of its names raises
    ValidationError at every public entry, never TypeError or KeyError."""

    @BAD_NAMES
    def test_problem(self, name):
        inst = harness.generate_instance("qip", 10, 2, 0)
        for call in (lambda: harness.generate_instance(name, 10, 2, 0),
                     lambda: harness.problem_bundle(name, inst),
                     lambda: checks.run_invariant_checks(name, 10, 2, 0),
                     lambda: harness.ExperimentSpec(name, ((10, 2),))):
            with pytest.raises(ValidationError,
                               match=unknown("problem", name, ["plip", "qip"])):
                call()

    @BAD_NAMES
    def test_lambda_rule(self, name):
        spec = tiny_spec()
        match = unknown("lambda rule", name, ["1/2L", "1/3L", "1/L"])
        for call in (lambda: harness.run_cell(spec, 10, 2, name, 0.99, 0),
                     lambda: spec.solver_config(1.0, name, 0.99)):
            with pytest.raises(ValidationError, match=match):
                call()
        # A list or dict entry fails the spec's list-of-strings rule first.
        with pytest.raises(ValidationError, match="lambda"):
            harness.ExperimentSpec("plip", ((10, 2),), lambdas=(name,))

    @pytest.mark.parametrize("fields,named", [
        (dict(problem=["plip"], lambdas=("x",), tol=-1.0), "problem"),
        (dict(lambdas=("1/L", "x"), tol=-1.0), "lambda rule 'x'"),
        (dict(lambdas=("1/L", "x"), rhos=(2.0,)), "lambda rule 'x'"),
        (dict(rhos=(0.5, 2.0), tol=-1.0), "tol"),
        (dict(rhos=(2.0, 0.5), tol=-1.0), "rho"),
        (dict(lambdas=("1/L",), solvers=("pg",), tol=-1.0), "tol"),
    ])
    def test_a_spec_names_its_first_bad_field(self, fields, named):
        with pytest.raises(ValidationError, match=re.escape(named)):
            harness.ExperimentSpec(**dict(dict(problem="plip",
                                               sizes=((10, 2),)), **fields))


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class TestRunComparison:
    def test_rows_and_traces_consistent(self, tmp_path):
        spec = tiny_spec()
        rows = harness.run_comparison(spec, out_dir=tmp_path)
        assert len(rows) == 1
        row = rows[0]
        assert row.N_bpge <= spec.k_max and row.N_bpg <= spec.k_max
        assert row.N_ratio > 0.0 and row.T_ratio > 0.0
        trace_bpge = read_csv(tmp_path / "trace_plip_m30_d4_lam0_rho0_rep0_bpge.csv")
        assert trace_bpge[0] == list(harness.TRACE_HEADER)
        # N counts equal trace length (minus header and the k=0 record).
        assert len(trace_bpge) - 2 == row.N_bpge
        comparison = read_csv(tmp_path / "comparison.csv")
        assert len(comparison) == 2

    @pytest.mark.parametrize("spec", [
        None, {}, {"problem": "plip", "sizes": [[30, 4]]},
        harness.ComparisonRow(30, 4, "1/L", 0.99, 0),
    ], ids=["None", "empty-dict", "spec-dict", "row"])
    def test_spec_is_checked_before_out_dir_is_made(self, spec, tmp_path,
                                                    monkeypatch):
        monkeypatch.setattr(harness, "generate_instance",
                            lambda *args, **kw: pytest.fail("a cell ran"))
        with pytest.raises(ValidationError,
                           match="spec must be an ExperimentSpec"):
            harness.run_comparison(spec, out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()
        with pytest.raises(ValidationError,
                           match="spec must be an ExperimentSpec"):
            harness.run_cell(spec, 30, 4, "1/L", 0.99, 1)

    def test_bpge_with_zero_beta_matches_bpg(self, tmp_path):
        spec = tiny_spec(beta0=0.0)
        harness.run_comparison(spec, out_dir=tmp_path)
        a = read_csv(tmp_path / "trace_plip_m30_d4_lam0_rho0_rep0_bpge.csv")
        b = read_csv(tmp_path / "trace_plip_m30_d4_lam0_rho0_rep0_bpg.csv")
        cols = [harness.TRACE_HEADER.index(c)
                for c in ("iter", "psi", "dh_step", "lyapunov")]
        for ra, rb in zip(a, b):
            for i in cols:
                assert ra[i] == rb[i]

    def test_repetitions_share_derivation(self, tmp_path):
        spec = tiny_spec(repetitions=2, solvers=("bpge",))
        rows = harness.run_comparison(spec, out_dir=tmp_path)
        assert len(rows) == 2
        rows2 = harness.run_comparison(tiny_spec(repetitions=2,
                                                 solvers=("bpge",)),
                                       out_dir=tmp_path / "again")
        assert [(r.N_bpge, r.rep) for r in rows] == \
            [(r.N_bpge, r.rep) for r in rows2]


@pytest.fixture(scope="module")
def exit_runs():
    """One plip run per way a trace can end, plus numpy scalars."""
    inst = plip.generate_plip(40, 4, seed=24)
    obj, x0 = plip.make_objective(inst), plip.default_x0(inst)
    cfg = SolverConfig(lam=1.0 / obj.smooth.smad_constant())
    runs = {
        "tolerance": bpge_solve(obj, x0, cfg),
        "max_iterations": bpg_solve(obj, x0, dataclasses.replace(cfg,
                                                                 k_max=7)),
        "numerical_failure": bpge_solve(dataclasses.replace(
            obj, kernel=FailingBurgKernel(obj.kernel.dim, 4)), x0, cfg),
        "numpy_beta0": bpge_solve(obj, x0, dataclasses.replace(
            cfg, beta0=np.float64(0.9))),
    }
    for name in ("tolerance", "max_iterations", "numerical_failure"):
        assert runs[name].exit_reason == name
    # A smooth term of one's own may return its value as a numpy scalar.
    runs["numpy_psi_final"] = dataclasses.replace(
        runs["tolerance"], psi_final=np.float64(runs["tolerance"].psi_final))
    return runs


@pytest.mark.parametrize("name", ["tolerance", "max_iterations",
                                  "numerical_failure", "numpy_beta0",
                                  "numpy_psi_final"])
def test_trace_csv_bytes_match_csv_writer(exit_runs, name, tmp_path):
    result = exit_runs[name]
    harness.write_trace_csv(result, tmp_path / "got.csv")
    reference_trace_csv(result, tmp_path / "want.csv")
    got = (tmp_path / "got.csv").read_bytes()
    assert got == (tmp_path / "want.csv").read_bytes()
    assert got.count(b"\r\n") == len(result.trace) + 1


def test_integer_beta0_prints_beta_as_float(tmp_path):
    # beta0 = 0 is accepted as an int; the trace stores every beta as a
    # double, so the beta column reads 0.0 on every row.
    harness.run_comparison(tiny_spec(beta0=0, k_max=5, solvers=("bpge",)),
                           out_dir=tmp_path)
    rows = read_csv(tmp_path / "trace_plip_m30_d4_lam0_rho0_rep0_bpge.csv")
    col = harness.TRACE_HEADER.index("beta")
    assert [r[col] for r in rows[1:]] == ["0.0"] * 6


def test_sweep_writes_each_cells_traces_before_the_next_cell(tmp_path,
                                                             monkeypatch):
    run_cell, cells = harness.run_cell, []

    def checked(*args, **kwargs):
        # Every earlier cell has both its trace files; no table yet.
        assert len(list(tmp_path.glob("trace_*.csv"))) == 2 * len(cells)
        assert not (tmp_path / "comparison.csv").exists()
        cells.append(args)
        return run_cell(*args, **kwargs)

    monkeypatch.setattr(harness, "run_cell", checked)
    rows = harness.run_comparison(tiny_spec(rhos=(0.9, 0.99), repetitions=2,
                                            k_max=50), out_dir=tmp_path)
    assert len(cells) == len(rows) == 4
    assert len(list(tmp_path.glob("trace_*.csv"))) == 8
    assert len(read_csv(tmp_path / "comparison.csv")) == 5


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("traces")
    harness.run_comparison(tiny_spec(problem="qip", sizes=((40, 5),)),
                           out_dir=out)
    return out


class TestTraceCsv:
    def test_final_psi_gap_is_zero(self, run_dir):
        rows = read_csv(run_dir / "trace_qip_m40_d5_lam0_rho0_rep0_bpge.csv")
        gap_col = harness.TRACE_HEADER.index("psi_gap")
        assert float(rows[-1][gap_col]) == 0.0

    def test_lyapunov_column_nonincreasing(self, run_dir):
        rows = read_csv(run_dir / "trace_qip_m40_d5_lam0_rho0_rep0_bpge.csv")
        col = harness.TRACE_HEADER.index("lyapunov")
        values = [float(r[col]) for r in rows[1:]]
        for prev, curr in zip(values, values[1:]):
            assert curr <= prev + 1e-10 * max(1.0, abs(prev))

    def test_dh_column_satisfies_rate_bound(self, run_dir):
        rows = read_csv(run_dir / "trace_qip_m40_d5_lam0_rho0_rep0_bpge.csv")
        dh_col = harness.TRACE_HEADER.index("dh_step")
        ly_col = harness.TRACE_HEADER.index("lyapunov")
        dh = [float(r[dh_col]) for r in rows[1:]]
        H = [float(r[ly_col]) for r in rows[1:]]
        spec = tiny_spec(problem="qip", sizes=((40, 5),))
        inst = harness.generate_instance(
            "qip", 40, 5, harness.derive_seed(spec.seed, 40, 5, 0, 0, 0))
        obj, _ = harness.problem_bundle("qip", inst)
        inv_lam = obj.smooth.smad_constant()
        unit = inv_lam * (1.0 - 0.99)
        running = np.inf
        for K in range(1, len(dh) - 1):
            running = min(running, dh[K])
            assert running <= (H[1] - H[K + 1]) / (K * unit) + 1e-10

    def test_determinism_modulo_timing(self, tmp_path):
        spec = tiny_spec(problem="qip", sizes=((40, 5),))
        harness.run_comparison(spec, out_dir=tmp_path / "a")
        harness.run_comparison(spec, out_dir=tmp_path / "b")
        for name in ("trace_qip_m40_d5_lam0_rho0_rep0_bpge.csv",
                     "comparison.csv"):
            a = (tmp_path / "a" / name).read_text(encoding="utf-8")
            b = (tmp_path / "b" / name).read_text(encoding="utf-8")
            assert harness.strip_timing_columns(a) == harness.strip_timing_columns(b)

    def test_strip_timing_columns_of_empty_text_is_empty(self):
        assert harness.strip_timing_columns("") == ""

    def test_numpy_scalar_spec_matches_plain_spec(self, tmp_path):
        # Same cell seeds (derive_seed) and the same printed values (_fmt).
        plain = dict(sizes=((30, 4),), rhos=(0.9,), seed=3, k_max=60,
                     tol=1e-6, beta0=0.99, eta=0.5, theta=1.0)
        numpy = dict(sizes=((np.int64(30), np.int64(4)),),
                     rhos=(np.float64(0.9),), seed=np.int64(3),
                     k_max=np.int64(60), tol=np.float64(1e-6),
                     beta0=np.float64(0.99), eta=np.float64(0.5),
                     theta=np.float64(1.0))
        for name, fields in (("plain", plain), ("numpy", numpy)):
            harness.run_comparison(harness.ExperimentSpec(
                problem="plip", **fields), out_dir=tmp_path / name)
        names = sorted(p.name for p in (tmp_path / "plain").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "numpy").iterdir())
        assert len(names) == 3
        for name in names:
            a, b = ((tmp_path / d / name).read_text(encoding="utf-8")
                    for d in ("plain", "numpy"))
            assert harness.strip_timing_columns(a) == \
                harness.strip_timing_columns(b)


def test_sweep_calls_the_patchable_module_globals(tmp_path, monkeypatch):
    # A tracer that swaps these four attributes must see every call: the
    # sweep may not hold its own references captured at import.
    from bregopt import solvers
    calls = {}

    def count(owner, name):
        original = getattr(owner, name)
        key = "%s.%s" % (owner.__name__.rsplit(".", 1)[-1], name)
        calls[key] = 0

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    for owner, name in ((harness, "bpge_solve"), (solvers, "bpge_solve"),
                        (harness, "generate_instance"),
                        (harness, "format_trace_csv")):
        count(owner, name)
    harness.run_comparison(tiny_spec(k_max=50), out_dir=tmp_path)
    # bpg_solve reaches solvers.bpge_solve; the harness calls bpge directly.
    assert calls == {"harness.bpge_solve": 1, "solvers.bpge_solve": 1,
                     "harness.generate_instance": 1,
                     "harness.format_trace_csv": 2}


class HeldFuture(concurrent.futures.Future):
    """A pooled cell's future: the cell runs, in this process, when released
    (at submit, unless the pool holds it) or when the sweep waits for it."""

    def __init__(self, call):
        super().__init__()
        self.call = call

    def release(self):
        if not self.done():
            try:
                self.set_result(self.call())
            except Exception as exc:
                self.set_exception(exc)

    def result(self, timeout=None):
        self.release()
        return super().result(timeout)


class TestJobs:
    """run_comparison(jobs=...) with ProcessPoolExecutor replaced by a pool
    that runs each submitted cell in this process when it is submitted, or,
    with `held_pools`, only when the sweep waits for it."""

    @pytest.fixture
    def pools(self, monkeypatch, tmp_path):
        made = []

        class InlinePool:
            hold = False

            def __init__(self, max_workers, mp_context):
                assert mp_context.get_start_method() == "fork"
                self.workers, self.submitted, self.cancelled = (
                    max_workers, [], None)
                self.futures = {}
                made.append(self)

            def submit(self, fn, *args):
                # (cell, cells whose traces this process has written)
                self.submitted.append(
                    (args[-1], len(list(tmp_path.glob("pooled/*"))) // 2))
                future = self.futures[args[-1]] = HeldFuture(
                    lambda: fn(*args))
                if not self.hold:
                    future.release()
                return future

            def shutdown(self, cancel_futures=False):
                self.cancelled = cancel_futures

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            InlinePool)
        return made

    @pytest.fixture
    def held_pools(self, pools, monkeypatch):
        monkeypatch.setattr(concurrent.futures.ProcessPoolExecutor, "hold",
                            True)
        return pools

    @staticmethod
    def watch(monkeypatch, pools, out, fail=None):
        """Patch run_cell to log (cell, the pool's unfinished cells, cells
        written to out) as each cell starts, and to raise in cell fail."""
        log, run_cell = [], harness.run_cell

        def watched(*args):
            cell = args[-1]  # one size, lambda and rho: the rep is the cell
            log.append((cell, sorted(j for p in pools for j, f
                                     in p.futures.items() if not f.done()),
                        len(list(out.glob("trace_*.csv"))) // 2))
            if cell == fail:
                raise RuntimeError("cell %d failed" % cell)
            return run_cell(*args)
        monkeypatch.setattr(harness, "run_cell", watched)
        return log

    @staticmethod
    def cpus(monkeypatch, n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                            raising=False)

    @pytest.mark.parametrize("jobs", [0, -3, True, 2.5, np.float64(2.0),
                                      "2", None], ids=repr)
    def test_jobs_must_be_an_integer_of_at_least_one(self, jobs, pools,
                                                     monkeypatch, tmp_path):
        # Rejected before out_dir is made and before any cell runs.
        monkeypatch.setattr(harness, "run_cell",
                            lambda *args: pytest.fail("a cell ran"))
        with pytest.raises(ValidationError, match="jobs must be an integer"):
            harness.run_comparison(tiny_spec(), out_dir=tmp_path / "out",
                                   jobs=jobs)
        assert not (tmp_path / "out").exists() and pools == []

    def test_numpy_integer_jobs_are_integers(self, pools, monkeypatch,
                                             tmp_path):
        self.cpus(monkeypatch, 2)
        rows = harness.run_comparison(tiny_spec(repetitions=2, k_max=20),
                                      out_dir=tmp_path, jobs=np.int64(2))
        assert len(rows) == 2 and [p.workers for p in pools] == [1]

    def test_workers_are_capped_at_cells_and_cpus(self, pools, monkeypatch,
                                                  tmp_path):
        spec = tiny_spec(repetitions=3, k_max=20)
        self.cpus(monkeypatch, 64)
        harness.run_comparison(spec, out_dir=tmp_path / "a", jobs=64)
        self.cpus(monkeypatch, 2)
        harness.run_comparison(spec, out_dir=tmp_path / "b", jobs=64)
        harness.run_comparison(spec, out_dir=tmp_path / "c", jobs=1)
        assert [p.workers for p in pools] == [2, 1]
        assert all(p.cancelled for p in pools)

    def test_cells_are_dealt_within_two_jobs_of_the_caller(self, pools,
                                                           monkeypatch,
                                                           tmp_path):
        spec = tiny_spec(repetitions=8, k_max=20)
        self.cpus(monkeypatch, 8)
        harness.run_comparison(spec, out_dir=tmp_path / "serial")
        harness.run_comparison(spec, out_dir=tmp_path / "pooled", jobs=3)
        (pool,) = pools
        # Cells 0, 3 and 6 ran here; each other cell j went to the pool once,
        # when this process was at cell i > j - 2 jobs.
        assert [j for j, _ in pool.submitted] == [1, 2, 4, 5, 7]
        assert all(j < i + 6 for j, i in pool.submitted)
        assert [i for _, i in pool.submitted] == [0, 0, 0, 0, 2]
        assert_same_files(tmp_path / "serial", tmp_path / "pooled")

    def test_caller_runs_ahead_of_an_unfinished_worker_cell(
            self, held_pools, monkeypatch, tmp_path):
        spec = tiny_spec(repetitions=4, k_max=20)
        self.cpus(monkeypatch, 2)
        harness.run_comparison(spec, out_dir=tmp_path / "serial")
        log = self.watch(monkeypatch, held_pools, tmp_path / "ahead")
        harness.run_comparison(spec, out_dir=tmp_path / "ahead", jobs=2)
        # Cells 0 and 2 ran here, 2 while the worker's cells 1 and 3 were
        # unfinished and only cell 0 was written; the sweep then waited.
        assert log == [(0, [1, 3], 0), (2, [1, 3], 1), (1, [1, 3], 1),
                       (3, [3], 3)]
        assert_same_files(tmp_path / "serial", tmp_path / "ahead")

    def test_caller_writes_every_finished_cell_before_its_next(
            self, pools, monkeypatch, tmp_path):
        # The pool's cells finish when submitted, so each of this process's
        # cells starts with every cell before it written.
        spec = tiny_spec(repetitions=13, k_max=20)
        self.cpus(monkeypatch, 3)
        log = self.watch(monkeypatch, pools, tmp_path / "pooled")
        harness.run_comparison(spec, out_dir=tmp_path / "pooled", jobs=3)
        assert [(cell, written) for cell, _, written in log
                if cell % 3 == 0] == [(c, c) for c in range(0, 13, 3)]

    @pytest.mark.parametrize("fail, ran", [
        (2, [(0, [1, 3], 0), (2, [1, 3], 1), (1, [1, 3], 1)]),
        (1, [(0, [1, 3], 0), (2, [1, 3], 1), (4, [1, 3], 1), (1, [1, 3], 1)]),
    ], ids=["caller", "worker"])
    def test_an_exception_is_raised_at_its_turn_after_running_ahead(
            self, fail, ran, held_pools, monkeypatch, tmp_path):
        # Cell 2 is this process's, cell 1 the worker's; either way cell 2
        # ran before cell 1 finished, and the sweep ends as the serial one.
        # After its own cell raised, this process runs no further cell.
        spec = tiny_spec(repetitions=6, k_max=20)
        self.cpus(monkeypatch, 2)
        log = self.watch(monkeypatch, held_pools, tmp_path / "ahead", fail)
        errors = []
        for out, jobs in (("serial", 1), ("ahead", 2)):
            log.clear()
            with pytest.raises(RuntimeError) as info:
                harness.run_comparison(spec, out_dir=tmp_path / out,
                                       jobs=jobs)
            errors.append(str(info.value))
        assert errors == ["cell %d failed" % fail] * 2
        assert log == ran
        assert_same_files(tmp_path / "serial", tmp_path / "ahead")
        assert len(list((tmp_path / "ahead").iterdir())) == 2 * fail

    @pytest.mark.parametrize("hold", [False, True], ids=["eager", "held"])
    def test_results_held_never_exceed_two_jobs_cells(
            self, hold, pools, monkeypatch, tmp_path):
        spec, jobs = tiny_spec(repetitions=13, k_max=20), 3
        out = tmp_path / "pooled"
        self.cpus(monkeypatch, jobs)
        harness.run_comparison(spec, out_dir=tmp_path / "serial")
        monkeypatch.setattr(concurrent.futures.ProcessPoolExecutor, "hold",
                            hold)
        log = self.watch(monkeypatch, pools, out)
        run_cell, finished, held = harness.run_cell, set(), []

        def counted(*args):
            # Cells finished so far, less the cells whose traces are written.
            result = run_cell(*args)
            finished.add(args[-1])
            held.append(len(finished) - len(list(out.glob("*.csv"))) // 2)
            return result
        monkeypatch.setattr(harness, "run_cell", counted)
        harness.run_comparison(spec, out_dir=out, jobs=jobs)
        (pool,) = pools
        # No cell ran or went to the pool 2 jobs cells past the oldest
        # unwritten one, so no more than 2 jobs cells' results were held.
        assert all(cell < written + 2 * jobs for cell, _, written in log)
        assert all(j < i + 2 * jobs for j, i in pool.submitted)
        assert len(held) == 13 and max(held) <= 2 * jobs
        assert_same_files(tmp_path / "serial", out)

    def test_without_fork_the_caller_runs_every_cell(self, pools, monkeypatch,
                                                     tmp_path):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        self.cpus(monkeypatch, 4)
        spec = tiny_spec(repetitions=3, k_max=20)
        harness.run_comparison(spec, out_dir=tmp_path / "serial")
        harness.run_comparison(spec, out_dir=tmp_path / "jobs4", jobs=4)
        assert pools == []
        assert_same_files(tmp_path / "serial", tmp_path / "jobs4")


def assert_same_files(a, b):
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (harness.strip_timing_columns((a / name).read_text("utf-8"))
                == harness.strip_timing_columns((b / name).read_text("utf-8")))
