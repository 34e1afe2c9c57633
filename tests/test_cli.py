import csv
import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bregopt import NumericalError, cli, harness, plip, qip, solvers

_RUN_CELL = harness.run_cell
needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="sweep workers are forked")


def _die_in_worker(*args):
    """harness.run_cell, except that a forked pool worker dies in it."""
    if multiprocessing.parent_process() is not None:
        os._exit(1)
    return _RUN_CELL(*args)


def _nan_plip_value(monkeypatch):
    """plip's f reads NaN everywhere, so every plip run fails numerically."""
    phi = plip.PlipSmooth._phi
    monkeypatch.setattr(plip.PlipSmooth, "_phi", staticmethod(
        lambda u, b, value=True: (float("nan"), phi(u, b, value)[1])))


class TestGenerate:
    def test_writes_instance_json(self, tmp_path, capsys):
        code = cli.main(["generate", "--problem", "plip", "--m", "20",
                         "--d", "4", "--seed", "3", "--out", str(tmp_path)])
        assert code == 0
        path = tmp_path / "plip_m20_d4_seed3.json"
        assert path.exists()
        assert str(path) in capsys.readouterr().out
        assert path.read_bytes() == \
            plip.generate_plip(20, 4, seed=3).to_json().encode()

    def test_qip_round_trip(self, tmp_path):
        cli.main(["generate", "--problem", "qip", "--m", "15", "--d", "5",
                  "--seed", "2", "--theta", "0.5", "--out", str(tmp_path)])
        text = (tmp_path / "qip_m15_d5_seed2.json").read_bytes()
        assert text == qip.generate_qip(15, 5, 2, theta=0.5).to_json().encode()
        assert json.loads(text)["theta"] == 0.5

    # SHA-256 of the files that generators drawing into fresh numpy arrays
    # wrote; drawing into 64-byte-aligned ones must not move a byte.
    @pytest.mark.parametrize("argv,name,sha256", [
        (["plip", "--m", "50", "--d", "8", "--seed", "3"],
         "plip_m50_d8_seed3.json",
         "cd619838ffbb2f4fc9bda2cd1f8b50ed35691525e49e9b46759693aeeca9fe56"),
        (["qip", "--m", "40", "--d", "20", "--seed", "5", "--theta", "0.5"],
         "qip_m40_d20_seed5.json",
         "bb70c3b6b1fe542b65986ae5fa2ea1713ff1d9aaaf7b664cd10ab51b3fd1e72d"),
    ], ids=["plip", "qip"])
    def test_writes_the_golden_bytes(self, argv, name, sha256, tmp_path):
        assert cli.main(["generate", "--problem"] + argv
                        + ["--out", str(tmp_path)]) == 0
        data = (tmp_path / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == sha256

    @pytest.mark.parametrize("theta", ["nan", "-1"])
    @pytest.mark.parametrize("problem", ["qip", "plip"])
    def test_bad_theta_writes_nothing(self, problem, theta, tmp_path, capsys):
        code = cli.main(["generate", "--problem", problem, "--m", "15",
                         "--d", "5", "--theta", theta, "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("problem", ["plip", "qip"])
    def test_unallocatable_size_writes_nothing(self, problem, tmp_path,
                                               capsys):
        # 1e8 x 1e8 doubles are 71 PiB, past any address space: numpy
        # raises MemoryError before it allocates anything.
        code = cli.main(["generate", "--problem", problem, "--m", "100000000",
                         "--d", "100000000", "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: Unable to allocate")
        assert list(tmp_path.iterdir()) == []


class TestSolve:
    def test_writes_trace_and_summary(self, tmp_path, capsys):
        code = cli.main(["solve", "--problem", "qip", "--m", "30", "--d", "5",
                         "--seed", "1", "--solver", "bpge",
                         "--kmax", "300", "--out", str(tmp_path)])
        assert code == 0
        trace = tmp_path / "trace_qip_m30_d5_seed1_bpge.csv"
        summary = tmp_path / "result_qip_m30_d5_seed1_bpge.json"
        assert trace.exists() and summary.exists()
        doc = json.loads(summary.read_text(encoding="utf-8"))
        assert doc["iterations"] <= 300
        assert len(doc["x_final"]) == 5
        out = capsys.readouterr().out
        assert "bpge" in out and "iterations" in out

    def test_trace_is_the_cell_run(self, tmp_path, capsys):
        # solve is one sweep cell: the spec's config, --seed as instance seed.
        assert cli.main(["solve", "--problem", "qip", "--m", "30", "--d", "5",
                         "--seed", "4", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        spec = harness.ExperimentSpec(problem="qip", sizes=((30, 5),))
        obj, x0 = harness.problem_bundle(
            "qip", harness.generate_instance("qip", 30, 5, 4))
        cfg = spec.solver_config(obj.smooth.smad_constant(), "1/L",
                                 spec.rhos[0])
        harness.write_trace_csv(solvers.bpge_solve(obj, x0, cfg),
                                tmp_path / "ref.csv")
        got, ref = ((tmp_path / name).read_text(encoding="utf-8") for name in
                    ("trace_qip_m30_d5_seed4_bpge.csv", "ref.csv"))
        assert (harness.strip_timing_columns(got)
                == harness.strip_timing_columns(ref))

    def test_numerical_failure_exits_2_with_its_record(self, tmp_path,
                                                       capsys, monkeypatch):
        _nan_plip_value(monkeypatch)
        assert cli.main(["solve", "--problem", "plip", "--m", "20", "--d",
                         "3", "--seed", "1", "--out", str(tmp_path)]) == 2
        stem = "plip_m20_d3_seed1_bpge"
        assert (tmp_path / ("trace_%s.csv" % stem)).exists()
        doc = json.loads((tmp_path / ("result_%s.json" % stem)).read_text(
            encoding="utf-8"))
        assert doc["exit_reason"] == "numerical_failure"
        assert "numerical_failure" in capsys.readouterr().out

    def test_pg_on_either_problem_is_rejected(self, tmp_path, capsys):
        for problem in ("plip", "qip"):
            code = cli.main(["solve", "--problem", problem, "--m", "10",
                             "--d", "3", "--solver", "pg",
                             "--out", str(tmp_path)])
            assert code == 1
            assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("solver", harness.SOLVERS)
    @pytest.mark.parametrize("problem", harness.PROBLEMS)
    def test_every_offered_solver_runs(self, problem, solver, tmp_path):
        # No solver name is offered only to be refused.
        assert cli.main(["solve", "--problem", problem, "--m", "10",
                         "--d", "3", "--solver", solver, "--kmax", "20",
                         "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("flag", ["--m", "--d"])
    def test_zero_size_is_rejected(self, flag, tmp_path, capsys):
        argv = ["solve", "--problem", "plip", "--m", "10", "--d", "3",
                "--out", str(tmp_path)]
        argv[argv.index(flag) + 1] = "0"
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("theta", ["-1", "nan"])
    def test_bad_theta_is_rejected(self, theta, tmp_path, capsys):
        code = cli.main(["solve", "--problem", "qip", "--m", "10", "--d", "3",
                         "--theta", theta, "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_plip_nan_theta_is_rejected(self, tmp_path, capsys):
        code = cli.main(["solve", "--problem", "plip", "--m", "10", "--d", "3",
                         "--theta", "nan", "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    def test_stationarity_exit_mode_and_lambda_rule(self, tmp_path, capsys):
        code = cli.main(["solve", "--problem", "plip", "--m", "40", "--d", "4",
                         "--solver", "bpg", "--lambda-rule", "1/2L",
                         "--exit-mode", "stationarity", "--tol", "1e-4",
                         "--out", str(tmp_path)])
        assert code == 0
        assert "bpg: tolerance" in capsys.readouterr().out
        stem = "plip_m40_d4_seed0_bpg"
        doc = json.loads((tmp_path / ("result_%s.json" % stem)).read_text(
            encoding="utf-8"))
        with open(tmp_path / ("trace_%s.csv" % stem), newline="") as fh:
            last = list(csv.DictReader(fh))[-1]
        assert int(last["iter"]) == doc["iterations"]
        obj = plip.make_objective(plip.generate_plip(40, 4, seed=0))
        g = obj.smooth.gradient(np.array(doc["x_final"]))
        assert float(last["residual"]) <= 1e-4 * (1 + np.sqrt(g.dot(g)))

    def test_objective_exit_mode_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli.main(["solve", "--problem", "plip", "--m", "40", "--d", "4",
                         "--exit-mode", "objective", "--out", str(out)])
        assert code == 1
        assert "invalid choice: 'objective'" in capsys.readouterr().err
        assert not out.exists()


class TestSweep:
    def spec_doc(self):
        return {"problem": "plip", "sizes": [[20, 3]], "solvers":
                ["bpge", "bpg"], "seed": 5, "k_max": 200}

    def test_runs_spec_file(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(self.spec_doc()), encoding="utf-8")
        out = tmp_path / "runs"
        code = cli.main(["sweep", "--spec", str(spec_path),
                         "--out", str(out), "--jobs", "2"])
        assert code == 0
        assert (out / "comparison.csv").exists()
        assert (out / "trace_plip_m20_d3_lam0_rho0_rep0_bpge.csv").exists()
        assert "1 rows" in capsys.readouterr().out

    def test_malformed_json_reports_location(self, tmp_path, capsys):
        spec_path = tmp_path / "bad.json"
        spec_path.write_text('{"problem": "plip", "sizes": [[10, 2]',
                             encoding="utf-8")
        code = cli.main(["sweep", "--spec", str(spec_path),
                         "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_unknown_field_rejected(self, tmp_path, capsys):
        doc = self.spec_doc()
        doc["stepsize"] = 0.1
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["sweep", "--spec", str(spec_path),
                         "--out", str(tmp_path)]) == 1
        assert "stepsize" in capsys.readouterr().err

    def run_spec(self, tmp_path, doc, *flags, out="runs"):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(doc), encoding="utf-8")
        return cli.main(["sweep", "--spec", str(spec_path),
                         "--out", str(tmp_path / out), *flags])

    @pytest.mark.parametrize("field", ["repetitions", "seed", "k_max"])
    def test_non_integer_field_rejected(self, field, tmp_path, capsys):
        doc = self.spec_doc()
        doc[field] = "5"
        assert self.run_spec(tmp_path, doc) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err

    @pytest.mark.parametrize("field,value", [
        ("tol", "1e-6"),
        ("rhos", ["0.9"]),
        ("sizes", [[20.5, 3]]),
        ("sizes", [["20", 3]]),
        ("sizes", [[20, 3, 1]]),
        ("sizes", 20),
        ("lambdas", [["1/L"]]),
    ])
    def test_mistyped_field_rejected(self, field, value, tmp_path, capsys):
        doc = dict(self.spec_doc(), **{field: value})
        assert self.run_spec(tmp_path, doc) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_nonpositive_jobs_rejected(self, jobs, tmp_path, capsys):
        assert self.run_spec(tmp_path, self.spec_doc(), "--jobs", jobs) == 1
        assert capsys.readouterr().err == (
            "error: jobs must be an integer >= 1, got %s\n" % jobs)

    def test_comparison_columns_of_a_bpge_only_sweep(self, tmp_path, capsys):
        assert self.run_spec(tmp_path, dict(self.spec_doc(),
                                            solvers=["bpge"])) == 0
        capsys.readouterr()
        with open(tmp_path / "runs" / "comparison.csv", newline="",
                  encoding="utf-8") as fh:
            (row,) = csv.DictReader(fh)
        assert list(row) == ["m", "d", "lambda_rule", "rho", "rep",
                             "T_bpge", "T_bpg", "T_ratio",
                             "N_bpge", "N_bpg", "N_ratio",
                             "exit_bpge", "exit_bpg"]
        assert row["N_bpg"] == "0" and row["exit_bpg"] == ""
        assert int(row["N_bpge"]) > 0 and row["exit_bpge"]
        for name in ("T_bpg", "T_ratio", "N_ratio"):
            assert row[name] == "nan"

    def test_numerical_failure_exits_2_with_its_row(self, tmp_path, capsys,
                                                    monkeypatch):
        _nan_plip_value(monkeypatch)
        assert self.run_spec(tmp_path, self.spec_doc()) == 2
        with open(tmp_path / "runs" / "comparison.csv", newline="",
                  encoding="utf-8") as fh:
            (row,) = csv.DictReader(fh)
        assert row["exit_bpge"] == row["exit_bpg"] == "numerical_failure"
        assert "1 rows" in capsys.readouterr().out

    @pytest.fixture
    def two_cpus(self, monkeypatch):
        """Two usable CPUs, so that --jobs 2 forks one worker anywhere."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)

    def test_jobs_does_not_change_output(self, tmp_path, capsys, two_cpus):
        # Five cells: this process runs cells 0, 2 and 4, the worker 1 and 3.
        doc = dict(self.spec_doc(),
                   sizes=[[20, 3], [30, 4], [25, 3], [22, 3], [28, 4]])
        for jobs in ("1", "2"):
            assert self.run_spec(tmp_path, doc, "--jobs", jobs,
                                 out="jobs" + jobs) == 0
        capsys.readouterr()
        assert multiprocessing.active_children() == []
        names = sorted(p.name for p in (tmp_path / "jobs1").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "jobs2").iterdir())
        assert len(names) == 11
        for name in names:
            a, b = ((tmp_path / ("jobs" + j) / name).read_text(encoding="utf-8")
                    for j in ("1", "2"))
            assert (harness.strip_timing_columns(a)
                    == harness.strip_timing_columns(b))

    @needs_fork
    def test_dead_worker_is_an_error_without_traceback(self, tmp_path, capsys,
                                                       two_cpus, monkeypatch):
        monkeypatch.setattr(harness, "run_cell", _die_in_worker)
        doc = dict(self.spec_doc(), repetitions=3)
        assert self.run_spec(tmp_path, doc, "--jobs", "2") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: a sweep worker died")
        assert "Traceback" not in err
        assert multiprocessing.active_children() == []
        # Cell 0 ran here; cell 1, the worker's, ended the sweep.
        assert sorted(p.name for p in (tmp_path / "runs").iterdir()) == [
            "trace_plip_m20_d3_lam0_rho0_rep0_bpg.csv",
            "trace_plip_m20_d3_lam0_rho0_rep0_bpge.csv"]

    @needs_fork
    def test_run_comparison_reports_a_dead_worker(self, tmp_path, two_cpus,
                                                  monkeypatch):
        monkeypatch.setattr(harness, "run_cell", _die_in_worker)
        spec = harness.ExperimentSpec.from_dict(
            dict(self.spec_doc(), repetitions=3))
        with pytest.raises(OSError, match="a sweep worker died"):
            harness.run_comparison(spec, out_dir=tmp_path, jobs=2)
        assert multiprocessing.active_children() == []

    def test_a_cells_memory_error_ends_both_settings_alike(self, tmp_path,
                                                           capsys, two_cpus):
        # The second cell's 1e8 x 1e8 matrix is too large to allocate; with
        # --jobs 2 it is the worker's cell, and its MemoryError comes back.
        doc = dict(self.spec_doc(),
                   sizes=[[20, 3], [100000000, 100000000], [30, 4]])
        outcomes = []
        for jobs in ("1", "2"):
            code = self.run_spec(tmp_path, doc, "--jobs", jobs,
                                 out="jobs" + jobs)
            out = tmp_path / ("jobs" + jobs)
            outcomes.append((code, capsys.readouterr().err,
                             {p.name: harness.strip_timing_columns(
                                 p.read_text(encoding="utf-8"))
                              for p in out.iterdir()}))
        assert outcomes[0] == outcomes[1]
        code, err, files = outcomes[0]
        assert code == 1 and err.startswith("error: Unable to allocate")
        assert sorted(files) == [
            "trace_plip_m20_d3_lam0_rho0_rep0_bpg.csv",
            "trace_plip_m20_d3_lam0_rho0_rep0_bpge.csv"]


def test_import_loads_no_pool_module():
    # Only a sweep with --jobs > 1 imports them, so no command's start-up
    # pays for them.
    code = ("import sys, bregopt.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestUnaddressableSize:
    # 4e9 x 4e9 doubles are 1.28e20 bytes, past np.intp: numpy would raise
    # its ValueError "array is too big", where this is a usage error.
    SIZE = 4000000000

    @pytest.mark.parametrize("problem", ["plip", "qip"])
    @pytest.mark.parametrize("command", ["generate", "solve", "sweep"])
    def test_rejected_before_out_is_created(self, command, problem, tmp_path,
                                            capsys):
        if command == "sweep":
            spec = tmp_path / "spec.json"
            spec.write_text(json.dumps({"problem": problem, "sizes": [
                [self.SIZE, self.SIZE]]}), encoding="utf-8")
            argv = ["sweep", "--spec", str(spec)]
        else:
            argv = [command, "--problem", problem, "--m", str(self.SIZE),
                    "--d", str(self.SIZE)]
        assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "too big" in err[0]
        assert not (tmp_path / "out").exists()


class TestNegativeSeed:
    @pytest.mark.parametrize("command", ["generate", "solve", "check"])
    def test_instance_seed_is_rejected(self, command, tmp_path, capsys):
        argv = [command, "--problem", "plip", "--m", "10", "--d", "3",
                "--seed", "-1"]
        if command != "check":  # a fresh --out must not be created
            argv += ["--out", str(tmp_path / "out")]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "seed" in captured.err
        assert "PASS" not in captured.out
        assert list(tmp_path.iterdir()) == []

    def test_sweep_master_seed_may_be_negative(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(
            {"problem": "plip", "sizes": [[20, 3]], "seed": -5,
             "k_max": 50}), encoding="utf-8")
        assert cli.main(["sweep", "--spec", str(spec_path),
                         "--out", str(tmp_path / "runs")]) == 0
        assert "1 rows" in capsys.readouterr().out


class TestFileErrors:
    @pytest.mark.parametrize("command,case", [
        ("sweep", "missing-spec"),
        ("sweep", "spec-is-dir"),
        ("sweep", "spec-not-utf8"),
        ("generate", "out-is-file"),
        ("solve", "out-is-file"),
        ("sweep", "out-is-file"),
    ])
    def test_exits_1_without_traceback(self, command, case, tmp_path, capsys):
        spec, out = tmp_path / "spec.json", tmp_path / "out"
        spec.write_text(json.dumps({"problem": "plip", "sizes": [[10, 2]],
                                    "k_max": 20}), encoding="utf-8")
        if case == "missing-spec":
            spec = tmp_path / "missing.json"
        elif case == "spec-is-dir":
            spec = tmp_path
        elif case == "spec-not-utf8":
            spec.write_bytes(b'{"problem": "pl\xefip"}')
        else:
            out.write_text("", encoding="utf-8")
        if command == "sweep":
            argv = ["sweep", "--spec", str(spec)]
        else:
            argv = [command, "--problem", "plip", "--m", "10", "--d", "2"]
        assert cli.main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    def test_out_is_file_fails_before_solving(self, command, tmp_path,
                                              capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "run_cell",
                            lambda *args, **kwargs: calls.append(args))
        spec, out = tmp_path / "spec.json", tmp_path / "out"
        spec.write_text(json.dumps({"problem": "plip", "sizes": [[10, 2]]}),
                        encoding="utf-8")
        out.write_text("", encoding="utf-8")
        if command == "sweep":
            argv = ["sweep", "--spec", str(spec)]
        else:
            argv = ["solve", "--problem", "plip", "--m", "10", "--d", "2"]
        assert cli.main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert calls == []


class TestCheck:
    @pytest.mark.parametrize("problem", ["plip", "qip"])
    def test_invariant_suite_passes(self, problem, capsys):
        code = cli.main(["check", "--problem", problem, "--m", "30",
                         "--d", "5", "--seed", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    GOLDEN = {
        "plip": ("gradient_fd        PASS  (max relative error 7.180e-10)\n"
                 "smad_envelopes     PASS  (max upper -1.147e+01, "
                 "max lower -1.196e-01)\n"
                 "prox_first_order   PASS  (max residual 1.776e-15)\n"
                 "lyapunov_monotone  PASS  (max increase beyond slack "
                 "0.000e+00)\n"),
        "qip": ("gradient_fd        PASS  (max relative error 2.852e-10)\n"
                "smad_envelopes     PASS  (max upper -4.025e+03, "
                "max lower -1.823e+02)\n"
                "prox_first_order   PASS  (max residual 8.882e-15)\n"
                "lyapunov_monotone  PASS  (max increase beyond slack "
                "0.000e+00)\n"),
    }

    @pytest.mark.parametrize("problem", ["plip", "qip"])
    def test_output_is_golden(self, problem, capsys):
        # Every line, detail included: how the checks are laid out in the
        # package must not change what `bregopt check` prints.
        assert cli.main(["check", "--problem", problem, "--m", "30",
                         "--d", "5", "--seed", "4"]) == 0
        assert capsys.readouterr().out == self.GOLDEN[problem]

    def test_nan_theta_is_rejected(self, capsys):
        code = cli.main(["check", "--problem", "qip", "--m", "30",
                         "--d", "5", "--theta", "nan"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: ")
        assert "PASS" not in captured.out


class TestParser:
    def test_missing_subcommand_exits_nonzero(self, capsys):
        assert cli.main([]) != 0
        capsys.readouterr()

    def test_bad_choice_exits_nonzero(self, capsys):
        assert cli.main(["solve", "--problem", "lasso", "--m", "5",
                         "--d", "2"]) != 0
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["solve", "--problem", "foo", "--m", "5", "--d", "2"],
        ["solve", "--problem", "plip", "--m", "abc", "--d", "2"],
        ["solve", "--problem", "plip", "--m", "5"],
    ], ids=["bad-choice", "bad-int", "missing-flag"])
    def test_usage_error_exits_1(self, argv, capsys):
        # Exit 2 is reserved for numerical failure.
        assert cli.main(argv) == 1
        assert "error:" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        assert cli.main(["solve", "--help"]) == 0
        assert "usage:" in capsys.readouterr().out

    def test_numerical_error_is_one_line_and_exit_2(self, monkeypatch,
                                                    capsys):
        def fail(args):
            raise NumericalError("the check diverged")

        monkeypatch.setitem(cli._COMMANDS, "check", fail)
        assert cli.main(["check", "--problem", "plip", "--m", "5",
                         "--d", "2"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "numerical failure: the check diverged\n")
