import json

import numpy as np
import pytest

from bregopt import cli, harness, plip, qip


class TestGenerate:
    def test_writes_instance_json(self, tmp_path, capsys):
        code = cli.main(["generate", "--problem", "plip", "--m", "20",
                         "--d", "4", "--seed", "3", "--out", str(tmp_path)])
        assert code == 0
        path = tmp_path / "plip_m20_d4_seed3.json"
        assert path.exists()
        assert str(path) in capsys.readouterr().out
        inst = plip.from_json(path.read_text(encoding="utf-8"))
        ref = plip.generate_plip(20, 4, seed=3)
        assert np.array_equal(inst.A, ref.A)
        assert np.array_equal(inst.b, ref.b)

    def test_qip_round_trip(self, tmp_path):
        cli.main(["generate", "--problem", "qip", "--m", "15", "--d", "5",
                  "--seed", "2", "--theta", "0.5", "--out", str(tmp_path)])
        inst = qip.from_json(
            (tmp_path / "qip_m15_d5_seed2.json").read_text(encoding="utf-8"))
        assert inst.theta == 0.5


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

    def test_pg_on_either_problem_is_rejected(self, tmp_path, capsys):
        for problem in ("plip", "qip"):
            code = cli.main(["solve", "--problem", problem, "--m", "10",
                             "--d", "3", "--solver", "pg",
                             "--out", str(tmp_path)])
            assert code == 1
            assert "Lipschitz" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--m", "--d"])
    def test_zero_size_is_rejected(self, flag, tmp_path, capsys):
        argv = ["solve", "--problem", "plip", "--m", "10", "--d", "3",
                "--out", str(tmp_path)]
        argv[argv.index(flag) + 1] = "0"
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_objective_exit_mode_and_lambda_rule(self, tmp_path):
        code = cli.main(["solve", "--problem", "plip", "--m", "40", "--d", "4",
                         "--solver", "bpg", "--lambda-rule", "1/2L",
                         "--exit-mode", "objective", "--kmax", "200",
                         "--out", str(tmp_path)])
        assert code == 0


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

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_nonpositive_jobs_rejected(self, jobs, tmp_path, capsys):
        assert self.run_spec(tmp_path, self.spec_doc(), "--jobs", jobs) == 1
        assert "--jobs" in capsys.readouterr().err

    def test_jobs_does_not_change_output(self, tmp_path, capsys):
        doc = dict(self.spec_doc(), sizes=[[20, 3], [30, 4]])
        for jobs in ("1", "2"):
            assert self.run_spec(tmp_path, doc, "--jobs", jobs,
                                 out="jobs" + jobs) == 0
        capsys.readouterr()
        names = sorted(p.name for p in (tmp_path / "jobs1").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "jobs2").iterdir())
        assert len(names) == 5
        for name in names:
            a, b = ((tmp_path / ("jobs" + j) / name).read_text(encoding="utf-8")
                    for j in ("1", "2"))
            assert (harness.strip_timing_columns(a)
                    == harness.strip_timing_columns(b))


class TestCheck:
    @pytest.mark.parametrize("problem", ["plip", "qip"])
    def test_invariant_suite_passes(self, problem, capsys):
        code = cli.main(["check", "--problem", problem, "--m", "30",
                         "--d", "5", "--seed", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out and "FAIL" not in out


class TestParser:
    def test_missing_subcommand_exits_nonzero(self, capsys):
        assert cli.main([]) != 0
        capsys.readouterr()

    def test_bad_choice_exits_nonzero(self, capsys):
        assert cli.main(["solve", "--problem", "lasso", "--m", "5",
                         "--d", "2"]) != 0
        capsys.readouterr()
