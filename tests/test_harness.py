import csv
import dataclasses

import numpy as np
import pytest

from bregopt import (
    LineSearchConfig,
    SolverConfig,
    ValidationError,
    bpg_solve,
    bpge_solve,
)
from bregopt import harness, plip

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

    @pytest.mark.parametrize("size", [(0, 3), (30, 0), (-1, 4)])
    def test_size_rule_is_that_of_generate(self, size):
        # The spec rejects what `generate` would, with its message.
        with pytest.raises(ValidationError, match="m and d"):
            tiny_spec(sizes=(size,))


class TestGenerateInstance:
    def test_deterministic_json(self):
        a = harness.generate_instance("plip", 100, 10, 42)
        b = harness.generate_instance("plip", 100, 10, 42)
        assert plip.to_json(a) == plip.to_json(b)

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
                                                 solvers=("bpge",)))
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
        "numerical_failure": bpge_solve(
            dataclasses.replace(obj, kernel=FailingBurgKernel(obj.dim, 4)),
            x0, cfg),
        "numpy_beta0": bpge_solve(obj, x0, dataclasses.replace(
            cfg, line_search=LineSearchConfig(beta0=np.float64(0.9)))),
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
                        (harness, "write_trace_csv")):
        count(owner, name)
    harness.run_comparison(tiny_spec(k_max=50), out_dir=tmp_path)
    # bpg_solve reaches solvers.bpge_solve; the harness calls bpge directly.
    assert calls == {"harness.bpge_solve": 1, "solvers.bpge_solve": 1,
                     "harness.generate_instance": 1,
                     "harness.write_trace_csv": 2}
