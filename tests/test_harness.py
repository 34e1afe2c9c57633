import csv

import numpy as np
import pytest

from bregopt import ValidationError
from bregopt import harness, plip, qip


def tiny_spec(**overrides):
    base = dict(problem="plip", sizes=((30, 4),), lambdas=("1/L",),
                rhos=(0.99,), solvers=("bpge", "bpg"), seed=1, k_max=400)
    base.update(overrides)
    return harness.ExperimentSpec.from_dict(base)


class TestSpecValidation:
    def test_rejects_pg_on_plip(self):
        with pytest.raises(ValidationError, match="Lipschitz"):
            tiny_spec(solvers=("pg",))

    def test_rejects_pge_on_qip(self):
        with pytest.raises(ValidationError, match="Lipschitz"):
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


def test_emit_convergence_curves(tmp_path):
    from bregopt import SolverConfig, bpge_solve
    inst = qip.generate_qip(30, 5, seed=23)
    obj, x0 = qip.make_objective(inst), qip.default_x0(inst)
    result = bpge_solve(obj, x0,
                        SolverConfig(lam=1.0 / obj.smooth.smad_constant(),
                                     k_max=100))
    paths = harness.emit_convergence_curves({"demo": result}, tmp_path)
    assert paths == [tmp_path / "trace_demo.csv"]
    rows = read_csv(paths[0])
    assert rows[0] == list(harness.TRACE_HEADER)
    assert len(rows) - 2 == result.iterations
