import ast
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bregopt
from bregopt import (EuclideanKernel, SolverConfig, ValidationError,
                     check_smad, harness, plip)

SRC = Path(bregopt.__file__).resolve().parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted(Path(__file__).resolve().parent.glob("*.py"))
ROOT = Path(__file__).resolve().parent.parent


def test_every_exported_name_resolves():
    missing = [name for name in bregopt.__all__
               if not hasattr(bregopt, name)]
    assert missing == []


def test_readme_names_every_exported_name():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    missing = [name for name in bregopt.__all__
               if not re.search(r"\b%s\b" % name, readme)]
    assert missing == []


@pytest.mark.parametrize("name", sorted(harness.PROBLEM_MODULES))
def test_problem_module_protocol(name):
    module = harness.PROBLEM_MODULES[name]
    for attr in ("generate", "make_objective", "default_x0"):
        assert callable(getattr(module, attr, None)), attr
    inst = module.generate(12, 5, seed=21, theta=0.7)
    obj, x0 = module.make_objective(inst), module.default_x0(inst)
    assert obj.kernel.dim == x0.shape[0] == inst.d


COUNT_SPEC = dict(problem="plip", sizes=((6, 2),), solvers=("bpg",), k_max=3)
COUNT_OBJ = plip.make_objective(plip.generate_plip(6, 2, seed=0))
# The five counts, by the name their message gives them: n -> a call.
COUNTS = {
    "kernel dimension": lambda n, out: EuclideanKernel(n),
    "k_max": lambda n, out: SolverConfig(lam=0.1, k_max=n),
    "repetitions": lambda n, out: harness.ExperimentSpec(repetitions=n,
                                                         **COUNT_SPEC),
    "jobs": lambda n, out: harness.run_comparison(
        harness.ExperimentSpec(**COUNT_SPEC), out, jobs=n),
    "samples": lambda n, out: check_smad(COUNT_OBJ, samples=n),
}


@pytest.mark.parametrize("name", sorted(COUNTS))
def test_every_count_has_the_one_rule(name, tmp_path):
    call = COUNTS[name]
    for bad in (0, -1, 2.5, True, "3"):
        message = "^%s must be an integer >= 1, got %s$" % (
            name, re.escape(repr(bad)))
        with pytest.raises(ValidationError, match=message):
            call(bad, tmp_path)
    call(np.int64(3), tmp_path)


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_unused_import_is_found():
    assert unused_imports("import os\nfrom typing import List\nos.sep\n") \
        == [(2, "List")]


@pytest.mark.parametrize("path", MODULES + TEST_MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_benchmark_selftest_passes():
    # perfbench's tracer wraps bregopt's callables by name, so renaming or
    # removing one of them breaks every traced benchmark run; this catches it.
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "selftest passed" in proc.stdout
