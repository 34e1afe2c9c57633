"""Spec fuzz: every malformed experiment spec given to `bregopt sweep`
exits 1 with an `error:` line and never a traceback.

Each document starts from a valid spec and gets at least one defect that
the spec rules reject, so none of them reaches a solve.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from bregopt import cli, harness

VALID = {"problem": "plip", "sizes": [[20, 3]], "k_max": 5}
FIELDS = sorted(harness.ExperimentSpec.__dataclass_fields__)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10**6, 10**6)
    | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4,
)
non_integers = json_values.filter(
    lambda v: not isinstance(v, int) or isinstance(v, bool))
non_numbers = json_values.filter(
    lambda v: not isinstance(v, (int, float)) or isinstance(v, bool))
non_lists = json_values.filter(lambda v: not isinstance(v, list))


def number_outside(lo, hi, closed_lo=False):
    """Numbers outside (lo, hi), or [lo, hi) when closed_lo; NaN included."""
    def inside(v):
        return (lo <= v if closed_lo else lo < v) and v < hi
    return non_numbers | st.floats().filter(lambda v: not inside(v))


def bad_list(bad_entry, good_entry):
    """A list field with one bad entry among good ones, empty, or no list."""
    return (st.tuples(st.lists(good_entry, max_size=2), bad_entry)
            .map(lambda t: t[0] + [t[1]])
            | st.just([]) | non_lists)


sizes_ok = st.tuples(st.integers(1, 30), st.integers(1, 5)).map(list)
bad_size = st.one_of(
    non_lists,
    st.lists(st.integers(1, 30), max_size=4).filter(lambda v: len(v) != 2),
    st.tuples(non_integers, st.integers(1, 5)).map(list),
    st.tuples(st.integers(-5, 0), st.integers(-5, 5)).map(list),
    st.tuples(st.integers(1, 30), st.integers(-5, 0)).map(list),
)


def strings_except(allowed):
    """Anything but a string in allowed."""
    return (non_lists.filter(lambda v: not isinstance(v, str))
            | st.text(max_size=6).filter(lambda v: v not in allowed))


BAD_VALUES = {
    "problem": json_values.filter(lambda v: v not in harness.PROBLEMS),
    "sizes": bad_list(bad_size, sizes_ok),
    "lambdas": bad_list(strings_except(harness.LAMBDA_RULES),
                        st.sampled_from(sorted(harness.LAMBDA_RULES))),
    "rhos": bad_list(number_outside(0.0, 1.0), st.floats(0.1, 0.9)),
    "solvers": bad_list(strings_except(("bpge", "bpg")),
                        st.sampled_from(["bpge", "bpg"])),
    "seed": non_integers,
    "repetitions": non_integers | st.integers(-10, 0),
    "k_max": non_integers | st.integers(-10, 0),
    "tol": number_outside(0.0, math.inf),
    "beta0": number_outside(0.0, 1.0, closed_lo=True),
    "eta": number_outside(0.0, 1.0),
    "theta": number_outside(0.0, math.inf, closed_lo=True),
    "exit_mode": json_values.filter(lambda v: v not in (
        "iterate_relative", "stationarity")),
}


@st.composite
def malformed_spec(draw):
    """JSON text of a spec that the rules must reject."""
    kind = draw(st.sampled_from(
        ["field", "unknown", "missing", "not-object", "truncated"]))
    doc = dict(VALID)
    if kind == "field":
        for name in draw(st.lists(st.sampled_from(FIELDS), min_size=1,
                                  max_size=3, unique=True)):
            doc[name] = draw(BAD_VALUES[name])
    elif kind == "unknown":
        doc[draw(st.text(max_size=8).filter(
            lambda k: k not in FIELDS))] = draw(json_values)
    elif kind == "missing":
        del doc[draw(st.sampled_from(["problem", "sizes"]))]
    elif kind == "not-object":
        return json.dumps(draw(json_values.filter(
            lambda v: not isinstance(v, dict))))
    else:
        text = json.dumps(doc)
        return text[:draw(st.integers(0, len(text) - 1))]
    return json.dumps(doc)


@settings(max_examples=80, deadline=None, database=None)
@given(malformed_spec())
def test_malformed_spec_exits_1_without_traceback(text):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp) / "spec.json"
        spec.write_text(text, encoding="utf-8")
        with contextlib.redirect_stderr(err):
            code = cli.main(["sweep", "--spec", str(spec),
                             "--out", str(Path(tmp) / "runs")])
        assert not (Path(tmp) / "runs").exists()
    assert code == 1, text
    assert err.getvalue().startswith("error: "), (text, err.getvalue())
