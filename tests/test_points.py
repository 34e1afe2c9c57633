"""The one rule for a point, at every public entry that takes one.

A point is a 1-D vector of ints or floats of the kernel's size, else
`ValidationError`, in the interior of the domain, else `DomainError`; the z
of an inverse gradient is held to the range of grad h instead.
"""

from functools import partial

import numpy as np
import pytest

from bregopt import (BurgKernel, DomainError, EuclideanKernel, QuarticKernel,
                     SolverConfig, ValidationError, bpg_solve, bpge_solve)
from bregopt import plip, qip

D = 3
PLIP = plip.generate_plip(10, D, seed=0)
QIP = qip.generate_qip(10, D, seed=0)
POSITIVE = np.array([1, 2, 3])
MIXED = np.array([1, -2, 3])
OUTSIDE_BURG = ([1.0, -2.0, 1.0], [1.0, 0.0, 1.0])


def _entries():
    """(name, call, an interior int point, points outside the domain, any
    size). Burg's inverse gradient is componentwise: it takes any size and
    maps -inf to the boundary point 0, as
    test_burg_domain_tests_match_elementwise_expressions pins."""
    out = []
    for k in (EuclideanKernel(D), BurgKernel(D), QuarticKernel(D)):
        burg = isinstance(k, BurgKernel)
        good, outside = (POSITIVE, OUTSIDE_BURG) if burg else (MIXED, ())
        name = type(k).__name__
        out += [(name + ".value", k.value, good, outside, False),
                (name + ".gradient", k.gradient, good, outside, False),
                (name + ".bregman.x", partial(k.bregman, y=good), good,
                 outside, False),
                (name + ".bregman.y", partial(k.bregman, good), good,
                 outside, False)]
        if burg:
            out.append((name + ".inverse_gradient", k.inverse_gradient,
                        -good, [[-1.0, 2.0, -1.0], [-1.0, 0.0, -1.0]], True))
        else:
            out.append((name + ".inverse_gradient", k.inverse_gradient, good,
                        (), False))
    for smooth, good, outside in ((plip.PlipSmooth(PLIP), POSITIVE,
                                   OUTSIDE_BURG),
                                  (qip.QipSmooth(QIP), MIXED, ())):
        name = type(smooth).__name__
        out += [(name + ".value", smooth.value, good, outside, False),
                (name + ".gradient", smooth.gradient, good, outside, False)]
    out += [("plip_prox.y", partial(plip.plip_prox, PLIP, grad=MIXED,
                                    lam=0.01), POSITIVE, OUTSIDE_BURG, False),
            ("plip_prox.grad", partial(plip.plip_prox, PLIP, POSITIVE,
                                       lam=0.01), MIXED, (), False)]
    for obj, good, outside in ((plip.make_objective(PLIP), POSITIVE,
                                OUTSIDE_BURG),
                               (qip.make_objective(QIP), MIXED, ())):
        cfg = SolverConfig(lam=1.0 / obj.smooth.smad_constant(), k_max=3)
        for solve in (bpge_solve, bpg_solve):
            name = "%s.%s.x0" % (solve.__name__, type(obj.smooth).__name__)
            out.append((name, partial(solve, obj, cfg=cfg), good, outside,
                        False))
    return out


ENTRIES = _entries()


def _rejections():
    for name, call, good, outside, any_size in ENTRIES:
        f = good.astype(float)
        malformed = {"numeric_strings": f.astype(str).tolist(),
                     "string_array": f.astype(str),
                     "bools": [True] * D, "bool_array": np.ones(D, bool),
                     "objects": f.astype(object), "row": f.reshape(1, D),
                     "column": f.reshape(D, 1)}
        if not any_size:
            malformed.update(short=f[:-1], long=np.append(f, f[0]))
        for what, bad in malformed.items():
            yield pytest.param(call, bad, ValidationError,
                               id="%s-%s" % (name, what))
        nonfinite = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}
        if any_size:
            del nonfinite["-inf"]
        for what, v in nonfinite.items():
            bad = f.copy()
            bad[1] = v
            yield pytest.param(call, bad, DomainError,
                               id="%s-%s" % (name, what))
        for i, bad in enumerate(outside):
            yield pytest.param(call, bad, DomainError,
                               id="%s-outside%d" % (name, i))


@pytest.mark.parametrize("call, bad, error", list(_rejections()))
def test_public_entries_reject_invalid_points(call, bad, error):
    with pytest.raises(error):
        call(bad)


@pytest.mark.parametrize("call, good", [
    pytest.param(call, good, id=name) for name, call, good, _, _ in ENTRIES])
def test_public_entries_accept_int_vectors(call, good):
    def result(x):
        r = call(x)
        return getattr(r, "x_final", r)

    np.testing.assert_array_equal(result(good), result(good.astype(float)))
