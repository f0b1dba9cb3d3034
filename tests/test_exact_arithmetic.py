"""Exact results stay exact: Poly coefficients are ints when integral, and no
division of two ints (which gives a float) reaches an exact path."""

import json
import random
import re
from fractions import Fraction as Q

import pytest

from gjms6.boundary import apply_B
from gjms6.cli import main
from gjms6.geometry import ball, halfspace, hemisphere, hyperbolic_geodesic
from gjms6.polys import Poly, random_poly
from gjms6.series import Series, series_inverse
from gjms6.solver import BoundaryTriple, inverse, mode_solve
from test_conformal import normalize_jet

MODELS = (halfspace, ball, hemisphere, hyperbolic_geodesic)


def test_normalizing_jets_are_fractions():
    for model in MODELS:
        for n in range(5, 10):
            coeffs = normalize_jet(model(n)).coeffs
            assert all(type(c) is Q for c in coeffs), (model.__name__, n, coeffs)


def test_exact_solves_read_back_fractions():
    data = BoundaryTriple(Q(3), Q(-1, 2), Q(5, 7))
    for model in (ball, hemisphere, hyperbolic_geodesic):
        for n in (5, 7, 8):
            g = model(n)
            for ell in (0, 1, 4):
                res = mode_solve(g, ell, data)
                assert res.exact, (model.__name__, n, ell)
                got = [apply_B(j, g, res.mode) for j in range(6)]
                assert all(type(v) is Q for v in got), (model.__name__, n, ell, got)


def test_integral_poly_coefficients_are_ints():
    for d in (1, 4, 8):
        for i in range(d):
            assert all(type(c) is int for c in Poly.var(d, i).terms.values())
    assert Poly.const(3, Q(4)).terms == {(0, 0, 0): 4}
    assert type(Poly.const(3, Q(4)).terms[(0, 0, 0)]) is int
    assert type(Poly.monomial(3, (1, 0, 2), Q(-6, 3)).terms[(1, 0, 2)]) is int
    assert type(Poly.const(3, Q(1, 2)).terms[(0, 0, 0)]) is Q
    x = Poly.var(2, 0)
    assert type((Q(3) * x).terms[(1, 0)]) is int
    assert type((Q(3, 2) * x).terms[(1, 0)]) is Q
    # the int and Fraction forms of a polynomial are one value
    rng = random.Random(7)
    for _ in range(20):
        p = random_poly(rng, 4, 4, 5)
        as_fractions = Poly(4, {e: Q(c) for e, c in p.terms.items()})
        assert p == as_fractions and hash(p) == hash(as_fractions)
        assert repr(p) == repr(as_fractions)
        assert all(type(c) is int for c in p.terms.values())


def test_integer_inputs_divide_exactly():
    """int / int is a float: the exact solve and the series inverse take
    integer entries through Fraction."""
    inv = inverse([[2, 0, 0], [1, 3, 0], [0, 0, 1]])
    assert [row[0] for row in inv] == [Q(1, 2), Q(-1, 6), 0]
    assert all(type(c) is Q for row in inv for c in row)
    inv = series_inverse(Series([2, 1], 3))
    assert inv.coeffs == [Q(1, 2), Q(-1, 4), Q(1, 8), Q(-1, 16)]
    assert all(type(c) is Q for c in inv.coeffs)


@pytest.mark.parametrize("argv", [
    ["all", "--n", "5"],
    ["dtn", "--geometry", "hyperbolic", "--n", "7"],
    ["dtn", "--geometry", "ball", "--n", "6"],
    ["covariance", "--n", "5"],
])
def test_exact_report_residuals_are_rational(argv, tmp_path):
    out = tmp_path / "r.json"
    main(argv + ["--out", str(out)])
    checks = json.loads(out.read_text())["checks"]
    exact = [c for c in checks if c["exact"]]
    assert exact
    for c in exact:
        assert re.fullmatch(r"-?\d+/\d+", c["residual"]), c
