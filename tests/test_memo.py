"""Memo purity: every ``functools.lru_cache`` in gjms6 is a pure function of
its key, so a report is the same whether the memos are warm or cleared."""

import functools
import importlib
import pkgutil

import pytest

import gjms6
from gjms6.cli import main

# the memos of the package when this test was written; new ones are found
# by the walk below without editing this list
KNOWN = {
    "gjms6.boundary.ball_poly_stencil",
    "gjms6.boundary.model_coefficients",
    "gjms6.boundary.separated_stencil",
    "gjms6.boundary.separated_weights",
    "gjms6.conformal._engine",
    "gjms6.polys.sphere_relation_power",
    "gjms6.reps.collar_coefficients",
    "gjms6.solver.dirichlet_inverse",
    "gjms6.solver.hemisphere_factor_solve",
    "gjms6.solver.mode_basis",
    "gjms6.solver.round_basis",
    "gjms6.traces.gauss_legendre",
    "gjms6.traces.interior_grams",
    "gjms6.traces.zonal_grid",
}


def package_memos() -> dict:
    """Every lru_cache wrapper bound in a gjms6 module namespace or in the
    attributes of a class defined there, by qualified name of its function."""
    modules = [importlib.import_module(f"gjms6.{info.name}") for info in pkgutil.iter_modules(gjms6.__path__)]
    found = {}
    for mod in [gjms6, *modules]:
        owners = [vars(mod)] + [vars(v) for v in vars(mod).values()
                                if isinstance(v, type) and v.__module__.startswith("gjms6")]
        for ns in owners:
            for v in ns.values():
                fn = getattr(v, "__func__", v)  # staticmethod and classmethod
                if isinstance(fn, functools._lru_cache_wrapper):
                    found[f"{fn.__module__}.{fn.__qualname__}"] = fn
    return found


def test_walk_finds_every_known_memo():
    found = set(package_memos())
    assert KNOWN <= found and len(found) >= 10


def test_operator_constants_are_one_memo_the_walk_finds():
    """``boundary`` and ``confcalc`` build their operator constants through
    one memo of Fraction, found by the walk; it gives the Fraction that
    Fraction itself gives, one object per typed argument tuple."""
    from fractions import Fraction

    from gjms6 import boundary, confcalc

    Q = boundary.Q
    assert confcalc.Q is Q and Q in package_memos().values()
    for n in (5, 6, 7):
        assert Q(3 * n - 11, 2 * n) == Fraction(3 * n - 11, 2 * n) and type(Q(3 * n - 11, 2 * n)) is Fraction
    assert Q(4, 2) is Q(4, 2) and Q(2) == 2 and type(Q(2)) is Fraction


def clear_all():
    for fn in package_memos().values():
        fn.cache_clear()


@pytest.mark.parametrize("argv", [
    ["symmetry", "--n", "5"],
    ["dtn", "--geometry", "hyperbolic", "--n", "5", "--lmax", "6"],
    ["trace", "--n", "7", "--geometry", "hemisphere", "--lmax", "16"],
    ["critical", "--n", "5", "--geometry", "ball", "--lmax", "16"],
])
def test_reports_are_the_same_cold_and_warm(argv, tmp_path):
    clear_all()
    assert main(argv + ["--out", str(tmp_path / "cold.json")]) == 0
    assert main(argv + ["--out", str(tmp_path / "warm.json")]) == 0
    assert any(fn.cache_info().currsize for fn in package_memos().values())
    assert (tmp_path / "cold.json").read_bytes() == (tmp_path / "warm.json").read_bytes()


def test_stencil_weights_are_keyed_on_the_type_of_lam():
    """An exact and a float eigenvalue of equal value (4 and 4.0 hash and
    compare equal) keep weights of their own: a float solve reads the same
    bits whether or not an exact solve of the same frequency came first."""
    from fractions import Fraction

    import numpy as np

    from gjms6.boundary import separated_weights
    from gjms6.solver import BoundaryTriple, halfspace_solve

    data = BoundaryTriple(0.2, 0.5, 0.3)

    def bits(res):
        return (np.array(res.profile).tobytes(), np.array(res.mode.profile.coeffs, dtype=float).tobytes(),
                np.array(res.achieved.aslist()).tobytes())

    # at t = 2 the exact and float weights happen to give the same bits;
    # at t = 5 they do not, so a memo shared across types shows there
    for t in (2, 5):
        separated_weights.cache_clear()
        cold = bits(halfspace_solve(float(t), data))
        separated_weights.cache_clear()
        exact = halfspace_solve(Fraction(t), BoundaryTriple(*(Fraction(x) for x in (1, -2, 3))))
        assert exact.exact
        warm = bits(halfspace_solve(float(t), data))
        assert warm == cold, t
        assert separated_weights.cache_info().currsize == 6
