"""Fractional multipliers, scattering coefficients, DtN verification."""

from fractions import Fraction as Q

import pytest

from gjms6.fractional import (
    L4_mode,
    ScatteringPoleError,
    d_gamma,
    dtn_selfadjointness,
    dtn_verify,
    flat_multiplier,
    multiplier,
    round_multiplier,
    scattering_T2,
    scattering_T4,
    sphere_eigenvalue,
)
from gjms6.geometry import ball, halfspace, hemisphere, hyperbolic_geodesic


def test_multiplier_examples():
    # conformal-Laplacian cross-check at order two
    assert multiplier(ball(7), 1, 0) == Q(35, 4)
    assert Q(35, 4) == Q(7 * 5, 4)
    assert multiplier(hemisphere(7), Q(5, 2), 0) == 120
    assert multiplier(halfspace(7), Q(1, 2), 2) == 2
    with pytest.raises(ValueError):
        multiplier(ball(7), Q(7, 2), 0)
    with pytest.raises(ValueError):
        multiplier(ball(7), 4, 0)


@pytest.mark.parametrize("n", range(5, 13))
def test_integer_order_consistency(n):
    for ell in range(11):
        lam = sphere_eigenvalue(n, ell)
        mu = lam + Q(n * (n - 2), 4)
        assert round_multiplier(n, 1, ell) == mu
        if Q(3) < Q(n, 2):
            want = mu * (mu - 2) * (mu - 6)
            assert round_multiplier(n, 3, ell) == want


def test_critical_multiplier_kills_constants():
    assert round_multiplier(5, Q(5, 2), 0) == 0
    assert round_multiplier(5, Q(5, 2), 1) == 120  # 1*2*3*4*5


def test_d_gamma_values():
    assert d_gamma(Q(1, 2)) == -1
    assert d_gamma(Q(3, 2)) == 3
    assert d_gamma(Q(5, 2)) == -45
    with pytest.raises(ValueError):
        d_gamma(Q(1))


def test_scattering_examples():
    # round boundary, zero mode
    assert scattering_T2(ball(7), 6, 0) == Q(-7, 12)
    # flat boundary keeps the frequency symbolic form
    t2 = scattering_T2(halfspace(7), Q(13, 2), Q(3))
    assert t2 == -Q(9) / (2 * (13 - 9))
    with pytest.raises(ScatteringPoleError):
        scattering_T2(ball(7), Q(9, 2), 0)
    with pytest.raises(ScatteringPoleError):
        scattering_T4(ball(7), Q(11, 2), 0)
    assert scattering_T2(hyperbolic_geodesic(7), 6, 1) == -(sphere_eigenvalue(7, 1) + Q(7, 2)) / 6
    # L4 on the round boundary is -(eigenvalue) - s n/4, and it vanishes on the flat one
    for geom in (ball(7), hemisphere(7), hyperbolic_geodesic(7)):
        assert L4_mode(Q(3, 2), geom, 2) == -sphere_eigenvalue(7, 2) - Q(3, 2) * Q(7, 4)
    assert L4_mode(Q(3, 2), halfspace(7), Q(5)) == 0


def test_dtn_verify_all_models():
    n = 7
    recs = dtn_verify(halfspace(n), n, None)
    assert all(r.passed and r.exact for r in recs)
    for geom in (ball(n), hyperbolic_geodesic(n)):
        for ell in (0, 1, 3):
            recs = dtn_verify(geom, n, ell, data=(Q(1), Q(2), Q(-3)))
            assert all(r.passed and r.exact for r in recs), (geom.kind, ell)
    recs = dtn_verify(hemisphere(n), n, 2)
    assert all(r.passed for r in recs)


@pytest.mark.parametrize("n", [5, 7])
def test_dtn_verify_hemisphere_across_degrees(n):
    """The residuals stay within the default tolerance up to l = 22 and
    within the CLI tolerance up to l = 32."""
    for ell in range(33):
        tol = 1e-8 if ell <= 22 else 1e-6
        recs = dtn_verify(hemisphere(n), n, ell, tol=tol)
        assert all(r.passed for r in recs), (n, ell, [r.residual for r in recs])


def test_dtn_checks_reject_a_second_dimension():
    for geom in (ball(7), hemisphere(7), halfspace(7)):
        with pytest.raises(ValueError, match="differs"):
            dtn_verify(geom, 9, 1)
        with pytest.raises(ValueError, match="differs"):
            dtn_selfadjointness(geom, 9, 5, range(2))


def test_dtn_mixed_data_independence():
    """The order-5 operator of an extension depends only on the first slot."""
    from gjms6.boundary import apply_B
    from gjms6.solver import BoundaryTriple, ball_mode_solve

    n = 9
    g = ball(n)
    for ell in (1, 2):
        u1 = ball_mode_solve(n, ell, BoundaryTriple(Q(2), Q(0), Q(0))).profile
        u2 = ball_mode_solve(n, ell, BoundaryTriple(Q(2), Q(5), Q(-7))).profile
        b5_1 = apply_B(5, g, u1.to_separated())
        b5_2 = apply_B(5, g, u2.to_separated())
        assert b5_1 == b5_2


def test_dtn_selfadjointness_multipliers():
    n = 7
    recs = dtn_selfadjointness(ball(n), n, 5, range(3))
    assert all(r.passed for r in recs)
    op_values = [Q(8, 3) * round_multiplier(n, Q(5, 2), ell) for ell in range(3)]
    assert op_values == [Q(8, 3) * v for v in (120, 720, 2520)]
    recs = dtn_selfadjointness(hemisphere(n), n, 3, range(3))
    assert all(r.passed for r in recs)


def test_flat_dtn_multiplier_sign():
    # order-one flat multiplier 3t is nonnegative
    assert flat_multiplier(Q(1, 2), Q(2)) == 2
    assert 3 * flat_multiplier(Q(1, 2), Q(5)) == 15
