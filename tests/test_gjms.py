"""The sixth-order operator, Q-curvature constants, gradient tensor."""

import math
from fractions import Fraction as Q

import pytest

from gjms6.geometry import ball, halfspace, hemisphere, hyperbolic_geodesic
from gjms6.gjms import (
    apply_L6,
    factorization_shifts,
    q6_constant_curvature,
    t4_action,
    t4_constant_scalar,
    t4_eta_eta_normal_form,
    t4_eta_tangent_normal_form,
)
from gjms6.polys import Poly
from gjms6.reps import RadialProfile, SeparatedMode
from gjms6.series import Series


def radial_sq(d):
    return sum((Poly.var(d, i) ** 2 for i in range(d)), Poly.zero(d))


def test_flat_triharmonic_examples():
    g = halfspace(5)  # total dimension 6
    assert apply_L6(g, Poly.var(6, 0, 2)).iszero()
    assert apply_L6(g, radial_sq(6) ** 3) == Poly.const(6, -23040)


def test_halfspace_modes_are_triharmonic():
    """L6 kills e^(-t y)(a + b y + c y^2) in every dimension.  L6 of such a
    mode is e^(-t y) q(y) with deg q <= 2, so a zero jet to order 2 means q
    is zero: the check on the order-8 jet (order 2 after six derivatives) is
    exact, not truncated.  The solver's half-space jets stop at the order the
    boundary operators read, so the jet is built here: coefficient k of
    y^m e^(-t y) is (-t)^(k-m)/(k-m)!."""
    a, b, c, t = (Poly.var(4, i) for i in range(4))
    e = [(-t) ** k * Q(1, math.factorial(k)) for k in range(9)]
    u = SeparatedMode(7, t**2, Series(e, 8) * a + Series([0] + e, 8) * b + Series([0, 0] + e, 8) * c)
    for n in (5, 7, 9):
        out = apply_L6(halfspace(n), u)
        assert isinstance(out, SeparatedMode) and out.profile.ord == 2
        assert all(c == 0 for c in out.profile.coeffs), n


def test_hemisphere_constant():
    assert apply_L6(hemisphere(7), Q(1)) == 720
    shifts = factorization_shifts(7)
    assert [float(s) for s in shifts] == [12.0, 10.0, 6.0]


def test_q6_values():
    assert q6_constant_curvature(6) == 120  # = 5!
    assert q6_constant_curvature(8) == 720
    with pytest.raises(ValueError):
        q6_constant_curvature(5)


@pytest.mark.parametrize("n", range(6, 13))
def test_factorization_consistency(n):
    # applying the operator to 1 equals (n-5)/2 times the constant-curvature
    # Q-curvature of the round (n+1)-sphere, both exact rationals
    assert apply_L6(hemisphere(n), Q(1)) == Q(n - 5, 2) * q6_constant_curvature(n + 1)


def test_L6_commutes_with_harmonic_decomposition():
    # acting on (profile x degree-l harmonic) stays in the same degree
    n = 7
    prof = RadialProfile(n, 2, {0: Q(1), 1: Q(2)})
    out = apply_L6(ball(n), prof.to_separated(10))
    assert isinstance(out, SeparatedMode)
    assert out.lam == prof.to_separated().lam
    # cross-check against the polynomial route on an explicit harmonic
    d = n + 1
    h2 = Poly.var(d, 0) * Poly.var(d, 1)  # degree-2 harmonic
    u = (Poly.const(d, 1) + 2 * radial_sq(d)) * h2
    out_poly = apply_L6(ball(n), u)
    # compare boundary values of the profiles
    from test_boundary import BallPolyOps

    ops = BallPolyOps(n)
    got = out.profile.value()
    want = ops.restrict(out_poly)  # equals got * h2 on the sphere
    assert want == got * ops.restrict(h2)


def test_geodesic_L6_annihilates_extensions():
    from gjms6.solver import BoundaryTriple, geodesic_mode_extension

    n = 7
    mode = geodesic_mode_extension(n, 1, BoundaryTriple(Q(1), Q(-2), Q(3)), order=9)
    out = apply_L6(hyperbolic_geodesic(n), mode)
    assert all(c == 0 for c in out.profile.coeffs)


def test_t4_action():
    n = 7
    assert t4_action(halfspace(n), Q(1)) == 0
    assert t4_action(ball(n), [Q(1), Q(2)]) == [0, 0]
    c = t4_constant_scalar(hemisphere(n))
    J = Q(n + 1, 2)
    want = (
        Q(3 * n**2 - 6 * n - 13, 4) * J**2
        - Q(4 * (n - 3)) * Q(n + 1, 4)
        - Q(8 * (n - 1)) * J * Q(1, 2)
        + Q(12)
    )
    assert c == want
    assert t4_action(hemisphere(n), Q(2)) == 2 * c


def test_t4_normal_form_traces():
    n = 7
    # tangential-normal components vanish on normalized boundaries
    assert t4_eta_tangent_normal_form() == 0
    val = t4_eta_eta_normal_form(n, Q(n, 2), Q(n, 4), Q(0))
    want = -Q(8 * (n - 4)) * Q(n, 4) + Q(8 * (2 * n**2 - 10 * n + 5), 9) * Q(n, 2) ** 2
    assert val == want
