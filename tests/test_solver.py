"""Per-mode extension solvers on the four models."""

from fractions import Fraction as Q

import mpmath as mp
import numpy as np
import pytest

from gjms6.boundary import apply_B
from gjms6.fractional import round_multiplier, sphere_eigenvalue
from gjms6.geometry import ball, halfspace, hemisphere, hyperbolic_geodesic
from gjms6.polys import Poly
from gjms6.solver import (
    BoundaryTriple,
    CollocationError,
    DegenerateModeError,
    ModeIndex,
    ball_mode_solve,
    geodesic_mode_extension,
    geodesic_mode_solve,
    halfspace_solve,
    halfspace_symbolic_mode,
    hemisphere_factor_solve,
    hemisphere_factored_residual,
    hemisphere_mode_solve,
    kernel_check,
    mode_solve,
    poisson_branch_series,
)


def test_halfspace_solve_examples():
    # symbolic frequency: solve at a rational t and compare closed forms
    t = Q(3, 2)
    r = halfspace_solve(t, BoundaryTriple(Q(1), Q(0), Q(0)))
    assert r.profile[:3] == (1, t, t**2 / 3)
    r = halfspace_solve(t, BoundaryTriple(Q(0), Q(1), Q(0)))
    assert r.profile[:3] == (0, -1, -t)
    r = halfspace_solve(t, BoundaryTriple(Q(0), Q(0), Q(1)))
    assert r.profile[:3] == (0, 0, Q(1, 2))
    assert r.exact and all(x == 0 for x in r.residual_norms)
    with pytest.raises(DegenerateModeError):
        halfspace_solve(0, BoundaryTriple(Q(1), Q(0), Q(0)))


def test_halfspace_symbolic_mode_triple():
    u = halfspace_symbolic_mode()
    B = [apply_B(j, halfspace(7), u) for j in range(3)]
    a, b, c, t = (Poly.var(4, i) for i in range(4))
    assert B[0] == a and B[1] == t * a - b
    assert B[2] == Q(4, 3) * t**2 * a - 2 * t * b + 2 * c


def test_ball_solve_examples():
    n = 7
    r = ball_mode_solve(n, 1, BoundaryTriple(Q(1), Q(2), Q(8)))
    assert r.profile.coeffs == {0: Q(1)}  # u = x1
    assert r.exact and all(x == 0 for x in r.residual_norms)
    r = ball_mode_solve(n, 3, BoundaryTriple(Q(0), Q(0), Q(0)))
    assert r.profile.coeffs == {}
    r = ball_mode_solve(n, 0, BoundaryTriple(Q(1), Q(1), Q(8, 3)))
    assert r.profile.coeffs == {0: Q(1)}  # u = 1


def test_ball_solve_linearity_and_uniqueness():
    n = 9
    d1 = BoundaryTriple(Q(1), Q(-1), Q(2))
    d2 = BoundaryTriple(Q(0), Q(3), Q(-5))
    s1 = ball_mode_solve(n, 2, d1).profile
    s2 = ball_mode_solve(n, 2, d2).profile
    s12 = ball_mode_solve(
        n, 2, BoundaryTriple(d1.f + d2.f, d1.phi + d2.phi, d1.psi + d2.psi)
    ).profile
    summed = s1 + s2
    assert s12.coeffs == summed.coeffs
    again = ball_mode_solve(n, 2, d1).profile
    assert again.coeffs == s1.coeffs


def test_kernel_checks():
    assert kernel_check(halfspace(7), ModeIndex(t=Q(1)))
    assert not kernel_check(halfspace(7), ModeIndex(t=0))
    assert kernel_check(ball(7), ModeIndex(ell=0))
    for n in (6, 7, 9, 12):
        for ell in range(0, 6):
            assert kernel_check(ball(n), ModeIndex(ell=ell)), (n, ell)
    assert kernel_check(hyperbolic_geodesic(7), ModeIndex(ell=3))
    assert kernel_check(hemisphere(7), ModeIndex(ell=2))


def test_mode_solve_exact_on_ball_and_geodesic():
    data = BoundaryTriple(Q(1), Q(-2), Q(3, 4))
    for geom in (ball(7), hyperbolic_geodesic(7)):
        for ell in (0, 2, 5):
            res = mode_solve(geom, ell, data)
            assert res.exact
            got = [apply_B(j, geom, res.mode) for j in range(3)]
            assert all(isinstance(v, (int, Q)) for v in got)
            assert got == data.aslist(), (geom.kind, ell)


def test_mode_solve_hemisphere_matches_direct_solve():
    data = BoundaryTriple(0.2, 0.5, 0.3)
    for N in (32, 64):
        via = mode_solve(hemisphere(7), 2, data, N=N)
        direct = hemisphere_mode_solve(7, 2, data, N=N)
        assert not via.exact
        assert np.array_equal(via.profile.alphas, direct.profile.alphas)
        assert via.achieved == direct.achieved
        assert via.mode.profile.coeffs == direct.mode.profile.coeffs


def test_mode_solve_rejects_the_half_space():
    with pytest.raises(ValueError):
        mode_solve(halfspace(7), 1, BoundaryTriple(Q(1), Q(0), Q(0)))


def test_hemisphere_solve_achieves_data():
    n = 7
    sol = hemisphere_mode_solve(n, 0, BoundaryTriple(1.0, 0.0, 0.0))
    assert max(sol.residual_norms) <= 1e-8
    sol = hemisphere_mode_solve(n, 1, BoundaryTriple(0.0, 1.0, 0.0))
    b4 = float(apply_B(4, hemisphere(n), sol.profile.separated()))
    assert abs(b4 - 480.0) <= 1e-7 * 480  # 8 * Gamma(6)/Gamma(3)


def test_hemisphere_factor_against_hypergeometric():
    """Collocated factor kernels match the classical hypergeometric solution
    at the equator (value and derivative)."""
    mp.mp.dps = 30
    n = 7
    for ell, shift in ((0, Q(12)), (2, Q(10)), (5, Q(6))):
        fac = hemisphere_factor_solve(n, ell, shift)
        beta = mp.sqrt(mp.mpf(n) ** 2 / 4 - mp.mpf(float(shift)))
        A = ell + mp.mpf(n) / 2 + beta
        Bp = ell + mp.mpf(n) / 2 - beta
        C = ell + mp.mpf(n + 1) / 2
        v_pole = 1.0 / float(mp.hyp2f1(A, Bp, C, mp.mpf(1) / 2))  # our v(0)=1
        v0_ref = 1.0
        dv_ref = float(-A * Bp / C * mp.hyp2f1(A + 1, Bp + 1, C + 1, mp.mpf(1) / 2) / 2)
        dv_ref *= v_pole  # rescale reference to equator normalization
        assert abs(fac.v0 - v0_ref) < 1e-12
        assert abs(fac.dv0 - dv_ref) < 1e-9 * max(1.0, abs(dv_ref))


def test_hemisphere_condition_guard():
    with pytest.raises(CollocationError):
        hemisphere_factor_solve(7, 3, Q(10), N=64, cond_guard=1.0)


def test_hemisphere_condition_guard_holds_on_cached_factor():
    """The guard is compared with the memoized condition number, so a warm
    cache neither bypasses it nor is changed by a call that trips it."""
    first = hemisphere_factor_solve(7, 3, Q(10), N=64)
    with pytest.raises(CollocationError, match="collocation matrix condition"):
        hemisphere_factor_solve(7, 3, Q(10), N=64, cond_guard=1.0)
    again = hemisphere_factor_solve(7, 3, Q(10), N=64)
    assert (again.v0, again.dv0, again.cond) == (first.v0, first.dv0, first.cond)


def test_hemisphere_mode_solve_applies_factor_guard_after_warm_solve():
    data = BoundaryTriple(Q(1), Q(0), Q(0))
    hemisphere_mode_solve(7, 3, data)
    with pytest.raises(CollocationError, match="collocation matrix condition"):
        hemisphere_mode_solve(7, 3, data, cond_guard=1.0)


def test_hemisphere_factored_residual_small():
    sol = hemisphere_mode_solve(5, 1, BoundaryTriple(0.2, 0.5, 0.3))
    r = hemisphere_factored_residual(sol.profile, np.linspace(0.3, 1.5, 7))
    assert r <= 1e-8


def test_geodesic_extension_and_symbolic_identities():
    n = 7
    D = 6
    f, ph, ps, tf, tph, tps = (Poly.var(D, i) for i in range(6))
    g = hyperbolic_geodesic(n)
    for ell in (0, 2):
        mode = geodesic_mode_extension(
            n, ell, BoundaryTriple(f, ph, ps), order=8,
            scattering={Q(5, 2): tf, Q(3, 2): tph, Q(1, 2): tps},
        )
        assert (apply_B(0, g, mode) - f).iszero()
        assert (apply_B(1, g, mode) - ph).iszero()
        assert (apply_B(2, g, mode) - ps).iszero()
        # dual-order operators read off the second-branch amplitudes
        assert (apply_B(3, g, mode) + 3 * tps * ps).iszero()
        assert (apply_B(4, g, mode) - 24 * tph * ph).iszero()
        assert (apply_B(5, g, mode) + 120 * tf * f).iszero()


def test_geodesic_solve_numeric():
    n = 8
    res = geodesic_mode_solve(n, 1, BoundaryTriple(Q(2), Q(-1), Q(3)))
    assert res.exact
    assert all(x == 0 for x in res.residual_norms)
    b5 = apply_B(5, hyperbolic_geodesic(n), res.profile)
    assert b5 == Q(8, 3) * round_multiplier(n, Q(5, 2), 1) * 2


def test_poisson_branch_matches_expansion_coefficients():
    from gjms6.fractional import scattering_T2, scattering_T4

    n = 9
    for ell in (0, 2):
        for gamma in (Q(5, 2), Q(3, 2), Q(1, 2)):
            s = Q(n, 2) + gamma
            F = poisson_branch_series(n, ell, s, 6, "F")
            assert F.coeffs[1] == 0 and F.coeffs[3] == 0
            assert F.coeffs[2] == scattering_T2(n, s, "round", ell)
            if 2 * s - n - 4 != 0:
                assert F.coeffs[4] == scattering_T4(n, s, "round", ell)
