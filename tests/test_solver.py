"""Per-mode extension solvers on the four models."""

import dataclasses
import subprocess
import sys
from fractions import Fraction as Q

import mpmath as mp
import numpy as np
import pytest

from gjms6.boundary import apply_B
from gjms6.fractional import rising, round_multiplier, sphere_eigenvalue
from gjms6.geometry import ball, halfspace, hemisphere, hyperbolic_geodesic
from gjms6.gjms import factorization_shifts, hyperbolic_shifted_factor
from gjms6.polys import Poly
from gjms6.reps import RadialProfile
from gjms6.series import Series
from gjms6.solver import (
    BoundaryTriple,
    DegenerateModeError,
    adjugate,
    ball_dirichlet_matrix,
    ball_mode_solve,
    dirichlet_inverse,
    factor_closed_form,
    geodesic_mode_extension,
    geodesic_mode_solve,
    halfspace_solve,
    halfspace_symbolic_mode,
    hemisphere_factor_solve,
    hemisphere_mode_solve,
    inverse,
    kernel_values,
    mode_basis,
    mode_solve,
    poisson_branch_series,
    round_basis,
    unit_coefficients,
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


def test_ball_dirichlet_matrix_is_built_once_per_degree():
    """A trace check evaluates the inverse Dirichlet matrix of each degree
    once, and the matrix of ``mode_basis`` is immutable."""
    from gjms6.traces import corollary_check, interior_grams

    # nonzero in every degree l <= 8, with a tail far below the guard
    coeffs = [[10.0 ** (-2 * k) for k in range(9)]] * 3
    # a warm interior Gram memo would skip the unit solves that read them
    interior_grams.cache_clear()
    dirichlet_inverse.cache_clear()
    first = corollary_check(ball(7), coeffs, lmax=8)
    second = corollary_check(ball(7), coeffs, lmax=8)
    assert first == second
    assert dirichlet_inverse.cache_info().misses == 9
    M = ball_dirichlet_matrix(7, 3)
    assert M is mode_basis(ball(7), 3)[1]
    with pytest.raises(TypeError):
        M[0][0] = Q(0)
    with pytest.raises(TypeError):
        M[0] = (Q(0), Q(0), Q(0))


def test_residual_norms_are_absolute_on_every_model():
    floats = BoundaryTriple(0.2, 0.5, 0.3)
    exact = BoundaryTriple(Q(2), Q(-1), Q(3))
    results = [
        halfspace_solve(0.7, floats),
        ball_mode_solve(7, 3, floats),
        ball_mode_solve(7, 3, exact),
        hemisphere_mode_solve(7, 3, floats),
        geodesic_mode_solve(7, 3, floats),
        geodesic_mode_solve(7, 3, exact),
    ]
    for res, data in zip(results, [floats, floats, exact, floats, floats, exact]):
        assert len(res.residual_norms) == 3
        for got, a, d in zip(res.residual_norms, res.achieved.aslist(), data.aslist()):
            assert got >= 0
            assert got == abs(a - d)


def test_unit_data_solve_on_every_model():
    """The per-mode Dirichlet systems of unit data are nonsingular, except
    at the zero frequency of the half space."""
    unit = BoundaryTriple(Q(1), Q(0), Q(0))
    assert halfspace_solve(Q(1), unit).exact
    with pytest.raises(DegenerateModeError):
        halfspace_solve(0, unit)
    for n in (6, 7, 9, 12):
        for ell in range(0, 6):
            assert mode_solve(ball(n), ell, unit).exact, (n, ell)
    assert mode_solve(hyperbolic_geodesic(7), 3, unit).exact
    res = mode_solve(hemisphere(7), 2, unit)
    assert max(res.residual_norms) < 1e-12


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
    via = mode_solve(hemisphere(7), 2, data)
    direct = hemisphere_mode_solve(7, 2, data)
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
    assert sol.profile.separated().profile.coeffs == sol.mode.profile.coeffs
    b4 = float(apply_B(4, hemisphere(n), sol.profile.separated()))
    assert abs(b4 - 480.0) <= 1e-7 * 480  # 8 * Gamma(6)/Gamma(3)


def test_hemisphere_factor_against_hypergeometric():
    """The closed-form factor kernels match 2F1(A, B; C; (1-z)/2), scaled to
    1 at the equator: ``kernel_values`` gives chi = sin^l(theta) v and its
    theta-derivative, built from v and dv/dz, across the hemisphere; the
    equator derivative dv0 is an exact rational that matches to the working
    precision of the reference."""
    mp.mp.dps = 30
    for n in (5, 7):
        for shift in factorization_shifts(n):
            beta = mp.sqrt(mp.mpf(n) ** 2 / 4 - mp.mpf(shift.numerator) / shift.denominator)
            for ell in range(33):
                fac = hemisphere_factor_solve(n, ell, shift)
                A = ell + mp.mpf(n) / 2 + beta
                Bp = ell + mp.mpf(n) / 2 - beta
                C = ell + mp.mpf(n + 1) / 2
                equator = mp.hyp2f1(A, Bp, C, mp.mpf(1) / 2)
                assert fac.v0 == 1.0
                assert isinstance(fac.dv0, Q)
                dv0 = mp.mpf(fac.dv0.numerator) / fac.dv0.denominator
                dv0_ref = -A * Bp / C * mp.hyp2f1(A + 1, Bp + 1, C + 1, mp.mpf(1) / 2) / 2 / equator
                assert abs(dv0 - dv0_ref) <= 1e-25 * abs(dv0_ref), (n, shift, ell)
                for z in (0, 0.25, 0.5, 0.75, 1):
                    th = float(np.arccos(z))
                    chi, dchi = (float(g[0]) for g in kernel_values([fac], th))
                    s, c = mp.sin(th), mp.cos(th)
                    x = (1 - c) / 2
                    v_ref = mp.hyp2f1(A, Bp, C, x) / equator
                    dv_ref = -A * Bp / C * mp.hyp2f1(A + 1, Bp + 1, C + 1, x) / 2 / equator
                    chi_ref = s**ell * v_ref
                    dchi_ref = (ell * s ** (ell - 1) * c * v_ref if ell else 0) - s ** (ell + 1) * dv_ref
                    assert abs(chi - chi_ref) <= 1e-13 * abs(chi_ref), (n, shift, ell, z)
                    assert abs(dchi - dchi_ref) <= 1e-13 * abs(dchi_ref), (n, shift, ell, z)
    assert hemisphere_factor_solve(7, 5, 6).dv0 == Q(-160, 21)
    assert hemisphere_factor_solve(7, 5, 6).p == (Q(10, 7), Q(-20, 21), Q(4, 21))
    assert len({hemisphere_factor_solve(7, 5, c) for c in factorization_shifts(7)}) == 3
    with pytest.raises(ValueError, match="not a factorization shift"):
        hemisphere_factor_solve(7, 0, Q(-1))


def test_hemisphere_dv0_matches_gauss_summation():
    """The equator derivative read off the Euler-transformed kernel equals
    the value of Gauss's second summation theorem (DLMF 15.4.28, with
    15.5.1 for the derivative), -2 (a-k+1/2)_k / (a-k+1)_(k-1) with a = A/2,
    exactly."""
    for n in range(5, 10):
        for k, shift in enumerate(factorization_shifts(n), start=1):
            for ell in range(65):
                a = (ell + Q(n, 2) + k - Q(1, 2)) / 2
                want = -2 * rising(a - k + Q(1, 2), k) / rising(a - k + 1, k - 1)
                assert hemisphere_factor_solve(n, ell, shift).dv0 == want, (n, ell, k)


def fraction_hemisphere_factor(n, ell, shift):
    """(p, r, dv0) of the closed-form factor kernel in Fraction arithmetic
    throughout, as ``hemisphere_factor_solve`` computed them before its
    integer form."""
    k = factorization_shifts(n).index(shift) + 1
    C = ell + Q(n + 1, 2)
    p = [Q(1)]
    for j in range(k - 1):
        p.append(p[-1] * (j + 1 - k) * (k + j) / ((C + j) * (j + 1)))
    equator = sum(c / 2**j for j, c in enumerate(p))
    p = [c / equator for c in p] + [Q(0)]
    m = ell + Q(n - 1, 2)
    r = tuple((j - m) * p[j] - (j + 1) * p[j + 1] for j in range(k))
    dv0 = sum(c / 2**j for j, c in enumerate(r))
    return tuple(p[:k]), r, dv0


def test_hemisphere_factor_integer_form_matches_the_fraction_reference():
    count = 0
    for n in range(5, 10):
        for ell in range(129):
            for shift in factorization_shifts(n):
                fac = hemisphere_factor_solve(n, ell, shift)
                assert (fac.p, fac.r, fac.dv0) == fraction_hemisphere_factor(n, ell, shift), (n, ell, shift)
                assert all(type(c) is Q for c in fac.p + fac.r + (fac.dv0,))
                count += 1
    assert count == 1935


def test_hemisphere_unit_solves_reuse_factor_columns(monkeypatch):
    """The mode matrix comes from the basis in l, evaluated once per degree:
    every solve, cold or warm, applies only the three boundary operators of
    its solution."""
    import gjms6.solver as solver

    calls = []

    def counting_apply_B(j, geom, u):
        calls.append(j)
        return apply_B(j, geom, u)

    monkeypatch.setattr(solver, "apply_B", counting_apply_B)
    hemisphere_factor_solve.cache_clear()
    mode_basis.cache_clear()
    per_solve = []
    factors = []
    for slot in range(3):
        data = [0.0, 0.0, 0.0]
        data[slot] = 1.0
        before = len(calls)
        sol = hemisphere_mode_solve(7, 5, BoundaryTriple(*data))
        per_solve.append(len(calls) - before)
        factors.append(sol.profile.factors)
    # the achieved triple only
    assert per_solve == [3, 3, 3]
    assert all(a is b for a, b in zip(factors[0], factors[2]))
    assert hemisphere_factor_solve.cache_info().misses == 3


def test_unit_coefficients_match_unit_mode_solves_bit_for_bit():
    """The stacked coefficient-only unit solves give the coefficients that
    ``mode_solve`` finds for float unit data, bit for bit, on the ball and
    the hemisphere."""
    for n in range(5, 10):
        for geom in (ball(n), hemisphere(n)):
            coefs = unit_coefficients(geom, 32)
            assert len(coefs) == 33
            for ell, row in enumerate(coefs):
                assert len(row) == 3
                for slot, coef in enumerate(row):
                    assert all(type(c) is float for c in coef)
                    data = [0.0, 0.0, 0.0]
                    data[slot] = 1.0
                    want = mode_solve(geom, ell, BoundaryTriple(*data)).profile
                    if geom.kind is ball(n).kind:
                        got = RadialProfile(n, ell, dict(enumerate(coef)))
                        assert repr(got.coeffs) == repr(want.coeffs), (n, ell, slot)
                    else:
                        assert np.array(coef).tobytes() == np.array(want.alphas).tobytes(), (n, ell, slot)


def test_stacked_kernel_values_match_each_factor_bit_for_bit():
    """The kernels of a degree evaluated together give each kernel's chi and
    dchi as evaluating it alone does, bit for bit, on arrays and at a scalar
    angle; the interior Gram route relies on this."""
    theta = np.linspace(0.02, np.pi / 2, 37)
    for n in (5, 6, 7, 9):
        for ell in (0, 1, 5, 32):
            factors = [hemisphere_factor_solve(n, ell, c) for c in factorization_shifts(n)]
            assert sorted(len(f.p) for f in factors) == [1, 2, 3]
            for th in (theta, 0.7):
                chi, dchi = kernel_values(factors, th)
                assert chi.shape == dchi.shape == (3,) + np.shape(th)
                for k, fac in enumerate(factors):
                    alone = [g[0] for g in kernel_values([fac], th)]
                    assert chi[k].tobytes() == alone[0].tobytes(), (n, ell, k)
                    assert dchi[k].tobytes() == alone[1].tobytes(), (n, ell, k)


def test_dirichlet_inverse_inverts_every_round_matrix():
    """The exact inverse of every degree, read from the basis in l on the
    ball and the hemisphere, inverts the Dirichlet matrix that ``apply_B``
    reads off the evaluated jets, which is the matrix of ``mode_basis``, up
    to the --lmax cap of the trace checks."""
    eye = [[int(i == j) for j in range(3)] for i in range(3)]
    for n in range(5, 10):
        for g in (ball(n), hemisphere(n), hyperbolic_geodesic(n)):
            for ell in (0, 1, 4, 33) + ((128,) if g.kind is not hyperbolic_geodesic(n).kind else ()):
                basis, M = mode_basis(g, ell)
                assert M == tuple(tuple(apply_B(j, g, b) for b in basis) for j in range(3)), (g, ell)
                inv = dirichlet_inverse(g, ell)
                assert all(type(x) is Q for row in inv for x in row)
                assert [[sum(inv[i][k] * M[k][j] for k in range(3)) for j in range(3)] for i in range(3)] == eye, (g, ell)


def test_adjugate_holds_over_any_ring():
    """adj M . M = M . adj M = det M . I for integer, Fraction and Poly
    entries, and ``inverse`` divides integer entries exactly."""
    import random

    rng = random.Random(3)
    x, y = Poly.var(2, 0), Poly.var(2, 1)
    mats = [[[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)] for _ in range(20)]
    mats += [[[Q(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)] for _ in range(3)] for _ in range(20)]
    mats.append([[x, y, 1], [x * y, 2, x], [y, x + y, 3]])
    for M in mats:
        adj = adjugate(M)
        det = sum(M[0][k] * adj[k][0] for k in range(3))
        for A, B in ((adj, M), (M, adj)):
            prod = [[sum(A[i][k] * B[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
            assert prod == [[det if i == j else 0 for j in range(3)] for i in range(3)], M
        if det != 0 and not isinstance(det, Poly):
            assert all(type(a) is Q for row in inverse(M) for a in row)


def test_symbolic_factor_closed_form_is_the_kernel():
    """The closed form of ``factor_closed_form`` in a Poly l, evaluated at
    each degree, gives the p, r and dv0 of ``hemisphere_factor_solve``, for
    n = 5..9 and every degree the trace checks admit."""
    ell = Poly.var(1, 0)

    def at(x, value):
        return sum(c * value ** e for (e,), c in x.terms.items()) if isinstance(x, Poly) else x

    for n in range(5, 10):
        for k, shift in enumerate(factorization_shifts(n), start=1):
            N, R, E, D = factor_closed_form(n, ell, k)
            for value in range(129):
                fac = hemisphere_factor_solve(n, value, shift)
                e = at(E, value)
                assert fac.p == tuple(Q(at(x, value) * 2 ** (k - 1), e) for x in N), (n, k, value)
                assert fac.r == tuple(Q(at(x, value) * 2 ** (k - 1), 2 * e) for x in R), (n, k, value)
                assert fac.dv0 == Q(at(D, value), 2 * e), (n, k, value)


def test_round_basis_has_a_constant_determinant():
    """The Dirichlet matrix of the basis scaled to polynomial jets has
    determinant 16 on the ball and -6144 on the hemisphere in every degree,
    so its inverse is a polynomial in l: integer rows over one denominator,
    of degree at most 6 (the adjugate's at most 4, the scale's at most 2)."""
    for n in range(5, 10):
        for g, want in ((ball(n), 16), (hemisphere(n), -6144)):
            _, (srows, ds), _, (rows, _) = round_basis(g)
            assert len(rows) == 9 and max(len(r) for r in rows) <= 7
            assert all(type(c) is int for r in rows for c in r)
            for ell in (0, 1, 7, 64, 128):
                M = mode_basis(g, ell)[1]
                adj = adjugate(M)
                det = sum(M[0][k] * adj[k][0] for k in range(3))
                for s in srows:
                    det *= Q(sum(c * ell ** e for e, c in enumerate(reversed(s))), ds)
                assert det == want, (g, ell)


def test_hemisphere_paths_load_neither_scipy_nor_mpmath():
    """The closed-form kernels keep the hemisphere solves and trace checks
    free of scipy.special (about 26 MB of resident memory) and mpmath."""
    code = (
        "import sys\n"
        "import gjms6\n"
        "from gjms6.geometry import hemisphere\n"
        "from gjms6.solver import BoundaryTriple, hemisphere_mode_solve\n"
        "from gjms6.traces import corollary_check\n"
        "hemisphere_mode_solve(7, 3, BoundaryTriple(0.2, 0.5, 0.3))\n"
        "corollary_check(hemisphere(7), [[1.0, 0.3, 0.1], [0.5, 0.2], [0.4, 0.1, 0.05]], lmax=8)\n"
        "print(sorted(m for m in ('scipy', 'mpmath') if m in sys.modules))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_hemisphere_factor_equation_holds_exactly():
    """Every closed-form kernel satisfies its derivative relation and its
    factor equation as exact polynomial identities in x, in every degree
    the trace checks admit."""
    for n in range(5, 10):
        for ell in range(129):
            for c in factorization_shifts(n):
                assert hemisphere_factor_solve(n, ell, c).equation_residual() == 0, (n, ell, c)


def test_hemisphere_factor_equation_sees_each_coefficient():
    """Perturbing any one coefficient of p or of r breaks an identity."""
    for n, ell in ((5, 0), (7, 3), (9, 40)):
        for c in factorization_shifts(n):
            fac = hemisphere_factor_solve(n, ell, c)
            for name in ("p", "r"):
                for i in range(len(getattr(fac, name))):
                    coeffs = list(getattr(fac, name))
                    coeffs[i] += Q(1, 100)
                    res = dataclasses.replace(fac, **{name: tuple(coeffs)}).equation_residual()
                    assert type(res) is Q and res > 0, (n, ell, c, name, i)


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


def test_poisson_branches_are_annihilated_by_the_operator():
    """The one-pass recurrence against an independent operator application:
    (-Delta_plus - s(n-s)) kills r^a times each branch in every coefficient."""
    for n in range(5, 10):
        for ell in range(9):
            lam = sphere_eigenvalue(n, ell)
            for gamma in (Q(5, 2), Q(3, 2), Q(1, 2)):
                s = Q(n, 2) + gamma
                for which, a in (("F", n - s), ("G", s)):
                    branch = poisson_branch_series(n, ell, s, 8, which)
                    assert all(type(c) is Q for c in branch.coeffs), (n, ell, s, which)
                    out = hyperbolic_shifted_factor(n, lam, a, s, branch)
                    assert all(c == 0 for c in out.coeffs), (n, ell, s, which)


def test_poisson_branch_series_applies_no_operator(monkeypatch):
    poisson_branch_series(7, 3, Q(6), 8, "F")  # warm the collar table

    def refuse(*args):
        raise AssertionError("series arithmetic in the branch recurrence")

    for name in ("__add__", "__mul__", "__rmul__", "deriv"):
        monkeypatch.setattr(Series, name, refuse)
    assert poisson_branch_series(7, 3, Q(6), 8, "F").coeffs[2] != 0


def test_poisson_branch_matches_expansion_coefficients():
    from gjms6.fractional import scattering_T2, scattering_T4

    n = 9
    for ell in (0, 2):
        for gamma in (Q(5, 2), Q(3, 2), Q(1, 2)):
            s = Q(n, 2) + gamma
            F = poisson_branch_series(n, ell, s, 6, "F")
            assert F.coeffs[1] == 0 and F.coeffs[3] == 0
            assert F.coeffs[2] == scattering_T2(hyperbolic_geodesic(n), s, ell)
            if 2 * s - n - 4 != 0:
                assert F.coeffs[4] == scattering_T4(hyperbolic_geodesic(n), s, ell)


def test_poisson_branch_series_depends_on_every_argument():
    n, ell = 7, 3
    keys = [(s, order, which) for s in (Q(6), Q(5)) for order in (6, 8) for which in ("F", "G")]
    branches = [poisson_branch_series(n, ell, s, order, which) for s, order, which in keys]
    for (s, order, which), b in zip(keys, branches):
        assert b.ord == order
    assert len({tuple(b.coeffs) for b in branches}) == len(keys)


def test_geodesic_basis_memo_holds_the_branches(monkeypatch):
    """A cold geodesic basis runs the branch recurrence six times, two
    branches per unit slot; a warm one reads the memo and runs it none."""
    import gjms6.solver as solver

    calls = []
    branch = solver.poisson_branch_series

    def counted(*args):
        calls.append(args)
        return branch(*args)

    monkeypatch.setattr(solver, "poisson_branch_series", counted)
    for n, ell in ((5, 2), (7, 3)):
        g = hyperbolic_geodesic(n)
        mode_basis.cache_clear()
        mode_basis(g, ell)
        assert len(calls) == 6 and len(set(calls)) == 6
        calls.clear()
        mode_basis(g, ell)
        assert calls == []


def test_geodesic_solve_is_the_same_cold_and_warm():
    data = BoundaryTriple(Q(2), Q(-1, 3), Q(5, 7))
    for ell in range(7):
        mode_basis.cache_clear()
        cold = geodesic_mode_solve(7, ell, data)
        warm = geodesic_mode_solve(7, ell, data)
        assert cold.exact and warm.exact
        assert cold.profile.profile.coeffs == warm.profile.profile.coeffs
        assert all(type(c) is Q for c in warm.profile.profile.coeffs)


def reference_poisson_branch(n, ell, s_param, order, which):
    """The branch recurrence in Fraction arithmetic, one coefficient at a
    time, as the solver computed it before its integer form."""
    from gjms6.geometry import GeometryKind
    from gjms6.reps import collar_coefficients

    s_param = Q(s_param)
    lam = sphere_eigenvalue(n, ell)
    a = (Q(n) - s_param) if which == "F" else s_param
    A, B, _, _ = collar_coefficients(GeometryKind.HYPERBOLIC_GEODESIC, n, order)
    A, B = A.coeffs, B.coeffs
    c = [Q(1)]
    for k in range(1, order + 1):
        rest = Q(0)
        for i in range(k - 1):
            rest += lam * B[i] * c[k - 2 - i]
        for i in range(k):
            rest -= A[i] * (a + k - 1 - i) * c[k - 1 - i]
        chi = -(a + k) * (a + k - n) - s_param * (n - s_param)
        if chi == 0:
            if rest != 0:
                raise ArithmeticError("resonant obstruction does not vanish")
            c.append(Q(0))
        else:
            c.append(-rest / chi)
    return c


def test_poisson_branch_integer_recurrence_matches_the_fraction_reference():
    count = 0
    for n in range(5, 10):
        for ell in range(12):
            for order in (6, 8, 9):
                for gamma in (Q(5, 2), Q(3, 2), Q(1, 2)):
                    for which in "FG":
                        s = Q(n, 2) + gamma
                        got = poisson_branch_series(n, ell, s, order, which).coeffs
                        assert got == reference_poisson_branch(n, ell, s, order, which), (n, ell, order, s, which)
                        assert all(type(c) is Q for c in got)
                        count += 1
    assert count == 1080
    # denominators other than 2 in s
    for s in (Q(7, 3), Q(11, 4), Q(5, 6), Q(29, 10)):
        for which in "FG":
            assert poisson_branch_series(7, 2, s, 8, which).coeffs == reference_poisson_branch(7, 2, s, 8, which)


def test_poisson_branch_resonance_guard_fires_where_the_reference_does():
    """Over every half-integer s in (0, 2n) the integer recurrence raises on
    exactly the (n, l, 2s, branch) set where the reference finds a nonzero
    resonant obstruction, and agrees with it everywhere else."""
    raised, raised_ref, total = set(), set(), 0
    for n in range(5, 10):
        for ell in range(4):
            for two_s in range(1, 4 * n):
                for which in "FG":
                    key, s = (n, ell, two_s, which), Q(two_s, 2)
                    total += 1
                    try:
                        want = reference_poisson_branch(n, ell, s, 8, which)
                    except ArithmeticError:
                        raised_ref.add(key)
                        want = None
                    try:
                        got = poisson_branch_series(n, ell, s, 8, which).coeffs
                    except ArithmeticError:
                        raised.add(key)
                        got = None
                    assert got == want, key
    assert total == 1080
    assert len(raised_ref) == 132
    assert raised == raised_ref


def test_geodesic_basis_matrix_is_the_identity():
    one, zero = Q(1), Q(0)
    for n in range(5, 10):
        for ell in range(9):
            basis, M = mode_basis(hyperbolic_geodesic(n), ell)
            assert M == tuple(tuple(one if j == m else zero for m in range(3)) for j in range(3)), (n, ell)
            assert len(basis) == 3


def test_geodesic_solve_superposes_the_extension():
    import random

    rng = random.Random(20)
    for n in range(5, 10):
        for ell in range(7):
            data = BoundaryTriple(*(Q(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)))
            res = geodesic_mode_solve(n, ell, data)
            want = geodesic_mode_extension(n, ell, data)
            assert res.exact and res.profile is res.mode
            assert res.mode.lam == want.lam and res.mode.profile.ord == want.profile.ord
            assert res.mode.profile.coeffs == want.profile.coeffs, (n, ell)
            assert res.achieved == data and all(x == 0 for x in res.residual_norms)
