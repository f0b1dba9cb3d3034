"""The six boundary operators: coefficients, model closed forms, stencils."""

import math
import random
import subprocess
import sys
from fractions import Fraction as Q

import pytest

from gjms6.boundary import (
    BoundaryOperatorId,
    BoundaryOps,
    LEADING_TERMS,
    apply_B,
    apply_boundary_operator,
    ball_poly_stencil,
    coefficient_scalars,
    leading_part,
    model_coefficients,
    normal_form_terms,
    separated_stencil,
)
from gjms6.fractional import rising, sphere_eigenvalue
from gjms6.geometry import ball, halfspace, hemisphere, hyperbolic_geodesic
from gjms6.polys import Poly, degree_weighted, euler_op, laplacian, random_poly, reduce_mod_sphere
from gjms6.reps import JET_ORDER, RadialProfile, SeparatedMode, SeparatedOps
from gjms6.series import Series, TruncationError
from gjms6.solver import halfspace_symbolic_mode


def mode_from_derivs(n: int, lam, derivs, order: int) -> SeparatedMode:
    """The separated mode of order ``order`` whose normal derivatives
    (d/dtau)^k at the boundary are ``derivs`` (0 past their end): its jet
    coefficients are derivs[k] / k!."""
    coeffs = [Q(1, math.factorial(k)) * (derivs[k] if k < len(derivs) else 0) for k in range(order + 1)]
    return SeparatedMode(n, lam, Series(coeffs, order))


class BallPolyOps(BoundaryOps):
    """Polynomials on the flat unit ball; boundary functions are ambient
    polynomials reduced modulo the unit-sphere relation.

    A homogeneous piece u_k of degree k is an eigenfunction of the Euler
    operator r d/dr with eigenvalue k, so the normal derivatives at r = 1 are
    degree weights: hess_nn u = sum_k k(k-1) u_k, and the boundary Laplacian
    is lap w - sum_k k(k+n-1) w_k, each one pass before the reduction.

    The concrete kit of the ball: a reference for ``ball_poly_stencil``,
    which ``apply_B`` reads instead.
    """

    def __init__(self, n: int):
        self.n = n

    def bzero(self):
        return Poly.zero(self.n + 1)

    def restrict(self, u: Poly) -> Poly:
        return reduce_mod_sphere(u)

    def eta(self, u: Poly) -> Poly:
        return reduce_mod_sphere(euler_op(u))

    def lap(self, u: Poly) -> Poly:
        return laplacian(u)

    def hess_nn(self, u: Poly) -> Poly:
        return reduce_mod_sphere(degree_weighted(u, lambda k: k * (k - 1)))

    def lapbar(self, w: Poly) -> Poly:
        n = self.n
        return reduce_mod_sphere(laplacian(w) + degree_weighted(w, lambda k: -k * (k + n - 1)))

    def divPbar(self, w: Poly) -> Poly:
        return Q(1, 2) * self.lapbar(w)

    def eta_P_hess(self, u):
        return 0


def reference_B(j, geom, u, coeffs=None):
    """B_j on a ball polynomial through the reference kit."""
    C, model = model_coefficients(geom)
    return apply_boundary_operator(j, geom.n, C, BallPolyOps(geom.n), u, coeffs or model)


def clear_ball_memos():
    for memo in (model_coefficients, ball_poly_stencil):
        memo.cache_clear()


class GeodesicOperators:
    """Hand-written boundary operators of a geodesic compactification over a
    round conformal infinity, as normal-derivative stencils per boundary
    harmonic: an independent reference for the geodesic model.

    apply(j, derivs, ell) takes the one-sided derivatives
    derivs[k] = (d/dr)^k u at r = 0 and returns the operator value; the
    outward normal is -d/dr.
    """

    def __init__(self, n: int):
        self.n = n

    def _L2(self, s, lam):
        # -lapbar + s*Jbar on the mode, with Jbar = n/2
        return lam + Q(s) * Q(self.n, 2)

    def _L4(self, s, lam):
        # divbar((2 Pbar - Jbar gbar) dbar) + Jbar lapbar - s |Pbar|^2
        return -lam - Q(s) * Q(self.n, 4)

    def apply(self, j: int, derivs, ell: int):
        n = self.n
        lam = sphere_eigenvalue(n, ell)
        u0, u1, u2, u3, u4, u5 = (list(derivs) + [0] * 6)[:6]
        if j == 0:
            return u0
        if j == 1:
            return -u1
        if j == 2:
            return u2 + Q(1, 3) * self._L2(Q(n - 5, 2), lam) * u0
        if j == 3:
            return -u3 - 3 * self._L2(Q(n - 3, 2), lam) * u1
        if j == 4:
            a = self._L2(Q(n - 1, 2), lam)
            b = self._L2(Q(n - 5, 2), lam)
            return -u4 + 6 * a * u2 + 3 * a * b * u0 + 3 * self._L4(Q(n - 5, 2), lam) * u0
        a = self._L2(Q(n + 1, 2), lam)
        b = self._L2(Q(n - 3, 2), lam)
        return -u5 + Q(10, 3) * a * u3 - 5 * a * b * u1 - 15 * self._L4(Q(n - 3, 2), lam) * u1


def test_bidegree():
    b = BoundaryOperatorId(3)
    assert b.bidegree(7) == (-1, -4)
    with pytest.raises(ValueError):
        BoundaryOperatorId(6)


def test_coefficients_halfspace_all_zero():
    co = model_coefficients(halfspace(9))[1]
    assert set(co) == {"T1", "T2", "T3", "T4", "T5", "S2", "S3", "S4", "R13", "R23"}
    assert all(v == 0 for v in co.values())


@pytest.mark.parametrize("n", [6, 7, 9])
def test_coefficients_ball_closed_forms(n):
    co = model_coefficients(ball(n))[1]
    assert co["T1"] == 1
    assert co["T2"] == Q(2 * n - 6, 3)
    assert co["T3"] == (n - 1) * (n - 3)
    assert co["T4"] == (n + 1) * (n - 1) * (n - 3)
    # the boundary-value coefficient of the order-5 operator recovers the
    # Gamma-ratio constant of the explicit ball operator list
    assert Q(n - 5, 2) * co["T5"] == Q(8, 3) * rising(Q(n - 5, 2), 5)
    assert co["S2"] == Q(3 * n**2 - 13 * n + 18, 2)


def test_halfspace_symbolic_operator_table():
    # general decaying triharmonic mode e^{-ty}(a + by + cy^2), a separated
    # mode with lam = t^2 read through the half-space stencil
    u = halfspace_symbolic_mode()
    g = halfspace(7)
    B = [apply_B(j, g, u) for j in range(6)]
    # boundary values are polynomials in the symbols (a, b, c, t)
    a, b, c, t = (Poly.var(4, i) for i in range(4))
    assert B[0] == a
    assert B[1] == t * a - b
    assert B[2] == Q(4, 3) * t**2 * a - 2 * t * b + 2 * c
    assert B[3] == 4 * t**3 * a - 6 * t**2 * b + 6 * t * c
    assert B[4] == 8 * t**4 * a - 8 * t**3 * b
    assert B[5] == Q(8, 3) * t**5 * a


def test_curvature_record_is_built_once_per_geometry(monkeypatch):
    """Repeated apply_B on Poly fields reads the curvature inputs and the
    coefficient scalars of each geometry from one memo."""
    import gjms6.boundary as boundary

    calls = []

    def counting(n, C):
        calls.append(n)
        return coefficient_scalars(n, C)

    monkeypatch.setattr(boundary, "coefficient_scalars", counting)
    # the ball stencil reads the record on its first build
    clear_ball_memos()
    for geom in (ball(7), ball(9), halfspace(7)):
        d = geom.n + 1
        x0, x1, y = Poly.var(d, 0), Poly.var(d, 1), Poly.var(d, d - 1)
        for u in (x0, x0 * x1, y**3, x0, x0 * x1, y**3):
            for j in range(6):
                apply_B(j, geom, u)
    assert sorted(calls) == [7, 7, 9]


def test_halfspace_poly_example():
    n = 7
    d = n + 1
    y = Poly.var(d, d - 1)
    assert apply_B(3, halfspace(n), y**3) == Poly.const(n, -6)
    one = Poly.const(d, 1)
    assert apply_B(0, halfspace(n), one) == Poly.const(n, 1)


def test_ball_poly_examples():
    n = 7
    d = n + 1
    x1 = Poly.var(d, 0)
    vals = [apply_B(j, ball(n), x1) for j in range(6)]
    assert vals == [c * x1 for c in (1, 2, 8, 96, 960, 1920)]
    one = Poly.const(d, 1)
    assert apply_B(1, ball(n), one) == Poly.const(d, 1)
    assert apply_B(2, ball(n), one) == Poly.const(d, Q(8, 3))


def test_ball_mode_matches_poly_route():
    n = 7
    d = n + 1
    h2 = Poly.var(d, 0) * Poly.var(d, 1)
    r2 = sum((Poly.var(d, i) ** 2 for i in range(d)), Poly.zero(d))
    u_poly = (3 * Poly.const(d, 1) - 5 * r2) * h2  # (3 - 5 r^2) x0 x1
    prof = RadialProfile(n, 2, {0: Q(3), 1: Q(-5)})
    ops = BallPolyOps(n)
    h2_b = ops.restrict(h2)
    for j in range(6):
        poly_val = apply_B(j, ball(n), u_poly)
        mode_val = apply_B(j, ball(n), prof.to_separated())
        assert (poly_val - mode_val * h2_b).iszero()


@pytest.mark.parametrize("n", [5, 7])
def test_ball_poly_ops_degree_weights_match_euler_operator(n):
    """hess_nn and lapbar by degree weights equal their Euler-operator forms:
    d^2/dr^2 = E(E - 1) and lapbar = lap - E^2 - (n-1) E at r = 1."""
    ops = BallPolyOps(n)
    rng = random.Random(n)
    for _ in range(8):
        u = random_poly(rng, n + 1, 6, 8)
        e = euler_op(u)
        assert ops.hess_nn(u) == reduce_mod_sphere(euler_op(e) - e)
        assert ops.lapbar(u) == reduce_mod_sphere(laplacian(u) - euler_op(e) - (n - 1) * e)


def ball_fields(n):
    """Seeded fields on the ball in R^(n+1): zero, constants, x_last^6 and
    random polynomials of degree <= 7."""
    d = n + 1
    rng = random.Random(100 + n)
    fixed = [Poly.zero(d), Poly.const(d, 1), Poly.const(d, Q(-7, 3)), Poly.var(d, n, 6)]
    return fixed + [random_poly(rng, d, 7, 10) for _ in range(6)]


@pytest.mark.parametrize("n", [5, 6, 7, 8, 9])
def test_ball_stencil_matches_reference_kit(n):
    """The derived degree stencil and the assembly on the concrete ball kit
    give the same canonical polynomial for every operator."""
    g = ball(n)
    for u in ball_fields(n):
        for j in range(6):
            assert apply_B(j, g, u) == reference_B(j, g, u), (n, j, u)


def test_ball_stencil_sees_a_perturbed_coefficient(monkeypatch):
    """Negative control: the stencil is rebuilt from the coefficient scalars,
    so a perturbed T3 moves B3 off the reference and leaves B2 on it."""
    import gjms6.boundary as boundary

    g = ball(7)
    _, true_coeffs = model_coefficients(g)
    t3 = boundary.t3_scalar
    monkeypatch.setattr(boundary, "t3_scalar", lambda n, C: t3(n, C) + Q(1, 7))
    clear_ball_memos()
    try:
        for u in ball_fields(7)[1:]:
            assert apply_B(3, g, u) != reference_B(3, g, u, true_coeffs)
            assert apply_B(2, g, u) == reference_B(2, g, u, true_coeffs)
    finally:
        monkeypatch.undo()
        clear_ball_memos()
    assert apply_B(3, g, Poly.const(8, 1)) == reference_B(3, g, Poly.const(8, 1))


@pytest.mark.parametrize("geom", [ball(7), halfspace(7)], ids=["ball", "halfspace"])
def test_apply_B_rejects_non_ambient_polynomials(geom):
    for d in (geom.n, geom.n + 2):
        u = Poly.var(d, 0) * Poly.var(d, d - 1) ** 2
        for j in range(6):
            with pytest.raises(ValueError):
                apply_B(j, geom, u)


def test_leading_part_has_no_ball_polynomial_kit():
    """Ball polynomials are read whole through the degree stencil, so the
    leading-part split takes no ball polynomial; modes on the ball and
    polynomials on the half space still have a kit."""
    n = 7
    u = Poly.var(n + 1, 0) * Poly.var(n + 1, n)
    with pytest.raises(ValueError, match="no primitive kit"):
        leading_part(2, ball(n), u)
    assert leading_part(2, halfspace(n), u) == apply_B(2, halfspace(n), u)
    mode = RadialProfile(n, 2, {0: Q(3), 1: Q(-5)}).to_separated()
    assert leading_part(0, ball(n), mode) == apply_B(0, ball(n), mode)


def test_hemisphere_closed_forms_symbolically():
    """The generic assembly with hemisphere curvature equals the explicit
    round-hemisphere operator list, as an identity in the normal jet."""
    n = 7
    D = 6
    syms = [Poly.var(D, k) for k in range(6)]
    g = hemisphere(n)
    for ell in (0, 1, 2, 4):
        lam = sphere_eigenvalue(n, ell)
        mode = mode_from_derivs(n, lam, syms, 7)
        ops = SeparatedOps(g, lam, order=7)
        u0 = ops.restrict(mode)
        eta_u = ops.eta(mode)
        lap_u = ops.lap(mode)
        lapM = ops.restrict(lap_u)
        eta_lap = ops.eta(lap_u)
        lap2M = ops.restrict(ops.lap(lap_u))
        eta_lap2 = ops.eta(ops.lap(lap_u))
        lb = lambda w: -lam * w
        gr = rising  # Gamma ratios
        closed = {
            0: u0,
            1: eta_u,
            2: lapM - Q(4, 3) * lb(u0) + Q((n - 3) * (n - 5), 12) * u0,
            3: eta_lap - 4 * lb(eta_u) + Q(3 * n**2 - 8 * n + 13, 4) * eta_u,
            4: -lap2M - 4 * lb(lapM) + 8 * lb(lb(u0))
               + Q(3 * n**2 - 4 * n - 11, 2) * lapM
               - Q((3 * n + 1) * (n - 3)) * lb(u0)
               + Q(3 * (n + 1) * (n - 1) * (n - 3) * (n - 5), 16) * u0,
            5: eta_lap2 + Q(4, 3) * lb(eta_lap) + Q(8, 3) * lb(lb(eta_u))
               - Q(5 * n**2 - 4 * n - 45, 6) * eta_lap
               - Q(5 * n**2 - 8 * n - 37, 3) * lb(eta_u)
               + Q((n + 3) * (n + 1) * (15 * n**2 - 100 * n + 149), 48) * eta_u,
        }
        for j in range(6):
            got = apply_B(j, g, mode)
            assert (got - closed[j]).iszero(), (ell, j)


def test_geodesic_stencils_symbolically():
    n = 7
    D = 6
    syms = [Poly.var(D, k) for k in range(6)]
    g = hyperbolic_geodesic(n)
    gf = GeodesicOperators(n)
    for ell in (0, 1, 2, 5):
        lam = sphere_eigenvalue(n, ell)
        mode = mode_from_derivs(n, lam, syms, 7)
        for j in range(6):
            got = apply_B(j, g, mode)
            want = gf.apply(j, syms, ell)
            diff = got - want
            assert diff == 0 or diff.iszero(), (ell, j)


def test_geodesic_forms_examples():
    gf = GeodesicOperators(7)
    # constant mode: B2(1) = (1/3)(n-5)/2 * Jbar = 7/6 at n = 7
    assert gf.apply(2, [Q(1), 0, 0, 0, 0, 0], 0) == Q(7, 6)
    # operators of order 3 annihilate radially constant modes
    assert gf.apply(3, [Q(1), 0, 0, 0, 0, 0], 4) == 0
    assert gf.apply(0, [Q(5), 0, 0, 0, 0, 0], 2) == 5
    g = hyperbolic_geodesic(7)
    for j, derivs, ell in ((2, [Q(1)], 0), (3, [Q(1)], 4), (0, [Q(5)], 2)):
        mode = mode_from_derivs(7, sphere_eigenvalue(7, ell), derivs, 5)
        assert apply_B(j, g, mode) == gf.apply(j, derivs, ell)


@pytest.mark.parametrize("model", [halfspace, ball, hemisphere, hyperbolic_geodesic])
def test_separated_stencil_matches_direct_assembly(model):
    """apply_B on a separated mode (the stencil) equals the assembly of
    apply_boundary_operator over SeparatedOps, exactly and in type."""
    rng = random.Random(7)
    for n in (5, 7):
        g = model(n)
        C, scalars = model_coefficients(g)
        for ell in (0, 3, 17, 32):
            lam = sphere_eigenvalue(n, ell)
            for order in (5, 8):
                coeffs = [Q(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(order + 1)]
                mode = SeparatedMode(n, lam, Series(coeffs, order))
                ops = SeparatedOps(g, lam, order=max(order, 6))
                for j in range(6):
                    got = apply_B(j, g, mode)
                    want = apply_boundary_operator(j, n, C, ops, mode, scalars)
                    assert got == want and type(got) is type(want), (g.kind, n, ell, order, j)


def test_separated_stencil_shape():
    """Each operator is a linear form in c0..cj whose coefficients are
    polynomials of degree at most 2 in lam, with at most 12 terms."""
    for model in (halfspace, ball, hemisphere, hyperbolic_geodesic):
        stencil = separated_stencil(model(7))
        assert len(stencil) == 6
        for j, form in enumerate(stencil):
            assert max(k for k, _ in form) == j
            assert all(p <= 2 for _, poly in form for p, _ in poly)
            assert sum(len(poly) for _, poly in form) <= 12


def test_separated_stencil_reads_to_the_jet_order():
    """The deepest jet coefficient that any row of any model's stencil reads
    is c(JET_ORDER), so the mode bases are cut no deeper than B5 needs (a
    shallower cut raises TruncationError, checked below)."""
    for model in (halfspace, ball, hemisphere, hyperbolic_geodesic):
        for n in range(5, 10):
            stencil = separated_stencil(model(n))
            assert max(k for form in stencil for k, _ in form) == JET_ORDER, (model, n)


def test_separated_mode_below_operator_order_raises():
    n = 7
    lam = sphere_eigenvalue(n, 2)
    for model in (halfspace, ball, hemisphere, hyperbolic_geodesic):
        for j in range(1, 6):
            mode = SeparatedMode(n, lam, Series([Q(1)] * j, j - 1))
            with pytest.raises(TruncationError):
                apply_B(j, model(n), mode)
            apply_B(j, model(n), SeparatedMode(n, lam, Series([Q(1)] * (j + 1), j)))


def test_separated_stencil_is_derived_on_first_use():
    code = (
        "import gjms6\n"
        "from gjms6.boundary import ball_poly_stencil, separated_stencil\n"
        "assert separated_stencil.cache_info().currsize == 0\n"
        "assert ball_poly_stencil.cache_info().currsize == 0\n"
        "from gjms6.solver import ball_mode_solve, BoundaryTriple\n"
        "ball_mode_solve(7, 2, BoundaryTriple(1, 0, 0))\n"
        "assert separated_stencil.cache_info().currsize == 1\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr


def test_normal_form_terms():
    assert normal_form_terms(7, 3)["Jb*eta"] == 8  # 4(n-1)/3 at n = 7
    assert normal_form_terms(7, 5)["Pbar2*eta"] == -24  # -8(n-4) at n = 7
    # flat collapse: without curvature the operators are their leading parts
    n = 7
    d = n + 1
    u = Poly.var(d, 0, 2) * Poly.var(d, d - 1) + Poly.var(d, d - 1, 3)
    g = halfspace(n)
    for j in range(6):
        assert (leading_part(j, g, u) - apply_B(j, g, u)).iszero()
        # the differential part of each table is the universal leading part
        terms = normal_form_terms(n, j)
        assert {k: terms[k] for k in LEADING_TERMS[j]} == LEADING_TERMS[j]
    for n, j in ((4, 3), (7, 6)):
        with pytest.raises(ValueError):
            normal_form_terms(n, j)


def test_leading_symbol():
    """The top-order parts match the universal leading terms: the remainder
    of each operator has lower normal order (degree counting on symbols)."""
    n = 7
    D = 6
    syms = [Poly.var(D, k) for k in range(6)]
    for geom in (ball(n), hemisphere(n), hyperbolic_geodesic(n)):
        for ell in (0, 2):
            lam = sphere_eigenvalue(n, ell)
            mode = mode_from_derivs(n, lam, syms, 7)
            for j in range(6):
                rem = apply_B(j, geom, mode) - leading_part(j, geom, mode)
                if isinstance(rem, Poly):
                    # remainder must not involve the top normal derivative
                    for e in rem.terms:
                        top = max(k for k in range(6) if e[k]) if any(e) else 0
                        assert top <= max(j - 1, 0), (geom.kind, j, e)


def test_critical_collapse():
    # at n = 5 the zeroth-order blocks vanish although the coefficient
    # scalars themselves do not
    assert model_coefficients(ball(5))[1]["T1"] != 0
    one = RadialProfile(5, 0, {0: Q(1)}).to_separated()
    assert apply_B(1, ball(5), one) == 0
    assert apply_B(1, ball(7), RadialProfile(7, 0, {0: Q(1)}).to_separated()) == 1
