"""The energy bilinear form, its interior/boundary split, the first
Dirichlet eigenvalue bound, and the trace lower-bound property.

On the flat ball with polynomial inputs everything is exact rational
arithmetic carrying the symbolic unit Vol(S^n); the per-mode branch used by
the sharp-inequality module is exact as well whenever the data are rational.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .boundary import apply_B
from .fractional import DTN_IDENTITIES, round_multiplier
from .geometry import GeometryKind, ModelGeometry
from .polys import MomentScalar, Poly, ball_integral, grad_dot, laplacian, sphere_pairing
from .reps import RadialProfile, radial_l2_integral
from .solver import BoundaryTriple, ball_mode_solve

Q = Fraction


@dataclass(frozen=True)
class EnergyReport:
    interior: MomentScalar
    boundary: MomentScalar
    total: MomentScalar
    exact: bool


@dataclass(frozen=True)
class BilinearDecomposition:
    FI: MomentScalar
    FB: MomentScalar


@dataclass(frozen=True)
class DirichletEigenEstimate:
    lambda_lower: float
    modes_checked: tuple


def _require_ball_polys(geom: ModelGeometry, u, v):
    if geom.kind is not GeometryKind.EUCLIDEAN_BALL:
        raise ValueError("exact energy integrals are implemented on the flat ball")
    if not isinstance(u, Poly) or not isinstance(v, Poly):
        raise TypeError("polynomial fields required")
    if u.d != geom.n + 1 or v.d != geom.n + 1:
        raise ValueError("fields must be ambient polynomials")


def q6_form(geom: ModelGeometry, u: Poly, v: Poly) -> EnergyReport:
    """Energy pairing: interior integral of u times the sixth-order operator
    of v, plus the boundary pairing sum of B_j(u) B_(5-j)(v), j = 0..2.
    B_j is read through ``boundary.ball_poly_stencil``, and each boundary
    product is integrated by ``sphere_pairing`` without being formed."""
    _require_ball_polys(geom, u, v)
    l6v = -laplacian(laplacian(laplacian(v)))
    interior = ball_integral(u * l6v)
    boundary = MomentScalar(Q(0), "vol_sn", geom.n)
    for j in range(3):
        bu = apply_B(j, geom, u)
        bv = apply_B(5 - j, geom, v)
        boundary = boundary + sphere_pairing(bu, bv)
    return EnergyReport(interior, boundary, interior + boundary, True)


def energy(geom: ModelGeometry, u: Poly) -> MomentScalar:
    return q6_form(geom, u, u).total


def symmetry_residual(geom: ModelGeometry, u: Poly, v: Poly) -> MomentScalar:
    """q6(u, v) - q6(v, u); must vanish exactly."""
    return q6_form(geom, u, v).total - q6_form(geom, v, u).total


def fi_fb_decompose(geom: ModelGeometry, u: Poly, v: Poly) -> BilinearDecomposition:
    """Interior/boundary split of the energy pairing.

    On a flat interior the interior bilinear form reduces to the pairing of
    the gradients of the Laplacians; the boundary form is the exact
    remainder, symmetric by the symmetry of the total.
    """
    _require_ball_polys(geom, u, v)
    fi = ball_integral(grad_dot(laplacian(u), laplacian(v)))
    total = q6_form(geom, u, v).total
    return BilinearDecomposition(fi, total - fi)


# ---------------------------------------------------------------------------
# per-mode exact energies on the ball
# ---------------------------------------------------------------------------

def mode_energy_pairing(n: int, ell: int, a: RadialProfile, b: RadialProfile):
    """q6(aY, bY) divided by the boundary integral of Y^2: interior part
    integral of (aY) L6 (bY) plus the boundary operator pairing."""
    from .geometry import ball as ball_geom

    g = ball_geom(n)
    l6b = -(b.lap().lap().lap())
    interior = radial_l2_integral(a, l6b)
    sa = a.to_separated()
    sb = b.to_separated()
    boundary = 0
    for j in range(3):
        boundary = boundary + apply_B(j, g, sa) * apply_B(5 - j, g, sb)
    return interior + boundary


def zero_data_profile(n: int, ell: int, m: int, coeff=Q(1)) -> RadialProfile:
    """r^(l+2m) (1-r^2)^3 times a degree-l harmonic: a cubic zero at the
    boundary annihilates the first three boundary operators."""
    base = {0: Q(1), 1: Q(-3), 2: Q(3), 3: Q(-1)}
    return RadialProfile(n, ell, {m + k: coeff * c for k, c in base.items()})


def dirichlet_eigen_lower(n: int, lmax: int = 8, basis_size: int = 6) -> DirichletEigenEstimate:
    """Rayleigh lower bound for the first Dirichlet eigenvalue on the ball.

    Per boundary harmonic, minimizes the energy quadratic form over a
    polynomial family with vanishing Dirichlet data, normalized in L^2.  The
    result must be positive; a nonpositive value would falsify the spectral
    hypothesis of the trace theorem.
    """
    import numpy as np

    worst = None
    modes = []
    for ell in range(lmax + 1):
        basis = [zero_data_profile(n, ell, m) for m in range(basis_size)]
        A = np.array(
            [[float(mode_energy_pairing(n, ell, a, b)) for b in basis] for a in basis]
        )
        M = np.array([[float(radial_l2_integral(a, b)) for b in basis] for a in basis])
        # the pencil (A, M) reduced with M = L L^T: C = L^-1 A L^-T
        L = np.linalg.cholesky(M)
        C = np.linalg.solve(L, np.linalg.solve(L, A).T)
        vals = np.linalg.eigvalsh((C + C.T) / 2)
        lam_min = float(vals[0])
        modes.append((ell, lam_min))
        worst = lam_min if worst is None else min(worst, lam_min)
    return DirichletEigenEstimate(worst, tuple(modes))


@dataclass(frozen=True)
class TraceLowerBoundReport:
    energy_u0: Fraction
    multiplier_route: Fraction
    match_error: float
    min_gap: float
    gaps_positive: bool
    perturbations: int


def trace_lower_bound_check(n: int, data_modes, num_perturbations: int = 100,
                            seed: int = 0, lmax: int = 8) -> TraceLowerBoundReport:
    """Verify the energy lower bound on the ball for prescribed per-mode data.

    data_modes: list of (ell, (f, phi, psi)) with rational entries.  The
    extension u0 is solved per mode; random zero-data perturbations v are
    added and the exact energies compared:
        energy(u0 + v) - energy(u0) >= 0 with equality only at v = 0,
    and energy(u0) equals the boundary pairing of the induced
    Dirichlet-to-Neumann multipliers.
    """
    rng = random.Random(seed)
    solves = {}
    for ell, data in data_modes:
        res = ball_mode_solve(n, ell, BoundaryTriple(*[Q(x) for x in data]))
        solves[ell] = res.profile

    def total_energy(profiles: dict) -> Fraction:
        acc = Q(0)
        for ell, p in profiles.items():
            acc += mode_energy_pairing(n, ell, p, p)
        return acc

    e0 = total_energy(solves)
    mult = Q(0)
    for ell, data in data_modes:
        vals = [Q(x) for x in data]
        for j, (front, slot, _) in DTN_IDENTITIES.items():
            mult += front * round_multiplier(n, Q(j, 2), ell) * vals[slot] ** 2
    match_error = abs(float(e0 - mult))

    min_gap = None
    positive = True
    for k in range(num_perturbations):
        ell = rng.randrange(0, lmax + 1)
        m = rng.randrange(0, 3)
        coeff = Q(rng.randint(-5, 5))
        if coeff == 0:
            coeff = Q(1)
        v = zero_data_profile(n, ell, m, coeff)
        pert = dict(solves)
        pert[ell] = (pert[ell] + v) if ell in pert else v
        gap = total_energy(pert) - e0
        gf = float(gap)
        min_gap = gf if min_gap is None else min(min_gap, gf)
        if gap <= 0:
            positive = False
    # the zero perturbation attains equality
    zero_gap = total_energy(dict(solves)) - e0
    if zero_gap != 0:
        positive = False
    return TraceLowerBoundReport(e0, mult, match_error, min_gap, positive, num_perturbations)
