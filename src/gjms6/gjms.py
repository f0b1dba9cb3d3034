"""The sixth-order GJMS operator on the model geometries, the associated
fourth-order tensor acting on gradients, and the constant-curvature values of
the sixth-order Q-curvature.

The operator is realized through its three model closed forms: the flat
triharmonic form, the product of three shifted Laplacians on the round
sphere, and the hyperbolic factorization transported to a geodesic
compactification.  The general curved expression is exercised indirectly
through its scalar coefficients and the energy form.
"""
from __future__ import annotations

from fractions import Fraction

from .geometry import GeometryKind, ModelGeometry
from .polys import Poly, laplacian
from .reps import SeparatedMode, collar_coefficients, separated_ops
from .series import Series

Q = Fraction


def factorization_shifts(n: int) -> tuple:
    """Shifts c with L6 = prod (-Delta + c) on the unit round (n+1)-sphere."""
    return (
        Q((n + 1) * (n - 1), 4),
        Q((n + 3) * (n - 3), 4),
        Q((n + 5) * (n - 5), 4),
    )


def apply_L6(geom: ModelGeometry, u):
    """Apply the sixth-order operator in the model realization.

    Flat models: minus the third Laplacian power, exact on polynomials and
    on separated modes (the half-space modes e^(-t y) q(y) among them).
    Hemisphere: the factorized product on constants and separated modes.
    Geodesic compactification: the conformally transported hyperbolic
    factorization on separated modes.
    """
    kind = geom.kind
    n = geom.n
    if kind in (GeometryKind.UPPER_HALF_SPACE, GeometryKind.EUCLIDEAN_BALL):
        if isinstance(u, Poly):
            return -laplacian(laplacian(laplacian(u)))
        if isinstance(u, SeparatedMode):
            ops = separated_ops(geom, u)
            return -ops.lap(ops.lap(ops.lap(u)))
        raise TypeError("unsupported representation for a flat model")
    if kind is GeometryKind.ROUND_HEMISPHERE:
        shifts = factorization_shifts(n)
        if isinstance(u, (int, Fraction)):
            out = Q(u)
            for c in shifts:
                out = c * out
            return out
        if isinstance(u, SeparatedMode):
            ops = separated_ops(geom, u)
            out = u
            for c in shifts:
                out = -ops.lap(out) + c * out
            return out
        raise TypeError("unsupported representation for the hemisphere")
    if kind is GeometryKind.HYPERBOLIC_GEODESIC:
        if isinstance(u, SeparatedMode):
            return _geodesic_L6(geom, u)
        raise TypeError("unsupported representation for the geodesic model")
    raise ValueError(kind)


def _geodesic_L6(geom: ModelGeometry, u: SeparatedMode) -> SeparatedMode:
    """L6 of the compactified metric via the hyperbolic factorization.

    With g = r^2 g_plus, conformal covariance turns L6[g] u into
    r^(-(n+7)/2) prod(-Delta_plus - s_i(n-s_i)) (r^((n-5)/2) u) with
    s_i = (n+5)/2, (n+3)/2, (n+1)/2.  The returned mode holds the
    r^(-6)-relative residual series; it vanishes iff L6[g] u does to the
    representable jet order.
    """
    n = geom.n
    a = Q(n - 5, 2)
    out = u.profile
    for s_param in (Q(n + 5, 2), Q(n + 3, 2), Q(n + 1, 2)):
        out = hyperbolic_shifted_factor(n, u.lam, a, s_param, out)
    return SeparatedMode(n, u.lam, out)


def hyperbolic_shifted_factor(n: int, lam, a, s_param, prof: Series) -> Series:
    """Apply (-Delta_plus - s(n-s)) to r^a * prof * Y_l, returning the
    r^a-relative coefficient series.

    Delta_plus = r^2 Delta_g - (n-1) r d/dr for the compactified collar
    metric dr^2 + (1 - r^2/4)^2 h, with A and B read from
    ``reps.collar_coefficients``; every r-power produced by the warped
    coefficients is reabsorbed, so no series order is lost.  As an operator
    application it checks the recurrence of ``solver.poisson_branch_series``.
    """
    a = Q(a)
    s_param = Q(s_param)

    def rmul(x: Series) -> Series:
        return Series([0] + list(x.coeffs), x.ord + 1)

    A, B, _, _ = collar_coefficients(GeometryKind.HYPERBOLIC_GEODESIC, n, prof.ord + 2)
    d1 = a * prof + rmul(prof.deriv())          # r^(a-1)-relative first derivative
    d2 = (a - 1) * d1 + rmul(d1.deriv())        # r^(a-2)-relative second derivative
    lap_plus = d2 + rmul(A * d1) + rmul(rmul((-lam) * (B * prof))) - Q(n - 1) * d1
    return -lap_plus - (s_param * (Q(n) - s_param)) * prof


# ---------------------------------------------------------------------------
# Q-curvature at constant curvature
# ---------------------------------------------------------------------------

def q6_constant_curvature(d: int) -> Fraction:
    """Sixth-order Q-curvature of the unit round d-sphere (exact rational).

    On the round sphere the Schouten tensor is g/2, so J = d/2, |P|^2 = d/4,
    tr P^3 = d/8, the Bach tensor vanishes, and every derivative term drops:
    Q6 = ((n-1)(n+3)/4) J^3 - 4(n+1) J |P|^2 + 16 tr P^3 with n = d - 1.
    Flat space gives 0.
    """
    if d < 6:
        raise ValueError("requires total dimension d = n + 1 >= 6")
    n = d - 1
    J = Q(d, 2)
    P2 = Q(d, 4)
    P3 = Q(d, 8)
    return Q((n - 1) * (n + 3), 4) * J**3 - 4 * (n + 1) * J * P2 + 16 * P3


# ---------------------------------------------------------------------------
# the fourth-order tensor acting on gradients
# ---------------------------------------------------------------------------

def t4_constant_scalar(geom: ModelGeometry) -> Fraction:
    """On constant-curvature models the gradient tensor is a scalar multiple
    of the metric; returns that scalar (0 on the flat models)."""
    n = geom.n
    if geom.kind in (GeometryKind.UPPER_HALF_SPACE, GeometryKind.EUCLIDEAN_BALL):
        return Q(0)
    if geom.kind is GeometryKind.ROUND_HEMISPHERE:
        J = Q(n + 1, 2)
        P2 = Q(n + 1, 4)
        # coefficient of g in the tensor plus the P and P^2 contributions,
        # with P = g/2 so P-term -> -8(n-1)J/2 and P^2-term -> 48/4
        return (
            Q(3 * n**2 - 6 * n - 13, 4) * J**2
            - Q(4 * (n - 3)) * P2
            - Q(8 * (n - 1)) * J * Q(1, 2)
            + Q(48) * Q(1, 4)
        )
    raise ValueError("constant scalar form available on flat models and the hemisphere")


def t4_action(geom: ModelGeometry, du):
    """Contract the fourth-order tensor with a gradient one-form.

    On the flat models the result is zero; on the hemisphere it is the
    constant scalar times the input.  ``du`` may be any object supporting
    scalar multiplication (per-mode coefficient, one-form component list).
    """
    c = t4_constant_scalar(geom)
    if isinstance(du, (list, tuple)):
        return type(du)(c * comp for comp in du)
    return c * du


def t4_eta_eta_normal_form(n: int, Jbar, Pbar2, lapbar_Jbar):
    """Normal-normal component of the tensor for a boundary-normalized
    metric: -(8(n-5)/3) lapbar(Jbar) - 8(n-4)|Pbar|^2 + (8(2n^2-10n+5)/9) Jbar^2."""
    return (
        -Q(8 * (n - 5), 3) * lapbar_Jbar
        - Q(8 * (n - 4)) * Pbar2
        + Q(8 * (2 * n**2 - 10 * n + 5), 9) * (Jbar * Jbar)
    )


def t4_eta_tangent_normal_form() -> Fraction:
    """Tangential-normal components vanish for boundary-normalized metrics."""
    return Q(0)
