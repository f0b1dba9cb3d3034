"""The six conformally covariant boundary operators of the sixth-order
GJMS operator, with all curvature coefficients.

``model_curvature_inputs`` is the one curvature table of the four model
geometries (H, P(eta,eta), Jbar, |Pbar|^2 and the derivatives of J), and
``model_coefficients`` memoizes it with its coefficient scalars per model.
The scalar coefficients and the operator assembly are written once, in
``apply_boundary_operator``, generic over an arithmetic kit: exact rational
curvature data with polynomial fields on the flat half space, and the
conformally-flat calculus ring used for the covariance checks.  Two field
representations on the model geometries are read through stencils that the
same assembly derives once per model, run on symbols:

- ``separated_stencil``: on separated modes (the half-space modes among
  them), each operator as a linear form in the profile jet with coefficients
  polynomial in the boundary eigenvalue;
- ``ball_poly_stencil``: on polynomials on the ball, each operator as degree
  weights, polynomial in the degree k, on the homogeneous pieces of u, lap u
  and lap^2 u, followed by one reduction modulo the unit sphere.

``apply_B`` evaluates them, a separated row once per (model, j, lam)
(``separated_weights``).  Zeroth-order blocks carry the factor (n-5)/2
and vanish identically in the critical dimension n = 5.

``field_ops`` is the only place that picks the primitive kit for a field
representation on a model geometry, and ``leading_part`` holds the only table
from primitive names to kit calls, for the fields that have a kit.
``LEADING_TERMS`` is the one table of the universal leading parts;
``normal_form_terms`` adds the curvature terms of the operators of a metric
conformally normalized at the boundary.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .geometry import GeometryKind, ModelGeometry
from .polys import Poly, degree_weighted, laplacian, reduce_mod_sphere, sum_all
from .series import Series, TruncationError

# Every Q(...) here takes a small integer expression in n, so the operator
# constants are built once per dimension and then read from this memo.
Q = functools.lru_cache(maxsize=None, typed=True)(Fraction)


@dataclass(frozen=True)
class BoundaryOperatorId:
    """Normal order j in 0..5; the operator has conformal bidegree
    (-(n-5)/2, -(n+2j-5)/2)."""

    j: int

    def __post_init__(self):
        if not 0 <= self.j <= 5:
            raise ValueError("boundary operator index must lie in 0..5")

    def bidegree(self, n: int) -> tuple:
        return (-Q(n - 5, 2), -Q(n + 2 * self.j - 5, 2))


class CurvatureInputs:
    """Named curvature scalars entering the boundary operators.

    For model geometries every field is an exact Fraction (the tangential
    derivative fields vanish); the conformal engine fills the same slots with
    ring elements.
    """

    __slots__ = (
        "H", "Pnn", "Jb", "Pbar2", "etaJ", "lapJ", "hessJnn", "etaPnn",
        "etaPsq", "etaLapJ", "lapbarH", "lapbar2H", "lapbarJb", "lapbarPnn",
        "lapbar_etaJ", "gradH2", "PbarHessH", "pair_dH_dJb", "pair_dH_dPnn",
    )

    def __init__(self, **kw):
        for name in self.__slots__:
            setattr(self, name, kw.pop(name))
        if kw:
            raise TypeError(f"unexpected curvature fields {sorted(kw)}")


def model_curvature_inputs(geom: ModelGeometry) -> CurvatureInputs:
    """The exact curvature scalars of a model geometry: the one curvature
    table of the four models, read through ``model_coefficients``.

    Every model is umbilic with vanishing Fialkow tensor and constant
    curvature data, so each slot not set below is zero.  Each round boundary
    has Pbar = gbar/2, hence Jbar = n/2 and |Pbar|^2 = n/4.
    """
    n, kind = geom.n, geom.kind
    fields = dict.fromkeys(CurvatureInputs.__slots__, Q(0))
    if kind is not GeometryKind.UPPER_HALF_SPACE:
        fields.update(Jb=Q(n, 2), Pbar2=Q(n, 4))
    if kind is GeometryKind.EUCLIDEAN_BALL:
        # unit sphere in flat space: H = n, flat interior
        fields["H"] = Q(n)
    elif kind is GeometryKind.ROUND_HEMISPHERE:
        # totally geodesic equator; the interior Schouten tensor is g/2
        fields["Pnn"] = Q(1, 2)
    elif kind is GeometryKind.HYPERBOLIC_GEODESIC:
        # totally geodesic boundary with J = Jbar; the interior Laplacian of
        # J and its normal Hessian restrict to |Pbar|^2 = n/4
        fields.update(lapJ=Q(n, 4), hessJnn=Q(n, 4))
    return CurvatureInputs(**fields)


# ---------------------------------------------------------------------------
# coefficient scalars
# ---------------------------------------------------------------------------

def t1_scalar(n, C):
    return Q(1, n) * C.H


def t2_scalar(n, C):
    return Q(1, 3) * C.Jb - C.Pnn + Q(n - 4, 2 * n**2) * (C.H * C.H)


def t3_scalar(n, C):
    return (
        -C.etaJ
        - Q(4, n) * C.lapbarH
        - Q(n - 9, 2 * n) * (C.H * C.Pnn)
        + Q(3 * n - 11, 2 * n) * (C.H * C.Jb)
        + Q(n**2 - 5 * n + 12, 4 * n**3) * (C.H * C.H * C.H)
    )


def s2_scalar(n, C):
    return (
        Q(3 * n - 7, 2) * C.Jb
        - Q(n - 13, 2) * C.Pnn
        + Q(3 * n**2 - 19 * n + 36, 4 * n**2) * (C.H * C.H)
    )


def s3_scalar(n, C):
    return (
        Q(n - 9) * C.etaJ
        + Q(16, n) * C.lapbarH
        + Q(3 * n**2 - 15 * n + 10, n) * (C.H * C.Jb)
        + Q(n**2 - 5 * n + 26, n) * (C.H * C.Pnn)
        - Q(n**3 - 7 * n**2 + 12 * n - 24, 2 * n**3) * (C.H * C.H * C.H)
    )


def t4_scalar(n, C):
    HH = C.H * C.H
    return (
        C.lapJ
        - 4 * C.lapbarJb
        + 4 * C.lapbarPnn
        - Q(4 * (n - 4), n**2) * (C.H * C.lapbarH)
        - Q(4, n) * (C.H * C.etaJ)
        - Q(3 * (n - 1)) * (C.Jb * C.Pnn)
        + Q(n**2 - 3 * n + 18, 2 * n**2) * (HH * C.Pnn)
        + Q(3 * n**2 - 13 * n + 2, 2 * n**2) * (HH * C.Jb)
        - Q(4 * (n - 6), n**2) * C.gradH2
        - 4 * C.Pbar2
        + Q(3 * (n - 1), 2) * (C.Jb * C.Jb)
        - Q(n - 9, 2) * (C.Pnn * C.Pnn)
        - Q(n**3 - 5 * n**2 + 4 * n - 24, 8 * n**4) * (HH * HH)
    )


def r13_scalar(n, C):
    return (
        Q(-2 * (n - 6)) * C.etaJ
        + Q(2 * (n - 9), 3 * n) * C.lapbarH
        - Q(5 * n**2 - 28 * n + 15, 6 * n) * (C.H * C.Jb)
        - Q(n**2 - 16 * n + 55, 2 * n) * (C.H * C.Pnn)
        + Q(n**3 - 6 * n**2 + 11 * n - 30, 4 * n**3) * (C.H * C.H * C.H)
    )


def r23_scalar(n, C):
    return (
        -Q(5 * n - 19, 3) * C.etaJ
        + Q(2 * (5 * n - 21), 3 * n) * C.lapbarH
        - Q(5 * n**2 - 20 * n + 7, 2 * n) * (C.H * C.Jb)
        - Q(5 * (n - 3) * (n - 5), 6 * n) * (C.H * C.Pnn)
        + Q(5 * n**3 - 26 * n**2 + 23 * n + 6, 12 * n**3) * (C.H * C.H * C.H)
    )


def s4_scalar(n, C):
    HH = C.H * C.H
    return (
        -Q(n - 5, 2) * C.lapJ
        - Q(2 * (3 * n - 11), 3) * C.lapbarJb
        - Q(n - 9) * C.hessJnn
        - Q(2 * (n - 13), 3) * C.lapbarPnn
        - Q(16, n) * (C.H * C.etaPnn)
        + Q(6 * n**2 - 38 * n + 72, 3 * n**2) * (C.H * C.lapbarH)
        + Q(6 * n**2 - 62 * n + 180, 3 * n**2) * C.gradH2
        - Q(3 * n**2 - 20 * n + 13, 2 * n) * (C.H * C.etaJ)
        - Q(3 * n**3 - 24 * n**2 + 103 * n - 130, 4 * n**2) * (HH * C.Pnn)
        - Q(15 * n**3 - 68 * n**2 - 5 * n + 42, 12 * n**2) * (HH * C.Jb)
        + Q(5 * n**2 - 54 * n + 49, 6) * (C.Jb * C.Pnn)
        + Q(5 * n**4 - 26 * n**3 + 17 * n**2 - 84 * n + 120, 16 * n**4) * (HH * HH)
        + Q(15 * n**2 - 50 * n - 29, 12) * (C.Jb * C.Jb)
        + Q(n**2 - 22 * n + 149, 4) * (C.Pnn * C.Pnn)
        - Q(2 * (3 * n - 11)) * C.Pbar2
    )


def t5_scalar(n, C):
    HH = C.H * C.H
    HHH = HH * C.H
    return (
        -C.etaLapJ
        - Q(4, 3) * C.lapbar_etaJ
        + Q(8, 3 * n) * C.lapbar2H
        + Q(4, n) * (C.H * C.hessJnn)
        - Q(n + 3, 2 * n) * (C.H * C.lapJ)
        - Q(2 * (3 * n - 7), 3 * n) * (C.H * C.lapbarJb)
        - Q(2 * (n - 9), 3 * n) * (C.H * C.lapbarPnn)
        - Q(4 * (n - 12), 3 * n) * C.pair_dH_dPnn
        - Q(4 * (3 * n - 16), 3 * n) * C.pair_dH_dJb
        + Q(5 * n - 1, 3) * (C.Jb * C.etaJ)
        + Q(n - 5) * (C.Pnn * C.etaJ)
        - Q(8, n**2) * (HH * C.etaPnn)
        - 4 * C.etaPsq
        - Q(n**2 - 7 * n - 6, 2 * n**2) * (HH * C.etaJ)
        - Q(2 * (n - 9), 3 * n) * (C.Pnn * C.lapbarH)
        + Q(n**2 - 5 * n + 12, n**3) * (HH * C.lapbarH)
        + Q(16, n) * C.PbarHessH
        - Q(10 * (n - 1), 3 * n) * (C.Jb * C.lapbarH)
        + Q(15 * n**2 - 10 * n - 37, 12 * n) * (C.H * C.Jb * C.Jb)
        + Q((n - 5) * (n - 9), 4 * n) * (C.H * C.Pnn * C.Pnn)
        - Q(6 * (n - 1), n) * (C.H * C.Pbar2)
        + Q((n - 5) * (5 * n + 3), 6 * n) * (C.H * C.Jb * C.Pnn)
        - Q(n**3 - 4 * n**2 + 33 * n - 30, 4 * n**3) * (HHH * C.Pnn)
        + Q(2 * (n - 2) * (n - 7), n**3) * (C.H * C.gradH2)
        - Q(5 * n**3 - 8 * n**2 - 19 * n - 42, 12 * n**3) * (HHH * C.Jb)
        + Q(n**4 - 2 * n**3 - 3 * n**2 - 52 * n + 24, 16 * n**5) * (HHH * HH)
    )


def coefficient_scalars(n, C) -> dict:
    """All coefficient scalars as a dict keyed T1..T5, S2..S4, R13, R23."""
    return {
        "T1": t1_scalar(n, C),
        "T2": t2_scalar(n, C),
        "T3": t3_scalar(n, C),
        "T4": t4_scalar(n, C),
        "T5": t5_scalar(n, C),
        "S2": s2_scalar(n, C),
        "S3": s3_scalar(n, C),
        "S4": s4_scalar(n, C),
        "R13": r13_scalar(n, C),
        "R23": r23_scalar(n, C),
    }


@functools.lru_cache(maxsize=None)
def model_coefficients(geom: ModelGeometry) -> tuple:
    """(CurvatureInputs, coefficient_scalars dict) of a model geometry,
    built once per geometry; callers share them and must not mutate them."""
    C = model_curvature_inputs(geom)
    return C, coefficient_scalars(geom.n, C)


# ---------------------------------------------------------------------------
# operator assembly
# ---------------------------------------------------------------------------

class BoundaryOps:
    """Primitive operations a field representation must provide.

    Ambient objects are whatever the representation uses for functions on X;
    boundary objects support ring arithmetic with Fraction coefficients.
    The gradient-pairing hooks only matter for non-constant curvature (the
    conformal engine); representations on model geometries inherit zeros.
    """

    def bzero(self):
        raise NotImplementedError

    def restrict(self, u):
        raise NotImplementedError

    def eta(self, u):
        raise NotImplementedError

    def lap(self, u):
        raise NotImplementedError

    def hess_nn(self, u):
        raise NotImplementedError

    def lapbar(self, w):
        raise NotImplementedError

    def divPbar(self, w):
        """delta-bar(Pbar(grad-bar w))."""
        raise NotImplementedError

    def eta_P_hess(self, u):
        """eta of the full contraction <P, Hess u>."""
        raise NotImplementedError

    def pair(self, a, w):
        """<grad-bar a, grad-bar w> for a curvature scalar a."""
        return self.bzero()

    def hesspair_H(self, w):
        """<Hess-bar H, Hess-bar w>."""
        return self.bzero()

    def sigma4_pair(self, w):
        """<sigma4, grad-bar w> for the order-four one-form coefficient."""
        return self.bzero()


def apply_boundary_operator(j: int, n: int, C: CurvatureInputs, ops: BoundaryOps, u, coeffs: dict):
    """Apply the normal-order-j boundary operator to the field ``u``, with
    ``coeffs`` the ``coefficient_scalars`` of ``C``.

    Single source of truth for the six displayed formulas; everything else
    in the package (model closed forms, covariance engine) routes through
    this function.
    """
    if not 0 <= j <= 5:
        raise ValueError("boundary operator index must lie in 0..5")
    uM = ops.restrict(u)
    if j == 0:
        return uM
    half = Q(n - 5, 2)
    eta_u = ops.eta(u)
    if j == 1:
        return eta_u + half * (coeffs["T1"] * uM)

    lap_u = ops.lap(u)
    lap_u_M = ops.restrict(lap_u)
    if j == 2:
        return (
            lap_u_M
            - Q(4, 3) * ops.lapbar(uM)
            - Q(4, n) * (C.H * eta_u)
            + half * (coeffs["T2"] * uM)
        )

    if j == 3:
        return (
            ops.eta(lap_u)
            - 4 * ops.lapbar(eta_u)
            + Q(n - 9, 2 * n) * (C.H * ops.hess_nn(u))
            - Q(3 * n - 19, 2 * n) * (C.H * ops.lapbar(uM))
            - Q(4 * (n - 4), n) * ops.pair(C.H, uM)
            + coeffs["S2"] * eta_u
            + half * (coeffs["T3"] * uM)
        )

    lap2_u = ops.lap(lap_u)
    if j == 4:
        hess_nn_u = ops.hess_nn(u)
        lapbar_uM = ops.lapbar(uM)
        bracket_hess = (
            Q(3 * n - 5) * C.Jb
            + Q(n - 11) * C.Pnn
            - Q(n**2 - 5 * n + 18, 2 * n**2) * (C.H * C.H)
        )
        # The H^2 constant here is 34, pinned jointly by the ball
        # Dirichlet-to-Neumann identities and conformal covariance.
        bracket_lapbar = (
            Q(3 * (n - 3)) * C.Jb
            - Q(3 * n - 13) * C.Pnn
            + Q(3 * n**2 - 23 * n + 34, 2 * n**2) * (C.H * C.H)
        )
        grad_combo = (
            Q(3 * n - 11) * C.Jb
            - Q(5 * n - 29) * C.Pnn
            + Q(5 * n**2 - 45 * n + 112, 2 * n**2) * (C.H * C.H)
        )
        return (
            -ops.restrict(lap2_u)
            - 4 * ops.lapbar(lap_u_M)
            + 8 * ops.lapbar(lapbar_uM)
            + Q(4, n) * (C.H * ops.eta(lap_u))
            + Q(16, n) * (C.H * ops.lapbar(eta_u))
            + bracket_hess * hess_nn_u
            - bracket_lapbar * lapbar_uM
            + 8 * ops.divPbar(uM)
            + Q(48, n) * ops.pair(C.H, eta_u)
            - ops.pair(grad_combo, uM)
            + coeffs["S3"] * eta_u
            + half * (coeffs["T4"] * uM)
        )

    # j == 5
    eta_lap_u = ops.eta(lap_u)
    hess_nn_u = ops.hess_nn(u)
    lapbar_uM = ops.lapbar(uM)
    lapbar_eta_u = ops.lapbar(eta_u)
    bracket_eta_lap = (
        Q(5 * n - 7, 3) * C.Jb
        + Q(n - 7) * C.Pnn
        - Q(n**2 - 9 * n + 10, 2 * n**2) * (C.H * C.H)
    )
    bracket_lapbar_eta = (
        Q(2 * (5 * n - 9), 3) * C.Jb
        + Q(2 * (n - 13), 3) * C.Pnn
        - Q(3 * n**2 - 19 * n + 12, 3 * n**2) * (C.H * C.H)
    )
    grad_combo5 = (
        Q(15 * n - 47, 3) * C.Jb
        + Q(7 * n - 79, 3) * C.Pnn
        - Q(15 * n**2 - 139 * n + 168, 6 * n**2) * (C.H * C.H)
    )
    return (
        ops.eta(lap2_u)
        + Q(4, 3) * ops.lapbar(eta_lap_u)
        + Q(8, 3) * ops.lapbar(lapbar_eta_u)
        + Q(n + 3, 2 * n) * (C.H * ops.restrict(lap2_u))
        + Q(2 * (n - 9), 3 * n) * (C.H * ops.lapbar(hess_nn_u))
        - Q(4, n) * (C.H * ops.hess_nn(lap_u))
        + Q(2 * (3 * n - 11), 3 * n) * (C.H * ops.lapbar(lapbar_uM))
        - bracket_eta_lap * eta_lap_u
        - bracket_lapbar_eta * lapbar_eta_u
        + 8 * ops.eta_P_hess(u)
        + 16 * ops.divPbar(eta_u)
        + Q(4 * (n - 12), 3 * n) * ops.pair(C.H, hess_nn_u)
        + Q(4 * (5 * n - 28), 3 * n) * ops.pair(C.H, lapbar_uM)
        + coeffs["R13"] * hess_nn_u
        + Q(4 * (3 * n - 7), n) * (C.H * ops.divPbar(uM))
        + Q(8 * (2 * n - 14), 3 * n) * ops.hesspair_H(uM)
        + coeffs["R23"] * lapbar_uM
        - ops.pair(grad_combo5, eta_u)
        + ops.sigma4_pair(uM)
        + coeffs["S4"] * eta_u
        + half * (coeffs["T5"] * uM)
    )


# ---------------------------------------------------------------------------
# dispatch over field representations
# ---------------------------------------------------------------------------

def field_ops(geom: ModelGeometry, u) -> BoundaryOps:
    """The primitive kit for the field ``u`` on a model geometry.

    The only dispatch from a field representation to its kit.  It picks
    two of the three kits of ``apply_boundary_operator``: ``SeparatedOps``
    for a SeparatedMode on any model (a half-space mode e^(-t y) q(y) is a
    separated mode with boundary eigenvalue lam = t^2), and
    ``HalfspacePolyOps`` for Poly and for the dual-number and jet rings of
    ``confcalc`` on the half space, where ``apply_B`` is the flat side of the
    covariance residuals.  The third, ``confcalc.HalfspaceConformalEngine``,
    is its own kit.  Separated modes and Poly fields on the ball are read by
    ``apply_B`` through the derived stencils instead.
    """
    from . import reps
    from .confcalc import DualPoly, Jet

    if isinstance(u, reps.SeparatedMode):
        return reps.separated_ops(geom, u)
    if isinstance(u, (Poly, DualPoly, Jet)):
        if geom.kind is GeometryKind.UPPER_HALF_SPACE:
            return reps.HalfspacePolyOps(geom.n)
        raise ValueError(f"{type(u).__name__} fields have no primitive kit on {geom.kind}")
    raise TypeError(f"unsupported field representation {type(u).__name__}")


@functools.lru_cache(maxsize=None)
def separated_stencil(geom: ModelGeometry) -> tuple:
    """B0..B5 on the separated modes of a model geometry, as linear forms in
    the profile jet.

    Derived from ``apply_boundary_operator`` with ``SeparatedOps`` on a mode
    whose Taylor coefficients c0..c5 and eigenvalue lam are Poly symbols.
    Entry j lists, for each k, the coefficient of c_k as a polynomial in lam,
    given as ((power, Fraction), ...).  Memoized per model geometry.
    """
    from .reps import SeparatedMode, SeparatedOps

    n = geom.n
    syms = [Poly.var(7, i) for i in range(7)]
    lam = syms[6]
    mode = SeparatedMode(n, lam, Series(syms[:6], 5))
    ops = SeparatedOps(geom, lam, order=6)
    C, coeffs = model_coefficients(geom)
    out = []
    for j in range(6):
        form: dict = {}
        for e, c in apply_boundary_operator(j, n, C, ops, mode, coeffs).terms.items():
            form.setdefault(e[:6].index(1), []).append((e[6], c))
        out.append(tuple((k, tuple(sorted(form[k]))) for k in sorted(form)))
    return tuple(out)


@functools.lru_cache(maxsize=None, typed=True)
def separated_weights(geom: ModelGeometry, j: int, lam) -> tuple:
    """Row j of ``separated_stencil`` evaluated at the eigenvalue lam: the
    pairs (k, w_k) with B_j(u) = sum_k w_k c_k on a separated mode with jet
    coefficients c_k.  Memoized on (geom, j, lam) with the type of lam in
    the key, so an exact lam and a float lam of equal value (4, Fraction(4),
    4.0) have weights of their own."""
    return tuple((k, sum(c * lam**p for p, c in poly)) for k, poly in separated_stencil(geom)[j])


class _BallDegreeOps(BoundaryOps):
    """The ball primitives on one homogeneous piece u_k of a polynomial, as
    symbols: a field is a Poly in (k, D) whose term k^a D^m stands for
    k^a lap^m u_k.  lap^m u_k has degree k - 2m, so the Euler operator r d/dr
    is E = k - 2 D d/dD; at r = 1 the normal derivative is E, the normal
    Hessian E(E - 1) and the boundary Laplacian lap - E(E + n - 1), which
    hold for any ambient representative of a boundary function, so nothing
    is reduced modulo the sphere.  Curvature is constant: the pairings and
    eta <P, Hess u> vanish and divPbar is half the boundary Laplacian."""

    def __init__(self, n: int):
        self.n = n
        self.k = Poly.var(2, 0)
        self.D = Poly.var(2, 1)

    def bzero(self):
        return Poly.zero(2)

    def restrict(self, u):
        return u

    def eta(self, u):
        return self.k * u - 2 * (self.D * u.diff(1))

    def lap(self, u):
        return self.D * u

    def hess_nn(self, u):
        e = self.eta(u)
        return self.eta(e) - e

    def lapbar(self, w):
        e = self.eta(w)
        return self.D * w - self.eta(e) - (self.n - 1) * e

    def divPbar(self, w):
        return Q(1, 2) * self.lapbar(w)

    def eta_P_hess(self, u):
        return self.bzero()


@functools.lru_cache(maxsize=None)
def ball_poly_stencil(geom: ModelGeometry) -> tuple:
    """B0..B5 on polynomials on the ball, as degree weights:
    B_j(u) = reduce_mod_sphere(sum_m sum_k c_jm(k) (lap^m u)_(k-2m)), m <= 2,
    with (lap^m u)_(k-2m) the degree k - 2m piece of lap^m u.

    Derived from ``apply_boundary_operator`` on the symbolic kit
    ``_BallDegreeOps``.  Entry j lists, for each m, the weight of the pieces
    of lap^m u as a function deg -> c_jm(deg + 2m), evaluated once per
    degree.  Memoized per model geometry, weights included.
    """
    if geom.kind is not GeometryKind.EUCLIDEAN_BALL:
        raise ValueError(f"the polynomial stencil is defined on the ball, not on {geom.kind}")
    n = geom.n
    C, coeffs = model_coefficients(geom)
    ops = _BallDegreeOps(n)
    out = []
    for j in range(6):
        form: dict = {}
        for (a, m), c in apply_boundary_operator(j, n, C, ops, Poly.const(2, 1), coeffs).terms.items():
            form.setdefault(m, []).append((a, c))
        out.append(tuple((m, _shifted_weight(tuple(form[m]), m)) for m in sorted(form)))
    return tuple(out)


def _shifted_weight(poly: tuple, m: int):
    """deg -> c(deg + 2m) for c(k) given as ((power, Fraction), ...),
    cached per degree."""
    @functools.lru_cache(maxsize=None)
    def weight(deg: int) -> Fraction:
        k = deg + 2 * m
        return sum((c * k**p for p, c in poly), Q(0))

    return weight


def apply_B(j, geom: ModelGeometry, u):
    """Apply the boundary operator of normal order j on a model geometry.

    Accepts a BoundaryOperatorId or plain integer for j.  Two field
    representations are read through stencils derived once per model from
    ``apply_boundary_operator``: separated modes through
    ``separated_stencil`` and polynomials on the ball through
    ``ball_poly_stencil`` (the result is reduced modulo the unit sphere).
    Every other field goes through the kit that ``field_ops`` picks.  A
    polynomial must be ambient, in n + 1 variables.  Exact for exact inputs.
    """
    from .reps import SeparatedMode

    if isinstance(j, BoundaryOperatorId):
        j = j.j
    if not 0 <= j <= 5:
        raise ValueError("boundary operator index must lie in 0..5")
    if isinstance(u, SeparatedMode):
        chi = u.profile
        if chi.ord < j:
            raise TruncationError(f"B{j} needs a profile jet of order {j}, got order {chi.ord}")
        out = 0
        for k, w in separated_weights(geom, j, u.lam):
            out = out + w * chi.coeffs[k]
        return out
    if isinstance(u, Poly):
        if u.d != geom.n + 1:
            raise ValueError(f"a field on a model of boundary dimension {geom.n} must be a "
                             f"polynomial in {geom.n + 1} variables, got {u.d}")
        if geom.kind is GeometryKind.EUCLIDEAN_BALL:
            form = ball_poly_stencil(geom)[j]
            pieces = [u]  # u, lap u, lap^2 u as far as B_j reads them
            while len(pieces) <= form[-1][0]:
                pieces.append(laplacian(pieces[-1]))
            return reduce_mod_sphere(sum_all([degree_weighted(pieces[m], weight) for m, weight in form]))
    C, coeffs = model_coefficients(geom)
    return apply_boundary_operator(j, geom.n, C, field_ops(geom, u), u, coeffs)


# ---------------------------------------------------------------------------
# leading symbol bookkeeping and normal forms
# ---------------------------------------------------------------------------

LEADING_TERMS = {
    0: {"u": Q(1)},
    1: {"eta": Q(1)},
    2: {"lap": Q(1), "lapbar": Q(-4, 3)},
    3: {"eta_lap": Q(1), "lapbar_eta": Q(-4)},
    4: {"lap2": Q(-1), "lapbar_lap": Q(-4), "lapbar2": Q(8)},
    5: {"eta_lap2": Q(1), "lapbar_eta_lap": Q(4, 3), "lapbar2_eta": Q(8, 3)},
}


def normal_form_terms(n: int, j: int) -> dict:
    """The order-j operator when the metric is conformally normalized at the
    boundary (H = 0, P(eta,eta) = Jbar/3, eta J = 0, ...): ``LEADING_TERMS[j]``
    and the curvature terms, keyed by primitive name with Fraction
    coefficients; curvature factors in a term are part of its key.  On the
    flat half space the curvature terms vanish and the operator is
    ``leading_part``."""
    if n < 5:
        raise ValueError("n >= 5 required")
    if j not in LEADING_TERMS:
        raise ValueError("boundary operator index must lie in 0..5")
    curvature = {
        3: {"Jb*eta": Q(4 * (n - 1), 3)},
        4: {
            "divPbar": Q(8),
            "Jb*lap": Q(2 * (5 * n - 13), 3),
            "Jb*lapbar": Q(-8 * (2 * n - 5), 3),
            "pair_dJb": Q(-4 * (n - 1), 3),
        },
        5: {
            "Jb*eta_lap": Q(-2 * (3 * n - 7), 3),
            "Jb*lapbar_eta": Q(-16 * (2 * n - 5), 9),
            "divPbar_eta": Q(16),
            "eta_P_hess": Q(8),
            "hessJnn*eta": Q(-(n - 9)),
            "pair_dJb_eta": Q(-4 * (13 * n - 55), 9),
            "lapbarJb*eta": Q(-8 * (4 * n - 19), 9),
            "Pbar2*eta": Q(-8 * (n - 4)),
            "Jb^2*eta": Q(8 * (2 * n**2 - 10 * n + 5), 9),
        },
    }
    return {**LEADING_TERMS[j], **curvature.get(j, {})}


def leading_part(j: int, geom: ModelGeometry, u):
    """The universal leading part of the order-j operator applied to u.

    Holds the only table from primitive names to calls on the kit.  Takes
    the fields that ``field_ops`` has a kit for: separated modes on any
    model, and polynomials and the ``confcalc`` rings on the half space.  A
    polynomial on the ball raises ValueError: its operators are read whole
    through ``ball_poly_stencil``, which keeps no leading part apart.
    """
    ops = field_ops(geom, u)
    lap_u = ops.lap(u)
    lap2_u = ops.lap(lap_u)
    prim = {
        "u": lambda: ops.restrict(u),
        "eta": lambda: ops.eta(u),
        "lap": lambda: ops.restrict(lap_u),
        "lapbar": lambda: ops.lapbar(ops.restrict(u)),
        "eta_lap": lambda: ops.eta(lap_u),
        "lapbar_eta": lambda: ops.lapbar(ops.eta(u)),
        "lap2": lambda: ops.restrict(lap2_u),
        "lapbar_lap": lambda: ops.lapbar(ops.restrict(lap_u)),
        "lapbar2": lambda: ops.lapbar(ops.lapbar(ops.restrict(u))),
        "eta_lap2": lambda: ops.eta(lap2_u),
        "lapbar_eta_lap": lambda: ops.lapbar(ops.eta(lap_u)),
        "lapbar2_eta": lambda: ops.lapbar(ops.lapbar(ops.eta(u))),
    }
    out = ops.bzero()
    for key, coeff in LEADING_TERMS[j].items():
        out = out + coeff * prim[key]()
    return out
