"""The four model geometries and their closed-form boundary curvature data.

Each model is a compactification of hyperbolic space: flat upper half space,
the flat closed unit ball, the round upper hemisphere, and hyperbolic space
with its geodesic compactification over a round conformal infinity.  All
curvature scalars are tabulated as exact rationals.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .polys import Poly, euler_op, grad_dot, reduce_mod_sphere

Q = Fraction


class GeometryKind(enum.Enum):
    UPPER_HALF_SPACE = "halfspace"
    EUCLIDEAN_BALL = "ball"
    ROUND_HEMISPHERE = "hemisphere"
    HYPERBOLIC_GEODESIC = "hyperbolic"


@dataclass(frozen=True)
class ModelGeometry:
    """One of the four model domains; ``n`` is the boundary dimension."""

    kind: GeometryKind
    n: int

    def __post_init__(self):
        if self.n < 5:
            raise ValueError("boundary dimension must satisfy n >= 5")

    @property
    def dim(self) -> int:
        return self.n + 1


def halfspace(n: int) -> ModelGeometry:
    return ModelGeometry(GeometryKind.UPPER_HALF_SPACE, n)


def ball(n: int) -> ModelGeometry:
    return ModelGeometry(GeometryKind.EUCLIDEAN_BALL, n)


def hemisphere(n: int) -> ModelGeometry:
    return ModelGeometry(GeometryKind.ROUND_HEMISPHERE, n)


def hyperbolic_geodesic(n: int) -> ModelGeometry:
    return ModelGeometry(GeometryKind.HYPERBOLIC_GEODESIC, n)


@dataclass(frozen=True)
class BoundaryGeometryData:
    """Exact boundary curvature scalars of a model geometry.

    H is the mean curvature, P_eta_eta the normal-normal Schouten component,
    Jbar the boundary Schouten trace, and Pbar_coeff the constant c with
    boundary Schouten tensor equal to c times the boundary metric.  The
    derivative entries (eta_J, delta_J, eta_delta_J, hess_J_eta_eta) are the
    normal and interior derivatives of the ambient Schouten trace at the
    boundary.  All models are umbilic with vanishing Fialkow tensor.
    """

    H: Fraction
    A0_norm_sq: Fraction
    P_eta_eta: Fraction
    Jbar: Fraction
    Pbar_coeff: Fraction
    fialkow_zero: bool
    eta_J: Fraction
    delta_J: Fraction
    eta_delta_J: Fraction
    hess_J_eta_eta: Fraction
    eta_P_eta_eta: Fraction
    eta_P_norm_sq: Fraction
    n: int

    @property
    def Pbar_norm_sq(self) -> Fraction:
        """|Pbar|^2 for Pbar = c * gbar in dimension n."""
        return self.n * self.Pbar_coeff**2

    @property
    def J(self) -> Fraction:
        """Ambient Schouten trace at the boundary via the trace identity."""
        return self.Jbar + self.P_eta_eta - Q(self.H**2, 2 * self.n)


def boundary_data(geom: ModelGeometry) -> BoundaryGeometryData:
    """Closed-form boundary data for the four models. Total on all kinds."""
    n = geom.n
    z = Q(0)
    if geom.kind is GeometryKind.UPPER_HALF_SPACE:
        return BoundaryGeometryData(z, z, z, z, z, True, z, z, z, z, z, z, n)
    if geom.kind is GeometryKind.EUCLIDEAN_BALL:
        # unit sphere boundary of flat space: umbilic with H = n, round
        # boundary Schouten Pbar = gbar/2, flat interior curvature.
        return BoundaryGeometryData(Q(n), z, z, Q(n, 2), Q(1, 2), True, z, z, z, z, z, z, n)
    if geom.kind is GeometryKind.ROUND_HEMISPHERE:
        # totally geodesic equator in the unit round sphere: interior
        # Schouten is g/2, so P(eta,eta) = 1/2 and J is constant.
        return BoundaryGeometryData(z, z, Q(1, 2), Q(n, 2), Q(1, 2), True, z, z, z, z, z, z, n)
    if geom.kind is GeometryKind.HYPERBOLIC_GEODESIC:
        # geodesic compactification with round conformal infinity: totally
        # geodesic boundary, P(eta,.) = 0, J = Jbar, and the interior
        # Laplacian of J restricts to |Pbar|^2 = n/4.
        return BoundaryGeometryData(
            z, z, z, Q(n, 2), Q(1, 2), True, z, Q(n, 4), z, Q(n, 4), z, z, n
        )
    raise ValueError(f"unknown geometry kind {geom.kind}")


def coronal_check(data: BoundaryGeometryData, weyl_eta, cotton_eta) -> bool:
    """Check the conformally invariant boundary conditions of a
    hyperbolic-space compactification: umbilicity plus vanishing
    W(eta,.,eta,.) and C(eta,.,.) slices.

    The slices are given in a fixed boundary frame as n x n arrays of
    numbers; a dimension mismatch raises ValueError.
    """
    n = data.n
    for name, slice_ in (("weyl", weyl_eta), ("cotton", cotton_eta)):
        rows = list(slice_)
        if len(rows) != n or any(len(list(r)) != n for r in rows):
            raise ValueError(f"{name} slice must be {n}x{n}")
    if data.A0_norm_sq != 0:
        return False
    for slice_ in (weyl_eta, cotton_eta):
        for row in slice_:
            for entry in row:
                if entry != 0:
                    return False
    return True


@dataclass(frozen=True)
class CompactificationExpansion:
    """Even expansion h_r = h + h2 r^2 + h4 r^4 + ... with coefficients that
    are rational multiples of the boundary metric."""

    n: int
    h_coeffs: dict  # power of r -> rational multiple of h

    @property
    def h2(self) -> Fraction:
        return self.h_coeffs.get(2, Q(0))

    @property
    def h4(self) -> Fraction:
        return self.h_coeffs.get(4, Q(0))


def hyperbolic_expansion(n: int) -> CompactificationExpansion:
    """Geodesic compactification of hyperbolic space with round infinity.

    The compactified metric is dr^2 + (1 - r^2/4)^2 h, so
    h_r = (1 - r^2/4)^2 h = h - (1/2) h r^2 + (1/16) h r^4.  Asserts the two
    locally determined identities h2 = -Pbar and tr h4 = |Pbar|^2 / 4.
    """
    if n < 5:
        raise ValueError("n >= 5 required")
    coeffs = {0: Q(1), 2: Q(-1, 2), 4: Q(1, 16)}
    data = boundary_data(hyperbolic_geodesic(n))
    if coeffs[2] != -data.Pbar_coeff:
        raise AssertionError("second-order coefficient must equal -Pbar")
    if Q(n) * coeffs[4] != Q(1, 4) * data.Pbar_norm_sq:
        raise AssertionError("trace of the fourth-order coefficient must equal |Pbar|^2/4")
    return CompactificationExpansion(n, coeffs)


def geodesic_invariants(n: int) -> dict:
    """Boundary invariants of a geodesic compactification, specialized to the
    hyperbolic model with round infinity (Jbar constant)."""
    data = boundary_data(hyperbolic_geodesic(n))
    return {
        "H": data.H,
        "P_eta_eta": data.P_eta_eta,
        "J": data.J,
        "eta_J": data.eta_J,
        "delta_J": data.delta_J,  # = lapbar(Jbar) + |Pbar|^2 with Jbar constant
        "eta_delta_J": data.eta_delta_J,
    }


# ---------------------------------------------------------------------------
# conformally flat curvature from a polynomial conformal factor
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConformallyFlatCurvature:
    """Curvature of e^(2 sigma) g_flat for polynomial sigma, exact.

    ``schouten`` holds the lower-index components, which stay polynomial.
    ``j_weighted`` is e^(2 sigma) * J-hat; ``mean_curvature_weighted`` is the
    boundary polynomial e^(sigma) * H-hat; ``p_eta_eta_weighted`` is
    e^(2 sigma) * P-hat(eta-hat, eta-hat) on the boundary.  The Weyl, Cotton
    and Bach tensors vanish identically (conformally flat).
    """

    schouten: list
    j_weighted: Poly
    mean_curvature_weighted: Poly
    p_eta_eta_weighted: Poly
    weyl_zero: bool = True
    cotton_zero: bool = True
    bach_zero: bool = True


def conformally_flat_curvature(sigma: Poly, geom: ModelGeometry) -> ConformallyFlatCurvature:
    """Exact curvature of the metric e^(2 sigma) * flat on a flat-interior model.

    Uses the standard conformal transformation laws with flat background:
    P-hat = -Hess(sigma) + d sigma x d sigma - |grad sigma|^2 g / 2 and
    e^sigma H-hat = H + n * (eta sigma).
    """
    if geom.kind not in (GeometryKind.UPPER_HALF_SPACE, GeometryKind.EUCLIDEAN_BALL):
        raise ValueError("conformally flat curvature needs a flat-interior model")
    if not isinstance(sigma, Poly):
        raise TypeError("sigma must be a polynomial")
    d = geom.dim
    if sigma.d != d:
        raise ValueError(f"sigma must have {d} variables")
    g2 = grad_dot(sigma, sigma)
    schouten = []
    for i in range(d):
        row = []
        for j in range(d):
            pij = -sigma.diff(i).diff(j) + sigma.diff(i) * sigma.diff(j)
            if i == j:
                pij = pij - Q(1, 2) * g2
            row.append(pij)
        schouten.append(row)
    trace = Poly.zero(d)
    for i in range(d):
        trace = trace + schouten[i][i]

    n = geom.n
    if geom.kind is GeometryKind.UPPER_HALF_SPACE:
        # boundary y = 0, outward normal -d/dy; H = 0 on the flat background
        eta_sigma = (-sigma.diff(d - 1)).drop_last()
        h_weighted = Q(n) * eta_sigma
        pnn = schouten[d - 1][d - 1].drop_last()
    else:
        # boundary |x| = 1, outward normal d/dr; background H = n
        eta_sigma = reduce_mod_sphere(euler_op(sigma))
        h_weighted = Q(n) * (Poly.const(d, 1) + eta_sigma)
        pnn = Poly.zero(d)
        for i in range(d):
            for j in range(d):
                pnn = pnn + Poly.var(d, i) * Poly.var(d, j) * schouten[i][j]
        pnn = reduce_mod_sphere(pnn)
    return ConformallyFlatCurvature(schouten, trace, h_weighted, pnn)
