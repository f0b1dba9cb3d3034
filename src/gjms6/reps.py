"""Field representations that the boundary operators act on.

All four model geometries have a warped-product collar at the boundary, so a
single per-boundary-harmonic representation covers them: a profile series in
the collar variable tau with the Laplacian acting as
d^2/dtau^2 + A(tau) d/dtau + B(tau) * (boundary Laplacian).  The collar data
per model:

    half space    tau = y       outward = -d/dtau   A = 0            B = 1
    ball          tau = r - 1   outward = +d/dtau   A = n/(1+tau)    B = (1+tau)^-2
    hemisphere    tau = th-pi/2 outward = +d/dtau   A = -n tan(tau)  B = sec^2(tau)
    hyperbolic    tau = r       outward = -d/dtau   A = n rho'/rho   B = rho^-2,
                                                    rho = 1 - tau^2/4

``collar_coefficients`` holds this table.  Its readers: ``SeparatedOps``,
hence ``boundary.separated_stencil`` and ``gjms.apply_L6`` on separated
modes; the hemisphere factor jets (``solver.factor_jet``, through
``solver.mode_basis``); the geodesic Poisson branches
(``solver.poisson_branch_series``); and geodesic L6
(``gjms.hyperbolic_shifted_factor``).

On the half space a separated mode at frequency t is e^(-t y) times
e^(i t.x), so its boundary eigenvalue is lam = t^2; the decaying triharmonic
modes e^(-t y)(a + b y + c y^2) are jets of this kind
(``solver.halfspace_symbolic_mode``).  Profile coefficients may be Fractions
(exact), floats (numeric solves), or Poly symbols (operator-identity checks);
the code is generic over them.

This module holds two of the three primitive kits of
``boundary.apply_boundary_operator``: ``SeparatedOps`` on every model, from
which ``boundary.separated_stencil`` is derived, and ``HalfspacePolyOps``,
the one flat half-space kit for polynomial fields and for the dual-number
and jet rings of ``confcalc``, so the flat side of every covariance residual
is ``apply_B``.  The third is the conformal engine,
``confcalc.HalfspaceConformalEngine``.  Polynomials on the ball have no kit
here: ``apply_B`` reads them through ``boundary.ball_poly_stencil``.
"""
from __future__ import annotations

import functools
from fractions import Fraction

from .boundary import BoundaryOps
from .fractional import sphere_eigenvalue
from .geometry import GeometryKind, ModelGeometry
from .polys import sum_all
from .series import Series, sec2_series, series_inverse, tan_series

Q = Fraction


class SeparatedMode:
    """Per-boundary-harmonic field: profile series times a degree-l harmonic.

    ``lam`` is the eigenvalue of minus the boundary Laplacian on the harmonic
    factor (l(l+n-1) on the round boundary); it may be symbolic.
    """

    __slots__ = ("n", "lam", "profile")

    def __init__(self, n: int, lam, profile: Series):
        self.n = n
        self.lam = lam
        self.profile = profile

    @classmethod
    def from_derivs(cls, n: int, lam, derivs, order: int | None = None):
        """Build from one-sided normal derivatives d^k/dtau^k at the boundary."""
        derivs = list(derivs)
        if order is None:
            order = len(derivs) - 1
        fact = 1
        coeffs = []
        for k in range(order + 1):
            if k:
                fact *= k
            c = derivs[k] if k < len(derivs) else 0
            coeffs.append(c / fact if isinstance(c, float) else Q(1, fact) * c)
        return cls(n, lam, Series(coeffs, order))

    def derivs(self, upto: int):
        """One-sided derivatives (d/dtau)^k, k = 0..upto."""
        out = []
        fact = 1
        for k in range(upto + 1):
            if k:
                fact *= k
            out.append(fact * self.profile.coeffs[k] if k <= self.profile.ord else 0)
        return out

    def _assert_compatible(self, other):
        if self.n != other.n or self.lam != other.lam:
            raise ValueError("mode mismatch")

    def __add__(self, other):
        self._assert_compatible(other)
        return SeparatedMode(self.n, self.lam, self.profile + other.profile)

    def __sub__(self, other):
        self._assert_compatible(other)
        return SeparatedMode(self.n, self.lam, self.profile - other.profile)

    def __mul__(self, c):
        return SeparatedMode(self.n, self.lam, self.profile * c)

    __rmul__ = __mul__

    def __neg__(self):
        return SeparatedMode(self.n, self.lam, -self.profile)


@functools.lru_cache(maxsize=None)
def collar_coefficients(kind: GeometryKind, n: int, order: int):
    """(A, B, eta_sign, cPbar) for the collar Laplacian of a model.
    Memoized, so callers share the series and must not mutate them."""
    if kind is GeometryKind.UPPER_HALF_SPACE:
        return Series.const(Q(0), order), Series.const(Q(1), order), -1, Q(0)
    if kind is GeometryKind.EUCLIDEAN_BALL:
        one_plus = Series([Q(1), Q(1)], order)
        inv = series_inverse(one_plus)
        return Q(n) * inv, inv * inv, +1, Q(1, 2)
    if kind is GeometryKind.ROUND_HEMISPHERE:
        return Q(-n) * tan_series(order), sec2_series(order), +1, Q(1, 2)
    if kind is GeometryKind.HYPERBOLIC_GEODESIC:
        rho = Series([Q(1), Q(0), Q(-1, 4)], order)
        rho_prime = Series([Q(0), Q(-1, 2)], order)
        inv = series_inverse(rho)
        return Q(n) * (rho_prime * inv), inv * inv, -1, Q(1, 2)
    raise ValueError(kind)


class SeparatedOps(BoundaryOps):
    """Boundary-operator primitives on SeparatedMode fields."""

    def __init__(self, geom: ModelGeometry, lam, order: int):
        self.geom = geom
        self.n = geom.n
        self.lam = lam
        self.A, self.B, self.eta_sign, self.cPbar = collar_coefficients(geom.kind, geom.n, order)

    def bzero(self):
        return 0

    def restrict(self, u: SeparatedMode):
        return u.profile.value()

    def eta(self, u: SeparatedMode):
        return self.eta_sign * u.profile.deriv().value()

    def lap(self, u: SeparatedMode) -> SeparatedMode:
        chi = u.profile
        d1 = chi.deriv()
        d2 = d1.deriv()
        out = d2 + self.A * d1 + (-u.lam) * (self.B * chi)
        return SeparatedMode(u.n, u.lam, out)

    def hess_nn(self, u: SeparatedMode):
        return u.profile.deriv().deriv().value()

    def lapbar(self, w):
        return -self.lam * w

    def divPbar(self, w):
        return self.cPbar * (-self.lam) * w

    def eta_P_hess(self, u: SeparatedMode):
        kind = self.geom.kind
        if kind in (GeometryKind.UPPER_HALF_SPACE, GeometryKind.EUCLIDEAN_BALL):
            return 0
        if kind is GeometryKind.ROUND_HEMISPHERE:
            # interior Schouten is g/2, so <P, Hess u> = (1/2) lap u
            return Q(1, 2) * self.eta(self.lap(u))
        # geodesic compactification over a round infinity:
        # eta<P, Hess u> = divbar(Pbar gradbar eta u) - <gradbar J, gradbar eta u>
        #                  - |Pbar|^2 eta u, with J constant on the boundary
        eta_u = self.eta(u)
        return self.cPbar * (-self.lam) * eta_u - Q(self.n, 4) * eta_u


def separated_ops(geom: ModelGeometry, u: SeparatedMode) -> SeparatedOps:
    return SeparatedOps(geom, u.lam, order=max(u.profile.ord, 6))


# ---------------------------------------------------------------------------
# the flat half-space kit
# ---------------------------------------------------------------------------

class HalfspacePolyOps(BoundaryOps):
    """Fields on the flat upper half space in the variables x0..x(n-1), y.

    The one flat half-space kit: it uses only ``diff(i)`` and ``drop_last()``
    of a field, so it acts alike on ``Poly`` and on the dual-number and jet
    rings of ``confcalc``; the flat side of every covariance residual is
    ``apply_B`` through this kit.
    """

    def __init__(self, n: int):
        self.n = n

    def bzero(self):
        return 0

    def restrict(self, u):
        return u.drop_last()

    def eta(self, u):
        return -(u.diff(self.n).drop_last())

    def lap(self, u):
        return sum_all([u.diff(i).diff(i) for i in range(self.n + 1)])

    def hess_nn(self, u):
        return u.diff(self.n).diff(self.n).drop_last()

    def lapbar(self, w):
        return sum_all([w.diff(i).diff(i) for i in range(self.n)])

    def divPbar(self, w):
        return 0

    def eta_P_hess(self, u):
        return 0


# ---------------------------------------------------------------------------
# global radial profiles on the ball
# ---------------------------------------------------------------------------

class RadialProfile:
    """u = sum_m c_m r^(l + 2m) Y_l on the ball: closed under the Laplacian
    and integrable in closed form."""

    __slots__ = ("n", "ell", "coeffs")

    def __init__(self, n: int, ell: int, coeffs: dict):
        self.n = n
        self.ell = ell
        self.coeffs = {m: c for m, c in coeffs.items() if not _is_zero(c)}

    def lap(self) -> "RadialProfile":
        n, ell = self.n, self.ell
        out = {}
        for m, c in self.coeffs.items():
            if m >= 1:
                fac = 2 * m * (2 * m + 2 * ell + n - 1)
                out[m - 1] = out.get(m - 1, 0) + fac * c
        return RadialProfile(n, ell, out)

    def derivs_at_boundary(self, upto: int):
        """(d/dr)^k of the radial factor at r = 1 via falling factorials."""
        out = []
        for k in range(upto + 1):
            acc = 0
            for m, c in self.coeffs.items():
                p = self.ell + 2 * m
                ff = 1
                for i in range(k):
                    ff *= p - i
                acc = acc + ff * c
            out.append(acc)
        return out

    def to_separated(self, order: int = 8) -> SeparatedMode:
        lam = sphere_eigenvalue(self.n, self.ell)
        return SeparatedMode.from_derivs(self.n, lam, self.derivs_at_boundary(order), order)

    def radial_poly_coeffs(self) -> dict:
        """Powers of r with coefficients: {l + 2m: c_m}."""
        return {self.ell + 2 * m: c for m, c in self.coeffs.items()}

    def __add__(self, other: "RadialProfile") -> "RadialProfile":
        if (self.n, self.ell) != (other.n, other.ell):
            raise ValueError("profile mismatch")
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, 0) + c
        return RadialProfile(self.n, self.ell, out)

    def __mul__(self, c):
        return RadialProfile(self.n, self.ell, {m: v * c for m, v in self.coeffs.items()})

    __rmul__ = __mul__

    def __neg__(self):
        return self * Q(-1)


def _is_zero(c) -> bool:
    try:
        return c == 0
    except Exception:
        return False


def radial_pair_integral(a: RadialProfile, b: RadialProfile) -> Fraction:
    """Exact integral over the unit ball of <grad(aY), grad(bY)> divided by
    the boundary integral of Y^2 (same degree-l harmonic factor Y):
    int_0^1 (a' b' + lam a b / r^2) r^n dr."""
    if (a.n, a.ell) != (b.n, b.ell):
        raise ValueError("profile mismatch")
    n, lam = a.n, sphere_eigenvalue(a.n, a.ell)
    pa = a.radial_poly_coeffs()
    pb = b.radial_poly_coeffs()
    total = Q(0)
    for ka, ca in pa.items():
        for kb, cb in pb.items():
            # derivative term: ka kb r^(ka+kb-2), mass term: lam r^(ka+kb-2)
            w = ka * kb + lam
            if w:
                total += Q(w, ka + kb - 2 + n + 1) * ca * cb
    return total


def radial_l2_integral(a: RadialProfile, b: RadialProfile) -> Fraction:
    """Exact int_0^1 a b r^n dr for same-harmonic profiles."""
    if (a.n, a.ell) != (b.n, b.ell):
        raise ValueError("profile mismatch")
    total = Q(0)
    for ka, ca in a.radial_poly_coeffs().items():
        for kb, cb in b.radial_poly_coeffs().items():
            total += Q(1, ka + kb + a.n + 1) * ca * cb
    return total
