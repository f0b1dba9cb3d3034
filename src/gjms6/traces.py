"""Sharp Sobolev trace inequalities on the model geometries.

Evaluates both sides of the six trace-inequality statements (three
subcritical, three critical Lebedev-Milin type) for zonal boundary data,
including every displayed boundary cross term.  Boundary functions are
expanded in Gegenbauer zonal series; interior energies reduce per harmonic
degree to a quadratic form in the three Dirichlet slots, whose 3x3 Gram
matrix of unit-extension pairings comes from exact radial integrals (ball) or
Gauss-Legendre quadrature (hemisphere).  ``interior_grams`` builds those of
every degree up to a check's lmax in one pass, memoized on (model, n,
lmax): the unit coefficients from the exact inverse Dirichlet matrices
(``solver.unit_coefficients``), one ``kernel_values`` call per hemisphere
degree, and the superposition and pairings as array operations.
Both quadrature rules are fixed (``geometry.ZONAL_NODES`` for the zonal
grids, ``geometry.HEMISPHERE_NODES`` for the hemisphere interior), each one
read-only ``gauss_legendre`` rule, numpy's Legendre module loaded with this
module.  Every check passes one resolution guard (``resolution_guard``),
shares one sharp Lebesgue-norm term (``sharp_term``) and reports through
``InequalityReport.of``.  The critical (n = 5)
statements need no tables of their own: the subcritical display terms and
interior coefficients at n = 5, zero terms dropped, are the critical ones,
so both kinds of check read the same entries.  Flat half-space data are
transported to the ball through stereographic projection, under which
both sides of the statements are invariant, and share the ball entries.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import numpy.polynomial.legendre  # noqa: F401  (loaded with this module, not by the first rule)

from .fractional import DTN_IDENTITIES, gamma_ratio, round_multiplier, sphere_eigenvalue
from .geometry import HEMISPHERE_NODES, ZONAL_NODES, GeometryKind, ModelGeometry, UnderResolvedError, ball
from .polys import vol_sphere
from .gjms import factorization_shifts
from .solver import BoundaryTriple, hemisphere_factor_solve, kernel_values, unit_coefficients

Q = Fraction


@dataclass(frozen=True)
class SharpConstant:
    """Gamma((n+2g)/2)/Gamma((n-2g)/2) times Vol(S^n)^(2g/n)."""

    n: int
    gamma: Fraction
    ratio: Fraction
    vol_exponent: Fraction

    def value(self) -> float:
        return float(self.ratio) * vol_sphere(self.n) ** float(self.vol_exponent)


class CriticalExponentError(ValueError):
    """Signals gamma = n/2; callers should use the critical branch."""


def sharp_constant(n: int, gamma) -> SharpConstant:
    gamma = Q(gamma)
    if gamma >= Q(n, 2):
        raise CriticalExponentError(
            f"gamma = {gamma} >= n/2; the exponential-class inequality applies"
        )
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    ratio = gamma_ratio(Q(n, 2) + gamma, Q(n, 2) - gamma)
    return SharpConstant(n, gamma, ratio, Q(2) * gamma / n)


# ---------------------------------------------------------------------------
# zonal analysis on the boundary sphere
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def gauss_legendre(points: int) -> tuple:
    """Gauss-Legendre nodes and weights on [-1, 1], read-only; memoized on
    the number of points, the only input of the rule."""
    x, w = np.polynomial.legendre.leggauss(points)
    for a in (x, w):
        a.setflags(write=False)
    return x, w


def gegenbauer(alpha: float, t, lmax: int) -> list:
    """C_0(t), ..., C_lmax(t), the Gegenbauer polynomials of index alpha by
    their three-term recurrence, at a float t or elementwise on an array."""
    out = [t**0, 2.0 * alpha * t]
    for ell in range(2, lmax + 1):
        out.append((2.0 * (ell + alpha - 1) * t * out[-1] - (ell + 2 * alpha - 2) * out[-2]) / ell)
    return out[: lmax + 1]


class ZonalGrid:
    """Quadrature and Gegenbauer tables for zonal functions on S^n.

    Integrals use the colatitude substitution, where the weight sin^(n-1) is
    analytic, so the ZONAL_NODES-point Gauss-Legendre rule converges
    spectrally.  The tables are read-only, so ``zonal_grid`` can share one
    grid among its callers.
    """

    def __init__(self, n: int, lmax: int = 32):
        self.n = n
        self.lmax = lmax
        x, w = gauss_legendre(ZONAL_NODES)
        self.theta = (x + 1.0) * (math.pi / 2)
        self.wq = w * (math.pi / 2) * np.sin(self.theta) ** (n - 1)
        self.t = np.cos(self.theta)
        self.vol_minor = vol_sphere(n - 1)
        self.vol = vol_sphere(n)
        alpha = (n - 1) / 2.0
        self.C = C = np.array(gegenbauer(alpha, self.t, lmax))
        self.C1 = np.array([self._c_at_one(ell, alpha) for ell in range(lmax + 1)])
        self.norms = self.vol_minor * np.sum(self.wq * C**2, axis=-1)
        for a in (self.theta, self.wq, self.t, self.C, self.C1, self.norms):
            a.setflags(write=False)

    @staticmethod
    def _c_at_one(ell: int, alpha: float) -> float:
        # C_l(1) = binom(l + 2 alpha - 1, l)
        out = 1.0
        for i in range(ell):
            out *= (2 * alpha + i) / (i + 1)
        return out

    def expand(self, fvals: np.ndarray) -> np.ndarray:
        """Gegenbauer coefficients of a zonal function sampled on self.t."""
        return self.vol_minor * np.sum(self.wq * self.C * fvals, axis=-1) / self.norms

    def reconstruct(self, coeffs: np.ndarray) -> np.ndarray:
        return coeffs @ self.C

    def integral(self, fvals: np.ndarray) -> float:
        """Integral over S^n of a zonal function."""
        return self.vol_minor * float(np.sum(self.wq * fvals))

    def lp_norm(self, fvals: np.ndarray, p: float) -> float:
        return self.integral(np.abs(fvals) ** p) ** (1.0 / p)

    def angle_factors(self, cosang: float) -> list:
        """Pairing of unit-coefficient degree-l zonal harmonics about two
        axes, relative to the aligned case: C_l(cos angle)/C_l(1) for
        l = 0..lmax, in one pass of the Gegenbauer recurrence."""
        return [c / c1 for c, c1 in zip(gegenbauer((self.n - 1) / 2.0, cosang, self.lmax), self.C1)]

    def tail_fraction(self, coeffs: np.ndarray) -> float:
        """Relative weight of the last expansion coefficients; a guard for
        under-resolved data."""
        weights = np.abs(coeffs) * np.sqrt(self.norms)
        total = float(np.sum(weights))
        if total == 0.0:
            return 0.0
        return float(np.sum(weights[-3:])) / total


@functools.lru_cache(maxsize=None)
def zonal_grid(n: int, lmax: int) -> ZonalGrid:
    """The ZonalGrid of (n, lmax), built once per key."""
    return ZonalGrid(n, lmax)


# ---------------------------------------------------------------------------
# extremal families
# ---------------------------------------------------------------------------

def round_bubble_center(eps: float, x0):
    """Center xi, in the open unit ball, of the round bubble (1 + X.xi)^(-w)
    that the flat bubble (eps + |x-x0|^2)^(-w) becomes under inverse
    stereographic projection from the south pole."""
    x0 = np.asarray(x0, dtype=float)
    m = 2.0 / (1.0 + eps + float(np.dot(x0, x0)))
    return np.append(-m * x0, 1.0 - m)


@dataclass(frozen=True)
class ExtremalSpec:
    """A sharp-equality boundary profile.

    kind "power": amplitude * (1 + X . center)^(-(n-2*gamma)/2) on the round
    boundary, center in the open unit ball of R^(n+1); kind "log":
    amplitude - log(1 + X . center), only for the top slot in the critical
    dimension.  Flat-model data are converted with ``from_flat``.
    """

    kind: str
    center: tuple
    amplitude: float = 1.0

    @staticmethod
    def from_flat(kind: str, eps: float, x0, n: int, amplitude: float = 1.0) -> "ExtremalSpec":
        xi = round_bubble_center(eps, x0)
        return ExtremalSpec(kind, tuple(xi), amplitude)

    def axis(self) -> np.ndarray:
        c = np.asarray(self.center, dtype=float)
        norm = float(np.linalg.norm(c))
        if norm == 0.0:
            e = np.zeros(len(c))
            e[0] = 1.0
            return e
        return c / norm

    def values(self, t: np.ndarray, weight: Fraction) -> np.ndarray:
        """Sample on cos(angle to axis) grid for the given slot weight."""
        c = np.asarray(self.center, dtype=float)
        r = float(np.linalg.norm(c))
        if self.kind == "power":
            return self.amplitude * (1.0 + r * t) ** (-float(weight))
        if self.kind == "log":
            return self.amplitude - np.log(1.0 + r * t)
        raise ValueError(self.kind)


@dataclass
class SlotData:
    coeffs: np.ndarray
    axis: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class InequalityReport:
    lhs: float
    rhs: float
    gap: float
    relative_gap: float
    breakdown: dict = field(default_factory=dict, compare=False)

    @classmethod
    def of(cls, lhs: float, rhs: float, **breakdown) -> "InequalityReport":
        """The report of the two sides, with the gap relative to the larger."""
        gap = lhs - rhs
        scale = max(abs(lhs), abs(rhs), 1e-300)
        return cls(lhs, rhs, gap, gap / scale, breakdown)


# displayed boundary quadratics: (slotA, slotB, coefficient(n), power of the
# boundary-Laplacian eigenvalue).  Slots: 0 = f, 1 = phi, 2 = psi.  Some
# coefficients vanish at particular n (several at the critical n = 5);
# callers skip those terms.  Half-space statements are evaluated on the
# ball, so only the two round models have a table.
def display_terms(kind: GeometryKind, n: int):
    if kind is GeometryKind.EUCLIDEAN_BALL:
        return [
            (2, 2, Q(n - 9, 2), 0), (2, 1, Q(8), 1), (2, 1, Q(2 * (n**2 - 9)), 0),
            (2, 0, Q(-4 * (n - 3), 3), 1), (0, 2, Q(-(n - 3) * (n - 5) * (n + 3), 3), 0),
            (1, 1, Q(8 * (n - 3)), 0), (1, 0, Q(16, 3), 2),
            (1, 0, Q(8 * (n**2 - 4 * n - 3), 3), 1),
            (1, 0, Q((n - 5) * (n - 3) ** 2 * (n + 3), 3), 0),
            (0, 0, Q(8 * (n + 3), 9), 2),
            (0, 0, Q(4 * (n**3 + n**2 - 21 * n - 9), 9), 1),
            (0, 0, Q((n - 5) * (n - 3) * (n + 3) * (n**2 + 4 * n - 9), 18), 0),
        ]
    if kind is GeometryKind.ROUND_HEMISPHERE:
        return [
            (2, 1, Q(8), 1), (2, 1, Q(3 * n**2 - 8 * n + 13, 2), 0),
            (0, 1, Q(16, 3), 2), (0, 1, Q(2 * (5 * n**2 - 8 * n - 37), 3), 1),
            (0, 1, Q((n - 3) * (n - 5) * (3 * n**2 + 4 * n - 11), 12), 0),
        ]
    raise ValueError(kind)


def hemisphere_interior_coeffs(n: int):
    """Coefficients of |grad lap u|^2, (lap u)^2, |grad u|^2, u^2; at the
    critical n = 5 they are (1, 10, 24, 0)."""
    return (
        1.0,
        (3 * n**2 - 35) / 4.0,
        (3 * n**4 - 70 * n**2 + 259) / 16.0,
        float(gamma_ratio(Q(n + 7, 2), Q(n - 5, 2))),
    )


SLOT_GAMMAS = (Q(5, 2), Q(3, 2), Q(1, 2))

# Largest ``ZonalGrid.tail_fraction`` (the weight of the last three zonal
# coefficients) of boundary data that still counts as resolved at lmax.
TAIL_GUARD = 1e-7


def resolution_guard(grid: ZonalGrid, coeff_arrays) -> None:
    """Raise ValueError on non-finite zonal coefficients and
    UnderResolvedError on any array whose tail exceeds TAIL_GUARD."""
    for coeffs in coeff_arrays:
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("boundary data are not finite")
        tail = grid.tail_fraction(coeffs)
        if tail > TAIL_GUARD:
            raise UnderResolvedError(
                f"boundary data under-resolved at lmax={grid.lmax} (tail {tail:.2e})"
            )


def sharp_term(grid: ZonalGrid, gamma: Fraction, vals, front) -> float:
    """front * C(n, gamma) * ||w||_p^2, the sharp side of one slot, at the
    critical exponent p = 2n/(n - 2 gamma)."""
    p = 2.0 * grid.n / float(grid.n - 2 * gamma)
    return float(front) * sharp_constant(grid.n, gamma).value() * grid.lp_norm(vals, p) ** 2


# ---------------------------------------------------------------------------
# interior Gram matrices of the unit extensions
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def interior_grams(geom: ModelGeometry, top: int) -> tuple:
    """grams[l][a][b] for l <= top, the interior pairing of the degree-l unit
    extensions of slots a and b, as immutable tuples of floats: on the ball
    the radial integrals of ``reps.radial_pair_integral`` of their
    Laplacians, on the hemisphere the seminorm of
    ``hemisphere_interior_coeffs`` by HEMISPHERE_NODES-point Gauss-Legendre
    quadrature in the colatitude on (0, pi/2), weight sin^n, all nine
    entries (the quadrature is symmetric only up to the last bit).  Array
    operations over (l, a, b) form and sum each term in the order of the
    per-pair scalar sums, so every entry equals them bit for bit.  Memoized
    on (geom, top)."""
    n = geom.n
    coef = np.array(unit_coefficients(geom, top))  # [l, slot, basis]
    ells = np.arange(top + 1)
    lam = ells * (ells + n - 1)
    if geom.kind is GeometryKind.EUCLIDEAN_BALL:
        # the Laplacian of sum_m c_m r^(l+2m) has coefficients 2m(2m+2l+n-1) c_m
        # at r^(l+2m-2): laps[i] is that of r^(l+2i)
        laps = [(2 * m * (2 * m + 2 * ells + n - 1))[:, None] * coef[:, :, m] for m in (1, 2)]
        grams = 0.0
        for i, j in np.ndindex(2, 2):
            ki, kj = ells + 2 * i, ells + 2 * j
            w = (ki * kj + lam) / (ki + kj + n - 1)
            grams = grams + w[:, None, None] * laps[i][:, :, None] * laps[j][:, None, :]
    else:
        x, w = gauss_legendre(HEMISPHERE_NODES)
        theta = (x + 1.0) * (math.pi / 4)
        w = w * (math.pi / 4) * np.sin(theta) ** n
        shifts = factorization_shifts(n)
        values = zip(*(kernel_values([hemisphere_factor_solve(n, ell, c) for c in shifts], theta)
                       for ell in range(top + 1)))
        chi, dchi = (np.array(v)[:, None] for v in values)  # [l, 1, factor, node]
        # chi, chi', Delta-profile and its derivative of each unit profile,
        # from the factor relation Delta chi_i = shift_i chi_i
        u = [0.0] * 4
        for i, c in enumerate(shifts):
            al = coef[:, :, i, None]
            u = [u[0] + al * chi[:, :, i], u[1] + al * dchi[:, :, i],
                 u[2] + al * float(c) * chi[:, :, i], u[3] + al * float(c) * dchi[:, :, i]]
        ca, dca, la, dla = (v[:, :, None] for v in u)
        cb, dcb, lb, dlb = (v[:, None] for v in u)
        lam = lam[:, None, None, None]
        s2 = np.sin(theta) ** 2
        c1, c2, c3, c4 = hemisphere_interior_coeffs(n)
        integ = (c1 * (dla * dlb + lam * la * lb / s2) + c2 * (la * lb)
                 + c3 * (dca * dcb + lam * ca * cb / s2) + c4 * (ca * cb))
        grams = np.sum(w * integ, axis=-1)
    return tuple(tuple(map(tuple, g)) for g in grams.tolist())


class TraceChecker:
    """Evaluator for the trace-inequality statements on one geometry.  The
    interior seminorm reads the one stack of ``interior_grams`` up to lmax,
    which every check of the same model, n and lmax shares."""

    def __init__(self, geom: ModelGeometry, lmax: int = 32):
        if geom.kind not in (GeometryKind.EUCLIDEAN_BALL, GeometryKind.ROUND_HEMISPHERE):
            raise ValueError("per-mode extensions live on the ball or hemisphere")
        self.geom = geom
        self.n = geom.n
        self.lmax = lmax
        self.grid = zonal_grid(geom.n, lmax)

    # -- data preparation -------------------------------------------------
    def slots_from_specs(self, specs, critical: bool):
        out = []
        for spec, w in zip(specs, BoundaryTriple.weights(self.n)):
            vals = spec.values(self.grid.t, w)
            coeffs = self.grid.expand(vals)
            out.append(SlotData(coeffs, spec.axis(), vals))
        if critical and specs[0].kind != "log":
            raise ValueError("the critical top slot takes a logarithmic profile")
        return out

    def slots_from_coeffs(self, coeff_lists):
        """Slots of zonal coefficient arrays, all about the first axis."""
        axis = np.zeros(self.n + 1)
        axis[0] = 1.0
        out = []
        for cs in coeff_lists:
            coeffs = np.zeros(self.lmax + 1)
            cs = np.asarray(cs, dtype=float)
            coeffs[: len(cs)] = cs
            out.append(SlotData(coeffs, axis, self.grid.reconstruct(coeffs)))
        return out

    # -- the two sides -------------------------------------------------------
    def lhs_energy(self, slots) -> tuple:
        """Interior seminorm of the extension plus the displayed boundary
        terms; returns (value, interior, boundary)."""
        n = self.n
        grid = self.grid
        cosangs = [[float(np.dot(slots[a].axis, slots[b].axis)) for b in range(3)] for a in range(3)]
        angles = [[grid.angle_factors(c) for c in row] for row in cosangs]
        interior = 0.0
        for ell, G in enumerate(interior_grams(self.geom, self.lmax)):
            lamfree = [slots[s].coeffs[ell] for s in range(3)]
            for a in range(3):
                for b in range(3):
                    ca, cb = lamfree[a], lamfree[b]
                    if ca == 0.0 or cb == 0.0:
                        continue
                    interior += ca * cb * G[a][b] * grid.norms[ell] * angles[a][b][ell]
        boundary = 0.0
        for a, b, co, p in display_terms(self.geom.kind, n):
            if not co:
                continue
            acc = 0.0
            for ell in range(self.lmax + 1):
                lam = sphere_eigenvalue(n, ell)
                acc += (
                    slots[a].coeffs[ell] * slots[b].coeffs[ell]
                    * lam**p * grid.norms[ell] * angles[a][b][ell]
                )
            boundary += float(co) * acc
        return interior + boundary, interior, boundary

    def rhs_sharp(self, slots, critical: bool) -> float:
        n = self.n
        grid = self.grid
        total = 0.0
        for slot, gamma in enumerate(SLOT_GAMMAS):
            front = DTN_IDENTITIES[int(2 * gamma)].front
            vals = slots[slot].values
            if critical and slot == 0:
                mean = grid.integral(vals) / grid.vol
                mass = grid.integral(np.exp(n * (vals - mean))) / grid.vol
                total += (2 * math.factorial(n - 1) / n) * float(front) * grid.vol * math.log(mass)
            else:
                total += sharp_term(grid, gamma, vals, front)
        return total

    def check(self, slots, critical: bool = False) -> InequalityReport:
        resolution_guard(self.grid, [s.coeffs for s in slots])
        lhs, interior, boundary = self.lhs_energy(slots)
        return InequalityReport.of(lhs, self.rhs_sharp(slots, critical), interior=interior, boundary=boundary)


def corollary_check(geom: ModelGeometry, specs_or_slots, lmax: int = 32) -> InequalityReport:
    """Sharp subcritical trace inequality on a model geometry.

    ``specs_or_slots`` is either a triple of ExtremalSpec (equality family)
    or a triple of zonal coefficient arrays (generic test data).  Half-space
    statements are evaluated through the stereographic transport to the
    ball, under which both sides are invariant.
    """
    if geom.n < 6:
        raise ValueError("the subcritical statements require n >= 6")
    return _run_check(geom, specs_or_slots, critical=False, lmax=lmax)


def critical_check(geom: ModelGeometry, specs_or_slots, lmax: int = 32) -> InequalityReport:
    """Critical (n = 5) exponential-class trace inequality."""
    if geom.n != 5:
        raise ValueError("the critical statements require n = 5")
    return _run_check(geom, specs_or_slots, critical=True, lmax=lmax)


def _run_check(geom, specs_or_slots, critical, lmax):
    eval_geom = ball(geom.n) if geom.kind is GeometryKind.UPPER_HALF_SPACE else geom
    checker = TraceChecker(eval_geom, lmax=lmax)
    if isinstance(specs_or_slots[0], ExtremalSpec):
        slots = checker.slots_from_specs(specs_or_slots, critical)
    else:
        slots = checker.slots_from_coeffs(specs_or_slots)
    return checker.check(slots, critical)


def sphere_sobolev_check(n: int, gamma, w_of_t, lmax: int = 32) -> InequalityReport:
    """Single-slot sharp Sobolev inequality on the round sphere for zonal w:
    pairing against the order-2*gamma multiplier versus the sharp constant
    times the critical Lebesgue norm."""
    gamma = Q(gamma)
    grid = zonal_grid(n, lmax)
    vals = w_of_t(grid.t) if callable(w_of_t) else np.asarray(w_of_t, dtype=float)
    coeffs = grid.expand(vals)
    resolution_guard(grid, [coeffs])
    lhs = 0.0
    for ell in range(lmax + 1):
        lhs += float(round_multiplier(n, gamma, ell)) * coeffs[ell] ** 2 * grid.norms[ell]
    return InequalityReport.of(lhs, sharp_term(grid, gamma, vals, 1))
