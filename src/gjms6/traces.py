"""Sharp Sobolev trace inequalities on the model geometries.

Evaluates both sides of the six trace-inequality statements (three
subcritical, three critical Lebedev-Milin type) for zonal boundary data,
including every displayed boundary cross term.  Boundary functions are
expanded in Gegenbauer zonal series; interior energies reduce per harmonic
degree to exact radial integrals (ball) or Gauss-Legendre quadrature
(hemisphere); flat half-space data are transported to the ball through
stereographic projection, under which both sides of the statements are
invariant.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .conformal import round_bubble_center
from .fractional import gamma_ratio, round_multiplier, sphere_eigenvalue
from .geometry import GeometryKind, ModelGeometry
from .polys import vol_sphere
from .reps import radial_pair_integral
from .solver import BoundaryTriple, mode_solve

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

class ZonalGrid:
    """Quadrature and Gegenbauer tables for zonal functions on S^n.

    Integrals use the colatitude substitution, where the weight sin^(n-1) is
    analytic, so Gauss-Legendre converges spectrally.
    """

    def __init__(self, n: int, lmax: int = 32, nodes: int = 256):
        self.n = n
        self.lmax = lmax
        self.nodes = nodes
        x, w = np.polynomial.legendre.leggauss(nodes)
        self.theta = (x + 1.0) * (math.pi / 2)
        self.wq = w * (math.pi / 2) * np.sin(self.theta) ** (n - 1)
        self.t = np.cos(self.theta)
        self.vol_minor = vol_sphere(n - 1)
        self.vol = vol_sphere(n)
        alpha = (n - 1) / 2.0
        C = np.zeros((lmax + 1, nodes))
        C[0] = 1.0
        if lmax >= 1:
            C[1] = 2.0 * alpha * self.t
        for ell in range(2, lmax + 1):
            C[ell] = (2.0 * (ell + alpha - 1) * self.t * C[ell - 1]
                      - (ell + 2 * alpha - 2) * C[ell - 2]) / ell
        self.C = C
        self.C1 = np.array([self._c_at_one(ell, alpha) for ell in range(lmax + 1)])
        self.norms = np.array([self.vol_minor * float(np.sum(self.wq * C[ell] ** 2))
                               for ell in range(lmax + 1)])

    @staticmethod
    def _c_at_one(ell: int, alpha: float) -> float:
        # C_l(1) = binom(l + 2 alpha - 1, l)
        out = 1.0
        for i in range(ell):
            out *= (2 * alpha + i) / (i + 1)
        return out

    def expand(self, fvals: np.ndarray) -> np.ndarray:
        """Gegenbauer coefficients of a zonal function sampled on self.t."""
        return np.array([
            self.vol_minor * float(np.sum(self.wq * self.C[ell] * fvals)) / self.norms[ell]
            for ell in range(self.lmax + 1)
        ])

    def reconstruct(self, coeffs: np.ndarray) -> np.ndarray:
        return coeffs @ self.C

    def integral(self, fvals: np.ndarray) -> float:
        """Integral over S^n of a zonal function."""
        return self.vol_minor * float(np.sum(self.wq * fvals))

    def lp_norm(self, fvals: np.ndarray, p: float) -> float:
        return self.integral(np.abs(fvals) ** p) ** (1.0 / p)

    def angle_factor(self, ell: int, cosang: float) -> float:
        """Pairing of unit-coefficient degree-l zonal harmonics about two
        axes, relative to the aligned case: C_l(cos angle)/C_l(1)."""
        if ell == 0:
            return 1.0
        alpha = (self.n - 1) / 2.0
        c0, c1 = 1.0, 2.0 * alpha * cosang
        if ell == 1:
            return c1 / self.C1[1]
        for k in range(2, ell + 1):
            c0, c1 = c1, (2.0 * (k + alpha - 1) * cosang * c1 - (k + 2 * alpha - 2) * c0) / k
        return c1 / self.C1[ell]

    def tail_fraction(self, coeffs: np.ndarray) -> float:
        """Relative weight of the last expansion coefficients; a guard for
        under-resolved data."""
        weights = np.abs(coeffs) * np.sqrt(self.norms)
        total = float(np.sum(weights))
        if total == 0.0:
            return 0.0
        return float(np.sum(weights[-3:])) / total


# ---------------------------------------------------------------------------
# extremal families
# ---------------------------------------------------------------------------

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
        xi = round_bubble_center(eps, x0, n)
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


# displayed boundary quadratics: (slotA, slotB, coefficient(n), power of the
# boundary-Laplacian eigenvalue).  Slots: 0 = f, 1 = phi, 2 = psi.
def display_terms(kind: GeometryKind, n: int, critical: bool):
    if kind is GeometryKind.UPPER_HALF_SPACE:
        return [(2, 1, Q(8), 1), (1, 0, Q(16, 3), 2)]
    if kind is GeometryKind.EUCLIDEAN_BALL:
        if critical:
            return [
                (2, 2, Q(-2), 0), (2, 1, Q(8), 1), (2, 1, Q(32), 0),
                (2, 0, Q(-8, 3), 1), (1, 1, Q(16), 0), (1, 0, Q(16, 3), 2),
                (1, 0, Q(16, 3), 1), (0, 0, Q(64, 9), 2), (0, 0, Q(16), 1),
            ]
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
        if critical:
            return [
                (2, 1, Q(8), 1), (2, 1, Q(24), 0),
                (0, 1, Q(16, 3), 2), (0, 1, Q(32), 1),
            ]
        return [
            (2, 1, Q(8), 1), (2, 1, Q(3 * n**2 - 8 * n + 13, 2), 0),
            (0, 1, Q(16, 3), 2), (0, 1, Q(2 * (5 * n**2 - 8 * n - 37), 3), 1),
            (0, 1, Q((n - 3) * (n - 5) * (3 * n**2 + 4 * n - 11), 12), 0),
        ]
    raise ValueError(kind)


def hemisphere_interior_coeffs(n: int, critical: bool):
    """Coefficients of |grad lap u|^2, (lap u)^2, |grad u|^2, u^2."""
    if critical:
        return (1.0, 10.0, 24.0, 0.0)
    return (
        1.0,
        (3 * n**2 - 35) / 4.0,
        (3 * n**4 - 70 * n**2 + 259) / 16.0,
        float(gamma_ratio(Q(n + 7, 2), Q(n - 5, 2))),
    )


SLOT_GAMMAS = (Q(5, 2), Q(3, 2), Q(1, 2))


class TraceChecker:
    """Evaluator for the trace-inequality statements on one geometry;
    ``grid_size`` Gauss-Legendre nodes carry the hemisphere interior
    quadrature."""

    def __init__(self, geom: ModelGeometry, lmax: int = 32, grid_size: int = 64,
                 tail_guard: float = 1e-7):
        if geom.kind not in (GeometryKind.EUCLIDEAN_BALL, GeometryKind.ROUND_HEMISPHERE):
            raise ValueError("per-mode extensions live on the ball or hemisphere")
        self.geom = geom
        self.n = geom.n
        self.lmax = lmax
        self.grid = ZonalGrid(geom.n, lmax)
        self.tail_guard = tail_guard
        if geom.kind is GeometryKind.ROUND_HEMISPHERE:
            x, w = np.polynomial.legendre.leggauss(grid_size)
            self.itheta = (x + 1.0) * (math.pi / 4)
            self.iw = w * (math.pi / 4) * np.sin(self.itheta) ** self.n

    # -- data preparation -------------------------------------------------
    def slot_weights(self):
        n = self.n
        return (Q(n - 5, 2), Q(n - 3, 2), Q(n - 1, 2))

    def slots_from_specs(self, specs, critical: bool):
        out = []
        for spec, w in zip(specs, self.slot_weights()):
            vals = spec.values(self.grid.t, w)
            coeffs = self.grid.expand(vals)
            out.append(SlotData(coeffs, spec.axis(), vals))
        if critical and specs[0].kind != "log":
            raise ValueError("the critical top slot takes a logarithmic profile")
        return out

    def slots_from_coeffs(self, coeff_lists, axes=None):
        out = []
        for i, cs in enumerate(coeff_lists):
            coeffs = np.zeros(self.lmax + 1)
            cs = np.asarray(cs, dtype=float)
            coeffs[: len(cs)] = cs
            if axes is None:
                axis = np.zeros(self.n + 1)
                axis[0] = 1.0
            else:
                axis = np.asarray(axes[i], dtype=float)
            out.append(SlotData(coeffs, axis, self.grid.reconstruct(coeffs)))
        return out

    # -- per-mode extensions ------------------------------------------------
    def _unit_solution(self, ell: int, slot: int):
        data = [0.0, 0.0, 0.0]
        data[slot] = 1.0
        return mode_solve(self.geom, ell, BoundaryTriple(*data)).profile

    def _interior_pair_ball(self, ell, profa, profb) -> float:
        return float(radial_pair_integral(profa.lap(), profb.lap()))

    def _interior_pair_hemisphere(self, ell, evala, evalb, critical: bool) -> float:
        """Interior pairing of two profiles given as their
        ``chi_dchi_lapchi_dlapchi`` values on the quadrature nodes."""
        lam = sphere_eigenvalue(self.n, ell)
        th, w = self.itheta, self.iw
        s2 = np.sin(th) ** 2
        ca, dca, la, dla = evala
        cb, dcb, lb, dlb = evalb
        c1, c2, c3, c4 = hemisphere_interior_coeffs(self.n, critical)
        integ = (
            c1 * (dla * dlb + lam * la * lb / s2)
            + c2 * (la * lb)
            + c3 * (dca * dcb + lam * ca * cb / s2)
            + c4 * (ca * cb)
        )
        return float(np.sum(w * integ))

    # -- the two sides -------------------------------------------------------
    def lhs_energy(self, slots, critical: bool) -> tuple:
        """Interior seminorm of the extension plus the displayed boundary
        terms; returns (value, interior, boundary)."""
        n = self.n
        grid = self.grid
        interior = 0.0
        cosangs = [[float(np.dot(slots[a].axis, slots[b].axis)) for b in range(3)] for a in range(3)]
        for ell in range(self.lmax + 1):
            lamfree = [slots[s].coeffs[ell] for s in range(3)]
            if all(abs(c) < 1e-300 for c in lamfree):
                continue
            profs = [self._unit_solution(ell, s) for s in range(3)]
            if self.geom.kind is GeometryKind.ROUND_HEMISPHERE:
                profs = [p.chi_dchi_lapchi_dlapchi(self.itheta) for p in profs]
            for a in range(3):
                for b in range(3):
                    ca, cb = lamfree[a], lamfree[b]
                    if ca == 0.0 or cb == 0.0:
                        continue
                    if self.geom.kind is GeometryKind.EUCLIDEAN_BALL:
                        base = self._interior_pair_ball(ell, profs[a], profs[b])
                    else:
                        base = self._interior_pair_hemisphere(ell, profs[a], profs[b], critical)
                    interior += (
                        ca * cb * base * grid.norms[ell] * grid.angle_factor(ell, cosangs[a][b])
                    )
        boundary = 0.0
        for a, b, co, p in display_terms(self.geom.kind, n, critical):
            acc = 0.0
            for ell in range(self.lmax + 1):
                lam = sphere_eigenvalue(n, ell)
                acc += (
                    slots[a].coeffs[ell] * slots[b].coeffs[ell]
                    * lam**p * grid.norms[ell]
                    * grid.angle_factor(ell, float(np.dot(slots[a].axis, slots[b].axis)))
                )
            boundary += float(co) * acc
        return interior + boundary, interior, boundary

    def rhs_sharp(self, slots, critical: bool) -> float:
        n = self.n
        grid = self.grid
        total = 0.0
        fronts = (Q(8, 3), Q(8), Q(3))
        for slot, (gamma, front) in enumerate(zip(SLOT_GAMMAS, fronts)):
            vals = slots[slot].values
            if critical and slot == 0:
                mean = grid.integral(vals) / grid.vol
                mass = grid.integral(np.exp(n * (vals - mean))) / grid.vol
                total += (2 * math.factorial(n - 1) / n) * float(front) * grid.vol * math.log(mass)
                continue
            C = sharp_constant(n, gamma)
            p = 2.0 * n / float(n - 2 * gamma)
            total += float(front) * C.value() * grid.lp_norm(vals, p) ** 2
        return total

    def check(self, slots, critical: bool = False) -> InequalityReport:
        for s in slots:
            tail = self.grid.tail_fraction(s.coeffs)
            if tail > self.tail_guard:
                raise ValueError(
                    f"boundary data under-resolved at lmax={self.lmax} (tail {tail:.2e})"
                )
        lhs, interior, boundary = self.lhs_energy(slots, critical)
        rhs = self.rhs_sharp(slots, critical)
        gap = lhs - rhs
        scale = max(abs(lhs), abs(rhs), 1e-300)
        return InequalityReport(lhs, rhs, gap, gap / scale,
                                {"interior": interior, "boundary": boundary})


def corollary_check(geom: ModelGeometry, specs_or_slots, lmax: int = 32,
                    grid_size: int = 64) -> InequalityReport:
    """Sharp subcritical trace inequality on a model geometry.

    ``specs_or_slots`` is either a triple of ExtremalSpec (equality family)
    or a triple of zonal coefficient arrays (generic test data).  Half-space
    statements are evaluated through the stereographic transport to the
    ball, under which both sides are invariant.
    """
    if geom.n < 6:
        raise ValueError("the subcritical statements require n >= 6")
    return _run_check(geom, specs_or_slots, critical=False, lmax=lmax, grid_size=grid_size)


def critical_check(geom: ModelGeometry, specs_or_slots, lmax: int = 32,
                   grid_size: int = 64) -> InequalityReport:
    """Critical (n = 5) exponential-class trace inequality."""
    if geom.n != 5:
        raise ValueError("the critical statements require n = 5")
    return _run_check(geom, specs_or_slots, critical=True, lmax=lmax, grid_size=grid_size)


def _run_check(geom, specs_or_slots, critical, lmax, grid_size):
    from .geometry import ball as ball_geom

    eval_geom = geom
    if geom.kind is GeometryKind.UPPER_HALF_SPACE:
        eval_geom = ball_geom(geom.n)
    checker = TraceChecker(eval_geom, lmax=lmax, grid_size=grid_size)
    first = specs_or_slots[0]
    if isinstance(first, ExtremalSpec):
        slots = checker.slots_from_specs(specs_or_slots, critical)
    elif isinstance(first, SlotData):
        slots = specs_or_slots
    else:
        slots = checker.slots_from_coeffs(specs_or_slots)
    return checker.check(slots, critical)


def sphere_sobolev_check(n: int, gamma, w_of_t, lmax: int = 32, nodes: int = 256) -> InequalityReport:
    """Single-slot sharp Sobolev inequality on the round sphere for zonal w:
    pairing against the order-2*gamma multiplier versus the sharp constant
    times the critical Lebesgue norm."""
    gamma = Q(gamma)
    grid = ZonalGrid(n, lmax, nodes)
    vals = w_of_t(grid.t) if callable(w_of_t) else np.asarray(w_of_t, dtype=float)
    coeffs = grid.expand(vals)
    tail = grid.tail_fraction(coeffs)
    if tail > 1e-7:
        raise ValueError(f"zonal data under-resolved (tail {tail:.2e})")
    lhs = 0.0
    for ell in range(lmax + 1):
        lhs += float(round_multiplier(n, gamma, ell)) * coeffs[ell] ** 2 * grid.norms[ell]
    C = sharp_constant(n, gamma)
    p = 2.0 * n / float(n - 2 * gamma)
    rhs = C.value() * grid.lp_norm(vals, p) ** 2
    gap = lhs - rhs
    scale = max(abs(lhs), abs(rhs), 1e-300)
    return InequalityReport(lhs, rhs, gap, gap / scale)


# ---------------------------------------------------------------------------
# flat-side norms (stereographic-invariance checks)
# ---------------------------------------------------------------------------

def flat_bubble_lp_norm(n: int, eps: float, weight, p: float, amplitude: float = 1.0,
                        nodes: int = 256) -> float:
    """L^p norm over R^n of amplitude*(eps + |x - x0|^2)^(-weight), exact in
    the center by translation invariance; radial quadrature via rho = sqrt(eps) tan(phi)."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    phi = (x + 1.0) * (math.pi / 4)
    wphi = w * (math.pi / 4)
    rho = math.sqrt(eps) * np.tan(phi)
    drho = math.sqrt(eps) / np.cos(phi) ** 2
    integrand = np.abs(amplitude) ** p * (eps + rho**2) ** (-float(weight) * p) * rho ** (n - 1) * drho
    return (vol_sphere(n - 1) * float(np.sum(wphi * integrand))) ** (1.0 / p)
