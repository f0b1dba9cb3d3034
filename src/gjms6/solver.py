"""Per-boundary-harmonic solvers for the sixth-order extension problem.

Given boundary data for the first three boundary operators, construct the
operator-harmonic extension on each model geometry: exact triangular solves
on the half space, exact 3x3 solves in the triharmonic basis on the ball,
hypergeometric factor kernels summed as power series on the hemisphere, and
scattering-series jets on the geodesic compactification of hyperbolic space.

``mode_solve`` is the only place that picks the per-mode solver of a
round-boundary model; callers that extend one boundary harmonic go through it.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .boundary import apply_B
from .fractional import d_gamma, round_multiplier, sphere_eigenvalue
from .geometry import GeometryKind, ModelGeometry
from .gjms import factorization_shifts
from .polys import ExpPolyMode, Poly
from .reps import RadialProfile, SeparatedMode
from .series import Series, series_inverse

Q = Fraction


@dataclass(frozen=True)
class ModeIndex:
    """Spherical-harmonic degree on round boundaries, frequency on the flat
    boundary."""

    ell: int | None = None
    t: float | Fraction | None = None


@dataclass
class BoundaryTriple:
    """Dirichlet data (f, phi, psi) for the first three boundary operators,
    carrying conformal weights (n-5)/2, (n-3)/2, (n-1)/2."""

    f: object
    phi: object
    psi: object

    def aslist(self):
        return [self.f, self.phi, self.psi]

    @staticmethod
    def weights(n: int):
        return (Q(n - 5, 2), Q(n - 3, 2), Q(n - 1, 2))


@dataclass
class SolveResult:
    """A per-mode extension: ``profile`` in the solver's native form
    (RadialProfile, HemisphereProfile or SeparatedMode), ``mode`` the same
    extension as the boundary jet that ``apply_B`` reads (None on the half
    space)."""

    profile: object
    achieved: BoundaryTriple
    residual_norms: tuple
    exact: bool
    mode: SeparatedMode | None = None


class DegenerateModeError(ValueError):
    pass


# ---------------------------------------------------------------------------
# upper half space
# ---------------------------------------------------------------------------

def halfspace_symbolic_mode() -> ExpPolyMode:
    """The general decaying triharmonic mode e^(-t y)(a + b y + c y^2) with
    the coefficients and frequency kept as polynomial symbols (a, b, c, t)."""
    d = 5
    a, b, c, _, y = (Poly.var(d, i) for i in range(5))
    return ExpPolyMode(a + b * y + c * y**2)


def halfspace_solve(t, data: BoundaryTriple) -> SolveResult:
    """Solve the extension problem on the flat half space at frequency t.

    The boundary triple of e^(-t y)(a + b y + c y^2) is
    (a, t a - b, (4/3) t^2 a - 2 t b + 2 c), a triangular system.
    """
    if isinstance(t, (int, Fraction)):
        t = Q(t)
        exact = all(isinstance(v, (int, Fraction)) for v in data.aslist())
    else:
        exact = False
    if t <= 0:
        raise DegenerateModeError("frequency must be positive; the zero mode is degenerate")
    f, phi, psi = data.aslist()
    a = f
    b = t * a - phi
    four_thirds = Q(4, 3) if exact else 4.0 / 3.0
    c = (psi - four_thirds * t**2 * a + 2 * t * b) * (Q(1, 2) if exact else 0.5)
    achieved = BoundaryTriple(a, t * a - b, four_thirds * t**2 * a - 2 * t * b + 2 * c)
    res = tuple(x - y for x, y in zip(achieved.aslist(), data.aslist()))
    return SolveResult((a, b, c), achieved, res, exact)


# ---------------------------------------------------------------------------
# euclidean ball
# ---------------------------------------------------------------------------

def ball_basis(n: int, ell: int):
    """Regular triharmonic basis r^l, r^(l+2), r^(l+4) times a degree-l
    harmonic."""
    return [RadialProfile(n, ell, {m: Q(1)}) for m in range(3)]


def ball_dirichlet_matrix(n: int, ell: int):
    """Exact 3x3 matrix of the first three boundary operators on the basis."""
    from .geometry import ball as ball_geom

    basis = ball_basis(n, ell)
    g = ball_geom(n)
    return [[apply_B(j, g, b.to_separated()) for b in basis] for j in range(3)]


def _solve3(M, rhs):
    """Gaussian elimination, generic over Fraction or float entries."""
    A = [list(map(lambda x: x, M[i])) + [rhs[i]] for i in range(3)]
    for c in range(3):
        piv = None
        for r in range(c, 3):
            if A[r][c] != 0:
                piv = r
                break
        if piv is None:
            raise DegenerateModeError("singular Dirichlet system")
        A[c], A[piv] = A[piv], A[c]
        pv = A[c][c]
        A[c] = [x / pv for x in A[c]]
        for r in range(3):
            if r != c and A[r][c] != 0:
                fac = A[r][c]
                A[r] = [x - fac * y for x, y in zip(A[r], A[c])]
    return [A[r][3] for r in range(3)]


def ball_mode_solve(n: int, ell: int, data: BoundaryTriple) -> SolveResult:
    """Exact (rational data) or floating solve in the triharmonic basis."""
    from .geometry import ball as ball_geom

    exact = all(isinstance(v, (int, Fraction)) for v in data.aslist())
    M = ball_dirichlet_matrix(n, ell)
    rhs = data.aslist()
    if not exact:
        M = [[float(x) for x in row] for row in M]
        rhs = [float(v) for v in rhs]
    coef = _solve3(M, rhs)
    prof = RadialProfile(n, ell, {m: coef[m] for m in range(3)})
    g = ball_geom(n)
    sep = prof.to_separated()
    achieved = BoundaryTriple(*(apply_B(j, g, sep) for j in range(3)))
    res = tuple(x - y for x, y in zip(achieved.aslist(), data.aslist()))
    return SolveResult(prof, achieved, res, exact, sep)


# ---------------------------------------------------------------------------
# round hemisphere
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HemisphereFactor:
    """Regular solution of one second-order factor on the hemisphere, as
    power series in x = (1 - z)/2 (z = cos(colatitude)) of its value and of
    its z-derivative, normalized to v0 = 1 at the equator."""

    n: int
    ell: int
    shift: Fraction
    coeffs: np.ndarray
    dcoeffs: np.ndarray
    v0: float
    dv0: float

    def chi_series(self, order: int = 8) -> Series:
        """Profile series in tau = colatitude - pi/2 at the equator."""
        return hemisphere_profile_series(self.n, self.ell, float(self.shift), self.v0, self.dv0, order)

    def v_and_dv(self, z):
        x = (1.0 - np.asarray(z)) / 2.0
        polyval = np.polynomial.polynomial.polyval
        return polyval(x, self.coeffs), polyval(x, self.dcoeffs)

    def chi_and_dchi(self, theta):
        """chi = sin^l(theta) v(cos theta) and its theta-derivative."""
        theta = np.asarray(theta, dtype=float)
        s, cth = np.sin(theta), np.cos(theta)
        v, dv = self.v_and_dv(cth)
        ell = self.ell
        chi = s**ell * v
        dchi = (ell * s ** (ell - 1) * cth * v if ell else 0.0) - s ** (ell + 1) * dv
        return chi, dchi


@functools.lru_cache(maxsize=None)
def hemisphere_factor_solve(n: int, ell: int, shift) -> HemisphereFactor:
    """The regular kernel of one factor, in closed form.

    In z = cos(theta) with chi = sin^l(theta) v(z), the factor
    (-Delta + shift) chi Y = 0 becomes
    (1-z^2) v'' - (2l+n+1) z v' - (l(l+n) + shift) v = 0, and in
    x = (1-z)/2 the hypergeometric equation, whose solution regular at the
    pole x = 0 is 2F1(A, B; C; x) with A, B = l + n/2 +- sqrt(n^2/4 - shift)
    and C = l + (n+1)/2 (DLMF 15.10).  For the factorization shifts A, B and
    C, hence every Taylor coefficient, are nonnegative, and the hemisphere is
    0 <= x <= 1/2, so the series is summed without cancellation.  It is cut
    where a term at x = 1/2 falls below 1e-18 of the partial sum and scaled
    to v = 1 at the equator.  The equator sums are taken with math.fsum: the
    3x3 mode system amplifies the rounding error of dv0, and summed term by
    term it lifts the DtN residuals up to l = 16 from about 1e-9 to 1e-8.
    Memoized on (n, ell, shift).
    """
    beta = math.sqrt(n * n / 4 - float(shift))
    A, B, C = ell + n / 2 + beta, ell + n / 2 - beta, ell + (n + 1) / 2
    if B < 0:
        raise ValueError(f"shift {shift} gives a series with terms of both signs")
    # terms of the series at x = 1/2; the coefficients are terms * 2^k
    terms = [1.0]
    total = 1.0
    k = 0
    while terms[-1] >= 1e-18 * total:
        terms.append(terms[-1] * (A + k) * (B + k) / ((C + k) * (k + 1) * 2))
        total += terms[-1]
        k += 1
    total = math.fsum(terms)
    dv0 = -math.fsum(k * t for k, t in enumerate(terms)) / total
    coeffs = np.ldexp(np.array(terms) / total, np.arange(len(terms)))
    dcoeffs = -0.5 * np.polynomial.polynomial.polyder(coeffs)
    return HemisphereFactor(n, ell, Q(shift), coeffs, dcoeffs, 1.0, dv0)


def hemisphere_profile_series(n: int, ell: int, shift: float, v0: float, dv0: float, order: int) -> Series:
    """Equator Taylor series of the factor profile from its second-order ODE.

    chi'' = n tan(tau) chi' + (lam sec^2(tau) + shift) chi, seeded by
    chi(0) = v0 and chi'(0) = -dv0 (z = cos(theta) decreases with theta).
    """
    from .series import sec2_series, tan_series

    lam = sphere_eigenvalue(n, ell)
    tn = tan_series(order)
    sc2 = sec2_series(order)
    a = [0.0] * (order + 1)
    a[0] = v0
    if order >= 1:
        a[1] = -dv0
    for k in range(order - 1):
        # coefficient k of n tan * chi' + (lam sec^2 + shift) chi
        acc = 0.0
        for i in range(1, k + 1):
            ti = float(tn.coeffs[i]) if i <= tn.ord else 0.0
            acc += n * ti * (k - i + 1) * a[k - i + 1]
        for i in range(0, k + 1):
            si = float(sc2.coeffs[i]) if i <= sc2.ord else 0.0
            acc += lam * si * a[k - i]
        acc += float(shift) * a[k]
        a[k + 2] = acc / ((k + 2) * (k + 1))
    return Series(a, order)


@dataclass
class HemisphereProfile:
    """Solution on the hemisphere per boundary harmonic: coefficients against
    the three factor kernels."""

    n: int
    ell: int
    factors: list
    alphas: np.ndarray

    def separated(self, order: int = 8) -> SeparatedMode:
        lam = sphere_eigenvalue(self.n, self.ell)
        total = None
        for fac, al in zip(self.factors, self.alphas):
            s = fac.chi_series(order) * float(al)
            total = s if total is None else total + s
        return SeparatedMode(self.n, lam, total)

    def chi_dchi_lapchi_dlapchi(self, theta):
        """chi, chi', Delta-profile, (Delta-profile)' on a grid; the factor
        relation Delta chi_i = shift_i chi_i avoids high derivatives."""
        chi = dchi = lap = dlap = 0.0
        for fac, al in zip(self.factors, self.alphas):
            c, dc = fac.chi_and_dchi(theta)
            chi = chi + al * c
            dchi = dchi + al * dc
            lap = lap + al * float(fac.shift) * c
            dlap = dlap + al * float(fac.shift) * dc
        return chi, dchi, lap, dlap


def hemisphere_mode_solve(n: int, ell: int, data: BoundaryTriple, order: int = 8,
                          cond_guard: float = 1e12) -> SolveResult:
    """Solve the hemisphere extension per mode via the three factor kernels;
    DegenerateModeError when the 3x3 mode matrix condition exceeds cond_guard."""
    from .geometry import hemisphere as hemi_geom

    shifts = factorization_shifts(n)
    factors = [hemisphere_factor_solve(n, ell, c) for c in shifts]
    g = hemi_geom(n)
    lam = sphere_eigenvalue(n, ell)
    cols = []
    for fac in factors:
        mode = SeparatedMode(n, lam, fac.chi_series(order))
        cols.append([float(apply_B(j, g, mode)) for j in range(3)])
    M = np.array(cols, dtype=float).T
    rhs = np.array([float(v) for v in data.aslist()])
    cond = np.linalg.cond(M)
    if cond > cond_guard:
        raise DegenerateModeError(f"mode matrix condition {cond:.3g} exceeds the guard")
    alphas = np.linalg.solve(M, rhs)
    prof = HemisphereProfile(n, ell, factors, alphas)
    sep = prof.separated(order)
    achieved = BoundaryTriple(*(float(apply_B(j, g, sep)) for j in range(3)))
    res = tuple(abs(a - float(b)) for a, b in zip(achieved.aslist(), data.aslist()))
    return SolveResult(prof, achieved, res, False, sep)


def hemisphere_factored_residual(prof: HemisphereProfile, thetas, seed_order: int = 10) -> float:
    """Max residual of the factorized sixth-order equation at sample points.

    At each point, local Taylor series of every factor kernel are regenerated
    from its own second-order equation (seeded by the kernel values),
    the three factors are composed in series arithmetic, and the value at the
    point is read off.
    """
    n, ell = prof.n, prof.ell
    lam = sphere_eigenvalue(n, ell)
    shifts = [float(c) for c in factorization_shifts(n)]
    worst = 0.0
    for th in thetas:
        sth, cth = math.sin(th), math.cos(th)
        K = seed_order
        # local series of cot and csc^2 about th
        sin_loc = Series([sth * _c(k) + cth * _s(k) for k in range(K + 1)], K)
        cos_loc = Series([cth * _c(k) - sth * _s(k) for k in range(K + 1)], K)
        inv_sin = series_inverse(sin_loc)
        A = n * (cos_loc * inv_sin)
        Bc = inv_sin * inv_sin

        def lap_local(s: Series) -> Series:
            d1 = s.deriv()
            return d1.deriv() + A * d1 + (-lam) * (Bc * s)

        total = None
        for fac, al in zip(prof.factors, prof.alphas):
            chi0, dchi0 = (float(x) for x in fac.chi_and_dchi(th))
            # local Taylor from the factor ODE: chi'' = -n cot chi' + (lam csc^2 + c) chi
            a = [0.0] * (K + 1)
            a[0], a[1] = chi0, dchi0
            cshift = float(fac.shift)
            for k in range(K - 1):
                acc = 0.0
                for i in range(0, k + 1):
                    acc += -float(A.coeffs[i]) * (k - i + 1) * a[k - i + 1]
                    acc += lam * float(Bc.coeffs[i]) * a[k - i]
                acc += cshift * a[k]
                a[k + 2] = acc / ((k + 2) * (k + 1))
            s = Series(a, K) * float(al)
            total = s if total is None else total + s
        out = total
        for c in shifts:
            out = -lap_local(out) + c * out
        worst = max(worst, abs(out.value()))
    return worst


def _c(k: int) -> float:
    """Taylor coefficients of cos at 0."""
    if k % 2:
        return 0.0
    return (-1.0) ** (k // 2) / math.factorial(k)


def _s(k: int) -> float:
    """Taylor coefficients of sin at 0."""
    if k % 2 == 0:
        return 0.0
    return (-1.0) ** ((k - 1) // 2) / math.factorial(k)


# ---------------------------------------------------------------------------
# geodesic compactification of hyperbolic space
# ---------------------------------------------------------------------------

def hyperbolic_shifted_factor(n: int, lam, a, s_param, prof: Series) -> Series:
    """Apply (-Delta_plus - s(n-s)) to r^a * prof * Y_l, returning the
    r^a-relative coefficient series.

    Delta_plus = r^2 Delta_g - (n-1) r d/dr for the compactified collar
    metric dr^2 + (1 - r^2/4)^2 h; every r-power produced by the warped
    coefficients is reabsorbed, so no series order is lost.
    """
    a = Q(a)
    s_param = Q(s_param)
    K = prof.ord

    def rmul(x: Series) -> Series:
        return Series([0] + list(x.coeffs), x.ord + 1)

    rho = Series([Q(1), Q(0), Q(-1, 4)], K + 2)
    inv = series_inverse(rho)
    A = Q(n) * (Series([Q(0), Q(-1, 2)], K + 2) * inv)
    B = inv * inv
    d1 = a * prof + rmul(prof.deriv())          # r^(a-1)-relative first derivative
    d2 = (a - 1) * d1 + rmul(d1.deriv())        # r^(a-2)-relative second derivative
    lap_plus = d2 + rmul(A * d1) + rmul(rmul((-lam) * (B * prof))) - Q(n - 1) * d1
    return -lap_plus - (s_param * (Q(n) - s_param)) * prof


def poisson_branch_series(n: int, ell: int, s_param, order: int, which: str = "F") -> Series:
    """Normalized branch series of the mode Poisson equation on hyperbolic
    space with round infinity.

    which = "F": the r^(n-s)-relative series with leading coefficient 1;
    which = "G": the r^s-relative series with leading coefficient 1.
    Solved order by order from the indicial recurrence; at a resonant order
    the obstruction is asserted to vanish and the coefficient set to zero.
    """
    s_param = Q(s_param)
    lam = sphere_eigenvalue(n, ell)
    a = (Q(n) - s_param) if which == "F" else s_param
    coeffs = [Q(1)] + [Q(0)] * order
    for k in range(1, order + 1):
        cur = Series(coeffs[: k + 1] + [Q(0)] * (order - k), order)
        E = hyperbolic_shifted_factor(n, lam, a, s_param, cur)
        # indicial factor chi(k): coefficient of the k-th unit perturbation
        probe = Series([Q(0)] * k + [Q(1)] + [Q(0)] * (order - k), order)
        chi = hyperbolic_shifted_factor(n, lam, a, s_param, probe).coeffs[k]
        rest = E.coeffs[k]
        if chi == 0:
            if rest != 0:
                raise ArithmeticError("resonant obstruction does not vanish")
            coeffs[k] = Q(0)
        else:
            coeffs[k] = coeffs[k] - rest / chi
    return Series(coeffs, order)


def geodesic_mode_extension(n: int, ell: int, data: BoundaryTriple, order: int = 8,
                            scattering=None) -> SeparatedMode:
    """Operator-harmonic extension on the geodesic model as an exact jet.

    Superposes the three slot solutions (with the internal combination
    signs +1, -1, +1/2) built from the two Poisson branches per slot; the
    second-branch amplitudes are the scattering multipliers (overridable for
    symbolic checks via ``scattering``: a map gamma -> multiplier).
    """
    lam = sphere_eigenvalue(n, ell)
    f, phi, psi = data.aslist()
    total = [0] * (order + 1)

    def add(series: Series, offset: int, amp):
        for k, c in enumerate(series.coeffs):
            if k + offset <= order:
                total[k + offset] = total[k + offset] + amp * c

    slots = [
        (f, Q(5, 2), 0, Q(1)),
        (phi, Q(3, 2), 1, Q(-1)),
        (psi, Q(1, 2), 2, Q(1, 2)),
    ]
    for value, gamma, offset, sign in slots:
        if isinstance(value, (int, Fraction)) and value == 0:
            continue
        s_param = Q(n, 2) + gamma
        Fb = poisson_branch_series(n, ell, s_param, order, "F")
        Gb = poisson_branch_series(n, ell, s_param, order, "G")
        if scattering is not None:
            smult = scattering[gamma]
        else:
            smult = round_multiplier(n, gamma, ell) / d_gamma(gamma)
        add(Fb, offset, sign * value)
        add(Gb, int(2 * gamma) + offset, sign * smult * value)
    return SeparatedMode(n, lam, Series(total, order))


def geodesic_mode_solve(n: int, ell: int, data: BoundaryTriple, order: int = 8) -> SolveResult:
    from .geometry import hyperbolic_geodesic

    g = hyperbolic_geodesic(n)
    mode = geodesic_mode_extension(n, ell, data, order)
    achieved = BoundaryTriple(*(apply_B(j, g, mode) for j in range(3)))
    exact = all(isinstance(v, (int, Fraction)) for v in data.aslist())
    res = tuple(x - y for x, y in zip(achieved.aslist(), data.aslist()))
    return SolveResult(mode, achieved, res, exact, mode)


# ---------------------------------------------------------------------------
# one entry point per mode
# ---------------------------------------------------------------------------

def mode_solve(geom: ModelGeometry, ell: int, data: BoundaryTriple) -> SolveResult:
    """Extend the degree-l boundary data on a round-boundary model.

    The only dispatch from a model to its per-mode solver: ball, hemisphere
    or geodesic compactification.  The half space is parametrized by a
    frequency and solved by ``halfspace_solve``.
    """
    if geom.kind is GeometryKind.EUCLIDEAN_BALL:
        return ball_mode_solve(geom.n, ell, data)
    if geom.kind is GeometryKind.ROUND_HEMISPHERE:
        return hemisphere_mode_solve(geom.n, ell, data)
    if geom.kind is GeometryKind.HYPERBOLIC_GEODESIC:
        return geodesic_mode_solve(geom.n, ell, data)
    raise ValueError("per-mode extensions by harmonic degree live on the round-boundary models")


def kernel_check(geom: ModelGeometry, mode: ModeIndex) -> bool:
    """True iff the per-mode Dirichlet system is nonsingular: unit data
    solve without a degenerate system or a tripped condition guard."""
    unit = BoundaryTriple(Q(1), Q(0), Q(0))
    try:
        if geom.kind is GeometryKind.UPPER_HALF_SPACE:
            halfspace_solve(mode.t, unit)
        else:
            mode_solve(geom, mode.ell, unit)
    except DegenerateModeError:
        return False
    return True
