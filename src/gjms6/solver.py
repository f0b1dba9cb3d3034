"""Per-boundary-harmonic solvers for the sixth-order extension problem.

Given boundary data for the first three boundary operators, construct the
operator-harmonic extension on each model geometry.  Every model is
separated: a mode is a boundary jet, a ``SeparatedMode``, that ``apply_B``
reads through the one ``boundary.separated_stencil`` of its model.  The flat
half space is the separated model with boundary eigenvalue lam = t^2 at
frequency t, its basis the jets of y^m e^(-t y); the ball uses the
triharmonic basis r^(l+2m); the hemisphere the hypergeometric factor kernels,
elementary in closed form with exact rational data (``HemisphereFactor``);
the geodesic compactification of hyperbolic space the scattering-series jets
of unit data in each slot, which reproduce their data, so its matrix is the
identity.  On every model the three basis jets give a 3x3 Dirichlet matrix,
and ``_coefficients`` is the one solve of that system, exact in Fractions or
with the one ``COND_GUARD`` check of a float system.  ``_solve_modes``
superposes the basis and reads back the achieved triple for the per-mode
solvers; ``unit_extensions`` needs the coefficients alone, those of unit data
in each slot, under one guard check per degree.

The collar table ``reps.collar_coefficients`` is read by the stencil, the
hemisphere factor jets (``factor_jet``), the geodesic Poisson branches
(``poisson_branch_series``) and geodesic L6
(``gjms.hyperbolic_shifted_factor``).  Data that depend on (model, l) alone
are built once: ``mode_basis`` holds the basis jets and the Dirichlet matrix
of the ball, the hemisphere and the geodesic model (so the geodesic Poisson
branches run once per degree), and each hemisphere factor is memoized.  The
branch recurrence runs on integer numerators over one common denominator and
builds one Fraction per coefficient at the end, since every Fraction
operation pays for a gcd.  The interior pairings of ``traces`` evaluate the
three hemisphere factor kernels of a degree on their quadrature nodes
(``kernel_values``) and superpose the unit profiles of that degree from
those values (``HemisphereProfile.chi_dchi_lapchi_dlapchi``).

``mode_solve`` is the only place that picks the per-mode solver of a
round-boundary model; callers that extend one boundary harmonic go through it.
Only the float functions import numpy, when they run: the float branch of
``_coefficients``, the hemisphere branch of ``_native_profiles`` and
``kernel_values``; the exact solves never load it.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .boundary import apply_B
from .fractional import d_gamma, round_multiplier, sphere_eigenvalue
from .geometry import GeometryKind, ModelGeometry, ball, halfspace, hemisphere, hyperbolic_geodesic
from .gjms import factorization_shifts
from .polys import Poly, sum_all
from .reps import RadialProfile, SeparatedMode, collar_coefficients
from .series import Series, series_inverse

Q = Fraction

# Order of the boundary jets the solvers hand to apply_B
# (B5 reads five normal derivatives).
JET_ORDER = 8

# Largest condition number a float Dirichlet system may have.  The CLI admits
# l <= 128 (ZONAL_NODES // 2).  The ball stays below it there, at most 1.43e8
# (n = 5..9); the hemisphere matrix grows to 2.1e9 at l <= 32 and first passes
# it at l = 99, 99, 98, 98, 97 for n = 5..9, where a run exits with status 2.
COND_GUARD = 1e12

# The half space carries no curvature, so its boundary operators are the same
# in every dimension; its modes are tagged with, and read on, this one.
HALFSPACE_N = 7


@dataclass
class BoundaryTriple:
    """Dirichlet data (f, phi, psi) for the first three boundary operators,
    carrying conformal weights (n-5)/2, (n-3)/2, (n-1)/2."""

    f: object
    phi: object
    psi: object

    def aslist(self):
        return [self.f, self.phi, self.psi]

    @property
    def exact(self) -> bool:
        """True iff every slot is an exact rational."""
        return all(isinstance(v, (int, Fraction)) for v in self.aslist())

    @staticmethod
    def weights(n: int):
        return (Q(n - 5, 2), Q(n - 3, 2), Q(n - 1, 2))


@dataclass
class SolveResult:
    """A per-mode extension: ``profile`` in the solver's native form (the
    basis coefficients on the half space, RadialProfile, HemisphereProfile or
    SeparatedMode), ``mode`` the same extension as the boundary jet that
    ``apply_B`` reads.  ``residual_norms`` holds |achieved - data| per slot."""

    profile: object
    mode: SeparatedMode
    achieved: BoundaryTriple
    residual_norms: tuple
    exact: bool


class DegenerateModeError(ValueError):
    pass


def _residual_norms(achieved: BoundaryTriple, data: BoundaryTriple) -> tuple:
    return tuple(abs(x - y) for x, y in zip(achieved.aslist(), data.aslist()))


def _solve3(M, rhs):
    """Gaussian elimination, generic over Fraction or float entries."""
    A = [list(M[i]) + [rhs[i]] for i in range(3)]
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


def _coefficients(M, rhs_list, exact: bool) -> list:
    """Basis coefficients alpha with M alpha = rhs for each right-hand side,
    column m of M being B0..B2 of the basis jet m.

    Exact when ``exact``, with M taken to Fractions (an int pivot would
    divide int entries to floats); otherwise M and the right-hand sides are
    taken to floats, and M must be within ``COND_GUARD``: one check, however
    many right-hand sides share it."""
    if exact:
        M = [[Q(x) for x in row] for row in M]
    else:
        import numpy as np

        M = [[float(x) for x in row] for row in M]
        cond = np.linalg.cond(M)
        if cond > COND_GUARD:
            raise DegenerateModeError(f"mode matrix condition {cond:.3g} exceeds the guard")
        rhs_list = [[float(v) for v in rhs] for rhs in rhs_list]
    return [_solve3(M, rhs) for rhs in rhs_list]


def _solve_modes(geom: ModelGeometry, M, basis, data: BoundaryTriple) -> tuple:
    """Solve M alpha = data (``_coefficients``), exactly when M and the data
    are rational, superpose the basis and read back the achieved triple.
    An exact superposition skips the basis jets whose coefficient is 0 (the
    geodesic solves of unit data keep one of three), keeping one term if all
    are 0; a float one keeps every term, since dropping 0.0 * b can change
    the sign of a zero.  Returns the coefficients, the superposed jet, the
    achieved triple, the residual norms and the exactness flag."""
    exact = data.exact and all(isinstance(x, (int, Fraction)) for row in M for x in row)
    [coef] = _coefficients(M, [data.aslist()], exact)
    terms = [b * c for b, c in zip(basis, coef) if not exact or c != 0]
    mode = sum_all(terms or [basis[0] * coef[0]])
    achieved = BoundaryTriple(*(apply_B(j, geom, mode) for j in range(3)))
    return coef, mode, achieved, _residual_norms(achieved, data), exact


# ---------------------------------------------------------------------------
# upper half space
# ---------------------------------------------------------------------------

def _halfspace_basis(t) -> list:
    """The jets of y^m e^(-t y), m = 0, 1, 2, on the half space at frequency
    t: coefficient k of jet m is (-t)^(k-m)/(k-m)!.  Exact for rational t."""
    e = [(-t) ** k * Q(1, math.factorial(k)) for k in range(JET_ORDER + 1)]
    lam = t**2
    return [SeparatedMode(HALFSPACE_N, lam, Series([0] * m + e, JET_ORDER)) for m in range(3)]


def halfspace_symbolic_mode() -> SeparatedMode:
    """The general decaying triharmonic mode e^(-t y)(a + b y + c y^2) as a
    jet whose coefficients are polynomials in the symbols (a, b, c, t)."""
    a, b, c, t = (Poly.var(4, i) for i in range(4))
    return sum_all([m * s for m, s in zip(_halfspace_basis(t), (a, b, c))])


def halfspace_solve(t, data: BoundaryTriple) -> SolveResult:
    """Solve the extension problem on the flat half space at frequency t in
    the basis e^(-t y) y^m, m = 0, 1, 2."""
    if t <= 0:
        raise DegenerateModeError("frequency must be positive; the zero mode is degenerate")
    g = halfspace(HALFSPACE_N)
    basis = _halfspace_basis(t)
    M = [[apply_B(j, g, m) for m in basis] for j in range(3)]
    coef, *rest = _solve_modes(g, M, basis, data)
    return SolveResult(tuple(coef), *rest)


# ---------------------------------------------------------------------------
# round models: one basis memo
# ---------------------------------------------------------------------------

def factor_jet(A, B, lam, shift, chi0, dchi0, order: int) -> Series:
    """Jet of the solution of chi'' + A chi' - lam B chi = shift chi, one
    second-order factor in a collar with Laplacian d^2 + A d - lam B (A and B
    as coefficient sequences), solved order by order from chi(0) = chi0 and
    chi'(0) = dchi0.  Generic over Fraction and float."""
    a = [chi0, dchi0] + [0] * (order - 1)
    for k in range(order - 1):
        acc = shift * a[k]
        for i in range(k + 1):
            acc += lam * B[i] * a[k - i] - A[i] * (k - i + 1) * a[k - i + 1]
        a[k + 2] = acc / ((k + 2) * (k + 1))
    return Series(a, order)


@functools.lru_cache(maxsize=None)
def mode_basis(geom: ModelGeometry, ell: int) -> tuple:
    """(basis, M) of a round model in degree l: the boundary jets of its three
    basis solutions and the Dirichlet matrix M[j][m] = B_j(basis[m]), as
    immutable tuples.  The ball takes the regular triharmonic basis
    r^l, r^(l+2), r^(l+4), exact; the hemisphere the three factor kernels,
    as floats, each jet solved by ``factor_jet`` in the collar table from
    chi = 1 and the closed-form dv0 at the equator; the geodesic model the
    exact extensions of unit data in each slot (``geodesic_mode_extension``),
    which reproduce their data, so its M is the identity.  Memoized on
    (geom, l), so callers share the jets and must not mutate them."""
    n = geom.n
    if geom.kind is GeometryKind.EUCLIDEAN_BALL:
        basis = tuple(RadialProfile(n, ell, {m: Q(1)}).to_separated(JET_ORDER) for m in range(3))
    elif geom.kind is GeometryKind.ROUND_HEMISPHERE:
        A, B, _, _ = collar_coefficients(geom.kind, n, JET_ORDER)
        A = [float(c) for c in A.coeffs]
        B = [float(c) for c in B.coeffs]
        lam = sphere_eigenvalue(n, ell)
        facs = [hemisphere_factor_solve(n, ell, c) for c in factorization_shifts(n)]
        # z = cos(theta) decreases with theta, so chi'(0) = -dv0
        basis = tuple(SeparatedMode(n, lam, factor_jet(A, B, lam, float(f.shift), 1.0, -float(f.dv0), JET_ORDER))
                      for f in facs)
    elif geom.kind is GeometryKind.HYPERBOLIC_GEODESIC:
        units = ([Q(int(j == slot)) for j in range(3)] for slot in range(3))
        basis = tuple(geodesic_mode_extension(n, ell, BoundaryTriple(*u)) for u in units)
    else:
        raise ValueError("the basis memo holds the round-boundary models")
    return basis, tuple(tuple(apply_B(j, geom, m) for m in basis) for j in range(3))


def ball_dirichlet_matrix(n: int, ell: int) -> tuple:
    """Exact 3x3 matrix of the first three boundary operators on the regular
    triharmonic basis, as immutable rows, read from ``mode_basis``."""
    return mode_basis(ball(n), ell)[1]


def _native_profiles(geom: ModelGeometry, ell: int, coefs) -> list:
    """The degree-l extensions with the basis coefficients ``coefs`` in the
    native form of a round model: RadialProfile on the ball, HemisphereProfile
    on the hemisphere, whose profiles share the three factor kernels."""
    n = geom.n
    if geom.kind is GeometryKind.EUCLIDEAN_BALL:
        return [RadialProfile(n, ell, dict(enumerate(c))) for c in coefs]
    import numpy as np

    factors = [hemisphere_factor_solve(n, ell, shift) for shift in factorization_shifts(n)]
    return [HemisphereProfile(n, ell, factors, np.array(c)) for c in coefs]


def unit_extensions(geom: ModelGeometry, ell: int) -> list:
    """Native profiles of the degree-l extensions of float unit data in each
    slot, on the ball or the hemisphere: the coefficients that ``mode_solve``
    finds for that data, bit for bit, from one ``COND_GUARD`` check of the
    degree's Dirichlet matrix (``DegenerateModeError`` past it).  No jet is
    superposed and no boundary value read back."""
    _, M = mode_basis(geom, ell)
    units = [[1.0 if j == slot else 0.0 for j in range(3)] for slot in range(3)]
    return _native_profiles(geom, ell, _coefficients(M, units, exact=False))


def ball_mode_solve(n: int, ell: int, data: BoundaryTriple) -> SolveResult:
    """Exact (rational data) or floating solve in the triharmonic basis."""
    g = ball(n)
    basis, M = mode_basis(g, ell)
    coef, *rest = _solve_modes(g, M, basis, data)
    return SolveResult(_native_profiles(g, ell, [coef])[0], *rest)


# ---------------------------------------------------------------------------
# round hemisphere
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HemisphereFactor:
    """Regular solution v of one second-order factor on the hemisphere,
    scaled to v0 = 1 at the equator, where its z-derivative is the exact
    ``dv0`` (z = cos(colatitude)).  In closed form, with m = l + (n-1)/2 and
    x = (1 - z)/2,
        v = (1 + z)^(-m) p(x),    dv/dz = (1 + z)^(-m-1) r(x),
    where ``p`` and ``r`` are the exact coefficients of polynomials of
    degree at most 2, p(1/2) = 1 and r(1/2) = dv0."""

    n: int
    ell: int
    shift: Fraction
    p: tuple
    r: tuple
    dv0: Fraction
    v0 = 1.0

    def chi_and_dchi(self, theta):
        """chi = sin^l(theta) v(cos theta) and its theta-derivative."""
        chi, dchi = kernel_values([self], theta)
        return chi[0], dchi[0]


def kernel_values(factors, theta) -> tuple:
    """(chi, dchi): chi = sin^l(theta) v(cos theta) and its theta-derivative
    for each factor kernel of one degree l, stacked along a first axis in
    the order of ``factors``.  The kernels of a degree share the factor
    (1 + z)^(-m), computed once; each kernel's polynomials p and r are
    evaluated by Horner's rule (``np.polyval``, highest power first), so its
    values do not depend on the other factors passed with it."""
    import numpy as np

    n, ell = factors[0].n, factors[0].ell
    theta = np.asarray(theta, dtype=float)
    s, cth = np.sin(theta), np.cos(theta)
    x = (1.0 - cth) / 2.0
    w = (1.0 + cth) ** -(ell + (n - 1) / 2)
    dw = w / (1.0 + cth)
    v = np.array([w * np.polyval([float(c) for c in f.p[::-1]], x) for f in factors])
    dv = np.array([dw * np.polyval([float(c) for c in f.r[::-1]], x) for f in factors])
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
    and C = l + (n+1)/2 (DLMF 15.10).  For the factorization shift c_k the
    square root is k - 1/2, so C - A = 1 - k, C - B = k and
    C - A - B = -m with m = l + (n-1)/2.  Euler's transformation
    (DLMF 15.8.1) then gives
        2F1(A, B; C; x) = (1 - x)^(-m) 2F1(1 - k, k; C; x),
    whose second factor is a polynomial of degree k - 1 with coefficients
    (1-k)_j (k)_j / ((C)_j j!).  With 1 - x = (1 + z)/2, the kernel scaled
    to 1 at the equator x = 1/2 is v = (1 + z)^(-m) p(x), p that polynomial
    divided by its value at 1/2, and dv/dz = (1 + z)^(-m-1) r(x) with
    r = -m p - (1 - x) p', exact, so dv/dz is 0 where v is constant
    (n = 5, l = 0, k = 3).  The exact equator derivative is dv0 = r(1/2).
    Other shifts raise ValueError.  Memoized on (n, ell, shift).
    """
    shifts = factorization_shifts(n)
    if shift not in shifts:
        raise ValueError(f"shift {shift} is not a factorization shift of n = {n}")
    k = shifts.index(shift) + 1
    C = ell + Q(n + 1, 2)
    p = [Q(1)]
    for j in range(k - 1):
        p.append(p[-1] * (j + 1 - k) * (k + j) / ((C + j) * (j + 1)))
    equator = sum(c / 2**j for j, c in enumerate(p))
    p = [c / equator for c in p] + [Q(0)]
    m = ell + Q(n - 1, 2)
    r = tuple((j - m) * p[j] - (j + 1) * p[j + 1] for j in range(k))
    dv0 = sum(c / 2**j for j, c in enumerate(r))
    return HemisphereFactor(n, ell, Q(shift), tuple(p[:k]), r, dv0)


@dataclass
class HemisphereProfile:
    """Solution on the hemisphere per boundary harmonic: coefficients against
    the three factor kernels."""

    n: int
    ell: int
    factors: list
    alphas: "numpy.ndarray"

    def separated(self) -> SeparatedMode:
        """The profile as the boundary jet ``apply_B`` reads: the memoized
        factor jets of ``mode_basis`` superposed."""
        basis, _ = mode_basis(hemisphere(self.n), self.ell)
        return sum_all([b * float(al) for b, al in zip(basis, self.alphas)])

    def chi_dchi_lapchi_dlapchi(self, factor_values):
        """chi, chi', Delta-profile, (Delta-profile)' on a grid, superposed
        from ``factor_values``, the ``kernel_values`` (chi, dchi) of the
        factors on that grid; profiles of one degree share the factors, so
        their values are evaluated once for all of them.  The factor
        relation Delta chi_i = shift_i chi_i avoids high derivatives."""
        chi = dchi = lap = dlap = 0.0
        for fac, al, c, dc in zip(self.factors, self.alphas, *factor_values):
            chi = chi + al * c
            dchi = dchi + al * dc
            lap = lap + al * float(fac.shift) * c
            dlap = dlap + al * float(fac.shift) * dc
        return chi, dchi, lap, dlap


def hemisphere_mode_solve(n: int, ell: int, data: BoundaryTriple) -> SolveResult:
    """Solve the hemisphere extension per mode via the three factor kernels,
    whose jets and mode matrix come from ``mode_basis``."""
    g = hemisphere(n)
    basis, M = mode_basis(g, ell)
    coef, *rest = _solve_modes(g, M, basis, data)
    return SolveResult(_native_profiles(g, ell, [coef])[0], *rest)


def hemisphere_factored_residual(prof: HemisphereProfile, thetas) -> float:
    """Max residual of the factorized sixth-order equation at sample points.

    At each point, local Taylor series of every factor kernel are regenerated
    by ``factor_jet`` from its own second-order equation (seeded by the
    kernel values), the three factors are composed in series arithmetic, and
    the value at the point is read off.  The local series are cut at order 10.
    """
    n, ell = prof.n, prof.ell
    lam = sphere_eigenvalue(n, ell)
    shifts = [float(c) for c in factorization_shifts(n)]
    K = 10
    worst = 0.0
    for th in thetas:
        # local series of cot and csc^2 about th, from the derivatives of sin
        d = (math.sin(th), math.cos(th), -math.sin(th), -math.cos(th))
        sin_loc = Series([d[k % 4] * (1.0 / math.factorial(k)) for k in range(K + 1)], K)
        cos_loc = Series([d[(k + 1) % 4] * (1.0 / math.factorial(k)) for k in range(K + 1)], K)
        inv_sin = series_inverse(sin_loc)
        A = n * (cos_loc * inv_sin)
        Bc = inv_sin * inv_sin

        def lap_local(s: Series) -> Series:
            d1 = s.deriv()
            return d1.deriv() + A * d1 + (-lam) * (Bc * s)

        jets = []
        for fac, al in zip(prof.factors, prof.alphas):
            chi0, dchi0 = (float(x) for x in fac.chi_and_dchi(th))
            # the factor ODE: chi'' = -n cot chi' + (lam csc^2 + c) chi
            jets.append(factor_jet(A.coeffs, Bc.coeffs, lam, float(fac.shift), chi0, dchi0, K) * float(al))
        out = sum_all(jets)
        for c in shifts:
            out = -lap_local(out) + c * out
        worst = max(worst, abs(out.value()))
    return worst


# ---------------------------------------------------------------------------
# geodesic compactification of hyperbolic space
# ---------------------------------------------------------------------------

def poisson_branch_series(n: int, ell: int, s_param, order: int, which: str = "F") -> Series:
    """Normalized branch series of the mode Poisson equation on hyperbolic
    space with round infinity.

    which = "F": the r^(n-s)-relative series with leading coefficient 1;
    which = "G": the r^s-relative series with leading coefficient 1.
    With the collar A and B of ``reps.collar_coefficients``, coefficient k
    of (-Delta_plus - s(n-s))(r^a sum c_i r^i) is chi(k) c_k plus
        lam sum_i B_i c_(k-2-i) - sum_i A_i (a+k-1-i) c_(k-1-i),
    chi(k) = -(a+k)(a+k-n) - s(n-s), so the c_k are solved in one pass; at a
    resonant order (chi(k) = 0) the obstruction is asserted to vanish and the
    coefficient set to zero.  The pass is in integers: A, B are scaled by
    the lcm L of their denominators, a and s by the lcm d of theirs, and the
    c_k are carried as numerators over one denominator, rescaled at each
    order and reduced by their common gcd; one Fraction is built per
    coefficient at the end.  Not memoized: ``mode_basis`` holds the geodesic
    jets built from the branches, six per (n, l).
    """
    s_param = Q(s_param)
    lam = sphere_eigenvalue(n, ell)
    a = (n - s_param) if which == "F" else s_param
    A, B, _, _ = collar_coefficients(GeometryKind.HYPERBOLIC_GEODESIC, n, order)
    # A_i = Ai/L, B_i = Bi/L, a = a2/d, s = s2/d, c_k = N_k/D, chi(k) =
    # X_k/d^2, and the rest of order k is R_k/(L d D)
    L = math.lcm(*(x.denominator for x in A.coeffs + B.coeffs))
    Ai = [int(x * L) for x in A.coeffs]
    Bi = [int(x * L) for x in B.coeffs]
    d = math.lcm(a.denominator, s_param.denominator)
    a2, s2 = int(a * d), int(s_param * d)
    N, D = [1], 1
    for k in range(1, order + 1):
        R = 0
        for i in range(k - 1):
            R += Bi[i] * N[k - 2 - i]
        R *= d * lam
        for i in range(k):
            R -= Ai[i] * (a2 + d * (k - 1 - i)) * N[k - 1 - i]
        X = -(a2 + d * k) * (a2 + d * (k - n)) - s2 * (d * n - s2)
        if X == 0:
            if R != 0:
                raise ArithmeticError("resonant obstruction does not vanish")
            N.append(0)
            continue
        if X < 0:
            X, R = -X, -R
        # c_k = -rest/chi = -R d/(L D X), over the common denominator L D X
        N = [x * L * X for x in N] + [-R * d]
        D *= L * X
        g = math.gcd(D, *N)
        if g > 1:
            N = [x // g for x in N]
            D //= g
    return Series([Q(x, D) for x in N], order)


def geodesic_mode_extension(n: int, ell: int, data: BoundaryTriple, order: int = JET_ORDER,
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


def geodesic_mode_solve(n: int, ell: int, data: BoundaryTriple) -> SolveResult:
    """Solve the geodesic extension per mode against the unit-slot jets of
    ``mode_basis``; the profile is the superposed jet itself."""
    g = hyperbolic_geodesic(n)
    basis, M = mode_basis(g, ell)
    _, mode, *rest = _solve_modes(g, M, basis, data)
    return SolveResult(mode, mode, *rest)


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
