"""Per-boundary-harmonic solvers for the sixth-order extension problem.

Given boundary data for the first three boundary operators, construct the
operator-harmonic extension on each model geometry.  A mode is a boundary
jet, a ``SeparatedMode`` of order ``reps.JET_ORDER``, that ``apply_B`` reads
through the ``boundary.separated_stencil`` of its model.  Each model derives
its three basis jets once: the half space (boundary eigenvalue lam = t^2 at
frequency t) the jets of y^m e^(-t y); the ball and the hemisphere their
jets in every degree at once, as polynomials in l (``round_basis``): the
binomial jets of r^(l+2m) and the jets of the closed-form factor kernels
(``HemisphereFactor``, whose ``equation_residual`` checks that closed form
exactly); the geodesic model the scattering-series jets of unit data in each
slot, so its Dirichlet matrix is the identity.

Every Dirichlet system is solved one way, alpha = adj(M) rhs / det M, exact
whenever M and the data are: per mode on the half space and the geodesic
model (``inverse``), and on the ball and the hemisphere from the adjugate
that ``round_basis`` takes once in l (``dirichlet_inverse``).  ``mode_basis``
holds the basis jets and the Dirichlet matrix per (model, l).  Polynomials
in l are evaluated by integer Horner, and the closed forms of the hemisphere
factors and the geodesic branch recurrence run on integers, with one
Fraction per coefficient, since every Fraction operation pays for a gcd.
``traces`` reads the unit coefficients (``unit_coefficients``) and evaluates
the hemisphere kernels on its quadrature nodes (``kernel_values``, the one
function that imports numpy).  ``mode_solve`` is the only place that picks
the per-mode solver of a round-boundary model.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .boundary import apply_B, separated_weights
from .fractional import d_gamma, round_multiplier, sphere_eigenvalue
from .geometry import GeometryKind, ModelGeometry, ball, halfspace, hemisphere, hyperbolic_geodesic
from .gjms import factorization_shifts
from .polys import Poly, sum_all
from .reps import JET_ORDER, RadialProfile, SeparatedMode, collar_coefficients
from .series import Series

Q = Fraction

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
    """The zero frequency of the half space, where the modes degenerate."""


def adjugate(M) -> tuple:
    """adj M of a 3x3 matrix over any commutative ring, as rows: entry (i, j)
    is the cofactor of M[j][i], whose cyclic form carries its sign."""
    return tuple(tuple(M[(j + 1) % 3][(i + 1) % 3] * M[(j + 2) % 3][(i + 2) % 3]
                       - M[(j + 1) % 3][(i + 2) % 3] * M[(j + 2) % 3][(i + 1) % 3] for j in range(3))
                 for i in range(3))


def inverse(M) -> tuple:
    """M^-1 = adj M / det M of a 3x3 matrix, as rows; exact for an exact M
    (det M is summed from Fraction 0, so int entries divide exactly)."""
    adj = adjugate(M)
    det = sum((M[0][k] * adj[k][0] for k in range(3)), Q(0))
    return tuple(tuple(a / det for a in row) for row in adj)


def _solve_modes(geom: ModelGeometry, basis, inv, data: BoundaryTriple) -> tuple:
    """(coefficients, jet, achieved triple, residual norms, exactness flag):
    alpha = inv data, ``inv`` the inverse of the Dirichlet matrix (column m
    holds B0..B2 of basis jet m), exact when ``inv`` and the data are, and
    the basis superposed.  An exact superposition skips the jets whose
    coefficient is 0, keeping one term if all are 0; a float one keeps every
    term, since dropping 0.0 * b can change the sign of a zero."""
    exact = data.exact and all(isinstance(x, (int, Fraction)) for row in inv for x in row)
    coef = [sum(a * v for a, v in zip(row, data.aslist())) for row in inv]
    terms = [b * c for b, c in zip(basis, coef) if not exact or c != 0]
    mode = sum_all(terms or [basis[0] * coef[0]])
    achieved = BoundaryTriple(*(apply_B(j, geom, mode) for j in range(3)))
    return coef, mode, achieved, tuple(abs(x - y) for x, y in zip(achieved.aslist(), data.aslist())), exact


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
    coef, *rest = _solve_modes(g, basis, inverse([[apply_B(j, g, m) for m in basis] for j in range(3)]), data)
    return SolveResult(tuple(coef), *rest)


# ---------------------------------------------------------------------------
# round models: one basis in l, one basis memo
# ---------------------------------------------------------------------------

def factor_jet(A, B, lam, shift, chi0, dchi0, order: int) -> Series:
    """Jet of the solution of chi'' + A chi' - lam B chi = shift chi, one
    second-order factor in a collar with Laplacian d^2 + A d - lam B (A and B
    as coefficient sequences), solved order by order from chi(0) = chi0 and
    chi'(0) = dchi0, over Fraction or over Poly in the degree l."""
    a = [chi0, dchi0] + [0] * (order - 1)
    for k in range(order - 1):
        acc = shift * a[k]
        for i in range(k + 1):
            acc += lam * B[i] * a[k - i] - A[i] * (k - i + 1) * a[k - i + 1]
        a[k + 2] = acc * Q(1, (k + 2) * (k + 1))
    return Series(a, order)


def _integer_rows(polys) -> tuple:
    """(rows, d): polynomials in l (int, Fraction or Poly) as integer rows,
    highest power first, over one common denominator d."""
    terms = [p.terms if isinstance(p, Poly) else {(0,): p} for p in polys]
    d = math.lcm(*(c.denominator for t in terms for c in t.values()))
    rows = ([t.get((e,), 0) for e in range(max((e for (e,) in t), default=0), -1, -1)] for t in terms)
    return tuple(tuple(c.numerator * (d // c.denominator) for c in row) for row in rows), d


def _horner(row, x: int) -> int:
    acc = 0
    for c in row:
        acc = acc * x + c
    return acc


@functools.lru_cache(maxsize=None)
def round_basis(geom: ModelGeometry) -> tuple:
    """The basis of the ball or the hemisphere in every degree at once:
    (jets, scales, M_s, inv) as ``_integer_rows`` of polynomials in l,
    memoized per model and built on first use.  Jet m is that of a regular
    solution times a scale s_m(l) that makes it polynomial in l: on the ball
    r^(l+2m), s_m = 1; on the hemisphere factor kernel k, from chi = 1 and
    chi' = -dv0 at the equator (z = cos(theta) decreases with theta) by
    ``factor_jet``, s_k = 2E of ``factor_closed_form``.  The stencil on these
    jets gives M_s(l), whose determinant is a constant (16 on the ball, -6144
    on the hemisphere), so the unscaled basis has the polynomial inverse
    ``inv`` = diag(s) adj M_s / det M_s; matrices are nine entries, by rows."""
    n = geom.n
    ell = Poly.var(1, 0)
    lam = sphere_eigenvalue(n, ell)
    if geom.kind is GeometryKind.EUCLIDEAN_BALL:
        # r^p = (1 + tau)^p has the binomial coefficients C(p, k)
        jets = [Series([math.prod(ell + 2 * m - i for i in range(k)) * Q(1, math.factorial(k))
                        for k in range(JET_ORDER + 1)], JET_ORDER) for m in range(3)]
        scales = [1, 1, 1]
    elif geom.kind is GeometryKind.ROUND_HEMISPHERE:
        A, B, _, _ = collar_coefficients(geom.kind, n, JET_ORDER)
        jets, scales = [], []
        for k, shift in enumerate(factorization_shifts(n), start=1):
            _, _, E, D = factor_closed_form(n, ell, k)
            jets.append(factor_jet(A.coeffs, B.coeffs, lam, shift, 2 * E, -D, JET_ORDER))
            scales.append(2 * E)
    else:
        raise ValueError("the basis in l is built on the ball and the hemisphere")
    M = [[sum(w * jet.coeffs[k] for k, w in separated_weights(geom, j, lam)) for jet in jets] for j in range(3)]
    adj = adjugate(M)
    (det,), d = _integer_rows([sum(M[0][k] * adj[k][0] for k in range(3))])
    if len(det) != 1:
        raise ArithmeticError(f"the Dirichlet determinant of {geom} depends on l")
    inv_det = Q(d, det[0])
    return (tuple(_integer_rows(jet.coeffs) for jet in jets), _integer_rows(scales),
            _integer_rows([x for row in M for x in row]),
            _integer_rows([s * a * inv_det for s, row in zip(scales, adj) for a in row]))


@functools.lru_cache(maxsize=None)
def mode_basis(geom: ModelGeometry, ell: int) -> tuple:
    """(basis, M) of a round model in degree l: the exact boundary jets of its
    three basis solutions, of order ``JET_ORDER``, and the Dirichlet matrix
    M[j][m] = B_j(basis[m]), as immutable tuples.  The ball and the
    hemisphere evaluate the jets and M_s of ``round_basis`` at l over their
    scales; the geodesic model takes the extensions of unit data in each
    slot (``geodesic_mode_extension``), so its M is the identity.  Memoized
    on (geom, l), so callers share the jets and must not mutate them."""
    n = geom.n
    if geom.kind is GeometryKind.HYPERBOLIC_GEODESIC:
        units = ([Q(int(j == slot)) for j in range(3)] for slot in range(3))
        basis = tuple(geodesic_mode_extension(n, ell, BoundaryTriple(*u)) for u in units)
        return basis, tuple(tuple(apply_B(j, geom, m) for m in basis) for j in range(3))
    jets, (srows, ds), (mrows, dm), _ = round_basis(geom)
    lam = sphere_eigenvalue(n, ell)
    scales = [_horner(s, ell) for s in srows]
    basis = tuple(SeparatedMode(n, lam, Series([Q(_horner(c, ell) * ds, d * s) for c in rows], JET_ORDER))
                  for (rows, d), s in zip(jets, scales))
    return basis, tuple(tuple(Q(_horner(mrows[3 * j + m], ell) * ds, dm * scales[m]) for m in range(3))
                        for j in range(3))


@functools.lru_cache(maxsize=None)
def dirichlet_inverse(geom: ModelGeometry, ell: int) -> tuple:
    """The exact inverse of the Dirichlet matrix of ``mode_basis`` in degree
    l, as immutable rows: that of ``round_basis`` at l on the ball and the
    hemisphere, ``inverse`` of M = I on the geodesic model.  Memoized."""
    if geom.kind is GeometryKind.HYPERBOLIC_GEODESIC:
        return inverse(mode_basis(geom, ell)[1])
    rows, d = round_basis(geom)[3]
    return tuple(tuple(Q(_horner(c, ell), d) for c in rows[3 * i:3 * i + 3]) for i in range(3))


def ball_dirichlet_matrix(n: int, ell: int) -> tuple:
    """Exact 3x3 matrix of the first three boundary operators on the regular
    triharmonic basis, as immutable rows, read from ``mode_basis``."""
    return mode_basis(ball(n), ell)[1]


def _round_mode_solve(geom: ModelGeometry, ell: int, data: BoundaryTriple) -> SolveResult:
    """Solve in degree l with the memoized jets and inverse; the profile is a
    RadialProfile on the ball, a HemisphereProfile over the memoized factor
    kernels on the hemisphere and the jet itself on the geodesic model."""
    n = geom.n
    coef, mode, *rest = _solve_modes(geom, mode_basis(geom, ell)[0], dirichlet_inverse(geom, ell), data)
    if geom.kind is GeometryKind.EUCLIDEAN_BALL:
        profile = RadialProfile(n, ell, dict(enumerate(coef)))
    elif geom.kind is GeometryKind.ROUND_HEMISPHERE:
        profile = HemisphereProfile(n, ell, [hemisphere_factor_solve(n, ell, c) for c in factorization_shifts(n)],
                                    tuple(coef))
    else:
        profile = mode
    return SolveResult(profile, mode, *rest)


def unit_coefficients(geom: ModelGeometry, top: int) -> list:
    """coefs[l][slot], the basis coefficients of the degree-l extension of
    unit data in each slot, for l <= top on the ball or the hemisphere: the
    columns of ``dirichlet_inverse`` taken to floats, which ``mode_solve``
    finds for float unit data, bit for bit."""
    return [[[float(row[slot]) for row in inv] for slot in range(3)]
            for inv in (dirichlet_inverse(geom, ell) for ell in range(top + 1))]


def ball_mode_solve(n: int, ell: int, data: BoundaryTriple) -> SolveResult:
    """Exact (rational data) or floating solve in the triharmonic basis."""
    return _round_mode_solve(ball(n), ell, data)


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

    def equation_residual(self) -> Fraction:
        """Exact sum of |coefficients| of the two polynomial identities in x
        that the closed form must satisfy: the derivative relation
        r + m p + (1 - x) p' = 0, and the factor equation times (1 + z)^(m+1),
            2x[-(m+1) r - (1-x) r'] - (2l+n+1)(1-2x) r - 2(l(l+n) + shift)(1-x) p = 0.
        It is 0 iff ``kernel_values`` evaluates a solution of the factor."""
        x = Poly.var(1, 0)
        P, R = (sum_all([c * x**j for j, c in enumerate(cs)]) for cs in (self.p, self.r))
        n, ell, m = self.n, self.ell, self.ell + Q(self.n - 1, 2)
        first = R + m * P + (1 - x) * P.diff(0)
        factor = (2 * x * (-(m + 1) * R - (1 - x) * R.diff(0)) - (2 * ell + n + 1) * (1 - 2 * x) * R
                  - 2 * (ell * (ell + n) + self.shift) * (1 - x) * P)
        return sum((abs(c) for e in (first, factor) for c in e.terms.values()), Q(0))


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
    N, R, E, D = factor_closed_form(n, ell, k)
    p = tuple(Q(x << (k - 1), E) for x in N)
    r = tuple(Q(x << (k - 1), 2 * E) for x in R)
    return HemisphereFactor(n, ell, Q(shift), p, r, Q(D, 2 * E))


def factor_closed_form(n: int, ell, k: int) -> tuple:
    """(N, R, E, D), the integer closed form of factor kernel k in degree l,
    for an int l or a Poly l: with 2C = 2l + n + 1 and 2m = 2l + n - 1,
    p_j = 2^(k-1) N_j / E, N_j = prod_(i<j) 2(i+1-k)(k+i) prod_(j<=i<k-1)
    (2C+2i)(i+1), E = sum_j N_j 2^(k-1-j) the equator sum cleared by 2^(k-1);
    r_j = 2^(k-1) R_j / (2E), R_j = (2j - 2m) N_j - 2(j+1) N_(j+1), N_k = 0;
    and dv0 = D / (2E), D = sum_j R_j 2^(k-1-j)."""
    c2, m2 = 2 * ell + n + 1, 2 * ell + n - 1
    N = [math.prod(2 * (i + 1 - k) * (k + i) for i in range(j))
         * math.prod((c2 + 2 * i) * (i + 1) for i in range(j, k - 1)) for j in range(k)] + [0]
    R = [(2 * j - m2) * N[j] - 2 * (j + 1) * N[j + 1] for j in range(k)]
    E, D = (sum(x * 2 ** (k - 1 - j) for j, x in enumerate(xs)) for xs in (N[:k], R))
    return N[:k], R, E, D


@dataclass
class HemisphereProfile:
    """Solution on the hemisphere per boundary harmonic: coefficients against
    the three factor kernels."""

    n: int
    ell: int
    factors: list
    alphas: tuple

    def separated(self) -> SeparatedMode:
        """The profile as the boundary jet ``apply_B`` reads: the memoized
        factor jets of ``mode_basis`` superposed."""
        basis, _ = mode_basis(hemisphere(self.n), self.ell)
        return sum_all([b * float(al) for b, al in zip(basis, self.alphas)])


def hemisphere_mode_solve(n: int, ell: int, data: BoundaryTriple) -> SolveResult:
    """Solve the hemisphere extension per mode via the three factor kernels."""
    return _round_mode_solve(hemisphere(n), ell, data)


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
    return _round_mode_solve(hyperbolic_geodesic(n), ell, data)


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
