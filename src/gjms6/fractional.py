"""Fractional conformally covariant boundary operators as mode multipliers.

On the two model boundaries (round n-sphere, flat R^n) the order-2*gamma
fractional operators act diagonally on boundary harmonics.  The round
multiplier is the intertwining eigenvalue Gamma(l + n/2 + gamma) /
Gamma(l + n/2 - gamma); the flat multiplier is t^(2*gamma).  Both are exact:
the Gamma ratio is a rising factorial of integer length 2*gamma, so all
square-root-of-pi factors cancel.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .geometry import GeometryKind, ModelGeometry
from .report import passes

Q = Fraction


def rising(z: Fraction, k: int) -> Fraction:
    """Rising factorial z (z+1) ... (z+k-1), exact over rationals."""
    out = Q(1)
    for i in range(k):
        out *= z + i
    return out


def gamma_ratio(top: Fraction, bottom: Fraction) -> Fraction:
    """Gamma(top)/Gamma(bottom) for top - bottom a nonnegative integer.

    Zero numerators are allowed (a pole of Gamma in the denominator gives 0
    only when bottom is a nonpositive integer; that case is rejected unless
    it arises through rising-factorial zeros, which the product handles).
    """
    k = top - bottom
    if k.denominator != 1 or k < 0:
        raise ValueError("gamma_ratio needs top - bottom a nonnegative integer")
    return rising(bottom, int(k))


def sphere_eigenvalue(n: int, ell: int) -> int:
    """Eigenvalue of minus the boundary Laplacian on degree-l harmonics."""
    return ell * (ell + n - 1)


def round_multiplier(n: int, gamma, ell: int) -> Fraction:
    """Intertwining eigenvalue of the order-2*gamma operator on round S^n.

    gamma = n/2 is allowed: that is the critical operator, whose multiplier
    l (l+1) ... (l+n-1) kills constants.
    """
    gamma = Q(gamma)
    if not 0 < gamma <= Q(n, 2):
        raise ValueError(f"gamma must lie in (0, n/2], got {gamma}")
    two_gamma = 2 * gamma
    if two_gamma.denominator != 1:
        raise ValueError("only integer 2*gamma multipliers are implemented")
    return rising(ell + Q(n, 2) - gamma, int(two_gamma))


def flat_multiplier(gamma, t):
    """t^(2*gamma) for the flat boundary; exact when 2*gamma is integral."""
    gamma = Q(gamma)
    two_gamma = 2 * gamma
    if two_gamma.denominator == 1:
        return t ** int(two_gamma)
    return float(t) ** float(two_gamma)


def multiplier(boundary: str, n: int, gamma, mode):
    """Dispatch on boundary kind: "round" takes a harmonic degree, "flat" a
    frequency.  gamma must lie in (0, n/2)."""
    gamma = Q(gamma)
    if not 0 < gamma < Q(n, 2):
        raise ValueError(f"gamma must lie in (0, n/2), got {gamma}")
    if boundary == "round":
        return round_multiplier(n, gamma, mode)
    if boundary == "flat":
        return flat_multiplier(gamma, mode)
    raise ValueError(f"unknown boundary {boundary!r}")


def d_gamma(gamma) -> Fraction:
    """Normalization 2^(2 gamma) Gamma(gamma)/Gamma(-gamma) at half-integers.

    Exact values: -1 at 1/2, 3 at 3/2, -45 at 5/2 (the sqrt(pi) factors of
    the half-integer Gamma values cancel in the ratio).
    """
    gamma = Q(gamma)
    table = {Q(1, 2): Q(-1), Q(3, 2): Q(3), Q(5, 2): Q(-45)}
    if gamma not in table:
        raise ValueError(f"d_gamma implemented for gamma in {{1/2, 3/2, 5/2}}, got {gamma}")
    return table[gamma]


# ---------------------------------------------------------------------------
# expansion coefficients of the Poisson operator
# ---------------------------------------------------------------------------

def _jbar(boundary: str, n: int) -> Fraction:
    return Q(n, 2) if boundary == "round" else Q(0)


def _pbar_norm_sq(boundary: str, n: int) -> Fraction:
    return Q(n, 4) if boundary == "round" else Q(0)


def L2_mode(s, n: int, boundary: str, mode) -> Fraction:
    """Per-mode value of -lapbar + s*Jbar."""
    s = Q(s)
    if boundary == "round":
        return sphere_eigenvalue(n, mode) + s * _jbar(boundary, n)
    return Q(mode) ** 2 if isinstance(mode, (int, Fraction)) else mode**2


def L4_mode(s, n: int, boundary: str, mode) -> Fraction:
    """Per-mode value of divbar((2 Pbar - Jbar gbar) dbar) + Jbar lapbar - s |Pbar|^2.

    On the round boundary 2 Pbar - Jbar gbar = (1 - n/2) gbar, so the whole
    operator is the scalar -(eigenvalue) - s n/4; on the flat boundary it
    vanishes.
    """
    s = Q(s)
    if boundary == "round":
        lam = sphere_eigenvalue(n, mode)
        return (Q(1) - Q(n, 2)) * (-lam) + _jbar(boundary, n) * (-lam) - s * _pbar_norm_sq(boundary, n)
    return Q(0)


class ScatteringPoleError(ValueError):
    pass


def scattering_T2(n: int, s, boundary: str, mode) -> Fraction:
    """Second-order expansion coefficient of the Poisson solution."""
    s = Q(s)
    if 2 * s - n - 2 == 0:
        raise ScatteringPoleError("pole at 2s = n + 2")
    return -L2_mode(n - s, n, boundary, mode) / (2 * (2 * s - n - 2))


def scattering_T4(n: int, s, boundary: str, mode) -> Fraction:
    """Fourth-order expansion coefficient of the Poisson solution."""
    s = Q(s)
    if 2 * s - n - 2 == 0:
        raise ScatteringPoleError("pole at 2s = n + 2")
    if 2 * s - n - 4 == 0:
        raise ScatteringPoleError("pole at 2s = n + 4")
    inner = L2_mode(n - s + 2, n, boundary, mode) * L2_mode(n - s, n, boundary, mode)
    inner = inner / (2 * s - n - 2) + L4_mode(n - s, n, boundary, mode)
    return inner / (8 * (2 * s - n - 4))


def scattering_T2_T4(n: int, s, boundary: str, mode):
    """Both expansion coefficients; raises ScatteringPoleError at the poles."""
    return scattering_T2(n, s, boundary, mode), scattering_T4(n, s, boundary, mode)


# ---------------------------------------------------------------------------
# Dirichlet-to-Neumann verification
# ---------------------------------------------------------------------------

class DtNIdentity(NamedTuple):
    """B_read u = front * P_(2 gamma) (data in ``slot``) for the extension u
    of that slot's data; slots 0, 1, 2 hold f, phi, psi."""

    front: Fraction
    slot: int
    read: int


# the one table of DtN identities, keyed by the odd order j = 2 gamma
DTN_IDENTITIES = {
    1: DtNIdentity(Q(3), 2, 3),
    3: DtNIdentity(Q(8), 1, 4),
    5: DtNIdentity(Q(8, 3), 0, 5),
}


@dataclass(frozen=True)
class DtNOperator:
    """Generalized Dirichlet-to-Neumann operator of odd order j: solve the
    extension problem with one nonzero Dirichlet slot and read the dual-slot
    boundary operator.  Realized as a per-mode multiplier table."""

    j: int  # 1, 3, or 5
    geom: ModelGeometry

    def multiplier_from_solve(self, ell: int):
        """Solve-then-apply route; exact on the ball and geodesic model."""
        from .boundary import apply_B
        from .solver import BoundaryTriple, mode_solve

        _, slot, read = DTN_IDENTITIES[self.j]
        data = [Q(0)] * 3
        data[slot] = Q(1)
        res = mode_solve(self.geom, ell, BoundaryTriple(*data))
        return apply_B(read, self.geom, res.mode)

    def multiplier_expected(self, ell: int) -> Fraction:
        return DTN_IDENTITIES[self.j].front * round_multiplier(self.geom.n, Q(self.j, 2), ell)


@dataclass(frozen=True)
class CheckRecord:
    name: str
    residual: float
    tolerance: float
    exact: bool

    @property
    def passed(self) -> bool:
        return passes(self.residual, self.tolerance, self.exact)


def dtn_verify_halfspace_symbolic():
    """The three identities on the general decaying triharmonic mode, as
    polynomial identities in the data coefficients and the frequency.

    Returns the list of residual polynomials (each must be zero):
    B3 - 3 t B2, B4 - 8 t^3 B1, B5 - (8/3) t^5 B0, in the order of
    ``DTN_IDENTITIES``.
    """
    from .boundary import apply_B
    from .geometry import halfspace
    from .polys import Poly
    from .solver import halfspace_symbolic_mode

    u = halfspace_symbolic_mode()
    g = halfspace(u.n)  # the identities are dimension-independent on the flat model
    B = [apply_B(j, g, u) for j in range(6)]
    t = Poly.var(4, 3)
    return [B[read] - front * t**j * B[slot] for j, (front, slot, read) in DTN_IDENTITIES.items()]


def dtn_verify(geom: ModelGeometry, n: int, mode, data=None, tol: float = 1e-8):
    """Verify the three Dirichlet-to-Neumann identities on one mode.

    On the half space the check is the symbolic polynomial identity; on the
    round-boundary models the extension with the given (possibly mixed)
    data is solved and the three identities checked directly.
    Returns a list of CheckRecord.  ``n`` must equal ``geom.n``.
    """
    _check_dimension(geom, n)
    if geom.kind is GeometryKind.UPPER_HALF_SPACE:
        res = dtn_verify_halfspace_symbolic()
        return [
            CheckRecord(f"dtn-halfspace-order-{j}", Q(0) if r.iszero() else Q(1), 0.0, True)
            for j, r in zip(DTN_IDENTITIES, res)
        ]
    from .boundary import apply_B
    from .solver import BoundaryTriple, mode_solve

    ell = mode if isinstance(mode, int) else mode.ell
    if data is None:
        data = (Q(1), Q(1), Q(1))
    res = mode_solve(geom, ell, BoundaryTriple(*data))
    achieved = res.achieved.aslist()
    out = []
    for j, (front, slot, read) in DTN_IDENTITIES.items():
        lhs = apply_B(read, geom, res.mode)
        rhs = front * round_multiplier(geom.n, Q(j, 2), ell) * achieved[slot]
        resid = lhs - rhs
        scale = max(abs(float(rhs)), 1.0)
        out.append(
            CheckRecord(
                f"dtn-{geom.kind.value}-order-{j}-ell-{ell}",
                resid if res.exact else abs(float(resid)) / scale,
                0.0 if res.exact else tol,
                res.exact,
            )
        )
    return out


def dtn_selfadjointness(geom: ModelGeometry, n: int, j: int, modes, tol: float = 1e-8):
    """Formal self-adjointness of the Dirichlet-to-Neumann operators.

    Per-mode multipliers are real (exact rationals); cross-degree pairings
    vanish by orthogonality, so symmetry reduces to the reality of the
    diagonal.  The solve-then-apply route must reproduce the multipliers.
    ``n`` must equal ``geom.n``.
    """
    _check_dimension(geom, n)
    op = DtNOperator(j, geom)
    out = []
    for ell in modes:
        got = op.multiplier_from_solve(ell)
        want = op.multiplier_expected(ell)
        if isinstance(got, Fraction):
            resid, exact = got - want, True
        else:
            resid, exact = abs(float(got) - float(want)) / max(abs(float(want)), 1.0), False
        out.append(
            CheckRecord(
                f"dtn-selfadjoint-{geom.kind.value}-j{j}-ell{ell}",
                resid,
                0.0 if exact else tol,
                exact,
            )
        )
    return out


def _check_dimension(geom: ModelGeometry, n: int):
    if n != geom.n:
        raise ValueError(f"dimension n = {n} differs from the geometry's n = {geom.n}")
