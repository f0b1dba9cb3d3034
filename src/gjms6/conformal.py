"""Conformal covariance machinery.

Finite covariance via truncated normal jets with tracked conformal-factor
weights, infinitesimal covariance via dual numbers, and the
critical-dimension shift law for the zeroth-order coefficients, all in
exact arithmetic.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .boundary import apply_B
from .confcalc import DualKit, HalfspaceConformalEngine, JetCtx
from .geometry import GeometryKind, ModelGeometry
from .polys import Poly

Q = Fraction

# normal jet truncation order of the critical shift law
SHIFT_JET_ORDER = 6


@dataclass(frozen=True)
class VariationProbe:
    """A conformal direction sigma; the boundary operators act on densities
    of weight (n-5)/2."""

    sigma: Poly


def _require_halfspace(geom: ModelGeometry):
    if geom.kind is not GeometryKind.UPPER_HALF_SPACE:
        raise ValueError("covariance residuals are implemented on the upper half space")


@functools.lru_cache(maxsize=None)
def _engine(n: int, sigma: Poly, order: int | None) -> HalfspaceConformalEngine:
    """The engine of e^(2 sigma) * flat on the half space, over dual numbers
    (``order`` None) or over normal jets of the given order.  It depends on
    neither the operator order j nor the field u, so it is built once per
    (n, sigma, ring) and shared, curvature record included, by every
    residual of that probe."""
    kit = DualKit(n, sigma) if order is None else JetCtx(n, sigma, order)
    return HalfspaceConformalEngine(kit)


def _covariance_difference(j: int, engine: HalfspaceConformalEngine, u: Poly, geom: ModelGeometry):
    """B_j[e^(2s) g](u) - e^(-(n+2j-5)/2 s) B_j[g](e^((n-5)/2 s) u) over the
    coefficient ring of ``engine``; the flat side is ``apply_B`` on ``geom``."""
    n, kit = geom.n, engine.kit
    v = kit.embed(u)
    lhs = engine.boundary_operator(j, v)
    return lhs - kit.exp_boundary(-Q(n + 2 * j - 5, 2)) * apply_B(j, geom, kit.exp_ambient(Q(n - 5, 2)) * v)


def infinitesimal_covariance_residual(j: int, probe: VariationProbe, u: Poly, geom: ModelGeometry) -> Poly:
    """First conformal variation of the covariance relation; the result is a
    boundary polynomial that must vanish identically.

    Computes d/dt at 0 of
        B_j[e^(2t sigma) g](u) - e^(-(n+2j-5)/2 t sigma) B_j[g](e^((n-5)/2 t sigma) u)
    with exact dual-number arithmetic.
    """
    _require_halfspace(geom)
    res = _covariance_difference(j, _engine(geom.n, probe.sigma, None), u, geom)
    if not res.a.iszero():
        raise AssertionError("zeroth-order part of a covariance residual must vanish")
    return res.b


def finite_covariance_residual(j: int, sigma: Poly, u: Poly, geom: ModelGeometry, order: int = 6):
    """Exact residual of the covariance relation for the finite conformal
    change e^(2 sigma) g, computed on normal jets of the given truncation
    order.  Returns a weighted boundary polynomial; zero iff covariant.

    Requires order >= j + 1; too shallow a truncation raises TruncationError
    through the jet bookkeeping.
    """
    _require_halfspace(geom)
    if order < j + 1:
        raise ValueError("jet truncation order must exceed the operator's normal order")
    return _covariance_difference(j, _engine(geom.n, sigma, order), u, geom)


def critical_T_shift(j: int, sigma: Poly, geom: ModelGeometry):
    """Critical-dimension shift law for the zeroth-order coefficient scalars:
    e^(j sigma) T_j[e^(2 sigma) g] - T_j[g] - B_j[g](sigma), which must vanish
    when n = 5.  Returns a weighted boundary polynomial."""
    _require_halfspace(geom)
    n = geom.n
    if n != 5:
        raise ValueError("the coefficient shift law is a critical-dimension (n = 5) statement")
    if not 1 <= j <= 5:
        raise ValueError("the shift law concerns j in 1..5")
    engine = _engine(n, sigma, SHIFT_JET_ORDER)
    ctx = engine.kit
    lhs = ctx.exp_boundary(j) * engine.t_scalar(j)
    bj_sigma = apply_B(j, geom, sigma)  # flat T_j vanishes on the half space
    return lhs - ctx.embed_boundary(bj_sigma)
