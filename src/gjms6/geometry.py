"""The four model geometries.

Each model is a compactification of hyperbolic space: flat upper half space,
the flat closed unit ball, the round upper hemisphere, and hyperbolic space
with its geodesic compactification over a round conformal infinity.  Their
boundary curvature scalars live in one table,
``boundary.model_curvature_inputs``.  The two fixed quadrature rules and
the under-resolved error of the trace checks are defined here too, so that
the command line can bound ``--lmax``, name the hemisphere rule in its report
config and report such data without loading the float layer (``traces``,
numpy).
"""
from __future__ import annotations

import enum
from dataclasses import dataclass


# Gauss-Legendre nodes of the zonal grids of ``traces``; the trace checks
# resolve degrees up to ZONAL_NODES // 2 on them.
ZONAL_NODES = 256

# Gauss-Legendre nodes of the hemisphere interior quadrature of ``traces``.
# Measured against the ZONAL_NODES-node rule, the per-degree Gram matrices
# agree within 9e-12 of their largest entry for n = 5..9 and within 1e-10
# up to n = 24, at every degree up to the --lmax cap of 128; at 32 nodes
# they are off by up to 3e-4 at l = 96.
HEMISPHERE_NODES = 64


class UnderResolvedError(ValueError):
    """Boundary data whose zonal tail exceeds ``traces.TAIL_GUARD`` at the
    chosen lmax: a configuration that cannot be checked, not a failed check."""


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


def halfspace(n: int) -> ModelGeometry:
    return ModelGeometry(GeometryKind.UPPER_HALF_SPACE, n)


def ball(n: int) -> ModelGeometry:
    return ModelGeometry(GeometryKind.EUCLIDEAN_BALL, n)


def hemisphere(n: int) -> ModelGeometry:
    return ModelGeometry(GeometryKind.ROUND_HEMISPHERE, n)


def hyperbolic_geodesic(n: int) -> ModelGeometry:
    return ModelGeometry(GeometryKind.HYPERBOLIC_GEODESIC, n)
