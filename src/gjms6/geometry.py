"""The four model geometries.

Each model is a compactification of hyperbolic space: flat upper half space,
the flat closed unit ball, the round upper hemisphere, and hyperbolic space
with its geodesic compactification over a round conformal infinity.  Their
boundary curvature scalars live in one table,
``boundary.model_curvature_inputs``.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass


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
