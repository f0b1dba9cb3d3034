"""The four model geometries and their one curvature table,
``boundary.model_curvature_inputs``, tied to the collar table
``reps.collar_coefficients``."""

from fractions import Fraction as Q

import pytest

from gjms6.boundary import CurvatureInputs, model_curvature_inputs
from gjms6.geometry import GeometryKind, ball, halfspace, hemisphere, hyperbolic_geodesic
from gjms6.reps import collar_coefficients
from gjms6.series import series_inverse


def test_dimension_guard():
    with pytest.raises(ValueError):
        halfspace(4)


def _expected_fields(kind, n):
    """The closed-form curvature scalars, written out per model."""
    fields = dict.fromkeys(CurvatureInputs.__slots__, 0)
    if kind is GeometryKind.UPPER_HALF_SPACE:
        return fields
    # round boundary: Pbar = gbar/2
    fields.update(Jb=Q(n, 2), Pbar2=Q(n, 4))
    if kind is GeometryKind.EUCLIDEAN_BALL:
        fields["H"] = n
    elif kind is GeometryKind.ROUND_HEMISPHERE:
        # interior Schouten g/2 of the round sphere
        fields["Pnn"] = Q(1, 2)
    else:
        # Delta J and Hess J(eta, eta) restrict to |Pbar|^2 = n/4
        fields.update(lapJ=Q(n, 4), hessJnn=Q(n, 4))
    return fields


@pytest.mark.parametrize("n", range(5, 13))
@pytest.mark.parametrize("model", [halfspace, ball, hemisphere, hyperbolic_geodesic])
def test_model_curvature_table(model, n):
    geom = model(n)
    C = model_curvature_inputs(geom)
    got = {name: getattr(C, name) for name in CurvatureInputs.__slots__}
    assert got == _expected_fields(geom.kind, n)
    assert all(isinstance(v, Q) for v in got.values())
    # trace identity J = Jbar + P(eta, eta) - H^2/(2n) against the ambient
    # Schouten trace: flat interior, round sphere g/2, and J = Jbar
    ambient_J = {GeometryKind.UPPER_HALF_SPACE: 0, GeometryKind.EUCLIDEAN_BALL: 0,
                 GeometryKind.ROUND_HEMISPHERE: Q(n + 1, 2),
                 GeometryKind.HYPERBOLIC_GEODESIC: Q(n, 2)}
    assert C.Jb + C.Pnn - C.H**2 / (2 * n) == ambient_J[geom.kind]

    # the same geometry read off the collar Laplacian of the model
    A, B, _, cPbar = collar_coefficients(geom.kind, n, 4)
    assert C.H == A.value()
    assert C.Jb == n * cPbar
    assert C.Pbar2 == n * cPbar**2


@pytest.mark.parametrize("n", range(5, 13))
def test_hyperbolic_expansion_identities(n):
    # h_r = (1/B) h = h - Pbar r^2 + (|Pbar|^2 / (4n)) h r^4 on the collar
    # of the geodesic model, with Pbar = gbar/2
    C = model_curvature_inputs(hyperbolic_geodesic(n))
    _, B, _, cPbar = collar_coefficients(GeometryKind.HYPERBOLIC_GEODESIC, n, 4)
    assert cPbar == Q(1, 2)
    h = series_inverse(B)
    assert h.coeffs[:5] == [1, 0, -cPbar, 0, C.Pbar2 / (4 * n)]
    assert n * h.coeffs[4] == Q(n, 16)


def test_geodesic_invariants():
    n = 7
    C = model_curvature_inputs(hyperbolic_geodesic(n))
    # totally geodesic boundary with no normal derivative of J
    assert C.H == 0 and C.Pnn == 0 and C.etaJ == 0 and C.etaLapJ == 0
    # round infinity: Delta J and Hess J(eta, eta) restrict to |Pbar|^2
    assert C.lapJ == C.hessJnn == C.Pbar2 == Q(n, 4)
