"""Covariance residuals, the critical shift law, jets, Moebius transport."""

import random
from fractions import Fraction as Q

import numpy as np
import pytest

from gjms6.conformal import (
    VariationProbe,
    cayley_transport_function,
    conformal_factor_flat,
    critical_T_shift,
    finite_covariance_residual,
    flat_bubble_params,
    infinitesimal_covariance_residual,
    normalize_jet,
    round_bubble_center,
    sphere_to_stereo,
    stereo_to_sphere,
)
from gjms6.geometry import ball, halfspace, hemisphere, hyperbolic_geodesic
from gjms6.polys import Poly, random_poly
from gjms6.series import TruncationError


def test_infinitesimal_trivial_weight_zero_order():
    n = 7
    d = n + 1
    sigma = Poly.var(d, 0) * Poly.var(d, d - 1)
    u = Poly.var(d, 1, 2)
    r = infinitesimal_covariance_residual(0, VariationProbe(sigma), u, halfspace(n))
    assert r.iszero()


def test_infinitesimal_spec_examples():
    n = 7
    d = n + 1
    y = Poly.var(d, d - 1)
    # j = 1, sigma = y, u = 1: the normal-derivative and mean-curvature
    # variations cancel
    r = infinitesimal_covariance_residual(1, VariationProbe(y), Poly.const(d, 1), halfspace(n))
    assert r.iszero()
    # j = 3, sigma = x1*y, u = y
    r = infinitesimal_covariance_residual(3, VariationProbe(Poly.var(d, 0) * y), y, halfspace(n))
    assert r.iszero()


@pytest.mark.parametrize("n", [5, 7])
def test_infinitesimal_random_sweep(n):
    rng = random.Random(101 + n)
    d = n + 1
    g = halfspace(n)
    for _ in range(4):
        probe = VariationProbe(random_poly(rng, d, 3, 2))
        u = random_poly(rng, d, 3, 2)
        for j in range(6):
            assert infinitesimal_covariance_residual(j, probe, u, g).iszero()


def test_infinitesimal_rejects_wrong_weight_and_geometry():
    n = 7
    d = n + 1
    with pytest.raises(ValueError):
        infinitesimal_covariance_residual(
            1, VariationProbe(Poly.var(d, 0), w=Q(3)), Poly.const(d, 1), halfspace(n)
        )
    with pytest.raises(ValueError):
        infinitesimal_covariance_residual(
            1, VariationProbe(Poly.zero(d)), Poly.const(d, 1), ball(n)
        )


def test_finite_trivial_and_examples():
    n = 7
    d = n + 1
    y = Poly.var(d, d - 1)
    g = halfspace(n)
    assert finite_covariance_residual(2, Poly.zero(d), Poly.var(d, 0, 2), g).iszero()
    assert finite_covariance_residual(2, y, Poly.var(d, 0, 2), g).iszero()
    assert finite_covariance_residual(5, y**2, Poly.const(d, 1), g).iszero()


@pytest.mark.parametrize("n", [5, 7])
def test_finite_random_order6(n):
    rng = random.Random(7 + n)
    d = n + 1
    g = halfspace(n)
    for _ in range(2):
        sigma = random_poly(rng, d, 2, 2, 2)
        u = random_poly(rng, d, 2, 2, 2)
        for j in range(6):
            assert finite_covariance_residual(j, sigma, u, g, order=6).iszero()


def test_finite_B4_second_order_in_sigma():
    """sigma = x2*y and u = x0*x2 at n = 5: an error of B4 quadratic in the
    conformal factor, which neither the infinitesimal check nor the ball
    (constant H) can see, would leave a residual here."""
    n = 5
    d = n + 1
    sigma = Poly.var(d, 2) * Poly.var(d, d - 1)
    u = Poly.var(d, 0) * Poly.var(d, 2)
    for order in (6, 7, 8):
        assert finite_covariance_residual(4, sigma, u, halfspace(n), order=order).iszero()


@pytest.mark.parametrize("n, seed", [(5, 18), (5, 20), (7, 6), (7, 34)])
def test_finite_B4_on_cli_probes(n, seed):
    """The finite probes of ``gjms6 covariance --n N --seed S``, drawn in the
    CLI's order: two polynomials for each of the 12 infinitesimal probes,
    then two for each of the 3 finite ones."""
    rng = random.Random(seed)
    d = n + 1
    for _ in range(2 * 12):
        random_poly(rng, d, 3, 2)
    for _ in range(3):
        sigma = random_poly(rng, d, 2, 2, 2)
        u = random_poly(rng, d, 2, 2, 2)
        assert finite_covariance_residual(4, sigma, u, halfspace(n), order=6).iszero()


def test_finite_truncation_guard():
    n = 7
    d = n + 1
    y = Poly.var(d, d - 1)
    with pytest.raises((ValueError, TruncationError)):
        finite_covariance_residual(5, y, Poly.const(d, 1), halfspace(n), order=3)


def test_critical_shift_examples():
    d = 6
    g = halfspace(5)
    y = Poly.var(d, d - 1)
    assert critical_T_shift(1, Poly.zero(d), g).iszero()
    # sigma = y: e^sigma T1-hat = (H-hat e^sigma)/5 = eta sigma = -1 and
    # B1(sigma) = eta sigma = -1
    assert critical_T_shift(1, y, g).iszero()
    assert critical_T_shift(2, y**2, g).iszero()
    with pytest.raises(ValueError):
        critical_T_shift(1, y, halfspace(7))


def test_critical_shift_random():
    rng = random.Random(5)
    d = 6
    g = halfspace(5)
    for _ in range(2):
        sigma = random_poly(rng, d, 2, 2, 2)
        for j in range(1, 6):
            assert critical_T_shift(j, sigma, g).iszero()


def test_normalize_jet_models():
    jet = normalize_jet(halfspace(7))
    assert jet.coeffs == [1, 0, 0, 0, 0, 0]
    jet = normalize_jet(ball(7))
    assert jet.coeffs[0] == 1 and jet.coeffs[1] == -1
    jet = normalize_jet(hyperbolic_geodesic(7))
    assert jet.coeffs[2] != 0
    # critical dimension: solve T_j + B_j(u) = 0 with zero boundary value
    jet5 = normalize_jet(ball(5))
    assert jet5.coeffs[0] == 0 and jet5.coeffs[1] == -1


def test_normalize_jet_annihilates():
    """Substituting the jet back annihilates the higher boundary operators."""
    from gjms6.boundary import apply_B
    from gjms6.reps import SeparatedMode, collar_coefficients

    for geom in (ball(7), hemisphere(8), hyperbolic_geodesic(9)):
        n = geom.n
        jet = normalize_jet(geom)
        _, _, sgn, _ = collar_coefficients(geom.kind, n, 2)
        derivs = [sgn**k * jet.coeffs[k] for k in range(6)] + [Q(0), Q(0)]
        mode = SeparatedMode.from_derivs(n, 0, derivs, 7)
        assert apply_B(0, geom, mode) == 1
        for j in range(1, 6):
            assert apply_B(j, geom, mode) == 0, (geom.kind, j)


def test_cayley_constant_transport():
    n = 7
    f_flat = cayley_transport_function(lambda X: 1.0, Q(n - 5, 2), to="flat")
    x = np.array([0.3, -0.2, 0.1, 0.0, 0.0, 0.5, 0.0])
    want = conformal_factor_flat(x) ** 1.0
    assert abs(f_flat(x) - want) < 1e-14


def test_cayley_probability_measure():
    # the round probability measure corresponds to the flat density
    # (1/Vol(S^5)) ((1+|x|^2)/2)^(-5): transporting the constant density of
    # weight n reproduces the Jacobian factor
    n = 5
    dens = cayley_transport_function(lambda X: 1.0, Q(n), to="flat")
    x = np.array([0.7, 0.1, 0.0, -0.3, 0.2])
    want = ((1 + float(np.dot(x, x))) / 2.0) ** (-5)
    assert abs(dens(x) - want) < 1e-14


def test_cayley_involution():
    n = 7
    rng = np.random.default_rng(3)

    def f_round(X):
        return 1.0 / (1.5 + X[0] + 0.2 * X[1])

    w = Q(n - 3, 2)
    f_flat = cayley_transport_function(f_round, w, to="flat")
    f_back = cayley_transport_function(f_flat, w, to="round")
    for _ in range(5):
        X = rng.normal(size=n + 1)
        X /= np.linalg.norm(X)
        if X[-1] < -0.9:
            continue
        assert abs(f_back(X) - f_round(X)) < 1e-12


def test_bubble_parameter_roundtrip():
    n = 7
    rng = np.random.default_rng(1)
    x0 = rng.normal(size=n) * 0.2
    eps = 0.8
    xi = round_bubble_center(eps, x0, n)
    assert np.linalg.norm(xi) < 1.0
    m, eps2, x02 = flat_bubble_params(xi)
    assert abs(eps2 - eps) < 1e-12
    assert np.allclose(x02, x0)
    # the transported round bubble is exactly the flat bubble
    w = Q(n - 5, 2)
    f_round = lambda X: float((1.0 + float(np.dot(X, xi))) ** (-float(w)))
    f_flat = cayley_transport_function(f_round, w, to="flat")
    x = rng.normal(size=n) * 0.5
    amp = (1 + eps + float(np.dot(x0, x0))) ** float(w)
    want = amp * (eps + float(np.dot(x - x0, x - x0))) ** (-float(w))
    assert abs(f_flat(x) - want) < 1e-12


def test_stereo_roundtrip():
    x = np.array([0.2, -0.4, 0.1, 0.0, 0.7])
    X = stereo_to_sphere(x)
    assert abs(np.linalg.norm(X) - 1) < 1e-14
    assert np.allclose(sphere_to_stereo(X), x)
