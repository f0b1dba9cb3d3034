"""Acceptance criteria.

Every criterion runs at its stated tolerance and announces one pass/fail
line on the real stdout (visible regardless of capture).  Exact criteria
use rational arithmetic and demand identically zero residuals.
"""

import random
import sys
import time
from fractions import Fraction as Q

import numpy as np
import pytest

from gjms6.boundary import apply_B
from gjms6.conformal import VariationProbe, critical_T_shift, finite_covariance_residual, infinitesimal_covariance_residual
from gjms6.energy import q6_form, symmetry_residual, trace_lower_bound_check
from gjms6.fractional import round_multiplier
from gjms6.geometry import ball, halfspace, hemisphere
from gjms6.gjms import apply_L6, q6_constant_curvature
from gjms6.polys import MomentScalar, Poly, random_poly
from gjms6.solver import BoundaryTriple, halfspace_symbolic_mode, hemisphere_factored_residual, hemisphere_mode_solve
from gjms6.traces import ExtremalSpec, corollary_check, critical_check


def announce(num: int, ok: bool, desc: str):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def test_criterion_1_dtn_identities_halfspace_symbolic():
    t0 = time.perf_counter()
    u = halfspace_symbolic_mode()
    g = halfspace(7)
    B = [apply_B(j, g, u) for j in range(6)]
    t = Poly.var(4, 3)
    residuals = [
        B[3] - 3 * t * B[2],
        B[4] - 8 * t**3 * B[1],
        B[5] - Q(8, 3) * t**5 * B[0],
    ]
    elapsed = time.perf_counter() - t0
    ok = all(r.iszero() for r in residuals) and elapsed < 1.0
    announce(1, ok, f"half-space DtN identities are zero polynomials in (a,b,c,t) [{elapsed:.3f}s]")


def test_criterion_2_energy_symmetry():
    t0 = time.perf_counter()
    rng = random.Random(20)
    g = ball(7)
    d = 8
    ok = True
    for _ in range(20):
        u = random_poly(rng, d, 5, 3)
        v = random_poly(rng, d, 5, 3)
        if not symmetry_residual(g, u, v).iszero():
            ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    announce(2, ok, f"energy form symmetric on 20 random degree-5 pairs, exact [{elapsed:.1f}s]")


def test_criterion_3_conformal_covariance():
    t0 = time.perf_counter()
    ok = True
    for n in (5, 7):
        rng = random.Random(300 + n)
        d = n + 1
        g = halfspace(n)
        for _ in range(50):
            probe = VariationProbe(random_poly(rng, d, 3, 2))
            u = random_poly(rng, d, 3, 2)
            for j in range(6):
                if not infinitesimal_covariance_residual(j, probe, u, g).iszero():
                    ok = False
        for _ in range(3):
            sigma = random_poly(rng, d, 2, 2, 2)
            u = random_poly(rng, d, 2, 2, 2)
            for j in range(6):
                if not finite_covariance_residual(j, sigma, u, g, order=6).iszero():
                    ok = False
    elapsed = time.perf_counter() - t0
    announce(3, ok, f"infinitesimal (50 probes x 6 ops x n in 5,7) and finite (order-6 jets) covariance residuals vanish exactly [{elapsed:.1f}s]")


def test_criterion_4_einstein_factorization():
    ok = q6_constant_curvature(6) == 120
    ok = ok and apply_L6(hemisphere(7), Q(1)) == 720
    for n in range(6, 13):
        ok = ok and apply_L6(hemisphere(n), Q(1)) == Q(n - 5, 2) * q6_constant_curvature(n + 1)
    announce(4, ok, "factorized operator on constants matches the constant-curvature Q-value, 6 <= n <= 12, exact")


def test_criterion_5_ball_cross_route_energy():
    n = 7
    d = 8
    x1 = Poly.var(d, 0)
    exact_route = q6_form(ball(n), x1, x1).total
    # multiplier route: boundary data of x1 is (1, 2, 8) at degree one, so
    # the energy is [(8/3) P5(1) * 1^2 + 8 P3(1) * 2^2 + 3 P1(1) * 8^2] times
    # the boundary integral of the degree-one harmonic, Vol(S^7)/8
    mult = (
        Q(8, 3) * round_multiplier(n, Q(5, 2), 1)
        + 8 * round_multiplier(n, Q(3, 2), 1) * 4
        + 3 * round_multiplier(n, Q(1, 2), 1) * 64
    )
    mult_route = MomentScalar(mult * Q(1, 8), "vol_sn", n)
    ok = exact_route == mult_route == MomentScalar(Q(576), "vol_sn", n)
    announce(5, ok, "energy of the coordinate function on the ball: 576 Vol(S^7) by exact integration and by the multiplier route")


def test_criterion_6_sharp_sobolev_equality():
    n = 7
    ok = True
    details = []
    # centered bubbles: equality holds through the Gamma-ratio identity;
    # verified exactly in rationals and through the numeric pipeline
    for gamma, front in ((Q(5, 2), Q(8, 3)), (Q(3, 2), Q(8)), (Q(1, 2), Q(3))):
        from gjms6.traces import sharp_constant

        c = sharp_constant(n, gamma)
        ok = ok and c.ratio == round_multiplier(n, gamma, 0)
    t0 = time.perf_counter()
    for geom in (ball(n), hemisphere(n), halfspace(n)):
        t1 = time.perf_counter()
        if geom.kind.value == "halfspace":
            centered = [ExtremalSpec.from_flat("power", 1.0, [0.0] * n, n) for _ in range(3)]
        else:
            centered = [ExtremalSpec("power", (0.0,) * (n + 1), 1.0) for _ in range(3)]
        rep = corollary_check(geom, centered, lmax=32)
        ok = ok and abs(rep.relative_gap) <= 1e-6
        offc = [
            ExtremalSpec("power", tuple([0.3] + [0.0] * n), 1.0),
            ExtremalSpec("power", tuple([0.0, 0.25] + [0.0] * (n - 1)), 0.7),
            ExtremalSpec("power", tuple([0.1, -0.2] + [0.0] * (n - 1)), 1.3),
        ]
        rep = corollary_check(geom, offc, lmax=32)
        ok = ok and abs(rep.relative_gap) <= 1e-6
        per_geom = time.perf_counter() - t1
        ok = ok and per_geom < 60.0
        details.append(f"{geom.kind.value} {per_geom:.1f}s")
    rng = np.random.default_rng(42)
    for _ in range(20):
        coeffs = [rng.normal(size=6) * 0.5 ** np.arange(6) for _ in range(3)]
        rep = corollary_check(ball(n), coeffs, lmax=32)
        ok = ok and rep.gap > 0
    announce(6, ok, "sharp trace equality on extremal families (|relative gap| <= 1e-6) and strict positivity on 20 random inputs [" + ", ".join(details) + "]")


def test_criterion_7_critical_lebedev_milin():
    n = 5
    specs = [
        ExtremalSpec("log", tuple([0.3] + [0.0] * n), 0.4),
        ExtremalSpec("power", tuple([0.0, 0.25] + [0.0] * (n - 1)), 0.7),
        ExtremalSpec("power", tuple([0.1, -0.2] + [0.0] * (n - 1)), 1.3),
    ]
    ok = True
    for geom in (ball(n), hemisphere(n), halfspace(n)):
        rep = critical_check(geom, specs, lmax=32)
        ok = ok and abs(rep.gap) <= 1e-5
    sol = hemisphere_mode_solve(n, 1, BoundaryTriple(0.2, 0.5, 0.3))
    resid = hemisphere_factored_residual(sol.profile, np.linspace(0.3, 1.5, 7))
    ok = ok and resid <= 1e-8
    announce(7, ok, f"critical equality on (log-bubble, bubble, bubble) triples (|gap| <= 1e-5); factorized-equation residual {resid:.2e} <= 1e-8")


def test_criterion_8_energy_lower_bound():
    rep = trace_lower_bound_check(
        7,
        [(0, (1, 2, 3)), (1, (2, -1, 1)), (2, (1, 0, -1)), (4, (0, 3, 1))],
        num_perturbations=100,
        seed=8,
    )
    ok = rep.gaps_positive and rep.min_gap > -1e-10
    ok = ok and rep.match_error <= 1e-8
    announce(8, ok, f"100 zero-data perturbations increase the energy (min gap {rep.min_gap:.3e}); energy matches the multiplier pairing (error {rep.match_error:.1e})")


def test_criterion_9_critical_coefficient_shift():
    rng = random.Random(9)
    d = 6
    g = halfspace(5)
    ok = True
    for _ in range(3):
        sigma = random_poly(rng, d, 2, 2, 2)
        for j in range(1, 6):
            if not critical_T_shift(j, sigma, g).iszero():
                ok = False
    announce(9, ok, "critical-dimension coefficient shift law exact for polynomial conformal factors, j = 1..5")
