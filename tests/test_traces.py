"""Sharp trace inequalities: constants, equality families, positivity."""

import math
import subprocess
import sys
from fractions import Fraction as Q

import mpmath as mp
import numpy as np
import pytest

from gjms6.fractional import DTN_IDENTITIES, round_multiplier, sphere_eigenvalue
from gjms6.geometry import HEMISPHERE_NODES, ball, halfspace, hemisphere, hyperbolic_geodesic
from gjms6.polys import vol_sphere
from gjms6.reps import radial_pair_integral
from gjms6.solver import BoundaryTriple, kernel_values, mode_solve
from gjms6.traces import (
    CriticalExponentError,
    ExtremalSpec,
    TraceChecker,
    SLOT_GAMMAS,
    ZONAL_NODES,
    UnderResolvedError,
    ZonalGrid,
    corollary_check,
    critical_check,
    display_terms,
    gauss_legendre,
    hemisphere_interior_coeffs,
    interior_grams,
    sharp_constant,
    sphere_sobolev_check,
    zonal_grid,
)


def test_sharp_constant_values():
    c = sharp_constant(7, Q(1, 2))
    assert c.ratio == 3 and c.vol_exponent == Q(1, 7)
    assert abs(c.value() - 3 * vol_sphere(7) ** (1 / 7)) < 1e-14
    assert abs(vol_sphere(7) - np.pi**4 / 3) < 1e-12
    c = sharp_constant(7, Q(5, 2))
    assert c.ratio == 120 and c.vol_exponent == Q(5, 7)
    with pytest.raises(CriticalExponentError):
        sharp_constant(5, Q(5, 2))


def test_sobolev_constant_equality_is_exact():
    rep = sphere_sobolev_check(7, Q(5, 2), lambda t: np.ones_like(t))
    assert abs(rep.relative_gap) < 1e-12


def test_sobolev_bubble_equality():
    # w = (1 + x.x0)^(-(n-2 gamma)/2) with gamma = 5/2, n = 7: exponent -1
    rep = sphere_sobolev_check(7, Q(5, 2), lambda t: (1 + 0.5 * t) ** (-1.0))
    assert abs(rep.relative_gap) <= 1e-6


def test_sobolev_strict_inequality():
    rng = np.random.default_rng(8)
    grid = ZonalGrid(7, 32)
    coeffs = rng.normal(size=8) * 0.5 ** np.arange(8)
    vals = coeffs @ grid.C[:8]
    rep = sphere_sobolev_check(7, Q(5, 2), vals)
    assert rep.gap > 0


def test_sobolev_resolution_guard():
    with pytest.raises(ValueError):
        sphere_sobolev_check(7, Q(5, 2), lambda t: (1 + 0.999 * t) ** (-1.0), lmax=8)


def test_non_finite_data_fail_the_resolution_guard():
    """A NaN coefficient has no tail fraction to compare with TAIL_GUARD; the
    guard raises a plain ValueError (more degrees cannot resolve it) instead
    of returning an all-NaN report."""
    vals = np.ones(ZONAL_NODES)
    vals[3] = np.nan
    for run in (
        lambda: corollary_check(ball(7), [[1.0, np.nan], [0.5], [0.2]], lmax=8),
        lambda: critical_check(hemisphere(5), [[1.0], [0.5, np.nan], [0.2]], lmax=8),
        lambda: sphere_sobolev_check(7, Q(5, 2), vals),
    ):
        with pytest.raises(ValueError, match="not finite") as exc:
            run()
        assert not isinstance(exc.value, UnderResolvedError)


def centered_specs(n):
    return [ExtremalSpec("power", (0.0,) * (n + 1), 1.0) for _ in range(3)]


def offcenter_specs(n):
    return [
        ExtremalSpec("power", tuple([0.3] + [0.0] * n), 1.0),
        ExtremalSpec("power", tuple([0.0, 0.25] + [0.0] * (n - 1)), 0.7),
        ExtremalSpec("power", tuple([0.1, -0.2] + [0.0] * (n - 1)), 1.3),
    ]


def test_ball_centered_equality():
    rep = corollary_check(ball(7), centered_specs(7))
    assert abs(rep.relative_gap) <= 1e-12


def test_ball_offcenter_equality():
    rep = corollary_check(ball(7), offcenter_specs(7))
    assert abs(rep.relative_gap) <= 1e-6


def test_hemisphere_equality_and_stereographic_agreement():
    specs = offcenter_specs(7)
    rb = corollary_check(ball(7), specs)
    rh = corollary_check(hemisphere(7), specs)
    assert abs(rh.relative_gap) <= 1e-6
    # the two models are related by stereographic projection fixing the
    # boundary data, so the sides agree
    assert abs(rb.lhs - rh.lhs) <= 1e-8 * max(1.0, abs(rb.lhs))
    assert abs(rb.gap - rh.gap) <= 1e-7 * max(1.0, abs(rb.lhs))


def test_upper_halfspace_transport():
    n = 7
    specs = [
        ExtremalSpec.from_flat("power", 1.0, [0.0] * n, n),
        ExtremalSpec.from_flat("power", 1.5, [0.1] + [0.0] * (n - 1), n, 0.8),
        ExtremalSpec.from_flat("power", 0.7, [-0.1, 0.1] + [0.0] * (n - 2), n, 1.2),
    ]
    rep = corollary_check(halfspace(n), specs)
    assert abs(rep.relative_gap) <= 1e-6


def flat_bubble_lp_norm(n, eps, weight, p, amplitude):
    """L^p norm over R^n of amplitude*(eps + |x - x0|^2)^(-weight), exact in
    the center by translation invariance; 256-point radial quadrature via
    rho = sqrt(eps) tan(phi)."""
    x, w = np.polynomial.legendre.leggauss(256)
    phi = (x + 1.0) * (math.pi / 4)
    wphi = w * (math.pi / 4)
    rho = math.sqrt(eps) * np.tan(phi)
    drho = math.sqrt(eps) / np.cos(phi) ** 2
    integrand = np.abs(amplitude) ** p * (eps + rho**2) ** (-float(weight) * p) * rho ** (n - 1) * drho
    return (vol_sphere(n - 1) * float(np.sum(wphi * integrand))) ** (1.0 / p)


def test_flat_lp_norm_matches_round():
    """Conformal invariance of the critical Lebesgue norms under transport."""
    n = 7
    gamma = Q(5, 2)
    w = Q(n, 2) - gamma  # exponent of the bubble for this slot
    eps, x0 = 1.3, np.array([0.2, -0.1] + [0.0] * (n - 2))
    spec = ExtremalSpec.from_flat("power", eps, x0, n)
    grid = ZonalGrid(n, 32)
    vals = spec.values(grid.t, w)
    p = 2.0 * n / float(n - 2 * gamma)
    round_norm = grid.lp_norm(vals, p)
    amp = (1 + eps + float(np.dot(x0, x0))) ** float(w)
    flat_norm = flat_bubble_lp_norm(n, eps, w, p, amp)
    assert abs(round_norm - flat_norm) <= 1e-9 * flat_norm


def test_gegenbauer_tables_match_the_row_loop():
    """The one Gegenbauer recurrence gives the zonal table and the angle
    factors bit for bit as the row-by-row loop does."""
    n, lmax = 7, 16
    grid = ZonalGrid(n, lmax)
    alpha = (n - 1) / 2.0
    C = np.zeros((lmax + 1, ZONAL_NODES))
    C[0] = 1.0
    C[1] = 2.0 * alpha * grid.t
    for ell in range(2, lmax + 1):
        C[ell] = (2.0 * (ell + alpha - 1) * grid.t * C[ell - 1] - (ell + 2 * alpha - 2) * C[ell - 2]) / ell
    assert np.array_equal(grid.C, C)
    for k in (0, 17, ZONAL_NODES - 1):
        assert grid.angle_factors(float(grid.t[k])) == list(C[:, k] / grid.C1)


def test_stacked_expansion_matches_the_degree_loop():
    """The norms and the expansion as one reduction over the Gegenbauer
    table give, bit for bit, the per-degree sums they replaced."""
    rng = np.random.default_rng(4)
    for n in range(5, 10):
        for lmax in (4, 16, 32, 128):
            grid = ZonalGrid(n, lmax)
            norms = [grid.vol_minor * float(np.sum(grid.wq * grid.C[ell] ** 2)) for ell in range(lmax + 1)]
            assert grid.norms.tobytes() == np.array(norms).tobytes(), (n, lmax)
            for f in (rng.standard_normal(ZONAL_NODES), (1.0 + 0.4 * grid.t) ** -1.5):
                want = [grid.vol_minor * float(np.sum(grid.wq * grid.C[ell] * f)) / grid.norms[ell]
                        for ell in range(lmax + 1)]
                assert grid.expand(f).tobytes() == np.array(want).tobytes(), (n, lmax)


def test_gauss_legendre_rule_is_shared_by_node_count(monkeypatch):
    """One read-only rule per node count, bit for bit numpy's, serves the
    zonal grids of every dimension."""
    x, w = gauss_legendre(48)
    rx, rw = np.polynomial.legendre.leggauss(48)
    assert x.tobytes() == rx.tobytes() and w.tobytes() == rw.tobytes()
    with pytest.raises(ValueError):
        x[0] = 0.0
    with pytest.raises(ValueError):
        w[0] = 0.0

    calls = []
    leggauss = np.polynomial.legendre.leggauss
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", lambda *args: calls.append(args) or leggauss(*args))
    gauss_legendre.cache_clear()
    first = ZonalGrid(5, 8)
    assert calls == [(ZONAL_NODES,)]
    second = ZonalGrid(9, 8)
    assert calls == [(ZONAL_NODES,)]
    assert first.theta.tobytes() == second.theta.tobytes()


def test_legendre_module_loads_with_the_package():
    """numpy.polynomial.legendre is imported with gjms6.traces, so the first
    Gauss-Legendre rule of a run does not pay for loading it."""
    code = "import sys\nimport gjms6.traces\nprint('numpy.polynomial.legendre' in sys.modules)\n"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "True"


def test_zonal_norms_match_the_closed_form_up_to_the_cli_cap():
    """The quadrature norms of the Gegenbauer table equal
    vol(S^(n-1)) pi 2^(1-2a) Gamma(l+2a) / (l! (l+a) Gamma(a)^2), a = (n-1)/2,
    within 1e-12 up to l = ZONAL_NODES // 2, the largest --lmax that the
    CLI's trace checks accept; above about l = 138 they do not."""
    mp.mp.dps = 30
    lmax = ZONAL_NODES // 2
    for n in range(5, 10):
        grid = ZonalGrid(n, lmax)
        a = mp.mpf(n - 1) / 2
        vol_minor = 2 * mp.pi ** (mp.mpf(n) / 2) / mp.gamma(mp.mpf(n) / 2)
        for ell in range(lmax + 1):
            want = (vol_minor * mp.pi * mp.mpf(2) ** (1 - 2 * a) * mp.gamma(ell + 2 * a)
                    / (mp.factorial(ell) * (ell + a) * mp.gamma(a) ** 2))
            assert abs(grid.norms[ell] - want) <= 1e-12 * want, (n, ell)


def test_zonal_grid_is_built_once_per_key(monkeypatch):
    builds = []
    init = ZonalGrid.__init__

    def counting(self, *args, **kw):
        builds.append(args)
        init(self, *args, **kw)

    monkeypatch.setattr(ZonalGrid, "__init__", counting)
    zonal_grid.cache_clear()
    coeffs = [[1.0, 0.3, 0.1], [0.5, 0.2], [0.4, 0.1, 0.05]]
    first = corollary_check(ball(7), coeffs, lmax=8)
    second = corollary_check(ball(7), coeffs, lmax=8)
    assert first == second
    assert len(builds) == 1
    grid = zonal_grid(7, 8)
    with pytest.raises(ValueError):
        grid.C[0, 0] = 0.0
    with pytest.raises(ValueError):
        grid.norms[0] = 0.0


def test_random_data_strictly_positive():
    rng = np.random.default_rng(123)
    for _ in range(3):
        coeffs = [rng.normal(size=6) * 0.5 ** np.arange(6) for _ in range(3)]
        rep = corollary_check(ball(7), coeffs)
        assert rep.gap > 0


def test_amplitude_scaling_law():
    """Both sides are homogeneous of degree two in a common amplitude."""
    n = 7
    specs = offcenter_specs(n)
    rep1 = corollary_check(ball(n), specs)
    scaled = [ExtremalSpec(s.kind, s.center, 3.0 * s.amplitude) for s in specs]
    rep2 = corollary_check(ball(n), scaled)
    assert abs(rep2.lhs - 9 * rep1.lhs) <= 1e-10 * abs(rep2.lhs)
    assert abs(rep2.rhs - 9 * rep1.rhs) <= 1e-10 * abs(rep2.rhs)


def test_zero_data_lower_bound():
    # vanishing boundary data: the right side vanishes, the left is the
    # nonnegative interior energy
    rep = corollary_check(ball(7), [np.zeros(3), np.zeros(3), np.zeros(3)])
    assert rep.rhs == 0 and rep.lhs == 0


def test_monotone_gap_under_zero_data_perturbation():
    """Adding interior zero-data modes to the extremal extension strictly
    increases the displayed left side (exact rational computation)."""
    from gjms6.energy import mode_energy_pairing, zero_data_profile
    from gjms6.reps import radial_pair_integral
    from gjms6.solver import BoundaryTriple, ball_mode_solve

    n = 7
    u0 = ball_mode_solve(n, 1, BoundaryTriple(Q(1), Q(0), Q(0))).profile
    for m in range(3):
        v = zero_data_profile(n, 1, m)
        increase = (
            2 * radial_pair_integral(u0.lap(), v.lap())
            + radial_pair_integral(v.lap(), v.lap())
        )
        # the display's boundary block is data-only, so the gap moves by the
        # interior increase, which must be positive
        assert increase > 0


def test_critical_checks():
    n = 5
    specs = [
        ExtremalSpec("log", tuple([0.3] + [0.0] * n), 0.4),
        ExtremalSpec("power", tuple([0.0, 0.25] + [0.0] * (n - 1)), 0.7),
        ExtremalSpec("power", tuple([0.1, -0.2] + [0.0] * (n - 1)), 1.3),
    ]
    rb = critical_check(ball(n), specs)
    assert abs(rb.gap) <= 1e-5
    rh = critical_check(hemisphere(n), specs)
    assert abs(rh.gap) <= 1e-5
    ru = critical_check(halfspace(n), specs)
    assert abs(ru.gap) <= 1e-5


def test_critical_constant_data_trivial():
    n = 5
    checker = TraceChecker(ball(n))
    slots = checker.slots_from_coeffs([[1.0], [0.0], [0.0]])
    rep = checker.check(slots, critical=True)
    # constant top slot: the log-mass term vanishes and the extension is the
    # constant, whose energy vanishes in the critical dimension
    assert abs(rep.lhs) <= 1e-10
    assert abs(rep.rhs) <= 1e-10


def test_critical_requires_dimension():
    with pytest.raises(ValueError):
        critical_check(ball(7), centered_specs(7))
    with pytest.raises(ValueError):
        corollary_check(ball(5), centered_specs(5))


def test_trace_checks_reject_the_geodesic_model():
    with pytest.raises(ValueError, match="per-mode extensions live on the ball or hemisphere"):
        corollary_check(hyperbolic_geodesic(7), centered_specs(7))


def test_critical_rejects_power_top_slot():
    n = 5
    specs = centered_specs(n)
    with pytest.raises(ValueError):
        critical_check(ball(n), specs)


# ---------------------------------------------------------------------------
# the stacked interior Gram memo
# ---------------------------------------------------------------------------

GRAM_COEFFS = [[1.0, 0.3, 0.1], [0.5, 0.2], [0.4, 0.1, 0.05]]


def clear_grams():
    interior_grams.cache_clear()


def unit_profile(geom, ell, slot):
    data = [0.0, 0.0, 0.0]
    data[slot] = 1.0
    return mode_solve(geom, ell, BoundaryTriple(*data)).profile


def old_angle_factor(grid, ell, cosang):
    """C_l(cos angle)/C_l(1) by its own recurrence for each degree, as the
    trace checks computed it per (term, degree) before the one-pass table."""
    if ell == 0:
        return 1.0
    alpha = (grid.n - 1) / 2.0
    c0, c1 = 1.0, 2.0 * alpha * cosang
    for k in range(2, ell + 1):
        c0, c1 = c1, (2.0 * (k + alpha - 1) * cosang * c1 - (k + 2 * alpha - 2) * c0) / k
    return c1 / grid.C1[ell]


def test_angle_factors_are_normalized_gegenbauer_values():
    from scipy.special import eval_gegenbauer

    n, lmax = 7, 12
    grid = zonal_grid(n, lmax)
    for c in (-0.7, 0.0, 0.35, 1.0):
        got = grid.angle_factors(c)
        assert got == [old_angle_factor(grid, ell, c) for ell in range(lmax + 1)]
        want = [eval_gegenbauer(ell, (n - 1) / 2, c) / eval_gegenbauer(ell, (n - 1) / 2, 1.0)
                for ell in range(lmax + 1)]
        assert got == pytest.approx(want, rel=1e-12, abs=1e-14)
    assert zonal_grid(n, 0).angle_factors(0.35) == [1.0]


def test_interior_gram_is_fully_keyed(monkeypatch):
    """One memo entry per (model kind, n, top): a different n, model or top
    never shares one, and each degree reads the same matrix whatever the
    top of its stack.  A check reads the stack up to its lmax."""
    import gjms6.traces as traces

    clear_grams()
    keys = [(hemisphere(5), 2), (hemisphere(6), 2), (hemisphere(5), 3), (ball(5), 2), (hemisphere(5), 2)]
    for geom, top in keys:
        interior_grams(geom, top)
    info = interior_grams.cache_info()
    assert (info.currsize, info.misses, info.hits) == (4, 4, 1)
    assert interior_grams(hemisphere(5), 2) != interior_grams(hemisphere(6), 2)
    assert interior_grams(hemisphere(5), 2) != interior_grams(ball(5), 2)
    assert interior_grams(hemisphere(5), 3)[:3] == interior_grams(hemisphere(5), 2)

    calls = []
    solve = traces.unit_coefficients
    monkeypatch.setattr(traces, "unit_coefficients", lambda *args: calls.append(args) or solve(*args))
    for geom in (ball(7), hemisphere(7)):
        first = corollary_check(geom, GRAM_COEFFS, lmax=8)
        assert calls == [(geom, 8)]  # one stack, up to lmax
        assert corollary_check(geom, GRAM_COEFFS, lmax=8) == first
        assert len(calls) == 1
        calls.clear()

    # half-space data are evaluated on the ball and read its entries
    misses = interior_grams.cache_info().misses
    flat = corollary_check(halfspace(7), GRAM_COEFFS, lmax=8)
    assert flat == corollary_check(ball(7), GRAM_COEFFS, lmax=8)
    assert interior_grams.cache_info().misses == misses
    assert calls == []
    # a warm memo does not bypass the resolution guard, which library
    # callers see as a ValueError
    assert issubclass(UnderResolvedError, ValueError)
    with pytest.raises(UnderResolvedError, match="under-resolved"):
        corollary_check(hemisphere(7), [np.ones(9), np.ones(9), np.ones(9)], lmax=8)


def test_one_check_builds_each_stack_at_most_once(monkeypatch):
    """A cold check builds one stack, whose top is its lmax, for extremal
    data, and a check of coefficient data with the same lmax reads it; the
    stack is immutable."""
    import gjms6.traces as traces

    calls = []
    solve = traces.unit_coefficients
    monkeypatch.setattr(traces, "unit_coefficients", lambda *args: calls.append(args) or solve(*args))
    for geom in (ball(7), hemisphere(7), halfspace(7)):
        clear_grams()
        calls.clear()
        corollary_check(geom, offcenter_specs(7), lmax=32)
        corollary_check(geom, [[0.0, 0.0, 0.5], [0.0, 0.2, 0.1, 0.0], []], lmax=32)
        eval_geom = ball(7) if geom == halfspace(7) else geom
        assert calls == [(eval_geom, 32)], geom
    grams = interior_grams(hemisphere(7), 3)
    assert type(grams) is tuple and len(grams) == 4
    assert all(type(g) is tuple and all(type(row) is tuple for row in g) for g in grams)
    assert {type(x) for g in grams for row in g for x in row} == {float}
    with pytest.raises(TypeError):
        grams[0] = grams[1]
    with pytest.raises(TypeError):
        grams[0][0] = grams[0][1]


def old_ball_gram(n, ell):
    """The interior pairings of the ball as a checker computed them per
    degree: the Laplacians of the unit profiles, one exact radial integral
    per pair, each taken to a float."""
    laps = [unit_profile(ball(n), ell, a).lap() for a in range(3)]
    return tuple(tuple(float(radial_pair_integral(la, lb)) for lb in laps) for la in laps)


def old_hemisphere_gram(n, ell, points):
    """The interior pairings as a checker computed them before the memo: its
    own nodes, a fresh superposition of each unit profile, one quadrature per
    pair."""
    x, w = np.polynomial.legendre.leggauss(points)
    th = (x + 1.0) * (math.pi / 4)
    w = w * (math.pi / 4) * np.sin(th) ** n

    def evaluate(prof):
        chi = dchi = lap = dlap = 0.0
        for fac, al in zip(prof.factors, prof.alphas):
            c, dc = (g[0] for g in kernel_values([fac], th))
            chi = chi + al * c
            dchi = dchi + al * dc
            lap = lap + al * float(fac.shift) * c
            dlap = dlap + al * float(fac.shift) * dc
        return chi, dchi, lap, dlap

    lam = sphere_eigenvalue(n, ell)
    s2 = np.sin(th) ** 2
    c1, c2, c3, c4 = hemisphere_interior_coeffs(n)
    evals = [evaluate(unit_profile(hemisphere(n), ell, a)) for a in range(3)]

    def pair(evala, evalb):
        ca, dca, la, dla = evala
        cb, dcb, lb, dlb = evalb
        integ = (
            c1 * (dla * dlb + lam * la * lb / s2)
            + c2 * (la * lb)
            + c3 * (dca * dcb + lam * ca * cb / s2)
            + c4 * (ca * cb)
        )
        return float(np.sum(w * integ))

    return [[pair(ea, eb) for eb in evals] for ea in evals]


def test_interior_gram_matches_the_per_pair_route_bit_for_bit():
    """Every degree of every stack equals the per-degree, per-pair route
    exactly, on both models, for n = 5..9 and tops up to 96."""
    clear_grams()
    tops = (0, 5, 16, 32, 96)
    for n in range(5, 10):
        for geom, old in ((ball(n), old_ball_gram), (hemisphere(n), None)):
            want = [old(n, ell) if old else tuple(map(tuple, old_hemisphere_gram(n, ell, HEMISPHERE_NODES)))
                    for ell in range(max(tops) + 1)]
            for top in tops:
                assert list(interior_grams(geom, top)) == want[: top + 1], (geom, top)


def test_hemisphere_rule_is_converged_to_the_lmax_cap():
    """The fixed HEMISPHERE_NODES-point rule gives the Gram matrices of a
    ZONAL_NODES-point rule within 1e-10 relative to their largest entry, up
    to the --lmax cap of the trace checks (ZONAL_NODES // 2)."""
    assert HEMISPHERE_NODES == 64
    for n in range(5, 10):
        grams = interior_grams(hemisphere(n), ZONAL_NODES // 2)
        for ell in (0, 16, 32, 64, 96, 128):
            got = np.array(grams[ell])
            want = np.array(old_hemisphere_gram(n, ell, ZONAL_NODES))
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want)), (n, ell)


# the tables the critical statements used to carry beside the subcritical ones
CRITICAL_DISPLAY_TERMS = {
    ball(5).kind: [
        (2, 2, Q(-2), 0), (2, 1, Q(8), 1), (2, 1, Q(32), 0),
        (2, 0, Q(-8, 3), 1), (1, 1, Q(16), 0), (1, 0, Q(16, 3), 2),
        (1, 0, Q(16, 3), 1), (0, 0, Q(64, 9), 2), (0, 0, Q(16), 1),
    ],
    hemisphere(5).kind: [
        (2, 1, Q(8), 1), (2, 1, Q(24), 0),
        (0, 1, Q(16, 3), 2), (0, 1, Q(32), 1),
    ],
}


def test_critical_statements_share_the_subcritical_tables():
    """At n = 5 the subcritical display terms, zero terms dropped, and the
    hemisphere interior coefficients are the critical tables, so a critical
    check and the subcritical energy read one Gram entry per degree."""
    for kind, want in CRITICAL_DISPLAY_TERMS.items():
        assert [t for t in display_terms(kind, 5) if t[2]] == want
    assert hemisphere_interior_coeffs(5) == (1.0, 10.0, 24.0, 0.0)

    clear_grams()
    critical_check(hemisphere(5), GRAM_COEFFS, lmax=8)
    info = interior_grams.cache_info()
    assert (info.currsize, info.misses) == (1, 1)
    entries = interior_grams(hemisphere(5), 8)
    checker = TraceChecker(hemisphere(5), lmax=8)
    value, interior, _ = checker.lhs_energy(checker.slots_from_coeffs(GRAM_COEFFS))
    info = interior_grams.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 2)
    assert entries is interior_grams(hemisphere(5), 8)
    assert critical_check(hemisphere(5), GRAM_COEFFS, lmax=8).breakdown["interior"] == interior


def test_interior_gram_meets_the_dtn_multipliers():
    """An independent reference for the unit extensions: their energy, the
    interior Gram matrix G(l) plus the displayed boundary terms D(l), is the
    sum of the three DtN pairings, so the symmetric parts of G + D are
    diag(front * round_multiplier(n, gamma, l)) for the slot gammas 5/2,
    3/2, 1/2, within 1e-10 of the largest diagonal entry, on both models
    and up to the --lmax cap."""
    for n in range(5, 10):
        for geom in (ball(n), hemisphere(n)):
            grams = interior_grams(geom, ZONAL_NODES // 2)
            for ell in (0, 1, 2, 16, 32, 64, 96, 128):
                got = np.array(grams[ell])
                for a, b, co, p in display_terms(geom.kind, n):
                    got[a, b] += float(co * sphere_eigenvalue(n, ell) ** p)
                got = (got + got.T) / 2
                want = np.diag([float(DTN_IDENTITIES[int(2 * g)].front * round_multiplier(n, g, ell))
                                for g in SLOT_GAMMAS])
                assert np.max(np.abs(got - want)) <= 1e-10 * np.max(want), (geom, ell)
