"""Sharp trace inequalities: constants, equality families, positivity."""

from fractions import Fraction as Q

import numpy as np
import pytest

from gjms6.geometry import ball, halfspace, hemisphere, hyperbolic_geodesic
from gjms6.polys import vol_sphere
from gjms6.traces import (
    CriticalExponentError,
    ExtremalSpec,
    TraceChecker,
    ZonalGrid,
    corollary_check,
    critical_check,
    flat_bubble_lp_norm,
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
    grid = ZonalGrid(7, 32, 256)
    coeffs = rng.normal(size=8) * 0.5 ** np.arange(8)
    vals = coeffs @ grid.C[:8]
    rep = sphere_sobolev_check(7, Q(5, 2), vals)
    assert rep.gap > 0


def test_sobolev_resolution_guard():
    with pytest.raises(ValueError):
        sphere_sobolev_check(7, Q(5, 2), lambda t: (1 + 0.999 * t) ** (-1.0), lmax=8)


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


def test_flat_lp_norm_matches_round():
    """Conformal invariance of the critical Lebesgue norms under transport."""
    n = 7
    gamma = Q(5, 2)
    w = Q(n, 2) - gamma  # exponent of the bubble for this slot
    eps, x0 = 1.3, np.array([0.2, -0.1] + [0.0] * (n - 2))
    spec = ExtremalSpec.from_flat("power", eps, x0, n)
    grid = ZonalGrid(n, 32, 256)
    vals = spec.values(grid.t, w)
    p = 2.0 * n / float(n - 2 * gamma)
    round_norm = grid.lp_norm(vals, p)
    amp = (1 + eps + float(np.dot(x0, x0))) ** float(w)
    flat_norm = flat_bubble_lp_norm(n, eps, w, p, amplitude=amp)
    assert abs(round_norm - flat_norm) <= 1e-9 * flat_norm


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
    grid = zonal_grid(7, 8, 256)
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
