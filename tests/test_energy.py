"""Energy form: symmetry, decomposition, eigenvalue bound, trace lower bound."""

import random
import subprocess
import sys
from fractions import Fraction as Q

import pytest

from gjms6.energy import (
    dirichlet_eigen_lower,
    energy,
    fi_fb_decompose,
    mode_energy_pairing,
    q6_form,
    symmetry_residual,
    trace_lower_bound_check,
    zero_data_profile,
)
from gjms6.geometry import ball, halfspace
from gjms6.polys import MomentScalar, Poly, random_poly
from gjms6.reps import RadialProfile


def test_q6_examples():
    n = 7
    d = n + 1
    g = ball(n)
    zero = Poly.zero(d)
    assert q6_form(g, zero, zero).total.iszero()
    x1, x2 = Poly.var(d, 0), Poly.var(d, 1)
    assert q6_form(g, x1, x2).total.iszero()  # odd moments
    rep = q6_form(g, x1, x1)
    assert rep.total == MomentScalar(Q(576), "vol_sn", n)
    assert rep.interior.iszero()
    assert rep.exact


@pytest.mark.parametrize("n, want", [
    (5, (Q(129951, 640), Q(-4459747, 2240), Q(-7946223, 4480), Q(-31807, 2240))),
    (7, (Q(-1153811, 1120), Q(-374009877, 17920), Q(289533, 4480), Q(-78725797, 3584))),
    (9, (Q(8650093, 33600), Q(-861033893, 13440), Q(-1297019, 11200), Q(-856017433, 13440))),
])
def test_q6_pinned_values(n, want):
    """Interior and boundary parts of q6(u, v) and q6(v, u) on seeded degree-8
    fields, pinned exactly: an error that is symmetric in u and v leaves
    the symmetry residual at zero but moves these values."""
    rng = random.Random(n)
    a = random_poly(rng, n + 1, 4, 4)
    b = random_poly(rng, n + 1, 4, 4)
    u, v = a * a + b, b * b + a
    uv, vu = q6_form(ball(n), u, v), q6_form(ball(n), v, u)
    got = (uv.interior, uv.boundary, vu.interior, vu.boundary)
    assert got == tuple(MomentScalar(q, "vol_sn", n) for q in want)
    assert uv.total == vu.total


def test_q6_rejects_other_models():
    with pytest.raises(ValueError):
        q6_form(halfspace(7), Poly.zero(8), Poly.zero(8))


def test_symmetry_spec_pair_and_random():
    n = 7
    d = n + 1
    g = ball(n)
    assert symmetry_residual(g, Poly.var(d, 0), Poly.var(d, 1, 2)).iszero()
    rng = random.Random(11)
    for _ in range(6):
        u = random_poly(rng, d, 5, 3)
        v = random_poly(rng, d, 5, 3)
        assert symmetry_residual(g, u, v).iszero()


def test_polarization_identity():
    n = 7
    d = n + 1
    g = ball(n)
    rng = random.Random(4)
    u = random_poly(rng, d, 4, 3)
    v = random_poly(rng, d, 4, 3)
    lhs = q6_form(g, u, v).total
    rhs = Q(1, 4) * (energy(g, u + v) - energy(g, u - v))
    assert (lhs - rhs).iszero()


def test_fi_fb_decomposition():
    n = 7
    d = n + 1
    g = ball(n)
    x1 = Poly.var(d, 0)
    dec = fi_fb_decompose(g, x1, x1)
    assert dec.FI.iszero()
    assert dec.FB == MomentScalar(Q(576), "vol_sn", n)
    rng = random.Random(21)
    for _ in range(4):
        u = random_poly(rng, d, 4, 3)
        v = random_poly(rng, d, 4, 3)
        dec = fi_fb_decompose(g, u, v)
        tot = q6_form(g, u, v).total
        assert (dec.FI + dec.FB - tot).iszero()
        # both pieces symmetric
        dec_t = fi_fb_decompose(g, v, u)
        assert (dec.FI - dec_t.FI).iszero()
        assert (dec.FB - dec_t.FB).iszero()


def test_harmonic_energy_is_pure_boundary():
    n = 7
    d = n + 1
    # triharmonic: any polynomial of degree <= 5 with zero third Laplacian
    u = Poly.var(d, 0) * Poly.var(d, 1) * Poly.var(d, 2)
    rep = q6_form(ball(n), u, u)
    assert rep.interior.iszero()
    assert not rep.total.iszero()


def test_zero_data_profile_annihilation():
    from gjms6.boundary import apply_B

    n = 7
    g = ball(n)
    for ell, m in ((0, 0), (2, 1), (5, 3)):
        v = zero_data_profile(n, ell, m)
        sep = v.to_separated()
        assert apply_B(0, g, sep) == 0
        assert apply_B(1, g, sep) == 0
        assert apply_B(2, g, sep) == 0


def test_dirichlet_eigen_lower_positive():
    est = dirichlet_eigen_lower(7, lmax=4, basis_size=4)
    assert est.lambda_lower > 0
    assert all(v > 0 for _, v in est.modes_checked)


def test_dirichlet_eigen_lower_matches_the_scipy_pencil():
    """The Cholesky reduction gives the least eigenvalue of the pencil that
    scipy.linalg.eigh(A, M) gives, within 1e-8 relative, up to cond M ~ 1e10
    (basis size 6)."""
    import numpy as np
    import scipy.linalg

    from gjms6.reps import radial_l2_integral

    for n in (5, 6, 7, 9):
        for size in (4, 6):
            est = dirichlet_eigen_lower(n, lmax=8, basis_size=size)
            for ell, got in est.modes_checked:
                basis = [zero_data_profile(n, ell, m) for m in range(size)]
                A = np.array([[float(mode_energy_pairing(n, ell, a, b)) for b in basis] for a in basis])
                M = np.array([[float(radial_l2_integral(a, b)) for b in basis] for a in basis])
                want = scipy.linalg.eigh(A, M, eigvals_only=True)[0]
                assert abs(got - want) <= 1e-8 * abs(want), (n, size, ell)


def test_dirichlet_eigen_lower_loads_no_scipy():
    code = (
        "import sys\n"
        "from gjms6.energy import dirichlet_eigen_lower\n"
        "dirichlet_eigen_lower(7, lmax=4, basis_size=4)\n"
        "print(any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_zero_data_energy_positive():
    n = 7
    for ell, m in ((0, 0), (1, 0), (3, 2)):
        v = zero_data_profile(n, ell, m)
        assert mode_energy_pairing(n, ell, v, v) > 0


def test_trace_lower_bound():
    rep = trace_lower_bound_check(
        7, [(0, (1, 2, 3)), (1, (2, -1, 1)), (3, (0, 1, -2))],
        num_perturbations=40, seed=2,
    )
    assert rep.match_error == 0.0  # exact rational agreement
    assert rep.gaps_positive
    assert rep.min_gap > 0


def test_trace_lower_bound_multiplier_example():
    # f-only data at ell = 0: energy is (8/3) * 120 * f^2 per unit boundary
    # harmonic mass
    rep = trace_lower_bound_check(7, [(0, (1, 0, 0))], num_perturbations=1, seed=0)
    assert rep.energy_u0 == Q(8, 3) * 120
