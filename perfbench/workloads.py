"""Inputs and independent references of each workload, made from the seed.

Nothing here imports gjms6. Inputs are plain data (polynomial terms, zonal
coefficients, extremal-profile parameters, rational boundary data) that
``worker.py`` turns into gjms6 objects, and every reference is computed by a
route of its own: mpmath hypergeometrics for the hemisphere factor kernels,
rising factorials for the Dirichlet-to-Neumann multipliers.
"""
from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

WORKLOADS = ("exact-covariance", "trace-sweep", "energy-dtn")

# exact-covariance: the CLI's probe count. The order-6 finite residual of B4
# is nonzero for some probes (a fault of gjms6), so it runs on the CLI's
# finite probes of one fixed seed per n instead of the run's seed; the two
# of them on which it fails are counted as failed in every run.
COVARIANCE_PROBES = 12
B4_FIXED_SEEDS = {5: 18, 7: 6}
KNOWN_FAILURES = frozenset({"n5-finite-B4-fixed-probe0", "n7-finite-B4-fixed-probe1"})

# trace-sweep: subcritical checks at n = 7, critical ones at n = 5.
TRACE_N, CRIT_N, TRACE_LMAX = 7, 5, 16
FACTOR_ELLS = (0, 16, 32)
# A pass has 9 factor checks (a few ms each), 17 ball unit-mode checks
# (l = 0..TRACE_LMAX, about 25 ms each), one random-data gap per geometry
# and five extremal and critical families (0.25 to 1.6 s each): 34 checks,
# so three passes give the 100 samples a p90 needs well within a run, the
# median falls mid-way among the unit-mode checks and p90 among the
# families, not at the edge between two kinds of check.
RANDOM_GAPS = 1
EXTREMAL_TOL, CRITICAL_TOL = 1e-6, 1e-5
FACTOR_V0_TOL, FACTOR_DV0_TOL = 1e-12, 1e-9
MPMATH_DPS = 30

# energy-dtn: n = 7 throughout, the CLI's DtN degree range and pair counts.
ENERGY_N, DTN_LMAX, SELFADJOINT_LMAX = 7, 6, 4
SYMMETRY_PAIRS, SPLIT_PAIRS = 20, 3
DTN_TOL = 1e-6  # the CLI's tolerance; the library default 1e-8 fails on the hemisphere from l = 5
DTN_FRONT = {1: Fraction(3), 3: Fraction(8), 5: Fraction(8, 3)}
DTN_SLOT = {5: 0, 3: 1, 1: 2}   # which Dirichlet slot the order-j operator reads back
DTN_READ = {1: 3, 3: 4, 5: 5}   # boundary operator index of the order-j operator
COORDINATE_ENERGY = Fraction(576)  # q6(x1, x1) on the unit ball, in units of Vol(S^7)


def rising(z: Fraction, k: int) -> Fraction:
    out = Fraction(1)
    for i in range(k):
        out *= z + i
    return out


def dtn_multiplier(n: int, j: int, ell: int) -> Fraction:
    """Front constant times Gamma(l + n/2 + j/2) / Gamma(l + n/2 - j/2)."""
    return DTN_FRONT[j] * rising(ell + Fraction(n, 2) - Fraction(j, 2), j)


def dtn_energy(n: int, ell: int, triple) -> Fraction:
    """Energy of the extension of (f, phi, psi) Y, Y a degree-l harmonic with
    unit boundary L^2 norm, as the sum of its DtN pairings."""
    return sum(dtn_multiplier(n, j, ell) * Fraction(triple[DTN_SLOT[j]]) ** 2 for j in (1, 3, 5))


def factorization_shifts(n: int):
    return (Fraction((n + 1) * (n - 1), 4), Fraction((n + 3) * (n - 3), 4), Fraction((n + 5) * (n - 5), 4))


def hemisphere_factor_dv0(n: int, ell: int, shift: Fraction) -> float:
    """v'(0)/v(0) of the regular kernel of (-Delta + shift) in z = cos(theta):
    v(z) = 2F1(A, B; C; (1 - z)/2) with A, B = l + n/2 +- sqrt(n^2/4 - shift),
    C = l + (n + 1)/2 (DLMF 15.10)."""
    import mpmath as mp

    with mp.workdps(MPMATH_DPS):
        beta = mp.sqrt(mp.mpf(n) ** 2 / 4 - mp.mpf(shift.numerator) / shift.denominator)
        A = ell + mp.mpf(n) / 2 + beta
        B = ell + mp.mpf(n) / 2 - beta
        C = ell + mp.mpf(n + 1) / 2
        half = mp.mpf(1) / 2
        return float(-A * B / (2 * C) * mp.hyp2f1(A + 1, B + 1, C + 1, half) / mp.hyp2f1(A, B, C, half))


def rand_poly_terms(rng: random.Random, d: int, deg: int, nterms: int, maxc: int = 3):
    """The draws of the CLI's random polynomials, as (exponents, coefficient)
    terms to be summed in order: each term has a random degree up to deg and
    a coefficient in [-maxc, maxc], dropped when zero."""
    terms = []
    for _ in range(nterms):
        e = [0] * d
        for _ in range(rng.randint(0, deg)):
            e[rng.randrange(d)] += 1
        c = rng.randint(-maxc, maxc)
        if c:
            terms.append((e, c))
    return terms


def fixed_shape_poly_terms(rng: random.Random, d: int, deg: int, nterms: int, maxc: int = 3):
    """Random terms of degrees deg, deg - 1, ... with nonzero coefficients in
    [-maxc, maxc]: the shape does not depend on the seed, so neither does
    the size of the products much."""
    terms = []
    for k in range(nterms):
        e = [0] * d
        for _ in range(max(deg - k, 0)):
            e[rng.randrange(d)] += 1
        terms.append((e, rng.choice([c for c in range(-maxc, maxc + 1) if c])))
    return terms


def _q(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]), rng.randint(1, 4))


def covariance_draws(n: int, seed: int) -> dict:
    """The probes of the CLI covariance suite at n for this seed."""
    rng = random.Random(seed)
    d, extra = n + 1, max(2, COVARIANCE_PROBES // 4)
    inf = [(rand_poly_terms(rng, d, 3, 2), rand_poly_terms(rng, d, 3, 2)) for _ in range(COVARIANCE_PROBES)]
    fin = [(rand_poly_terms(rng, d, 2, 2, 2), rand_poly_terms(rng, d, 2, 2, 2)) for _ in range(extra)]
    crit = [rand_poly_terms(rng, 6, 2, 2, 2) for _ in range(extra)] if n == 5 else []
    return {"n": n, "infinitesimal": inf, "finite": fin, "critical": crit}


def exact_covariance(seed: int) -> dict:
    """The CLI covariance suite at n = 5 and n = 7 for this seed, and the
    finite B4 probes of the fixed seeds."""
    b4 = [{"n": n, "finite": covariance_draws(n, fixed)["finite"]} for n, fixed in B4_FIXED_SEEDS.items()]
    return {"suites": [covariance_draws(n, seed) for n in (5, 7)], "b4_fixed": b4}


def _unit(rng: np.random.Generator, dim: int) -> list:
    v = rng.normal(size=dim)
    return list(v / np.linalg.norm(v))


def _round_family(rng: np.random.Generator, n: int, critical: bool) -> list:
    """Three extremal profiles (kind, center, amplitude) with centers of
    radius 0.1 to 0.3, well resolved at TRACE_LMAX."""
    out = []
    for slot in range(3):
        r = rng.uniform(0.1, 0.3)
        center = [r * c for c in _unit(rng, n + 1)]
        if critical and slot == 0:
            out.append(("log", center, rng.uniform(0.3, 0.5)))
        else:
            out.append(("power", center, rng.uniform(0.7, 1.3)))
    return out


def _flat_family(rng: np.random.Generator, n: int) -> list:
    """Three flat bubbles (eps, x0, amplitude) for the half space."""
    out = []
    for _ in range(3):
        eps = rng.uniform(0.7, 1.5)
        x0 = [rng.uniform(0.0, 0.2) * c for c in _unit(rng, n)]
        out.append((eps, x0, rng.uniform(0.7, 1.3)))
    return out


def trace_sweep(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    factors = [(ell, _q(c), hemisphere_factor_dv0(TRACE_N, ell, c))
               for ell in FACTOR_ELLS for c in factorization_shifts(TRACE_N)]
    geoms = {}
    for geom in ("ball", "hemisphere", "halfspace"):
        family = _flat_family(rng, TRACE_N) if geom == "halfspace" else _round_family(rng, TRACE_N, False)
        gaps = [[list(rng.normal(size=6) * 0.5 ** np.arange(6)) for _ in range(3)] for _ in range(RANDOM_GAPS)]
        geoms[geom] = {"extremal": family, "random": gaps}
    critical = {geom: _round_family(rng, CRIT_N, True) for geom in ("ball", "hemisphere")}
    modes = _multipliers(random.Random(seed), TRACE_N, ["ball"], TRACE_LMAX)
    return {"factors": factors, "geometries": geoms, "critical": critical, "unit_modes": modes}


def _multipliers(rng: random.Random, n: int, geoms, lmax: int) -> list:
    """Seeded data (f, phi, psi) per geometry and degree, with the values the
    order-1, 3 and 5 operators must take on its extension."""
    out = []
    for g in geoms:
        for ell in range(lmax + 1):
            data = [_rational(rng) for _ in range(3)]
            want = [data[DTN_SLOT[j]] * dtn_multiplier(n, j, ell) for j in (1, 3, 5)]
            out.append((g, ell, [_q(x) for x in data], [_q(x) for x in want]))
    return out


def energy_dtn(seed: int) -> dict:
    rng = random.Random(seed)
    d = ENERGY_N + 1
    sym = [(fixed_shape_poly_terms(rng, d, 5, 3), fixed_shape_poly_terms(rng, d, 5, 3))
           for _ in range(SYMMETRY_PAIRS)]
    split = [(fixed_shape_poly_terms(rng, d, 4, 3), fixed_shape_poly_terms(rng, d, 4, 3))
             for _ in range(SPLIT_PAIRS)]
    geoms = ("ball", "hemisphere", "hyperbolic")
    verify = {g: [[_q(_rational(rng)) for _ in range(3)] for _ in range(DTN_LMAX + 1)] for g in geoms}
    mult = _multipliers(rng, ENERGY_N, geoms, DTN_LMAX)
    return {"symmetry": sym, "split": split, "verify": verify, "multipliers": mult}


def build(workload: str, seed: int) -> dict:
    makers = {"exact-covariance": exact_covariance, "trace-sweep": trace_sweep, "energy-dtn": energy_dtn}
    return {"workload": workload, "seed": seed, **makers[workload](seed)}
