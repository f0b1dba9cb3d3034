"""Command-line entry point: run verification suites and emit reports.

Usage: gjms6 SUITE [--geometry G] [--n N] [--lmax L] [--tol T] [--seed S]
       [--out PATH] [--csv WHAT:PATH]
with SUITE one of covariance, symmetry, dtn, trace, critical, all.
The dtn suite checks the identities at l <= min(--lmax, 6) and
self-adjointness at l <= min(--lmax, 4); trace and critical take --lmax at
most 128 and run fixed quadrature rules (the report config names the
64-point hemisphere rule as "grid").  On the hemisphere, critical also checks
the closed-form factor kernels of every degree l <= --lmax exactly.
Exit status is 1 if any check fails, and 2 for a configuration that cannot
be checked: bad options (a negative --seed among them) or data
under-resolved at --lmax.
"""
from __future__ import annotations

import argparse
import math
import random
import sys
from fractions import Fraction

from . import geometry
from .geometry import HEMISPHERE_NODES, ZONAL_NODES, GeometryKind, ModelGeometry, UnderResolvedError
from .polys import random_poly
from .report import CheckReport, emit_csv

Q = Fraction

GEOMETRIES = {
    "halfspace": geometry.halfspace,
    "ball": geometry.ball,
    "hemisphere": geometry.hemisphere,
    "hyperbolic": geometry.hyperbolic_geodesic,
}

SUITES = ("covariance", "symmetry", "dtn", "trace", "critical", "all")

# dtn runs its identities and self-adjointness pairings at l <= min(--lmax, cap)
DTN_IDENTITY_LMAX = 6
DTN_SELFADJOINT_LMAX = 4


class ConfigError(ValueError):
    pass


def run_covariance(report: CheckReport, n: int, seed: int, probes: int = 12):
    from .conformal import VariationProbe, critical_T_shift, finite_covariance_residual, infinitesimal_covariance_residual
    from .geometry import halfspace

    rng = random.Random(seed)
    g = halfspace(n)
    d = n + 1
    for k in range(probes):
        sigma = random_poly(rng, d, 3, 2)
        u = random_poly(rng, d, 3, 2)
        probe = VariationProbe(sigma=sigma)
        for j in range(6):
            r = infinitesimal_covariance_residual(j, probe, u, g)
            report.add(f"covariance-infinitesimal-B{j}-probe{k}", "boundary-operator-covariance",
                       Q(0) if r.iszero() else Q(1), 0.0, True)
    for k in range(max(2, probes // 4)):
        sigma = random_poly(rng, d, 2, 2, 2)
        u = random_poly(rng, d, 2, 2, 2)
        for j in range(6):
            r = finite_covariance_residual(j, sigma, u, g, order=6)
            report.add(f"covariance-finite-B{j}-probe{k}", "boundary-operator-covariance",
                       Q(0) if r.iszero() else Q(1), 0.0, True)
    if n == 5:
        for k in range(max(2, probes // 4)):
            sigma = random_poly(rng, 6, 2, 2, 2)
            for j in range(1, 6):
                r = critical_T_shift(j, sigma, g)
                report.add(f"critical-shift-T{j}-probe{k}", "critical-coefficient-shift",
                           Q(0) if r.iszero() else Q(1), 0.0, True)


def run_symmetry(report: CheckReport, n: int, seed: int, pairs: int = 20):
    from .energy import fi_fb_decompose, q6_form, symmetry_residual
    from .geometry import ball

    rng = random.Random(seed)
    g = ball(n)
    d = n + 1
    for k in range(pairs):
        u = random_poly(rng, d, 6, 6)
        v = random_poly(rng, d, 6, 6)
        res = symmetry_residual(g, u, v)
        report.add(f"energy-symmetry-pair{k}", "energy-form-symmetry", res.q, 0.0, True)
    for k in range(3):
        u = random_poly(rng, d, 4, 3)
        v = random_poly(rng, d, 4, 3)
        dec = fi_fb_decompose(g, u, v)
        tot = q6_form(g, u, v).total
        resid = (dec.FI + dec.FB - tot).q
        sym = (fi_fb_decompose(g, v, u).FI - dec.FI).q
        report.add(f"interior-boundary-split-pair{k}", "energy-form-symmetry",
                   resid + abs(sym), 0.0, True)


def run_dtn(report: CheckReport, geom: ModelGeometry, lmax: int, tol: float):
    from .fractional import dtn_selfadjointness, dtn_verify

    n = geom.n
    if geom.kind is GeometryKind.UPPER_HALF_SPACE:
        report.checks.extend(dtn_verify(geom, n, None))
        return
    for ell in range(min(lmax, DTN_IDENTITY_LMAX) + 1):
        report.checks.extend(dtn_verify(geom, n, ell, tol=tol))
    for j in (1, 3, 5):
        report.checks.extend(dtn_selfadjointness(geom, n, j, range(min(lmax, DTN_SELFADJOINT_LMAX) + 1)))


def run_trace(report: CheckReport, geom: ModelGeometry, lmax: int, tol: float, seed: int):
    import numpy as np

    from .traces import ExtremalSpec, corollary_check

    n = geom.n
    rng = np.random.default_rng(seed)
    dim_center = n + 1
    centered = [ExtremalSpec("power", (0.0,) * dim_center, 1.0) for _ in range(3)]
    rep = corollary_check(geom, centered, lmax=lmax)
    report.add("trace-centered-extremals", "sharp-trace-equality", rep.relative_gap, tol, False)
    offc = [
        ExtremalSpec("power", tuple([0.3] + [0.0] * n), 1.0),
        ExtremalSpec("power", tuple([0.0, 0.25] + [0.0] * (n - 1)), 0.7),
        ExtremalSpec("power", tuple([0.1, -0.2] + [0.0] * (n - 1)), 1.3),
    ]
    if geom.kind is GeometryKind.UPPER_HALF_SPACE:
        offc = [
            ExtremalSpec.from_flat("power", 1.0, [0.2] + [0.0] * (n - 1), n),
            ExtremalSpec.from_flat("power", 1.5, [0.0] * n, n, 0.8),
            ExtremalSpec.from_flat("power", 0.7, [-0.1, 0.1] + [0.0] * (n - 2), n, 1.2),
        ]
    rep = corollary_check(geom, offc, lmax=lmax)
    report.add("trace-offcenter-extremals", "sharp-trace-equality", rep.relative_gap, tol, False)
    gaps = []
    for k in range(5):
        coeffs = [rng.normal(size=6) * 0.5 ** np.arange(6) for _ in range(3)]
        r = corollary_check(geom, coeffs, lmax=lmax)
        gaps.append((k, r.gap))
        report.add(f"trace-positive-gap-{k}", "sharp-trace-inequality",
                   0.0 if r.gap > 0 else -1.0, 0.5, False)
    report.series["gap_vs_probe"] = (("probe", "gap"), gaps)
    # gap as a function of the flat bubble scale
    rows = []
    for eps in (0.5, 1.0, 2.0):
        specs = [ExtremalSpec.from_flat("power", eps, [0.0] * n, n) for _ in range(3)]
        r = corollary_check(geometry.ball(n), specs, lmax=lmax)
        rows.append((eps, r.relative_gap))
    report.series["gap_vs_epsilon"] = (("epsilon", "relative_gap"), rows)


def run_critical(report: CheckReport, geom: ModelGeometry, lmax: int, tol: float):
    """The critical trace equality at n = 5; on the hemisphere also the
    factorized equation, exactly: the ``equation_residual`` of the three
    factor kernels of every degree l <= lmax, summed."""
    from .gjms import factorization_shifts
    from .solver import hemisphere_factor_solve
    from .traces import ExtremalSpec, critical_check

    n = geom.n
    specs = [
        ExtremalSpec("log", tuple([0.3] + [0.0] * n), 0.4),
        ExtremalSpec("power", tuple([0.0, 0.25] + [0.0] * (n - 1)), 0.7),
        ExtremalSpec("power", tuple([0.1, -0.2] + [0.0] * (n - 1)), 1.3),
    ]
    rep = critical_check(geom, specs, lmax=lmax)
    report.add("critical-trace-extremals", "critical-trace-equality", rep.gap, tol, False)
    if geom.kind is GeometryKind.ROUND_HEMISPHERE:
        resid = sum((hemisphere_factor_solve(n, ell, c).equation_residual()
                     for ell in range(lmax + 1) for c in factorization_shifts(n)), Q(0))
        report.add("critical-factorized-equation", "critical-extremal-equation", resid, 0.0, True)


def run_multiplier_table(report: CheckReport, n: int, lmax: int):
    from .fractional import round_multiplier

    rows = []
    for ell in range(min(lmax, 10) + 1):
        rows.append((ell, round_multiplier(n, Q(5, 2), ell)))
    report.series["multiplier_table"] = (("ell", "multiplier"), rows)


def build_config(args) -> dict:
    return {
        "suite": args.suite,
        "geometry": args.geometry,
        "n": args.n,
        "lmax": args.lmax,
        "grid": HEMISPHERE_NODES,
        "tol": args.tol,
        "seed": args.seed,
    }


def run_suite(args) -> CheckReport:
    if args.n < 5:
        raise ConfigError("boundary dimension must satisfy n >= 5")
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise ConfigError("tolerance must be positive and finite")
    if args.lmax < 0:
        raise ConfigError("harmonic-degree cap must be nonnegative")
    if args.seed < 0:
        raise ConfigError("seed must be nonnegative")
    # trace and critical expand on the ZONAL_NODES-node grid, whose norms
    # hold to 1e-12 up to this degree; every n >= 5 runs one of them in "all"
    if args.suite in ("trace", "critical", "all") and args.lmax > ZONAL_NODES // 2:
        raise ConfigError(f"the trace checks need --lmax <= {ZONAL_NODES // 2}")
    if args.suite == "critical" and args.n != 5:
        raise ConfigError("the critical suite requires n = 5")
    if args.suite in ("trace",) and args.n < 6:
        raise ConfigError("the subcritical trace suite requires n >= 6")
    geom = GEOMETRIES[args.geometry](args.n)
    if args.suite == "critical" and geom.kind is GeometryKind.HYPERBOLIC_GEODESIC:
        raise ConfigError("critical trace checks run on the half space, ball, or hemisphere")
    if args.suite == "trace" and geom.kind is GeometryKind.HYPERBOLIC_GEODESIC:
        raise ConfigError("trace checks run on the half space, ball, or hemisphere")

    report = CheckReport(args.suite, build_config(args))
    if args.suite in ("covariance", "all"):
        run_covariance(report, args.n, args.seed)
    if args.suite in ("symmetry", "all"):
        run_symmetry(report, args.n, args.seed)
    if args.suite in ("dtn", "all"):
        run_dtn(report, geom, args.lmax, args.tol)
    try:
        if args.suite in ("trace", "all") and args.n >= 6:
            run_trace(report, geom if geom.kind is not GeometryKind.HYPERBOLIC_GEODESIC
                      else geometry.ball(args.n), args.lmax, args.tol, args.seed)
        if args.suite in ("critical", "all") and args.n == 5:
            run_critical(report, geom if geom.kind in (GeometryKind.EUCLIDEAN_BALL, GeometryKind.ROUND_HEMISPHERE)
                         else geometry.ball(5), args.lmax, max(args.tol, 1e-5))
    except UnderResolvedError as exc:
        # the fixed extremal data of trace and critical need a larger lmax
        raise ConfigError(f"{exc}; raise --lmax") from exc
    run_multiplier_table(report, args.n, args.lmax)
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="gjms6", description=__doc__)
    ap.add_argument("suite", choices=SUITES)
    ap.add_argument("--geometry", choices=sorted(GEOMETRIES), default="ball")
    ap.add_argument("--n", type=int, default=7, help="boundary dimension (>= 5)")
    ap.add_argument("--lmax", type=int, default=32,
                    help=f"harmonic-degree cap (dtn: identities at l <= {DTN_IDENTITY_LMAX}, "
                         f"self-adjointness at l <= {DTN_SELFADJOINT_LMAX})")
    ap.add_argument("--tol", type=float, default=1e-6, help="numeric tolerance")
    ap.add_argument("--seed", type=int, default=0, help="random seed (>= 0)")
    ap.add_argument("--out", type=str, default=None, help="JSON report path")
    ap.add_argument("--csv", type=str, default=None, metavar="WHAT:PATH",
                    help="emit a data series (multiplier_table, gap_vs_epsilon, ...)")
    args = ap.parse_args(argv)

    what, _, path = (args.csv or "").partition(":")
    try:
        if args.csv and not path:
            raise ConfigError("csv argument must look like WHAT:PATH")
        report = run_suite(args)
        if args.csv and what not in report.series:
            raise ConfigError(f"the {args.suite} suite emits no series {what!r}; "
                              f"it emits {', '.join(sorted(report.series))}")
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    report.print_lines()
    if args.out:
        report.write_json(args.out)
        print(f"report written to {args.out}")
    if args.csv:
        emit_csv(report, what, path)
        print(f"series {what!r} written to {path}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
