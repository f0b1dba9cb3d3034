"""One pass of a workload in a fresh interpreter, or one timed import.

Run from the repository root with ``src`` on ``PYTHONPATH``; the result is
one JSON object on standard output.

- ``python3 -m perfbench.worker setup`` times ``import gjms6`` in an
  interpreter that has imported nothing else yet.
- ``python3 -m perfbench.worker pass`` reads
  ``{"spec": ..., "trace": bool, "spans_path": ...}`` from standard input,
  builds the workload's inputs, then times each check: one call to a public
  check or solve function of gjms6 (two to four calls where a property needs
  them), followed by a comparison of its output with the reference, which is
  not timed. Reference-kernel repetitions run before the checks, between them
  (once ``REF_EVERY_S`` of checks has run since the last one) and after
  them, so that their mean samples the machine's speed over the whole pass.
"""
from __future__ import annotations

import sys
import time
from collections import namedtuple

REF_REPS = 3
REF_EVERY_S = 0.25

# ``run`` calls gjms6; ``verify`` maps its output to (correct, margin), margin
# being log10(tolerance/|residual|) for a float check and None otherwise.
Check = namedtuple("Check", "name run verify")


def _margin(residual: float, tol: float):
    import math

    residual = abs(float(residual))
    return math.log10(tol / residual) if residual > 0 else None


def _within(residual: float, tol: float):
    return abs(float(residual)) <= tol, _margin(residual, tol)


def _records_ok(records):
    margins = [_margin(r.residual, r.tolerance) for r in records if not r.exact]
    margins = [m for m in margins if m is not None]
    return all(r.passed for r in records), (min(margins) if margins else None)


def _exact_zero(x):
    return x.iszero(), None


# ---------------------------------------------------------------------------
# inputs and checks per workload
# ---------------------------------------------------------------------------

def _poly(d: int, terms):
    from gjms6.polys import Poly

    p = Poly.zero(d)
    for e, c in terms:
        p = p + Poly.monomial(d, e, c)
    return p


def exact_covariance_checks(spec) -> list:
    from gjms6.conformal import VariationProbe, critical_T_shift, finite_covariance_residual, infinitesimal_covariance_residual
    from gjms6.geometry import halfspace

    checks = []
    for suite in spec["suites"]:
        n = suite["n"]
        g, d = halfspace(n), n + 1
        for k, (s, u) in enumerate(suite["infinitesimal"]):
            probe, u = VariationProbe(sigma=_poly(d, s)), _poly(d, u)
            for j in range(6):
                checks.append(Check(f"n{n}-infinitesimal-B{j}-probe{k}",
                                    lambda j=j, probe=probe, u=u, g=g: infinitesimal_covariance_residual(j, probe, u, g),
                                    _exact_zero))
        for k, (s, u) in enumerate(suite["finite"]):
            sigma, u = _poly(d, s), _poly(d, u)
            # B4 runs on the fixed probes below: its finite residual is
            # nonzero for some probes, so on the seeded ones it would fail on
            # some seeds only.
            for j in (0, 1, 2, 3, 5):
                checks.append(Check(f"n{n}-finite-B{j}-probe{k}",
                                    lambda j=j, sigma=sigma, u=u, g=g: finite_covariance_residual(j, sigma, u, g, order=6),
                                    _exact_zero))
        for k, s in enumerate(suite["critical"]):
            sigma = _poly(6, s)
            for j in range(1, 6):
                checks.append(Check(f"n{n}-critical-shift-T{j}-probe{k}",
                                    lambda j=j, sigma=sigma, g=g: critical_T_shift(j, sigma, g),
                                    _exact_zero))
    for suite in spec["b4_fixed"]:
        n = suite["n"]
        g, d = halfspace(n), n + 1
        for k, (s, u) in enumerate(suite["finite"]):
            sigma, u = _poly(d, s), _poly(d, u)
            checks.append(Check(f"n{n}-finite-B4-fixed-probe{k}",
                                lambda sigma=sigma, u=u, g=g: finite_covariance_residual(4, sigma, u, g, order=6),
                                _exact_zero))
    return checks


def multiplier_checks(rows, geoms: dict, n: int) -> list:
    """One mode solve with seeded data (f, phi, psi), then ``apply_B`` of
    orders 3, 4, 5 against psi, phi, f times the benchmark's multipliers:
    exactly on the ball and geodesic models, within DTN_TOL on the
    hemisphere."""
    from fractions import Fraction

    from gjms6.boundary import apply_B
    from gjms6.solver import BoundaryTriple, ball_mode_solve, geodesic_mode_solve, hemisphere_mode_solve
    from perfbench import workloads as W

    solvers = {
        "ball": lambda ell, data: ball_mode_solve(n, ell, data).profile.to_separated(),
        "hemisphere": lambda ell, data: hemisphere_mode_solve(n, ell, data).profile.separated(),
        "hyperbolic": lambda ell, data: geodesic_mode_solve(n, ell, data).profile,
    }
    checks = []
    for name, ell, data, want in rows:
        data = [Fraction(x) for x in data]
        if name == "hemisphere":
            data = [float(x) for x in data]
        want = [Fraction(x) for x in want]

        def run(name=name, ell=ell, data=data):
            prof = solvers[name](ell, BoundaryTriple(*data))
            return [apply_B(W.DTN_READ[j], geoms[name], prof) for j in (1, 3, 5)]

        def verify(got, want=want, exact=name != "hemisphere"):
            if exact:
                return all(isinstance(g, Fraction) for g in got) and got == want, None
            rel = max(abs(float(g) - float(w)) / max(1.0, abs(float(w))) for g, w in zip(got, want))
            return _within(rel, W.DTN_TOL)

        checks.append(Check(f"dtn-multipliers-{name}-ell{ell}", run, verify))
    return checks


def trace_sweep_checks(spec) -> list:
    from fractions import Fraction

    import numpy as np

    from gjms6 import geometry
    from gjms6.solver import hemisphere_factor_solve
    from gjms6.traces import ExtremalSpec, corollary_check, critical_check
    from perfbench import workloads as W

    n, lmax = W.TRACE_N, W.TRACE_LMAX
    checks = []
    for ell, shift, dv0_ref in spec["factors"]:
        def verify(fac, ref=dv0_ref):
            ok0, m0 = _within(fac.v0 - 1.0, W.FACTOR_V0_TOL)
            ok1, m1 = _within((fac.dv0 - ref) / max(1.0, abs(ref)), W.FACTOR_DV0_TOL)
            margins = [m for m in (m0, m1) if m is not None]
            return ok0 and ok1, (min(margins) if margins else None)

        checks.append(Check(f"factor-ell{ell}-shift{shift}",
                            lambda ell=ell, shift=shift: hemisphere_factor_solve(n, ell, Fraction(shift)),
                            verify))

    def extremal_ok(rep):
        return _within(rep.relative_gap, W.EXTREMAL_TOL)

    def gap_positive(rep):
        return rep.gap > 0, None

    for name, geo in spec["geometries"].items():
        g = getattr(geometry, name)(n)
        if name == "halfspace":
            specs = [ExtremalSpec.from_flat("power", eps, x0, n, amp) for eps, x0, amp in geo["extremal"]]
        else:
            specs = [ExtremalSpec(kind, tuple(c), amp) for kind, c, amp in geo["extremal"]]
        checks.append(Check(f"{name}-extremal", lambda g=g, specs=specs: corollary_check(g, specs, lmax=lmax),
                            extremal_ok))
        for k, coeffs in enumerate(geo["random"]):
            coeffs = [np.array(c) for c in coeffs]
            checks.append(Check(f"{name}-random-gap{k}",
                                lambda g=g, coeffs=coeffs: corollary_check(g, coeffs, lmax=lmax),
                                gap_positive))
    for name, family in spec["critical"].items():
        g = getattr(geometry, name)(W.CRIT_N)
        specs = [ExtremalSpec(kind, tuple(c), amp) for kind, c, amp in family]
        checks.append(Check(f"{name}-critical", lambda g=g, specs=specs: critical_check(g, specs, lmax=lmax),
                            lambda rep: _within(rep.gap, W.CRITICAL_TOL)))
    return checks + multiplier_checks(spec["unit_modes"], {"ball": geometry.ball(n)}, n)


def energy_dtn_checks(spec) -> list:
    from fractions import Fraction

    from gjms6 import geometry
    from gjms6.boundary import apply_B
    from gjms6.energy import fi_fb_decompose, q6_form, symmetry_residual
    from gjms6.fractional import dtn_selfadjointness, dtn_verify
    from gjms6.polys import MomentScalar, Poly
    from perfbench import workloads as W

    n, d = W.ENERGY_N, W.ENERGY_N + 1
    ball = geometry.ball(n)
    geoms = {"ball": ball, "hemisphere": geometry.hemisphere(n), "hyperbolic": geometry.hyperbolic_geodesic(n)}
    checks = []
    for k, (u, v) in enumerate(spec["symmetry"]):
        u, v = _poly(d, u), _poly(d, v)
        checks.append(Check(f"symmetry-pair{k}", lambda u=u, v=v: symmetry_residual(ball, u, v), _exact_zero))

    def split(u, v):
        return fi_fb_decompose(ball, u, v), q6_form(ball, u, v).total, fi_fb_decompose(ball, v, u)

    def split_ok(out):
        dec, total, swapped = out
        return (dec.FI + dec.FB - total).iszero() and (swapped.FI - dec.FI).iszero(), None

    for k, (u, v) in enumerate(spec["split"]):
        u, v = _poly(d, u), _poly(d, v)
        checks.append(Check(f"interior-boundary-split-pair{k}", lambda u=u, v=v: split(u, v), split_ok))

    for name, rows in spec["verify"].items():
        for ell, data in enumerate(rows):
            data = tuple(Fraction(x) for x in data)
            checks.append(Check(f"dtn-verify-{name}-ell{ell}",
                                lambda g=geoms[name], ell=ell, data=data: dtn_verify(g, n, ell, data=data, tol=W.DTN_TOL),
                                _records_ok))
    checks.append(Check("dtn-verify-halfspace-symbolic", lambda: dtn_verify(geometry.halfspace(n), n, None),
                        _records_ok))
    for name, g in geoms.items():
        for j in (1, 3, 5):
            checks.append(Check(f"dtn-selfadjoint-{name}-j{j}",
                                lambda g=g, j=j: dtn_selfadjointness(g, n, j, range(W.SELFADJOINT_LMAX + 1)),
                                _records_ok))

    checks += multiplier_checks(spec["multipliers"], geoms, n)

    x1 = Poly.var(d, 0)
    e1 = (1,) + (0,) * (d - 1)

    def coordinate_energy():
        triple = [apply_B(j, ball, x1) for j in range(3)]
        return q6_form(ball, x1, x1).total, triple

    def coordinate_ok(out):
        total, triple = out
        if any(set(b.terms) != {e1} for b in triple):
            return False, None
        # the integral of x1^2 over S^n is Vol(S^n)/(n + 1)
        want = W.dtn_energy(n, 1, [b.terms[e1] for b in triple]) / (n + 1)
        return want == W.COORDINATE_ENERGY and total == MomentScalar(want, "vol_sn", n), None

    checks.append(Check("coordinate-energy", coordinate_energy, coordinate_ok))
    return checks


WORKLOAD_CHECKS = {
    "exact-covariance": exact_covariance_checks,
    "trace-sweep": trace_sweep_checks,
    "energy-dtn": energy_dtn_checks,
}


# ---------------------------------------------------------------------------
# the two modes
# ---------------------------------------------------------------------------

def run_setup() -> dict:
    t0 = time.perf_counter()
    import gjms6  # noqa: F401

    raw = time.perf_counter() - t0
    from perfbench.measure import reference_kernel

    return {"raw_s": raw, "refs": [reference_kernel() for _ in range(2 * REF_REPS)]}


def run_pass(req: dict) -> dict:
    import json
    import random
    import resource
    import traceback

    import gjms6  # noqa: F401
    from perfbench.measure import reference_kernel

    tracer = None
    if req.get("trace"):
        from perfbench.tracer import Tracer

        # installed before the checks import gjms6 functions, so that they
        # bind the wrappers; building the inputs is then left out of the counts
        tracer = Tracer().install()
    checks = WORKLOAD_CHECKS[req["spec"]["workload"]](req["spec"])
    # One fixed order, the same for every seed and pass, that mixes the kinds
    # of check, so that a slow spell of the machine does not fall on one kind.
    random.Random(0).shuffle(checks)
    if tracer is not None:
        tracer.reset()
    refs = [reference_kernel() for _ in range(REF_REPS)]
    samples = []
    since_ref = 0.0
    for chk in checks:
        t0 = time.perf_counter()
        try:
            out, error = chk.run(), None
        except Exception:  # a failing check is counted, never fatal
            out, error = None, traceback.format_exc()
        dt = time.perf_counter() - t0
        if error is None:
            try:
                ok, margin = chk.verify(out)
            except Exception:
                ok, margin, error = False, None, traceback.format_exc()
            status = "ok" if ok else "wrong"
        else:
            status, margin = "error", None
        if status != "ok":
            print(f"check {chk.name}: {status}\n{error or ''}", file=sys.stderr)
        samples.append([chk.name, dt, status, margin])
        since_ref += dt
        if since_ref >= REF_EVERY_S:
            refs.append(reference_kernel())
            since_ref = 0.0
    refs += [reference_kernel() for _ in range(REF_REPS)]
    out = {
        "samples": samples,
        "refs": refs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        out["trace"] = tracer.report()
        with open(req["spans_path"], "w") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent"], "spans": tracer.spans}, fh)
    return out


def main() -> int:
    mode = sys.argv[1:]
    if mode == ["setup"]:
        result = run_setup()  # before this process imports anything else
    elif mode == ["pass"]:
        import json

        result = run_pass(json.load(sys.stdin))
    else:
        print("usage: python3 -m perfbench.worker {setup|pass}", file=sys.stderr)
        return 2
    import json

    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
