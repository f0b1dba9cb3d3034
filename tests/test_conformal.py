"""Covariance residuals, the critical shift law, jets, the primitives and
factor memo of the conformal engine, the normalizing jet, Moebius
transport."""

import gc
import random
import weakref
from dataclasses import dataclass
from fractions import Fraction as Q

import numpy as np
import pytest

from gjms6 import confcalc, conformal
from gjms6.boundary import apply_B, model_coefficients
from gjms6.cli import main
from gjms6.confcalc import DualKit, DualPoly, HalfspaceConformalEngine, JetCtx
from gjms6.conformal import (
    VariationProbe,
    critical_T_shift,
    finite_covariance_residual,
    infinitesimal_covariance_residual,
)
from gjms6.geometry import ball, halfspace, hemisphere, hyperbolic_geodesic
from gjms6.polys import Poly, random_poly, sum_all
from gjms6.reps import collar_coefficients
from gjms6.series import TruncationError
from gjms6.traces import round_bubble_center
from test_boundary import mode_from_derivs


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


def test_infinitesimal_rejects_other_geometries():
    n = 7
    d = n + 1
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


@pytest.mark.parametrize("n", [5, 7])
def test_flat_side_acts_componentwise(n):
    """The flat half-space operators have constant coefficients: over dual
    numbers they act on each component, and on an embedded jet they act on
    the polynomial it embeds."""
    rng = random.Random(60 + n)
    d = n + 1
    g = halfspace(n)
    # the sextic keeps every B_j nonzero
    sextic = (Poly.var(d, 0) + Poly.var(d, d - 1) + 1) ** 6
    a, b, p = (random_poly(rng, d, 6, 4) + k * sextic for k in (1, 2, 3))
    ctx = JetCtx(n, random_poly(rng, d, 2, 2), 6)
    for j in range(6):
        dual = apply_B(j, g, DualPoly(a, b))
        assert (dual.a, dual.b) == (apply_B(j, g, a), apply_B(j, g, b))
        flat = apply_B(j, g, p)
        assert apply_B(j, g, ctx.embed(p)).wmap == ctx.embed_boundary(flat).wmap
        assert not (dual.a.iszero() or dual.b.iszero() or flat.iszero())


def test_weighted_polys_hold_no_zero_weight():
    """The unchecked results of WxPoly (negation, nonzero scalar and Poly
    multiples, diff) and the checked ones (sums, products) hold no zero
    weight polynomial."""
    n = 5
    d = n + 1
    rng = random.Random(3)
    ctx = JetCtx(n, random_poly(rng, d, 2, 3) + Poly.var(d, 0), 4)
    x = ctx.exp_boundary(2) * random_poly(rng, n, 3, 4) + ctx.embed_boundary(random_poly(rng, n, 3, 4))
    y = ctx.exp_boundary(-1) * random_poly(rng, n, 2, 3)
    values = [-x, x * Q(-2, 3), x * 0, x * Poly.zero(n), x * random_poly(rng, n, 2, 3),
              x.diff(0), x.diff(n - 1), x + (-x), x - x + y, x * y, (x + y) * (x - y)]
    for v in values:
        assert all(not p.iszero() for p in v.wmap.values())
    assert (x * 0).iszero() and (x + (-x)).iszero()
    assert (x * Q(-2, 3)).wmap == {w: Q(-2, 3) * p for w, p in x.wmap.items()}


# ---------------------------------------------------------------------------
# ring laws with zero operands
# ---------------------------------------------------------------------------

def _snapshot(x):
    """Deep copy of the content of a Poly, DualPoly, WxPoly or Jet."""
    if isinstance(x, Poly):
        return dict(x.terms)
    if isinstance(x, DualPoly):
        return _snapshot(x.a), _snapshot(x.b)
    if isinstance(x, confcalc.WxPoly):
        return {w: dict(p.terms) for w, p in x.wmap.items()}
    return [_snapshot(c) for c in x.coeffs]


def _dense_wx(ctx, pairs):
    """Sum of weighted polynomials, accumulated from zero and filtered once."""
    out = {}
    for w, p in pairs:
        out[w] = out.get(w, Poly.zero(ctx.n)) + p
    return {w: p for w, p in out.items() if not p.iszero()}


def _dense_wx_mul(ctx, x, y):
    return _dense_wx(ctx, [(w1 + w2, p1 * p2) for w1, p1 in x.wmap.items() for w2, p2 in y.wmap.items()])


def _dense_wx_diff(ctx, x, i):
    s0i = ctx.sigma0_partials[i]
    return _dense_wx(ctx, [(w, p.diff(i) + (w * s0i) * p) for w, p in x.wmap.items()])


def _dense_jet_mul(ctx, x, y):
    """The direct convolution of the coefficients, to the smaller order."""
    o = min(x.ord, y.ord)
    return [_dense_wx(ctx, [(w, p) for i in range(k + 1)
                            for w, p in _dense_wx_mul(ctx, x.coeffs[i], y.coeffs[k - i]).items()])
            for k in range(o + 1)]


def _dual_elements(rng, n):
    """Ambient dual numbers, the kit's memoized factors among them; returns
    the kit too, so a test can check that the memo still hands out the
    operands it snapshotted."""
    d = n + 1
    kit = DualKit(n, random_poly(rng, d, 2, 2) + Poly.var(d, 0))
    zero = DualPoly(Poly.zero(d), Poly.zero(d))
    return kit, [
        zero, kit.embed(random_poly(rng, d, 2, 3)), DualPoly(Poly.zero(d), random_poly(rng, d, 2, 3)),
        DualPoly(random_poly(rng, d, 2, 3), random_poly(rng, d, 2, 3)), kit.sigma_elem(),
        kit.exp_ambient(Q(-3, 2)), kit.exp_ambient(2), kit.exp_ambient(0),
        DualPoly(Poly.const(d, 2), Poly.zero(d)), zero,
    ]


def _jet_ctx(rng, n, order):
    # sigma in x0, x1 and y only: sigma0_partials[i] is empty for i >= 2
    d = n + 1
    x0, x1, y = Poly.var(d, 0), Poly.var(d, 1), Poly.var(d, d - 1)
    return JetCtx(n, x0 * y + x1 * x1 + rng.randint(1, 3) * x0 * x1 + y * y, order)


def _wx_elements(rng, ctx):
    n = ctx.n
    return [
        ctx.zero_boundary(), ctx.embed_boundary(random_poly(rng, n, 2, 3)),
        ctx.exp_boundary(2) * random_poly(rng, n, 2, 3),
        ctx.exp_boundary(Q(-1, 2)) * random_poly(rng, n, 2, 2) + ctx.embed_boundary(random_poly(rng, n, 2, 2)),
        ctx.exp_boundary(1), confcalc.WxPoly(ctx, {Q(3): Poly.zero(n)}),
    ]


def _jet_elements(rng, ctx):
    d = ctx.n + 1
    wx = _wx_elements(rng, ctx)
    return [
        confcalc.Jet(ctx, [], ctx.order), ctx.embed(random_poly(rng, d, 2, 3)), ctx.embed(Poly.const(d, 3)),
        ctx.exp_ambient(Q(1, 2)), ctx.exp_ambient(-2), confcalc.Jet(ctx, [wx[0], wx[2], wx[0], wx[3]], ctx.order),
        confcalc.Jet(ctx, [wx[1], wx[0], wx[4], ctx.exp_boundary(-1)], ctx.order - 1),
    ]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dual_ring_laws_with_zero_operands(seed):
    rng = random.Random(seed)
    n = 5
    kit, xs = _dual_elements(rng, n)
    before = [_snapshot(x) for x in xs]
    for x in xs:
        for y in xs:
            assert _value(x + y) == (x.a + y.a, x.b + y.b)
            assert _value(x - y) == (x.a - y.a, x.b - y.b)
            assert _value(x * y) == (x.a * y.a, x.a * y.b + x.b * y.a)
        assert _value(-x) == (-x.a, -x.b)
        assert _value(x * Q(2, 3)) == (x.a * Q(2, 3), x.b * Q(2, 3))
        for i in (0, n):
            assert _value(x.diff(i)) == (x.a.diff(i), x.b.diff(i))
    zero = xs[0]
    for x in xs[1:-1]:
        assert x + zero is x and zero + x is x and x - zero is x
        assert zero * x is zero and x * zero is zero
    assert zero.diff(0) is zero and -zero is zero and zero * 5 is zero
    assert [_snapshot(x) for x in xs] == before
    # the memo still hands out the factors snapshotted above
    assert all(kit.exp_ambient(m) is x for m, x in zip((Q(-3, 2), 2, 0), xs[5:8]))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_weighted_ring_laws_with_zero_operands(seed):
    rng = random.Random(seed)
    n = 5
    ctx = _jet_ctx(rng, n, 4)
    assert not ctx.sigma0_partials[n - 1].terms
    xs = _wx_elements(rng, ctx)
    before = [_snapshot(x) for x in xs]
    for x in xs:
        for y in xs:
            assert (x + y).wmap == _dense_wx(ctx, [*x.wmap.items(), *y.wmap.items()])
            assert (x - y).wmap == _dense_wx(ctx, [*x.wmap.items(), *((w, -p) for w, p in y.wmap.items())])
            assert (x * y).wmap == _dense_wx_mul(ctx, x, y)
        for i in range(n):
            assert x.diff(i).wmap == _dense_wx_diff(ctx, x, i)
        assert (-x).wmap == _dense_wx(ctx, [(w, -p) for w, p in x.wmap.items()])
    zero = ctx.zero_boundary()
    assert ctx.zero_boundary() is zero and xs[-1].iszero()
    for x in xs[1:-1]:
        assert x + zero is x and zero + x is x and x - zero is x
        assert zero * x is zero and x * zero is zero
        assert zero * random_poly(rng, n, 2, 2) is zero
    assert zero.diff(0) is zero and -zero is zero
    assert [_snapshot(x) for x in xs] == before


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_jet_ring_laws_with_zero_operands(seed):
    rng = random.Random(seed)
    n = 5
    ctx = _jet_ctx(rng, n, 4)
    xs = _jet_elements(rng, ctx)
    before = [_snapshot(x) for x in xs]
    for x in xs:
        for y in xs:
            o = min(x.ord, y.ord)
            assert [c.wmap for c in (x * y).coeffs] == _dense_jet_mul(ctx, x, y)
            assert [c.wmap for c in (x + y).coeffs] == [
                _dense_wx(ctx, [*x.coeffs[k].wmap.items(), *y.coeffs[k].wmap.items()]) for k in range(o + 1)]
        for i in range(n):
            assert [c.wmap for c in x.diff(i).coeffs] == [_dense_wx_diff(ctx, c, i) for c in x.coeffs]
        assert [c.wmap for c in x.diff(n).coeffs] == [
            _dense_wx(ctx, [(w, (k + 1) * p) for w, p in x.coeffs[k + 1].wmap.items()]) for k in range(x.ord)]
    zero, empty = xs[0], ctx.zero_boundary()
    assert all(c is empty for c in zero.coeffs)
    for x in xs:
        assert all(a is b for a, b in zip((x + zero).coeffs, x.coeffs))
        assert all(c is empty for c in (zero * x).coeffs + (x * zero).coeffs + zero.diff(0).coeffs)
    assert [_snapshot(x) for x in xs] == before
    # the memo still hands out the factors snapshotted above, the boundary
    # ones inside the last jet included
    assert ctx.exp_ambient(Q(1, 2)) is xs[3] and ctx.exp_ambient(-2) is xs[4]
    assert ctx.exp_boundary(1) is xs[-1].coeffs[2] and ctx.exp_boundary(-1) is xs[-1].coeffs[3]


@pytest.fixture
def perturbed_t4(monkeypatch):
    """T4 of every engine built from here on carries an extra lapJ/1000; the
    engine memo is cleared before and after, so no perturbed engine leaks."""
    import gjms6.boundary as boundary

    t4 = boundary.t4_scalar
    monkeypatch.setattr(boundary, "t4_scalar", lambda n, C: t4(n, C) + Q(1, 1000) * C.lapJ)
    conformal._engine.cache_clear()
    yield
    conformal._engine.cache_clear()


def test_zero_fast_paths_keep_a_real_residual(perturbed_t4):
    """Negative control: a perturbed T4 leaves a nonzero residual on both
    rings, so skipping zero operands hides nothing that is there."""
    n = 7
    d = n + 1
    x0, x2 = Poly.var(d, 0), Poly.var(d, 2)
    sigma, u = x0**4, x0 * x2 + 1
    g = halfspace(n)
    assert not infinitesimal_covariance_residual(4, VariationProbe(sigma), u, g).iszero()
    assert not finite_covariance_residual(4, sigma, u, g, order=6).iszero()


@pytest.fixture
def engine_builds(monkeypatch):
    """Arguments of every HalfspaceConformalEngine build from here on,
    starting from a cold engine memo."""
    builds = []
    init = confcalc.HalfspaceConformalEngine.__init__

    def counting(self, *args, **kw):
        builds.append(args)
        init(self, *args, **kw)

    monkeypatch.setattr(confcalc.HalfspaceConformalEngine, "__init__", counting)
    conformal._engine.cache_clear()
    return builds


def _value(x):
    """Comparable content of a boundary element over dual numbers or jets."""
    if isinstance(x, DualPoly):
        return x.a, x.b
    return x.wmap


def test_each_residual_builds_one_engine(engine_builds):
    """The flat side of a residual is apply_B, so each residual builds only
    the engine of the conformal metric."""
    n, d = 5, 6
    g = halfspace(n)
    x0, y = Poly.var(d, 0), Poly.var(d, d - 1)
    calls = (
        lambda: infinitesimal_covariance_residual(3, VariationProbe(x0 * y), x0 * x0 * y, g),
        lambda: finite_covariance_residual(4, x0 * y, x0 * y * y, g),
        lambda: critical_T_shift(2, y * y, g),
    )
    for call in calls:
        engine_builds.clear()
        assert call().iszero()
        assert len(engine_builds) == 1


def test_engine_memo_is_keyed_on_the_ring(engine_builds):
    """One engine per (n, sigma, ring): the dual ring and jets of orders 6
    and 7 each get their own, and a shared engine answers every operator
    order and field exactly as a freshly built one does."""
    n, d = 5, 6
    g = halfspace(n)
    x0, x1, y = Poly.var(d, 0), Poly.var(d, 1), Poly.var(d, d - 1)
    sigma = x0 * y + x1 * y * y
    fields = (x1 * x1 * y + x0, x0 * x1 * y * y)
    rings = (None, 6, 7)

    def operators(order, u):
        eng = conformal._engine(n, sigma, order)
        return [_value(eng.boundary_operator(j, eng.kit.embed(u))) for j in range(6)]

    warm = {(order, k): operators(order, u) for k, u in enumerate(fields) for order in rings}
    assert len(engine_builds) == len(rings)
    assert isinstance(conformal._engine(n, sigma, None).kit, DualKit)
    assert [conformal._engine(n, sigma, o).kit.order for o in (6, 7)] == [6, 7]
    for (order, k), want in warm.items():
        conformal._engine.cache_clear()
        assert operators(order, fields[k]) == want
    for u in fields:
        for j in range(6):
            assert infinitesimal_covariance_residual(j, VariationProbe(sigma), u, g).iszero()
            for order in (6, 7):
                assert finite_covariance_residual(j, sigma, u, g, order=order).iszero()


def test_critical_shift_shares_the_finite_engine(engine_builds):
    d = 6
    g = halfspace(5)
    x0, y = Poly.var(d, 0), Poly.var(d, d - 1)
    sigma, u = x0 * y + y * y, x0 * x0 * y
    for j in range(6):
        assert finite_covariance_residual(j, sigma, u, g, order=6).iszero()
    for j in range(1, 6):
        assert critical_T_shift(j, sigma, g).iszero()
    assert len(engine_builds) == 1


@pytest.mark.parametrize("seed", [0, 3])
def test_cli_covariance_builds_one_engine_per_probe(engine_builds, tmp_path, seed):
    """``gjms6 covariance --n 5`` builds one engine per distinct (sigma,
    ring): its probes, replayed in the CLI's draw order, are 12
    infinitesimal (dual ring), 3 finite and 3 critical-shift probes (both
    order-6 jets)."""
    rng = random.Random(seed)
    d = 6
    keys = set()
    for ring, count, draw in ((None, 12, (3, 2)), (6, 3, (2, 2, 2))):
        for _ in range(count):
            keys.add((random_poly(rng, d, *draw), ring))
            random_poly(rng, d, *draw)  # the field u
    for _ in range(3):
        keys.add((random_poly(rng, d, 2, 2, 2), 6))
    assert main(["covariance", "--n", "5", "--seed", str(seed), "--out", str(tmp_path / "r.json")]) == 0
    assert len(engine_builds) == len(keys)
    assert conformal._engine.cache_info().currsize == len(keys)


@pytest.mark.parametrize("n", [5, 7])
def test_hess_nn_is_the_normal_entry_of_the_hessian(n):
    """``hess_nn`` builds one Hessian entry; it equals the (nu, nu) entry of
    the full covariant Hessian over both coefficient rings."""
    rng = random.Random(40 + n)
    d = n + 1
    x0, x1, y = Poly.var(d, 0), Poly.var(d, 1), Poly.var(d, d - 1)
    sigma = random_poly(rng, d, 2, 3, 2) + x0 * y
    u = random_poly(rng, d, 3, 3) + x1 * y * y + x0 * x0 * y
    for kit in (DualKit(n, sigma), JetCtx(n, sigma, 6)):
        eng = confcalc.HalfspaceConformalEngine(kit)
        v = kit.embed(u)
        nu = eng.nu
        got = eng.hess_nn(v)
        assert _value(got) == _value(eng.bdy.exp(-2) * eng.amb.hess(v)[nu][nu].drop_last())
        assert not got.iszero()


# ---------------------------------------------------------------------------
# the closed-form primitives against the Christoffel-sum references
# ---------------------------------------------------------------------------

def christoffel(cf, k, i, j):
    """Gamma^k_ij = delta^k_i s_j + delta^k_j s_i - delta_ij s_k of
    e^(2s) * flat, summed term by term, or None where it vanishes."""
    out = None
    if k == i:
        out = cf.si[j]
    if k == j:
        out = cf.si[i] if out is None else out + cf.si[i]
    if i == j:
        out = -cf.si[k] if out is None else out - cf.si[k]
    return out


def hess_entry_reference(cf, Fi, i, j):
    """Hess_ij F = F_ij - sum_k Gamma^k_ij F_k from the gradient components Fi."""
    h = Fi[i].diff(j)
    for k in range(cf.dim):
        g = christoffel(cf, k, i, j)
        if g is not None:
            h = h - g * Fi[k]
    return h


def hess_reference(cf, F):
    """Every entry of the covariant Hessian, (i, j) and (j, i) built apart."""
    Fi = [F.diff(i) for i in range(cf.dim)]
    return [[hess_entry_reference(cf, Fi, i, j) for j in range(cf.dim)] for i in range(cf.dim)]


def contract_reference(cf, A, B):
    """The contraction over the full square of indices."""
    dim = cf.dim
    return cf.exp(-4) * sum_all([A[i][j] * B[i][j] for i in range(dim) for j in range(dim)])


def P_grad_reference(cf, w):
    """P(grad w), with w.diff(k) and exp(-2) taken again for each row."""
    dim = cf.dim
    return [cf.exp(-2) * sum_all([cf.P[i][k] * w.diff(k) for k in range(dim)]) for i in range(dim)]


def schouten_reference(s, dim):
    """The Schouten components over the full square and J / e^(-2s)."""
    si = [s.diff(i) for i in range(dim)]
    sij = [[si[i].diff(j) for j in range(dim)] for i in range(dim)]
    grad2 = sum_all([si[i] * si[i] for i in range(dim)])
    P = [[-sij[i][j] + si[i] * si[j] for j in range(dim)] for i in range(dim)]
    for i in range(dim):
        P[i][i] = P[i][i] - Q(1, 2) * grad2
    return P, -sum_all([sij[i][i] for i in range(dim)]) - Q(dim - 2, 2) * grad2


def cov_P_nnn_reference(eng):
    amb, nu = eng.amb, eng.nu
    h = amb.P[nu][nu].diff(nu)
    for m in range(amb.dim):
        g = christoffel(amb, m, nu, nu)
        if g is not None:
            h = h - 2 * (g * amb.P[m][nu])
    return h


def _same(x, y):
    return _snapshot(x) == _snapshot(y)


def _same_tensor(A, B):
    return len(A) == len(B) and all(_same(a, b) for ra, rb in zip(A, B) for a, b in zip(ra, rb))


@pytest.mark.parametrize("ring", ["dual", "jet6"])
@pytest.mark.parametrize("n", [5, 7])
def test_closed_form_primitives_match_the_christoffel_references(n, ring):
    """hess, hess_nn, cov_P_nnn, contract, P_grad and the Schouten tensor of
    the engine equal, exactly, their references over every index pair, for a
    random sigma of degree <= 3 with a normal part."""
    rng = random.Random(90 + n)
    d = n + 1
    x0, x1, y = Poly.var(d, 0), Poly.var(d, 1), Poly.var(d, d - 1)
    sigma = random_poly(rng, d, 3, 3) + x0 * y * y + x0 * x1 * y + y**3
    u = random_poly(rng, d, 3, 3) + x1 * y * y + x0 * x0 * y + x0 * x1
    kit = DualKit(n, sigma) if ring == "dual" else JetCtx(n, sigma, 6)
    eng = HalfspaceConformalEngine(kit)
    amb, bdy, nu = eng.amb, eng.bdy, eng.nu
    v = kit.embed(u)
    w = v.drop_last()
    s = kit.sigma_elem()
    for cf, s_cf in ((amb, s), (bdy, s.drop_last())):
        P, J = schouten_reference(s_cf, cf.dim)
        assert _same_tensor(cf.P, P)
        assert _same(cf.J, cf.exp(-2) * J)
    hv, hw = amb.hess(v), bdy.hess(w)
    assert _same_tensor(hv, hess_reference(amb, v))
    assert _same_tensor(hw, hess_reference(bdy, w))
    assert _same_tensor(eng.bhessH, hess_reference(bdy, eng.H))
    Fi = [v.diff(i) for i in range(amb.dim)]
    got = eng.hess_nn(v)
    assert _same(got, bdy.exp(-2) * hess_entry_reference(amb, Fi, nu, nu).drop_last())
    assert _same(eng.cov_P_nnn(), cov_P_nnn_reference(eng))
    pairs = ((amb, amb.P, amb.P), (amb, amb.P, hv), (bdy, bdy.P, bdy.P), (bdy, bdy.P, eng.bhessH),
             (bdy, eng.bhessH, hw))
    for cf, A, B in pairs:
        assert _same(cf.contract(A, B), contract_reference(cf, A, B))
    for cf, f in ((amb, v), (bdy, w), (bdy, eng.H)):
        assert all(_same(a, b) for a, b in zip(cf.P_grad(f), P_grad_reference(cf, f)))
    # the checks compare nonzero values
    assert not (got.iszero() or eng.cov_P_nnn().iszero() or amb.contract(amb.P, hv).iszero())
    assert not bdy.contract(eng.bhessH, hw).iszero()


# ---------------------------------------------------------------------------
# one conformal-factor memo per kit
# ---------------------------------------------------------------------------

def _kits(n, sigma, other):
    return [DualKit(n, sigma), DualKit(n, other), JetCtx(n, sigma, 6), JetCtx(n, sigma, 7), JetCtx(n, other, 6)]


def test_each_kit_builds_a_factor_once():
    """e^(m s) is built once per (side, m): m = 2 and Q(2) share it, the
    ambient and boundary factors of one m are apart, and the memo holds the
    value a fresh kit builds."""
    n, d = 5, 6
    x0, x1, y = Poly.var(d, 0), Poly.var(d, 1), Poly.var(d, d - 1)
    sigma, other = x0 * y + x1 * x1, y * y
    for kit, fresh in zip(_kits(n, sigma, other), _kits(n, sigma, other)):
        assert kit.exp_boundary(2) is kit.exp_boundary(Q(2))
        assert kit.exp_ambient(Q(-3, 2)) is kit.exp_ambient(Q(-3, 2))
        assert kit.exp_ambient(2) is not kit.exp_boundary(2)
        # a jet's ambient factor reads the boundary factors of 0 and m
        assert {("boundary", 2), ("ambient", Q(-3, 2)), ("ambient", 2)} <= set(kit._factors)
        assert len(kit._factors) == (3 if isinstance(kit, DualKit) else 5)
        assert all(type(m) is Q for _, m in kit._factors)
        for m in (2, Q(-3, 2)):
            assert _same(kit.exp_ambient(m), fresh.exp_ambient(m))
        assert _same(kit.exp_boundary(2), fresh.exp_boundary(2))


def test_kits_share_no_factor():
    """Kits of a different sigma or jet order share no factor object, and a
    kit with its factors is freed once nothing else refers to it (the memo
    is a dict of the instance, not a class-level cache keyed on it)."""
    n, d = 5, 6
    x0, x1, y = Poly.var(d, 0), Poly.var(d, 1), Poly.var(d, d - 1)
    sigma = x0 * y + x1 * x1
    kits = _kits(n, sigma, sigma + y * y)
    ids = [{id(f) for m in (0, 1, Q(-1, 2)) for f in (kit.exp_ambient(m), kit.exp_boundary(m))} for kit in kits]
    for a in range(len(kits)):
        assert len(ids[a]) == 6
        for b in range(a):
            assert not ids[a] & ids[b]
    # a different sigma gives a different ambient factor
    assert not _same(kits[0].exp_ambient(1), kits[1].exp_ambient(1))
    assert not _same(kits[2].exp_ambient(1), kits[4].exp_ambient(1))
    assert kits[2].exp_ambient(1).ord == 6 and kits[3].exp_ambient(1).ord == 7
    refs = [weakref.ref(kit) for kit in kits]
    del kits
    gc.collect()
    assert all(r() is None for r in refs)


def test_engine_curvature_of_sigma_y():
    """The engine's curvature record for e^(2 sigma) * flat on the half space:
    flat for sigma = 0; for sigma = y, P-hat = dy x dy - g/2, so
    e^(s0) H-hat = n * eta(sigma) = -n and e^(2 s0) P-hat(eta, eta) = 1/2."""
    n = 7
    d = n + 1
    flat = conformal._engine(n, Poly.zero(d), 6).curvature
    assert flat.H.iszero() and flat.Pnn.iszero()
    C = conformal._engine(n, Poly.var(d, d - 1), 6).curvature
    assert C.H.wmap == {-1: Poly.const(n, -7)}
    assert C.Pnn.wmap == {-2: Poly.const(n, Q(1, 2))}


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


# ---------------------------------------------------------------------------
# boundary-jet normalization of the conformal factor: a reference helper
# that no claim of the package uses
# ---------------------------------------------------------------------------

@dataclass
class BoundaryJet:
    """Normal jet of a function along the boundary: coefficients are the
    eta-direction derivatives (eta^k u)|_M up to the stated order."""

    coeffs: list
    order: int


def normalize_jet(geom, order: int = 5) -> BoundaryJet:
    """Normal jet of the conformal factor that normalizes the metric at the
    boundary.

    For n > 5 solves B_0(u) = 1 and B_j(u) = 0, j = 1..order; in the critical
    dimension solves B_0(u) = 0 and T_j + B_j(u) = 0.  The system is
    triangular in the normal derivatives, so the jet is exact.  Coefficients
    are the eta-direction derivatives at the zero-frequency boundary mode.
    """
    n = geom.n
    scalars = model_coefficients(geom)[1]
    # eta = eta_sign * d/dtau in the collar parametrization
    _, _, eta_sign, _ = collar_coefficients(geom.kind, n, 2)
    known = [Q(1) if n > 5 else Q(0)]  # eta^0 u
    for j in range(1, order + 1):
        x = Poly.var(1, 0)
        derivs = []
        for k in range(order + 3):
            if k < len(known):
                derivs.append(eta_sign**k * known[k])
            elif k == j:
                derivs.append(eta_sign**k * x)
            else:
                derivs.append(Q(0))
        mode = mode_from_derivs(n, 0, derivs, order + 2)
        val = apply_B(j, geom, mode)
        target = Poly.zero(1) if n > 5 else Poly.const(1, -scalars[f"T{j}"])
        rel = val - target if isinstance(val, Poly) else Poly.const(1, val) - target
        # rel = c1 * x + c0 must vanish
        c1 = rel.terms.get((1,), Q(0))
        c0 = rel.terms.get((0,), Q(0))
        if c1 == 0:
            raise ArithmeticError("normalization system unexpectedly degenerate")
        known.append(-Q(c0) / c1)
    return BoundaryJet(coeffs=known, order=order)


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
    for geom in (ball(7), hemisphere(8), hyperbolic_geodesic(9)):
        n = geom.n
        jet = normalize_jet(geom)
        _, _, sgn, _ = collar_coefficients(geom.kind, n, 2)
        derivs = [sgn**k * jet.coeffs[k] for k in range(6)] + [Q(0), Q(0)]
        mode = mode_from_derivs(n, 0, derivs, 7)
        assert apply_B(0, geom, mode) == 1
        for j in range(1, 6):
            assert apply_B(j, geom, mode) == 0, (geom.kind, j)


# ---------------------------------------------------------------------------
# Moebius transport between the round sphere and flat space: float
# references for ``traces.round_bubble_center``, itself checked below
# ---------------------------------------------------------------------------

def stereo_to_sphere(x):
    """R^n -> S^n (unit sphere in R^(n+1)), inverse stereographic projection
    from the south pole: x maps to (2x, 1-|x|^2)/(1+|x|^2)."""
    x = np.asarray(x, dtype=float)
    r2 = float(np.dot(x, x))
    return np.append(2.0 * x, 1.0 - r2) / (1.0 + r2)


def sphere_to_stereo(X):
    """S^n -> R^n, stereographic projection from the south pole."""
    X = np.asarray(X, dtype=float)
    return X[:-1] / (1.0 + X[-1])


def conformal_factor_flat(x) -> float:
    """Omega with round = Omega^2 * flat under stereographic projection."""
    x = np.asarray(x, dtype=float)
    return 2.0 / (1.0 + float(np.dot(x, x)))


def cayley_transport_function(f, weight, to: str = "flat"):
    """Transport a boundary density of the given conformal weight between the
    round sphere and flat space, f_flat(x) = Omega(x)^w f_round(X(x)): from
    ``f`` on S^n in R^(n+1) to a function on R^n (to="flat"), or back
    (to="round")."""
    w = float(weight)
    if to == "flat":
        return lambda x: conformal_factor_flat(x) ** w * f(stereo_to_sphere(x))
    if to == "round":
        return lambda X: f(sphere_to_stereo(X)) / conformal_factor_flat(sphere_to_stereo(X)) ** w
    raise ValueError("direction must be 'flat' or 'round'")


def flat_bubble_params(xi):
    """The round bubble (1 + X.xi)^(-w) as a multiple of the flat bubble
    (eps + |x - x0|^2)^(-w): returns (m, eps, x0) with m = 1 - xi_(n+1) =
    2/(1 + eps + |x0|^2); the inverse of ``round_bubble_center``."""
    xi = np.asarray(xi, dtype=float)
    m = 1.0 - xi[-1]
    x0 = -xi[:-1] / m
    eps = (1.0 - float(np.dot(xi, xi))) / m**2
    return m, eps, x0


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
    xi = round_bubble_center(eps, x0)
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
