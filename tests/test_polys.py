"""Exact polynomial calculus: derivatives, moments, sphere reduction."""

import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gjms6.polys import (
    MomentScalar,
    Poly,
    ball_integral,
    euler_op,
    laplacian,
    random_poly,
    reduce_mod_sphere,
    sphere_integral,
    sphere_pairing,
    sphere_relation_power,
)


def radial_sq(d):
    return sum((Poly.var(d, i) ** 2 for i in range(d)), Poly.zero(d))


def test_laplacian_monomials():
    d = 6
    assert laplacian(Poly.var(d, 0, 2)) == Poly.const(d, 2)
    # x1 * y is harmonic
    assert laplacian(Poly.var(d, 0) * Poly.var(d, 5)).iszero()
    r2 = radial_sq(d)
    assert laplacian(r2**3) == 60 * r2**2


def test_triple_laplacian_sixth_power():
    d = 6
    p = radial_sq(d) ** 3
    out = laplacian(laplacian(laplacian(p)))
    assert out == Poly.const(d, 23040)


@st.composite
def sparse_polys(draw, d=4, deg=4):
    terms = draw(st.integers(1, 3))
    p = Poly.zero(d)
    for _ in range(terms):
        e = [draw(st.integers(0, deg)) for _ in range(d)]
        while sum(e) > deg:
            e[e.index(max(e))] -= 1
        c = draw(st.integers(-4, 4))
        p = p + Poly.monomial(d, e, c)
    return p


@settings(max_examples=25, deadline=None)
@given(sparse_polys(), st.permutations(list(range(3))))
def test_laplacian_commutes_with_boundary_permutations(p, perm):
    # permute the first three (boundary) coordinates of a 4-variable poly
    full = list(perm) + [3]

    def permute(q):
        return Poly(q.d, {tuple(e[full[i]] for i in range(q.d)): c for e, c in q.terms.items()})

    assert laplacian(permute(p)) == permute(laplacian(p))


@settings(max_examples=20, deadline=None)
@given(sparse_polys(d=4, deg=3), sparse_polys(d=4, deg=3))
def test_green_identity_on_ball(p, q):
    # int_B (lap p) q - p (lap q) = boundary integral of (dp/dr q - p dq/dr)
    lhs = ball_integral(laplacian(p) * q) - ball_integral(p * laplacian(q))
    rhs = sphere_integral(euler_op(p) * q - p * euler_op(q))
    assert (lhs - rhs).iszero()


def test_sphere_moments():
    d = 8  # S^7
    assert sphere_integral(Poly.const(d, 1)) == MomentScalar(Q(1), "vol_sn", 7)
    assert sphere_integral(Poly.var(d, 0, 2)).q == Q(1, 8)
    assert sphere_integral(Poly.var(d, 0)).q == 0  # odd moment
    assert ball_integral(Poly.const(d, 1)).q == Q(1, 8)


def test_moment_unit_discipline():
    a = sphere_integral(Poly.const(8, 1))
    b = ball_integral(Poly.const(6, 1))
    with pytest.raises(ValueError):
        _ = a + b  # different sphere dimensions


def test_reduce_mod_sphere():
    d = 3
    x, y, z = (Poly.var(d, i) for i in range(3))
    # z^2 -> 1 - x^2 - y^2
    assert reduce_mod_sphere(z**2) == Poly.const(d, 1) - x**2 - y**2
    # the reduction is a sphere-identity: integrals agree
    p = z**4 * x**2
    assert (sphere_integral(p) - sphere_integral(reduce_mod_sphere(p))).iszero()


def test_random_poly_draw_order_is_pinned():
    # seeded CLI reports depend on the order of the draws
    rng = random.Random(5)
    assert random_poly(rng, 4, 3, 3).terms == {(1, 0, 1, 0): Q(3), (1, 2, 0, 0): Q(-3)}
    assert random_poly(rng, 4, 2, 2, 2).terms == {(1, 1, 0, 0): Q(-2)}


def test_random_reduce_consistency():
    rng = random.Random(0)
    d = 4
    for _ in range(10):
        p = Poly.zero(d)
        for _ in range(3):
            e = tuple(rng.randint(0, 3) for _ in range(d))
            p = p + Poly.monomial(d, e, rng.randint(-3, 3))
        assert (sphere_integral(p) - sphere_integral(reduce_mod_sphere(p))).iszero()


def _ref_add(a: dict, b: dict, sign=1) -> dict:
    t = dict(a)
    for e, c in b.items():
        t[e] = t.get(e, 0) + sign * c
    return {e: c for e, c in t.items() if c}


def _ref_mul(a: dict, b: dict) -> dict:
    t: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            t[e] = t.get(e, 0) + c1 * c2
    return {e: c for e, c in t.items() if c}


def _ref_diff(a: dict, i: int) -> dict:
    return {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] for e, c in a.items() if e[i]}


zero_or_sparse = st.one_of(st.just(Poly.zero(4)), sparse_polys(d=4, deg=3))


@settings(max_examples=60, deadline=None)
@given(zero_or_sparse, zero_or_sparse,
       st.one_of(st.integers(-3, 3), st.fractions(max_denominator=5).filter(lambda q: abs(q) < 4)),
       st.integers(0, 3))
def test_zero_sharing_arithmetic_matches_dict_arithmetic(p, q, c, i):
    """The zero-aware kernel gives the plain dict results, holds no zero
    coefficient, may return a zero operand itself, and changes no operand."""
    before = [dict(p.terms), dict(q.terms)]
    cases = [
        (p + q, _ref_add(p.terms, q.terms)),
        (p - q, _ref_add(p.terms, q.terms, -1)),
        (p * q, _ref_mul(p.terms, q.terms)),
        (c * p, {e: c * v for e, v in p.terms.items() if c}),
        (p * c, {e: c * v for e, v in p.terms.items() if c}),
        (-p, {e: -v for e, v in p.terms.items()}),
        (p.diff(i), _ref_diff(p.terms, i)),
    ]
    for got, want in cases:
        assert isinstance(got, Poly) and got.d == p.d
        assert got.terms == want
        assert all(got.terms.values())
    if q.iszero():
        assert p + q is p and p - q is p
    zeros = [z for z in (p, q) if z.iszero()]
    if zeros:
        assert any(p * q is z for z in zeros) and any(q * p is z for z in zeros)
    assert [p.terms, q.terms] == before


# -- closed-form calculus against its definitions ---------------------------

def _ref_euler(p: Poly) -> Poly:
    return sum((Poly.var(p.d, i) * p.diff(i) for i in range(p.d)), Poly.zero(p.d))


def _ref_laplacian(p: Poly) -> Poly:
    return sum((p.diff(i).diff(i) for i in range(p.d)), Poly.zero(p.d))


def _ref_reduce(p: Poly) -> Poly:
    """x_last^2 = 1 - |x'|^2 substituted term by term, the power built afresh."""
    d = p.d
    rel = Poly.const(d, 1) - sum((Poly.var(d, i, 2) for i in range(d - 1)), Poly.zero(d))
    out = Poly.zero(d)
    for e, c in p.terms.items():
        k, r = divmod(e[-1], 2)
        out = out + Poly.monomial(d, e[:-1] + (r,), c) * rel**k
    return out


@st.composite
def cancelling_polys(draw, d):
    """Zero, a sparse polynomial of degree <= 6, or one plus a multiple of
    the sphere relation (whose reduction cancels) or a harmonic
    x_k^a (x_i^2 - x_j^2) (whose Laplacian terms cancel in pairs)."""
    kind = draw(st.sampled_from(["zero", "sparse", "sphere", "harmonic"]))
    if kind == "zero":
        return Poly.zero(d)
    p = draw(sparse_polys(d=d, deg=6))
    c = draw(st.integers(1, 3))
    if kind == "sphere":
        m = Poly.monomial(d, [draw(st.integers(0, 2)) for _ in range(d)], c)
        r2 = sum((Poly.var(d, i, 2) for i in range(d)), Poly.zero(d))
        p = p + m * (r2 - 1)
    elif kind == "harmonic":
        i, j, k = draw(st.permutations(list(range(d))))[:3]
        m = c * Poly.var(d, k, draw(st.integers(0, 3)))
        p = p + m * (Poly.var(d, i, 2) - Poly.var(d, j, 2))
    return p


@pytest.mark.parametrize("d", [6, 8])
def test_closed_form_calculus_matches_definitions(d):
    @settings(max_examples=40, deadline=None)
    @given(cancelling_polys(d))
    def check(p):
        before = dict(p.terms)
        for op, ref in ((euler_op, _ref_euler), (laplacian, _ref_laplacian),
                        (reduce_mod_sphere, _ref_reduce)):
            got = op(p)
            assert got.d == d and got == ref(p), op.__name__
            assert all(got.terms.values()), op.__name__
            assert p.terms == before
        first = reduce_mod_sphere(p)
        # a caller using a memoized power, with results that may alias it
        for k in range(1, 4):
            power = sphere_relation_power(d, k)
            kept = dict(power.terms)
            assert power + Poly.zero(d) is power
            assert (power + Poly.var(d, 0)) - power == Poly.var(d, 0)
            assert -(power * Poly.var(d, 0)) != 0
            assert power.terms == kept
        assert reduce_mod_sphere(p) == first

    check()


@pytest.mark.parametrize("d", [3, 6, 8])
def test_sphere_relation_power_is_the_power(d):
    rel = Poly.const(d, 1) - sum((Poly.var(d, i, 2) for i in range(d - 1)), Poly.zero(d))
    for k in range(4):
        assert sphere_relation_power(d, k) == rel**k


@pytest.mark.parametrize("d", [6, 8])
def test_sphere_pairing_is_the_integral_of_the_product(d):
    """Pairing only parity-matched terms drops no nonzero moment, on zero
    operands, terms of odd exponent, and reduced and unreduced operands."""
    @settings(max_examples=40, deadline=None)
    @given(cancelling_polys(d), cancelling_polys(d), st.booleans(), st.booleans())
    def check(p, q, reduce_p, reduce_q):
        if reduce_p:
            p = reduce_mod_sphere(p)
        if reduce_q:
            q = reduce_mod_sphere(q)
        assert sphere_pairing(p, q) == sphere_integral(p * q)
        assert sphere_pairing(q, p) == sphere_pairing(p, q)

    check()
    x0, y = Poly.var(d, 0), Poly.var(d, d - 1)
    assert sphere_pairing(x0 + y, x0 * 3) == MomentScalar(Q(3, d), "vol_sn", d - 1)
    with pytest.raises(ValueError):
        sphere_pairing(x0, Poly.var(d + 1, 0))
