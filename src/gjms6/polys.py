"""Exact rational polynomial calculus.

Sparse multivariate polynomials over the rationals and exact moment
integration over unit spheres and balls.  Everything in this module is pure
value arithmetic; results are exact.  A coefficient is stored as an ``int``
when the constructors or a scalar factor see an integral value (``_coeff``)
and as a ``Fraction`` otherwise, since an int operation costs a small part
of a Fraction one, which pays for a gcd; sums and products keep the type
Python's arithmetic gives them, so an integral value may also be held as a
Fraction.  Both forms compare, hash and print alike.  Two ints divide to a
float, so a division of coefficients goes through Fraction (``Q(c) / d``).
A ``Poly`` result may share a zero operand: ``p + 0`` is ``p`` and ``p * 0``
is that zero, so no code may mutate a polynomial.  The Euler operator, the
Laplacian and the reduction modulo the unit sphere are one pass over the
terms each, in closed form; the powers (1 - |x'|^2)^k that the reduction
substitutes for x_last^(2k) are memoized per (d, k) and shared by every
caller.  Single-frequency modes on
the flat half space are separated modes (``reps.SeparatedMode``) with Poly
jet coefficients, not a field type of their own.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add as _add
from typing import Iterable, Mapping

Q = Fraction

# the exact scalar types; a dispatch tests ``type(x) in SCALARS`` before
# ``isinstance(x, SCALARS)``, which for a non-int runs
# ``ABCMeta.__instancecheck__`` (the metaclass of Fraction)
SCALARS = (int, Fraction)


def _coeff(c):
    """A rational coefficient as stored in a Poly: an int when integral,
    otherwise a Fraction."""
    t = type(c)
    if t is int:
        return c
    if t is Fraction or isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError(f"expected a rational coefficient, got {type(c).__name__}")


class Poly:
    """Sparse polynomial in ``d`` variables with int or Fraction
    coefficients.

    ``terms`` maps exponent tuples of length ``d`` to nonzero coefficients.
    Instances are immutable: a result may be one of its operands, so
    nothing may write to ``terms``.
    """

    __slots__ = ("d", "terms")

    def __init__(self, d: int, terms: Mapping[tuple, int | Fraction] | None = None):
        self.d = d
        t = {}
        if terms:
            for e, c in terms.items():
                if c:
                    t[e] = c
        self.terms = t

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, d: int) -> "Poly":
        return cls(d)

    @classmethod
    def const(cls, d: int, c) -> "Poly":
        c = _coeff(c)
        return cls(d, {(0,) * d: c} if c else None)

    @classmethod
    def var(cls, d: int, i: int, power: int = 1) -> "Poly":
        e = [0] * d
        e[i] = power
        return cls(d, {tuple(e): 1})

    @classmethod
    def monomial(cls, d: int, exps: Iterable[int], c=1) -> "Poly":
        return cls(d, {tuple(exps): _coeff(c)})

    # -- ring operations ----------------------------------------------
    def __add__(self, other):
        if type(other) is not Poly:
            other = self._as_poly(other)
            if other is NotImplemented:
                return NotImplemented
        elif other.d != self.d:
            raise ValueError(f"dimension mismatch: {self.d} vs {other.d}")
        if not other.terms:
            return self
        if not self.terms:
            return other
        t = dict(self.terms)
        get = t.get
        for e, c in other.terms.items():
            s = get(e)
            if s is None:
                t[e] = c
            else:
                s += c
                if s:
                    t[e] = s
                else:
                    del t[e]
        return _unchecked(self.d, t)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return self._as_poly(other) + (-self)

    def __neg__(self):
        if not self.terms:
            return self
        return _unchecked(self.d, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if type(other) is not Poly:
            if not (type(other) in SCALARS or isinstance(other, SCALARS)):
                return NotImplemented
            if not self.terms:
                return self
            c = _coeff(other)
            if not c:
                return _unchecked(self.d, {})
            return _unchecked(self.d, {e: c * v for e, v in self.terms.items()})
        if other.d != self.d:
            raise ValueError(f"dimension mismatch: {self.d} vs {other.d}")
        if not self.terms:
            return self
        if not other.terms:
            return other
        t: dict = {}
        get = t.get
        b = other.terms.items()
        for e1, c1 in self.terms.items():
            for e2, c2 in b:
                e = tuple(map(_add, e1, e2))
                s = get(e)
                if s is None:
                    t[e] = c1 * c2
                else:
                    s += c1 * c2
                    if s:
                        t[e] = s
                    else:
                        del t[e]
        return _unchecked(self.d, t)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = Poly.const(self.d, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def _as_poly(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.d != self.d:
                raise ValueError(f"dimension mismatch: {self.d} vs {other.d}")
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(self.d, other)
        return NotImplemented

    # -- calculus ------------------------------------------------------
    def diff(self, i: int) -> "Poly":
        if not self.terms:
            return self
        t = {}
        for e, c in self.terms.items():
            k = e[i]
            if k:
                t[e[:i] + (k - 1,) + e[i + 1:]] = c * k
        return _unchecked(self.d, t)

    def drop_last(self) -> "Poly":
        """Restrict to the hyperplane where the last variable is 0."""
        t = {e[:-1]: c for e, c in self.terms.items() if e[-1] == 0}
        return _unchecked(self.d - 1, t)

    # -- queries --------------------------------------------------------
    def iszero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.d, other)
        return isinstance(other, Poly) and self.d == other.d and self.terms == other.terms

    def __hash__(self):
        return hash((self.d, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(f"x{i}^{p}" if p > 1 else f"x{i}" for i, p in enumerate(e) if p)
            parts.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(parts)


def _unchecked(d: int, terms: dict) -> Poly:
    """A Poly wrapping ``terms`` as they are: for results whose coefficients
    are known to be nonzero; the dict is handed over, not copied."""
    p = object.__new__(Poly)
    p.d = d
    p.terms = terms
    return p


def random_poly(rng, d: int, deg: int, nterms: int, maxc: int = 3) -> Poly:
    """Sum of ``nterms`` random monomials in ``d`` variables, each of degree
    at most ``deg`` with an integer coefficient in [-maxc, maxc] (zero draws
    are dropped).  ``rng`` is a ``random.Random``; the draws for one term are
    the degree, the variables, then the coefficient, so seeded callers get
    reproducible polynomials."""
    p = Poly.zero(d)
    for _ in range(nterms):
        e = [0] * d
        for _ in range(rng.randint(0, deg)):
            e[rng.randrange(d)] += 1
        c = rng.randint(-maxc, maxc)
        if c:
            p = p + Poly.monomial(d, e, c)
    return p


def sum_all(items):
    """Sum of a nonempty sequence of ring elements, starting from the first."""
    acc = None
    for t in items:
        acc = t if acc is None else acc + t
    return acc


def laplacian(p: Poly) -> Poly:
    """Flat Laplacian sum of second partials in all variables of ``p``:
    x^e contributes e_i (e_i - 1) x^(e - 2 e_i) for each variable i."""
    t: dict = {}
    get = t.get
    for e, c in p.terms.items():
        for i, k in enumerate(e):
            if k > 1:
                f = e[:i] + (k - 2,) + e[i + 1:]
                v = c * (k * (k - 1))
                s = get(f)
                t[f] = v if s is None else s + v
    return _unchecked(p.d, {f: c for f, c in t.items() if c})


def degree_weighted(p: Poly, weight) -> Poly:
    """sum_k weight(k) p_k over the homogeneous pieces p_k of ``p``, for an
    integer or rational ``weight``; pieces of weight 0 drop out."""
    t = {}
    for e, c in p.terms.items():
        w = weight(sum(e))
        if w:
            t[e] = c * w
    return _unchecked(p.d, t)


def euler_op(p: Poly) -> Poly:
    """Euler operator sum x_i d/dx_i, i.e. r d/dr on homogeneous pieces:
    x^e is an eigenfunction with eigenvalue |e|."""
    return _unchecked(p.d, {e: c * k for e, c in p.terms.items() if (k := sum(e))})


def grad_dot(p: Poly, q: Poly) -> Poly:
    out = Poly.zero(p.d)
    for i in range(p.d):
        out = out + p.diff(i) * q.diff(i)
    return out


@functools.lru_cache(maxsize=None)
def sphere_relation_power(d: int, k: int) -> Poly:
    """(1 - x_0^2 - ... - x_(d-2)^2)^k, the power of x_last^2 on the unit
    sphere in R^d.  Memoized on (d, k), so callers share it and must not
    mutate it."""
    if k == 0:
        return Poly.const(d, 1)
    base = Poly.const(d, 1) - sum((Poly.var(d, i, 2) for i in range(d - 1)), Poly.zero(d))
    return sphere_relation_power(d, k - 1) * base


def reduce_mod_sphere(p: Poly) -> Poly:
    """Canonical representative of ``p`` modulo the unit-sphere relation.

    Eliminates powers >= 2 of the last variable via
    x_last^2 = 1 - sum of the squares of the other variables, leaving a
    polynomial of degree <= 1 in the last variable.
    """
    d = p.d
    t: dict = {}
    get = t.get
    for e, c in p.terms.items():
        k, r = divmod(e[-1], 2)
        if k == 0:
            s = get(e)
            t[e] = c if s is None else s + c
            continue
        head = e[:-1]
        for f, a in sphere_relation_power(d, k).terms.items():
            # map stops after head's d - 1 entries; f's last exponent is 0
            g = (*map(_add, head, f), r)
            v = c * a
            s = get(g)
            t[g] = v if s is None else s + v
    return _unchecked(d, {e: c for e, c in t.items() if c})


# ---------------------------------------------------------------------------
# exact moments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentScalar:
    """Exact integral value, a rational multiple of a symbolic unit.

    ``unit`` is "pure" for dimensionless rationals or "vol_sn" for rational
    multiples of Vol(S^n); the volume is never expanded in exact arithmetic.
    """

    q: Fraction
    unit: str = "pure"
    n: int | None = None

    def _check(self, other: "MomentScalar"):
        if self.unit != other.unit or (self.unit == "vol_sn" and self.n != other.n):
            raise ValueError(f"unit mismatch: {self.unit}/{self.n} vs {other.unit}/{other.n}")

    def __add__(self, other: "MomentScalar") -> "MomentScalar":
        if self.q == 0 and self.unit == "pure" and other.unit != "pure":
            return other
        if other.q == 0 and other.unit == "pure" and self.unit != "pure":
            return self
        self._check(other)
        return MomentScalar(self.q + other.q, self.unit, self.n)

    def __sub__(self, other: "MomentScalar") -> "MomentScalar":
        return self + MomentScalar(-other.q, other.unit, other.n)

    def __neg__(self):
        return MomentScalar(-self.q, self.unit, self.n)

    def __mul__(self, c):
        return MomentScalar(self.q * _coeff(c), self.unit, self.n)

    __rmul__ = __mul__

    def iszero(self) -> bool:
        return self.q == 0

    def value(self) -> float:
        """Numeric value, expanding Vol(S^n) when present."""
        if self.unit == "pure":
            return float(self.q)
        return float(self.q) * vol_sphere(self.n)


def vol_sphere(n: int) -> float:
    """Volume of the unit n-sphere, 2 pi^((n+1)/2) / Gamma((n+1)/2)."""
    return 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0)


def double_factorial_odd(a: int) -> int:
    """(2a-1)!! with the empty product equal to 1."""
    out = 1
    for k in range(1, 2 * a, 2):
        out *= k
    return out


def sphere_monomial_moment(exps: tuple, d: int) -> Fraction:
    """Integral of x^exps over S^(d-1), divided by Vol(S^(d-1)). Exact."""
    if any(e % 2 for e in exps):
        return Q(0)
    halves = [e // 2 for e in exps]
    total = sum(halves)
    num = Q(1)
    for a in halves:
        num *= Q(double_factorial_odd(a), 2**a)
    den = Q(1)
    for k in range(total):
        den *= Q(d, 2) + k
    return num / den


def sphere_integral(p: Poly) -> MomentScalar:
    """Exact integral of ``p`` over the unit sphere in R^d, d = p.d.

    Returns a rational multiple of Vol(S^(d-1)).
    """
    d = p.d
    q = Q(0)
    for e, c in p.terms.items():
        q += c * sphere_monomial_moment(e, d)
    return MomentScalar(q, "vol_sn", d - 1)


def sphere_pairing(p: Poly, q: Poly) -> MomentScalar:
    """``sphere_integral(p * q)`` without forming the product: a monomial
    moment vanishes unless every exponent is even, so only terms of ``p``
    and ``q`` whose exponents agree in parity are paired."""
    if p.d != q.d:
        raise ValueError(f"dimension mismatch: {p.d} vs {q.d}")
    d = p.d
    by_parity: dict = {}
    for e, c in q.terms.items():
        by_parity.setdefault(tuple(k & 1 for k in e), []).append((e, c))
    acc: dict = {}
    get = acc.get
    for e1, c1 in p.terms.items():
        for e2, c2 in by_parity.get(tuple(k & 1 for k in e1), ()):
            e = tuple(map(_add, e1, e2))
            s = get(e)
            acc[e] = c1 * c2 if s is None else s + c1 * c2
    total = Q(0)
    for e, c in acc.items():
        total += c * sphere_monomial_moment(e, d)
    return MomentScalar(total, "vol_sn", d - 1)


def ball_integral(p: Poly) -> MomentScalar:
    """Exact integral of ``p`` over the closed unit ball in R^d.

    Radial integration of each monomial contributes 1/(deg + d).
    """
    d = p.d
    q = Q(0)
    for e, c in p.terms.items():
        q += c * sphere_monomial_moment(e, d) / (sum(e) + d)
    return MomentScalar(q, "vol_sn", d - 1)
