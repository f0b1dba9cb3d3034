"""Truncated power series with generic coefficients.

Used for one-dimensional normal-collar expansions of mode profiles.  The
coefficient type only needs ring arithmetic (Fraction, float, or Poly all
work), so the same code serves exact symbolic identities and numeric solves.
A series carries a validity order: operations that consume derivatives
decrement it, and reading past it raises ``TruncationError``.
"""
from __future__ import annotations

from fractions import Fraction

Q = Fraction


class TruncationError(ValueError):
    pass


class Series:
    """sum coeffs[k] * tau^k + O(tau^(ord+1)), generic coefficient ring."""

    __slots__ = ("coeffs", "ord")

    def __init__(self, coeffs, order=None):
        coeffs = list(coeffs)
        if order is None:
            order = len(coeffs) - 1
        self.coeffs = coeffs[: order + 1]
        while len(self.coeffs) < order + 1:
            self.coeffs.append(0)
        self.ord = order

    @classmethod
    def const(cls, c, order):
        return cls([c], order)

    def __add__(self, other):
        if not isinstance(other, Series):
            other = Series.const(other, self.ord)
        o = min(self.ord, other.ord)
        return Series([self.coeffs[k] + other.coeffs[k] for k in range(o + 1)], o)

    __radd__ = __add__

    def __neg__(self):
        return Series([-c for c in self.coeffs], self.ord)

    def __sub__(self, other):
        if not isinstance(other, Series):
            other = Series.const(other, self.ord)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Series):
            return Series([other * c for c in self.coeffs], self.ord)
        o = min(self.ord, other.ord)
        out = [0] * (o + 1)
        for i, a in enumerate(self.coeffs[: o + 1]):
            if isinstance(a, (int, float, Fraction)) and a == 0:
                continue
            for j in range(o + 1 - i):
                out[i + j] = out[i + j] + a * other.coeffs[j]
        return Series(out, o)

    __rmul__ = __mul__

    def deriv(self) -> "Series":
        if self.ord < 1:
            raise TruncationError("series order exhausted by differentiation")
        return Series([(k + 1) * self.coeffs[k + 1] for k in range(self.ord)], self.ord - 1)

    def value(self):
        """Coefficient of tau^0."""
        if self.ord < 0:
            raise TruncationError("series order exhausted")
        return self.coeffs[0]

    def __repr__(self):
        return f"Series({self.coeffs!r}, ord={self.ord})"


def series_inverse(s: Series) -> Series:
    """Multiplicative inverse of a series with invertible constant term."""
    o = s.ord
    a0 = s.coeffs[0]
    inv0 = Q(1) / a0 if isinstance(a0, (int, Fraction)) else 1.0 / a0
    out = [inv0] + [0] * o
    for k in range(1, o + 1):
        acc = 0
        for j in range(1, k + 1):
            acc = acc + s.coeffs[j] * out[k - j]
        out[k] = -inv0 * acc
    return Series(out, o)


def tan_series(order: int) -> Series:
    """Taylor series of tan at 0 with exact rational coefficients.

    Built from tan' = 1 + tan^2.
    """
    c = [Q(0)] * (order + 1)
    if order >= 1:
        c[1] = Q(1)
    for k in range(1, order):
        sq = Q(0)
        for j in range(k + 1):
            sq += c[j] * c[k - j]
        c[k + 1] = (Q(1 if k == 0 else 0) + sq) / (k + 1)
    return Series(c, order)


def sec2_series(order: int) -> Series:
    """Taylor series of sec^2 = 1 + tan^2 at 0."""
    t = tan_series(order)
    return Series.const(Q(1), order) + t * t
