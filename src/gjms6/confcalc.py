"""Exact conformally-flat calculus on the upper half space.

Computes the boundary operators of the metric e^(2s) * euclidean on
{y >= 0} together with all their curvature coefficients, for a polynomial
conformal exponent s.  Two coefficient rings drive the same tensor code:

* dual numbers (a + eps b with eps^2 = 0) give exact first conformal
  variations, hence infinitesimal covariance residuals;
* truncated normal jets whose coefficients carry formal weights e^(w s0)
  give exact finite conformal factors, hence finite covariance residuals
  at a chosen truncation order.

``ConformallyFlat`` holds the calculus of e^(2s) * euclidean, written once
and instantiated for the ambient space and for the boundary.  It forms no
Christoffel symbol: for e^(2s) * flat, Gamma^k_ij = delta^k_i s_j +
delta^k_j s_i - delta_ij s_k, so a covariant derivative is a partial one
plus a closed-form correction in ds.  Symmetric two-tensors (the Schouten
tensor, Hessians) are stored on i <= j, each entry shared with (j, i), and
contracted there.  Each kit builds a factor e^(m s) once per (side, m),
ambient or boundary, in a dict of its own, so it lives as long as its kit.
The flat operators on the other side of a covariance residual are
``apply_B`` on the half space: its kit, ``reps.HalfspacePolyOps``, acts on
both rings through ``diff`` and ``drop_last``, the same two methods it uses
on ``Poly``.

The rings are zero-aware, as ``Poly`` is: a ring result may share a zero
operand, so ``x + 0`` is ``x``, ``x * 0`` is that zero and ``0.diff(i)`` is
that zero, for ``DualPoly`` and ``WxPoly`` alike; a ``Jet`` shares its
coefficients with its operands, and a ``JetCtx`` hands out one empty
``WxPoly``.  The zero test is structural (``not p.terms``), so every result
stays exact, and no code may mutate a ring element (``terms``, ``wmap`` or
``coeffs``), least of all a memoized factor.  Scalars are recognized by
their exact type first (``type(x) in SCALARS``), since ``isinstance``
against ``Fraction`` runs ``ABCMeta.__instancecheck__``.

Ambient coordinates are x0..x(n-1) on the boundary and y last.
"""
from __future__ import annotations

import functools

from .boundary import BoundaryOps, CurvatureInputs, Q, apply_boundary_operator, coefficient_scalars
from .polys import SCALARS, Poly, sum_all
from .series import TruncationError


# ---------------------------------------------------------------------------
# dual numbers over polynomials
# ---------------------------------------------------------------------------

class DualPoly:
    """a + eps*b with eps^2 = 0, components sparse polynomials."""

    __slots__ = ("a", "b")

    def __init__(self, a: Poly, b: Poly):
        self.a = a
        self.b = b

    def _co(self, other):
        if type(other) is DualPoly:
            return other
        if type(other) in SCALARS or isinstance(other, SCALARS):
            d = self.a.d
            return DualPoly(Poly.const(d, other), Poly.zero(d))
        return NotImplemented

    def __add__(self, other):
        other = self._co(other)
        if not (other.a.terms or other.b.terms):
            return self
        if not (self.a.terms or self.b.terms):
            return other
        return DualPoly(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._co(other)
        if not (other.a.terms or other.b.terms):
            return self
        if not (self.a.terms or self.b.terms):
            return -other
        return DualPoly(self.a - other.a, self.b - other.b)

    def __rsub__(self, other):
        return self._co(other) - self

    def __neg__(self):
        if not (self.a.terms or self.b.terms):
            return self
        return DualPoly(-self.a, -self.b)

    def __mul__(self, other):
        a1, b1 = self.a, self.b
        if type(other) is not DualPoly:
            if type(other) in SCALARS or isinstance(other, SCALARS):
                if not (a1.terms or b1.terms):
                    return self
                return DualPoly(a1 * other, b1 * other)
            return NotImplemented
        a2, b2 = other.a, other.b
        # (a1 + eps b1)(a2 + eps b2) = a1 a2 + eps (a1 b2 + b1 a2); a
        # component product with an empty a factor is skipped
        if not a1.terms:
            if not b1.terms:
                return self
            if not a2.terms:
                return other if not b2.terms else DualPoly(a1, a1)
            return DualPoly(a1, b1 * a2)
        if not a2.terms:
            if not b2.terms:
                return other
            return DualPoly(a2, a1 * b2)
        return DualPoly(a1 * a2, a1 * b2 + b1 * a2)

    __rmul__ = __mul__

    def diff(self, i: int) -> "DualPoly":
        if not (self.a.terms or self.b.terms):
            return self
        return DualPoly(self.a.diff(i), self.b.diff(i))

    def drop_last(self) -> "DualPoly":
        return DualPoly(self.a.drop_last(), self.b.drop_last())

    def iszero(self) -> bool:
        return self.a.iszero() and self.b.iszero()


class _FactorKit:
    """What the two kits share: sigma, an ambient polynomial in n + 1
    variables, and one memo of the factors e^(m s), ambient and boundary.
    The memo is a dict of the instance keyed on (side, Q(m)) (m = 2 and Q(2)
    share an entry), so it lives as long as its kit and two kits share
    nothing.  Every caller gets the same factor, so none may mutate it."""

    def __init__(self, n: int, sigma: Poly):
        if sigma.d != n + 1:
            raise ValueError("sigma must be an ambient polynomial in n+1 variables")
        self.n = n
        self.sigma = sigma
        self._factors: dict = {}

    def _factor(self, side: str, m, build):
        f = self._factors.get((side, m))
        if f is None:
            m = Q(m)
            f = self._factors[side, m] = build(m)
        return f

    def exp_ambient(self, m):
        """e^(m s) on the ambient space, built once per m."""
        return self._factor("ambient", m, self._ambient_factor)

    def exp_boundary(self, m):
        """e^(m s) restricted to the boundary, built once per m."""
        return self._factor("boundary", m, self._boundary_factor)


class DualKit(_FactorKit):
    """Coefficient kit for first conformal variations: s = eps * sigma."""

    def __init__(self, n: int, sigma: Poly):
        super().__init__(n, sigma)
        self.sigma0 = sigma.drop_last()

    def sigma_elem(self):
        return DualPoly(Poly.zero(self.n + 1), self.sigma)

    def _ambient_factor(self, m):
        return DualPoly(Poly.const(self.n + 1, 1), m * self.sigma)

    def _boundary_factor(self, m):
        return DualPoly(Poly.const(self.n, 1), m * self.sigma0)

    def zero_boundary(self):
        return DualPoly(Poly.zero(self.n), Poly.zero(self.n))

    def embed(self, p: Poly):
        return DualPoly(p, Poly.zero(p.d))


# ---------------------------------------------------------------------------
# weighted boundary polynomials and normal jets
# ---------------------------------------------------------------------------

class WxPoly:
    """Finite sum over weights w of e^(w*s0(x)) * p_w(x) on the boundary."""

    __slots__ = ("ctx", "wmap")

    def __init__(self, ctx: "JetCtx", wmap: dict):
        self.ctx = ctx
        self.wmap = {w: p for w, p in wmap.items() if not p.iszero()}

    def _co(self, other):
        if isinstance(other, WxPoly):
            return other
        if type(other) in SCALARS or isinstance(other, SCALARS):
            return WxPoly(self.ctx, {Q(0): Poly.const(self.ctx.n, other)})
        if isinstance(other, Poly):
            return WxPoly(self.ctx, {Q(0): other})
        return NotImplemented

    def __add__(self, other):
        other = self._co(other)
        if not other.wmap:
            return self
        if not self.wmap:
            return other
        return _wx(self.ctx, _accumulate(dict(self.wmap), other.wmap.items()))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._co(other))

    def __rsub__(self, other):
        return self._co(other) + (-self)

    def __neg__(self):
        if not self.wmap:
            return self
        return _wx(self.ctx, {w: -p for w, p in self.wmap.items()})

    def __mul__(self, other):
        if type(other) is not WxPoly and (type(other) in _UNWEIGHTED or isinstance(other, _UNWEIGHTED)):
            if not self.wmap:
                return self
            if not (other.terms if type(other) is Poly else other):
                return self.ctx.zero_boundary()
            return _wx(self.ctx, {w: p * other for w, p in self.wmap.items()})
        if not isinstance(other, WxPoly):
            return NotImplemented
        if not self.wmap:
            return self
        if not other.wmap:
            return other
        b = other.wmap.items()
        # products of nonzero polynomials are nonzero; only their sums cancel
        return _wx(self.ctx, _accumulate({}, ((w1 + w2, p1 * p2)
                                              for w1, p1 in self.wmap.items() for w2, p2 in b)))

    __rmul__ = __mul__

    def diff(self, i: int) -> "WxPoly":
        """d/dx_i with the chain rule through the weight factors."""
        if not self.wmap:
            return self
        s0i = self.ctx.sigma0_partials[i]
        out: dict = {}
        for w, p in self.wmap.items():
            q = p.diff(i)
            if w and s0i.terms:
                q = q + (w * s0i) * p
            if q.terms:
                out[w] = q
        return _wx(self.ctx, out)

    def iszero(self) -> bool:
        return all(p.iszero() for p in self.wmap.values())


# the unweighted operands a WxPoly multiplies weight by weight
_UNWEIGHTED = (*SCALARS, Poly)


def _accumulate(out: dict, items) -> dict:
    """Add the weighted polynomials ``items`` into ``out`` in place, dropping
    weights whose polynomial cancels to zero; returns ``out``."""
    for w, p in items:
        q = out.get(w)
        if q is None:
            out[w] = p
        else:
            q = q + p
            if q.terms:
                out[w] = q
            else:
                del out[w]
    return out


def _wx(ctx: "JetCtx", wmap: dict) -> WxPoly:
    """A WxPoly wrapping ``wmap`` as it is: for results known to hold no zero
    weight polynomial; the dict is handed over, not copied."""
    x = object.__new__(WxPoly)
    x.ctx = ctx
    x.wmap = wmap
    return x


class Jet:
    """Normal jet sum_k c_k(x) y^k + O(y^(ord+1)) with WxPoly coefficients."""

    __slots__ = ("ctx", "coeffs", "ord")

    def __init__(self, ctx: "JetCtx", coeffs, order: int):
        self.ctx = ctx
        self.ord = order
        cs = list(coeffs)[: order + 1] if order >= 0 else []
        while len(cs) < order + 1:
            cs.append(ctx.zero_boundary())
        self.coeffs = cs

    def _co(self, other):
        if isinstance(other, Jet):
            return other
        if type(other) in SCALARS or isinstance(other, SCALARS):
            c0 = WxPoly(self.ctx, {Q(0): Poly.const(self.ctx.n, other)})
            return Jet(self.ctx, [c0], self.ord)
        return NotImplemented

    def __add__(self, other):
        other = self._co(other)
        o = min(self.ord, other.ord)
        return Jet(self.ctx, [self.coeffs[k] + other.coeffs[k] for k in range(o + 1)], o)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._co(other))

    def __neg__(self):
        return Jet(self.ctx, [-c for c in self.coeffs], self.ord)

    def __mul__(self, other):
        if type(other) is not Jet and (type(other) in SCALARS or isinstance(other, SCALARS)):
            return Jet(self.ctx, [c * other for c in self.coeffs], self.ord)
        if not isinstance(other, Jet):
            return NotImplemented
        o = min(self.ord, other.ord)
        out = [self.ctx.zero_boundary()] * (o + 1)
        right = [(jj, c) for jj, c in enumerate(other.coeffs[: o + 1]) if c.wmap]
        for i, ci in enumerate(self.coeffs[: o + 1]):
            if not ci.wmap:
                continue
            for jj, cj in right:
                if i + jj > o:
                    break
                out[i + jj] = out[i + jj] + ci * cj
        return Jet(self.ctx, out, o)

    __rmul__ = __mul__

    def diff(self, i: int) -> "Jet":
        if i == self.ctx.n:
            if self.ord < 1:
                raise TruncationError("jet truncation too shallow for a normal derivative")
            return Jet(self.ctx, [(k + 1) * self.coeffs[k + 1] for k in range(self.ord)], self.ord - 1)
        return Jet(self.ctx, [c.diff(i) for c in self.coeffs], self.ord)

    def drop_last(self) -> WxPoly:
        if self.ord < 0:
            raise TruncationError("jet truncation too shallow for boundary restriction")
        return self.coeffs[0]

    def iszero(self) -> bool:
        return all(c.iszero() for c in self.coeffs)


class JetCtx(_FactorKit):
    """Shared data for normal jets over a fixed ambient polynomial sigma."""

    def __init__(self, n: int, sigma: Poly, order: int):
        super().__init__(n, sigma)
        if order < 1:
            raise ValueError("jet order must be at least 1")
        self.order = order
        self.sigma_jet = self._normal_taylor(sigma, order)
        self.sigma0 = self.sigma_jet[0]
        self.sigma0_partials = [self.sigma0.diff(i) for i in range(n)]
        self._zero = _wx(self, {})

    @staticmethod
    def _normal_taylor(p: Poly, order: int) -> list:
        """Exact coefficients of p in powers of the last variable."""
        d = p.d
        out = [Poly.zero(d - 1) for _ in range(order + 1)]
        for e, c in p.terms.items():
            k = e[-1]
            if k <= order:
                out[k] = out[k] + Poly(d - 1, {e[:-1]: c})
        return out

    def zero_boundary(self) -> WxPoly:
        """The one empty WxPoly of this context, shared by every caller."""
        return self._zero

    def _boundary_factor(self, m) -> WxPoly:
        return WxPoly(self, {m: Poly.const(self.n, 1)})

    def embed(self, p: Poly) -> Jet:
        cs = self._normal_taylor(p, self.order)
        return Jet(self, [self.embed_boundary(c) for c in cs], self.order)

    def embed_boundary(self, p: Poly) -> WxPoly:
        return WxPoly(self, {Q(0): p})

    def sigma_elem(self) -> Jet:
        return self.embed(self.sigma)

    def _ambient_factor(self, m) -> Jet:
        """e^(m*sigma) as a jet: weight m on e^(sigma0) times the exact
        exponential series of m*(sigma - sigma0), nilpotent in y."""
        tail = Jet(self, [WxPoly(self, {Q(0): (m * c)}) for c in
                          ([Poly.zero(self.n)] + self.sigma_jet[1:])], self.order)
        out = term = Jet(self, [self.exp_boundary(0)], self.order)
        fact = 1
        for k in range(1, self.order + 1):
            term = term * tail
            fact *= k
            out = out + Q(1, fact) * term
        e = self.exp_boundary(m)
        return Jet(self, [e * c for c in out.coeffs], self.order)


# ---------------------------------------------------------------------------
# the conformally-flat calculus
# ---------------------------------------------------------------------------

class ConformallyFlat:
    """Calculus of the metric e^(2s) * euclidean in ``dim`` variables.

    ``s`` is a ring element (dual number or jet, ambient or restricted to the
    boundary) and ``exp(m)`` gives the factor e^(m s) in the same ring, from
    the one factor memo of the kit.  Tensor components are coordinate
    components; scalars carry their metric factors.  The engine builds one
    instance for the ambient space and one for the boundary.

    The Christoffel symbols of e^(2s) * flat are
    Gamma^k_ij = delta^k_i s_j + delta^k_j s_i - delta_ij s_k, so they enter
    only in closed form: Hess_ij F = F_ij - s_i F_j - s_j F_i
    + delta_ij <ds, dF>.  The Schouten tensor and the Hessians are symmetric:
    they are built on i <= j, each entry shared with (j, i) (ring elements
    are immutable), and ``contract`` reads them on i <= j.
    """

    def __init__(self, s, dim: int, exp):
        self.dim = dim
        self.exp = exp
        self.si = si = [s.diff(i) for i in range(dim)]
        sq = [x * x for x in si]
        grad2 = sum_all(sq)
        half_grad2 = Q(1, 2) * grad2
        # Schouten components (no weight factors): s_i s_j - s_ij - delta_ij |ds|^2 / 2
        P = [[None] * dim for _ in range(dim)]
        lap_s = []
        for i in range(dim):
            sii = si[i].diff(i)
            lap_s.append(sii)
            P[i][i] = sq[i] - sii - half_grad2
            for j in range(i + 1, dim):
                P[i][j] = P[j][i] = si[i] * si[j] - si[i].diff(j)
        self.P = P
        self.J = exp(-2) * (-sum_all(lap_s) - Q(dim - 2, 2) * grad2)

    def _grad(self, F):
        """The partials F_k of F and the products s_k F_k."""
        Fk = [F.diff(k) for k in range(self.dim)]
        return Fk, [s * f for s, f in zip(self.si, Fk)]

    def hess(self, F):
        """Covariant Hessian components (lower indices), with <ds, dF>
        formed once."""
        dim, si = self.dim, self.si
        Fk, sF = self._grad(F)
        dsdF = sum_all(sF)
        out = [[None] * dim for _ in range(dim)]
        for i in range(dim):
            out[i][i] = Fk[i].diff(i) - 2 * sF[i] + dsdF
            for j in range(i + 1, dim):
                out[i][j] = out[j][i] = Fk[i].diff(j) - si[i] * Fk[j] - si[j] * Fk[i]
        return out

    def hess_diag(self, F, i: int):
        """The one Hessian entry Hess_ii F = F_ii - 2 s_i F_i + <ds, dF>."""
        Fk, sF = self._grad(F)
        return Fk[i].diff(i) - 2 * sF[i] + sum_all(sF)

    def div(self, alpha):
        """Divergence of the one-form with components alpha."""
        dim = self.dim
        return self.exp(-2) * (
            sum_all([alpha[i].diff(i) for i in range(dim)])
            + Q(dim - 2) * sum_all([self.si[i] * alpha[i] for i in range(dim)])
        )

    def lap(self, F):
        return self.div([F.diff(i) for i in range(self.dim)])

    def pair(self, a, w):
        """<grad a, grad w>."""
        return self.exp(-2) * sum_all([a.diff(i) * w.diff(i) for i in range(self.dim)])

    def contract(self, A, B):
        """Full contraction of two symmetric two-tensors, read on i <= j:
        sum_i A_ii B_ii + 2 sum_(i<j) A_ij B_ij.  Every caller passes
        symmetric tensors: P with P, P with Hess H, P with Hess u, and
        Hess H with Hess w."""
        dim = self.dim
        diag = sum_all([A[i][i] * B[i][i] for i in range(dim)])
        off = sum_all([A[i][j] * B[i][j] for i in range(dim) for j in range(i + 1, dim)])
        return self.exp(-4) * (diag + 2 * off)

    def P_grad(self, w):
        """Components of the one-form P(grad w)."""
        dim, P = self.dim, self.P
        wk = [w.diff(k) for k in range(dim)]
        e = self.exp(-2)
        return [e * sum_all([P[i][k] * wk[k] for k in range(dim)]) for i in range(dim)]


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------

class HalfspaceConformalEngine(BoundaryOps):
    """Boundary operators of e^(2s) * flat on the upper half space.

    The instance is both the primitive-operation kit and the holder of the
    curvature record, so one instance serves every field and operator order
    of its conformal exponent: ``conformal._engine`` memoizes it on
    (n, sigma, jet order), with order None for the dual-number ring.  The
    flat operators on the right-hand side of a covariance residual are
    ``apply_B`` on the half space, whose kit acts on the same coefficient
    rings.
    """

    def __init__(self, kit):
        self.kit = kit
        self.n = n = kit.n
        self.nu = n  # index of the normal variable y
        s = kit.sigma_elem()
        self.amb = ConformallyFlat(s, n + 1, kit.exp_ambient)
        self.bdy = ConformallyFlat(s.drop_last(), n, kit.exp_boundary)

    def eta_scalar(self, F):
        return -(self.bdy.exp(-1) * F.diff(self.nu).drop_last())

    def cov_P_nnn(self):
        """(nabla P)(eta-direction; eta, eta) flat component at index y:
        d_y P_yy - 2 sum_m Gamma^m_yy P_my with Gamma^m_yy = 2 delta^m_y s_y - s_m,
        that is d_y P_yy + 2 (sum_(m != y) s_m P_my - s_y P_yy); y is the
        last index."""
        nu, si, Py = self.nu, self.amb.si, self.amb.P[self.nu]
        return Py[nu].diff(nu) + 2 * (sum_all([si[m] * Py[m] for m in range(nu)]) - si[nu] * Py[nu])

    # -- curvature record -------------------------------------------------
    @functools.cached_property
    def H(self):
        """Mean curvature of the boundary."""
        return Q(-self.n) * (self.bdy.exp(-1) * self.amb.si[self.nu].drop_last())

    @functools.cached_property
    def bhessH(self):
        """Boundary Hessian of the mean curvature."""
        return self.bdy.hess(self.H)

    @functools.cached_property
    def curvature(self) -> CurvatureInputs:
        nu, amb, bdy = self.nu, self.amb, self.bdy
        H = self.H
        Pnn = bdy.exp(-2) * amb.P[nu][nu].drop_last()
        Jb = bdy.J
        Jhat = amb.J
        lapJhat = amb.lap(Jhat)
        etaJ = self.eta_scalar(Jhat)
        lapbarH = bdy.lap(H)
        return CurvatureInputs(
            H=H, Pnn=Pnn, Jb=Jb, Pbar2=bdy.contract(bdy.P, bdy.P), etaJ=etaJ,
            lapJ=lapJhat.drop_last(), hessJnn=self.hess_nn(Jhat),
            etaPnn=-(bdy.exp(-3) * self.cov_P_nnn().drop_last()),
            etaPsq=self.eta_scalar(amb.contract(amb.P, amb.P)),
            etaLapJ=self.eta_scalar(lapJhat),
            lapbarH=lapbarH, lapbar2H=bdy.lap(lapbarH), lapbarJb=bdy.lap(Jb),
            lapbarPnn=bdy.lap(Pnn), lapbar_etaJ=bdy.lap(etaJ),
            gradH2=bdy.pair(H, H), PbarHessH=bdy.contract(bdy.P, self.bhessH),
            pair_dH_dJb=bdy.pair(H, Jb), pair_dH_dPnn=bdy.pair(H, Pnn),
        )

    @functools.cached_property
    def coeffs(self) -> dict:
        return coefficient_scalars(self.n, self.curvature)

    @functools.cached_property
    def sigma4_components(self) -> list:
        """Boundary one-form coefficient of the order-five operator."""
        n = self.n
        C = self.curvature
        H, Jb, Pnn = C.H, C.Jb, C.Pnn
        lapbarH = C.lapbarH
        H3 = H * H * H
        PbH = self.bdy.P_grad(H)
        comps = []
        for i in range(n):
            c = (
                Q(16 * (n - 6), 3 * n) * lapbarH.diff(i)
                + Q(16 * n**2 - 96 * n - 64, 3 * n) * PbH[i]
                - Q(7 * n - 47, 3) * C.etaJ.diff(i)
                - Q(15 * n**2 - 70 * n + 119, 6 * n) * (H * Jb.diff(i))
                - Q(2 * (5 * n**2 - 45 * n + 92), 3 * n) * (Jb * H.diff(i))
                - Q(2 * n**2 - 34 * n + 168, 3 * n) * (Pnn * H.diff(i))
                - Q(7 * n**2 - 86 * n + 303, 6 * n) * (H * Pnn.diff(i))
                + Q(3 * n**3 - 32 * n**2 + 117 * n - 144, 6 * n**3) * H3.diff(i)
            )
            comps.append(c)
        return comps

    # -- BoundaryOps interface ---------------------------------------------
    def bzero(self):
        return self.kit.zero_boundary()

    def restrict(self, u):
        return u.drop_last()

    def eta(self, u):
        return self.eta_scalar(u)

    def lap(self, u):
        return self.amb.lap(u)

    def hess_nn(self, u):
        return self.bdy.exp(-2) * self.amb.hess_diag(u, self.nu).drop_last()

    def lapbar(self, w):
        return self.bdy.lap(w)

    def divPbar(self, w):
        return self.bdy.div(self.bdy.P_grad(w))

    def eta_P_hess(self, u):
        return self.eta_scalar(self.amb.contract(self.amb.P, self.amb.hess(u)))

    def pair(self, a, w):
        return self.bdy.pair(a, w)

    def hesspair_H(self, w):
        return self.bdy.contract(self.bhessH, self.bdy.hess(w))

    def sigma4_pair(self, w):
        comps = self.sigma4_components
        return self.bdy.exp(-2) * sum_all([comps[i] * w.diff(i) for i in range(self.n)])

    # -- entry point ---------------------------------------------------------
    def boundary_operator(self, j: int, u):
        return apply_boundary_operator(j, self.n, self.curvature, self, u, self.coeffs)

    def t_scalar(self, j: int):
        return self.coeffs[f"T{j}"]
