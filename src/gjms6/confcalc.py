"""Exact conformally-flat calculus on the upper half space.

Computes the boundary operators of the metric e^(2s) * euclidean on
{y >= 0} together with all their curvature coefficients, for a polynomial
conformal exponent s.  Two coefficient rings drive the same tensor code:

* dual numbers (a + eps b with eps^2 = 0) give exact first conformal
  variations, hence infinitesimal covariance residuals;
* truncated normal jets whose coefficients carry formal weights e^(w s0)
  give exact finite conformal factors, hence finite covariance residuals
  at a chosen truncation order.

Ambient coordinates are x0..x(n-1) on the boundary and y last.
"""
from __future__ import annotations

from fractions import Fraction

from .boundary import BoundaryOps, CurvatureInputs, apply_boundary_operator, coefficient_scalars
from .polys import Poly
from .series import TruncationError

Q = Fraction


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
        if isinstance(other, DualPoly):
            return other
        if isinstance(other, (int, Fraction)):
            d = self.a.d
            return DualPoly(Poly.const(d, other), Poly.zero(d))
        return NotImplemented

    def __add__(self, other):
        other = self._co(other)
        return DualPoly(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._co(other)
        return DualPoly(self.a - other.a, self.b - other.b)

    def __rsub__(self, other):
        return self._co(other) - self

    def __neg__(self):
        return DualPoly(-self.a, -self.b)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return DualPoly(self.a * other, self.b * other)
        if not isinstance(other, DualPoly):
            return NotImplemented
        return DualPoly(self.a * other.a, self.a * other.b + self.b * other.a)

    __rmul__ = __mul__

    def diff(self, i: int) -> "DualPoly":
        return DualPoly(self.a.diff(i), self.b.diff(i))

    def restrict(self) -> "DualPoly":
        return DualPoly(self.a.drop_last(), self.b.drop_last())

    def iszero(self) -> bool:
        return self.a.iszero() and self.b.iszero()


class DualKit:
    """Coefficient kit for first conformal variations: s = eps * sigma."""

    def __init__(self, n: int, sigma: Poly):
        if sigma.d != n + 1:
            raise ValueError("sigma must be an ambient polynomial in n+1 variables")
        self.n = n
        self.sigma = sigma

    def sigma_elem(self):
        return DualPoly(Poly.zero(self.n + 1), self.sigma)

    def zero_ambient(self):
        return DualPoly(Poly.zero(self.n + 1), Poly.zero(self.n + 1))

    def exp_ambient(self, m):
        return DualPoly(Poly.const(self.n + 1, 1), Q(m) * self.sigma)

    def exp_boundary(self, m):
        s0 = self.sigma.drop_last()
        return DualPoly(Poly.const(self.n, 1), Q(m) * s0)

    def one_ambient(self):
        return DualPoly(Poly.const(self.n + 1, 1), Poly.zero(self.n + 1))

    def one_boundary(self):
        return DualPoly(Poly.const(self.n, 1), Poly.zero(self.n))

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
        if isinstance(other, (int, Fraction)):
            return WxPoly(self.ctx, {Q(0): Poly.const(self.ctx.n, other)})
        if isinstance(other, Poly):
            return WxPoly(self.ctx, {Q(0): other})
        return NotImplemented

    def __add__(self, other):
        other = self._co(other)
        out = dict(self.wmap)
        for w, p in other.wmap.items():
            out[w] = out.get(w, Poly.zero(self.ctx.n)) + p
        return WxPoly(self.ctx, out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._co(other))

    def __rsub__(self, other):
        return self._co(other) + (-self)

    def __neg__(self):
        return WxPoly(self.ctx, {w: -p for w, p in self.wmap.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return WxPoly(self.ctx, {w: p * other for w, p in self.wmap.items()})
        if isinstance(other, Poly):
            return WxPoly(self.ctx, {w: p * other for w, p in self.wmap.items()})
        if not isinstance(other, WxPoly):
            return NotImplemented
        out: dict = {}
        for w1, p1 in self.wmap.items():
            for w2, p2 in other.wmap.items():
                w = w1 + w2
                q = p1 * p2
                out[w] = out.get(w, Poly.zero(self.ctx.n)) + q
        return WxPoly(self.ctx, out)

    __rmul__ = __mul__

    def diff(self, i: int) -> "WxPoly":
        """d/dx_i with the chain rule through the weight factors."""
        s0i = self.ctx.sigma0_partials[i]
        out: dict = {}
        for w, p in self.wmap.items():
            q = p.diff(i) + (w * s0i) * p
            if not q.iszero():
                out[w] = out.get(w, Poly.zero(self.ctx.n)) + q
        return WxPoly(self.ctx, out)

    def iszero(self) -> bool:
        return all(p.iszero() for p in self.wmap.values())


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
        if isinstance(other, (int, Fraction)):
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
        if isinstance(other, (int, Fraction)):
            return Jet(self.ctx, [c * other for c in self.coeffs], self.ord)
        if not isinstance(other, Jet):
            return NotImplemented
        o = min(self.ord, other.ord)
        out = [self.ctx.zero_boundary() for _ in range(o + 1)]
        for i in range(o + 1):
            ci = self.coeffs[i]
            if ci.iszero():
                continue
            for jj in range(o + 1 - i):
                out[i + jj] = out[i + jj] + ci * other.coeffs[jj]
        return Jet(self.ctx, out, o)

    __rmul__ = __mul__

    def diff(self, i: int) -> "Jet":
        if i == self.ctx.n:
            if self.ord < 1:
                raise TruncationError("jet truncation too shallow for a normal derivative")
            return Jet(self.ctx, [(k + 1) * self.coeffs[k + 1] for k in range(self.ord)], self.ord - 1)
        return Jet(self.ctx, [c.diff(i) for c in self.coeffs], self.ord)

    def restrict(self) -> WxPoly:
        if self.ord < 0:
            raise TruncationError("jet truncation too shallow for boundary restriction")
        return self.coeffs[0]

    def iszero(self) -> bool:
        return all(c.iszero() for c in self.coeffs)


class JetCtx:
    """Shared data for normal jets over a fixed ambient polynomial sigma."""

    def __init__(self, n: int, sigma: Poly, order: int):
        if sigma.d != n + 1:
            raise ValueError("sigma must be an ambient polynomial in n+1 variables")
        if order < 1:
            raise ValueError("jet order must be at least 1")
        self.n = n
        self.order = order
        self.sigma = sigma
        self.sigma_jet = self._normal_taylor(sigma, order)
        self.sigma0 = self.sigma_jet[0]
        self.sigma0_partials = [self.sigma0.diff(i) for i in range(n)]
        self._exp_cache: dict = {}

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
        return WxPoly(self, {})

    def one_boundary(self) -> WxPoly:
        return WxPoly(self, {Q(0): Poly.const(self.n, 1)})

    def wexp(self, m) -> WxPoly:
        return WxPoly(self, {Q(m): Poly.const(self.n, 1)})

    def embed(self, p: Poly) -> Jet:
        cs = self._normal_taylor(p, self.order)
        return Jet(self, [WxPoly(self, {Q(0): c}) for c in cs], self.order)

    def embed_boundary(self, p: Poly) -> WxPoly:
        return WxPoly(self, {Q(0): p})

    def sigma_elem(self) -> Jet:
        return self.embed(self.sigma)

    def zero_ambient(self) -> Jet:
        return Jet(self, [], self.order)

    def one_ambient(self) -> Jet:
        return Jet(self, [self.one_boundary()], self.order)

    def exp_ambient(self, m) -> Jet:
        """e^(m*sigma) as a jet: weight m on e^(sigma0) times the exact
        exponential series of m*(sigma - sigma0), nilpotent in y."""
        m = Q(m)
        if m in self._exp_cache:
            return self._exp_cache[m]
        tail = Jet(self, [WxPoly(self, {Q(0): (m * c)}) for c in
                          ([Poly.zero(self.n)] + self.sigma_jet[1:])], self.order)
        out = self.one_ambient()
        term = self.one_ambient()
        fact = 1
        for k in range(1, self.order + 1):
            term = term * tail
            fact *= k
            out = out + Q(1, fact) * term
        out = Jet(self, [self.wexp(m) * c for c in out.coeffs], self.order)
        self._exp_cache[m] = out
        return out

    def exp_boundary(self, m) -> WxPoly:
        return self.wexp(m)


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------

class HalfspaceConformalEngine(BoundaryOps):
    """Boundary operators of e^(2s) * flat on the upper half space.

    The instance is both the primitive-operation kit and the holder of the
    curvature record; create it once per conformal exponent and reuse across
    fields and operator orders.  With ``conformal=False`` the engine computes
    the flat operators over the same coefficient ring (used for the
    right-hand side of covariance residuals).
    """

    def __init__(self, kit, conformal: bool = True):
        self.kit = kit
        self.n = kit.n
        self.conformal = conformal
        n = self.n
        d = n + 1
        self.d = d
        s = kit.sigma_elem() if conformal else kit.zero_ambient()
        self.s = s
        si = [s.diff(i) for i in range(d)]
        sij = [[si[i].diff(j) for j in range(d)] for i in range(d)]
        self.si = si
        grad2 = None
        for i in range(d):
            t = si[i] * si[i]
            grad2 = t if grad2 is None else grad2 + t
        self.grad2 = grad2
        # ambient Schouten components (polynomial, no weight factors)
        P = [[-sij[i][j] + si[i] * si[j] for j in range(d)] for i in range(d)]
        for i in range(d):
            P[i][i] = P[i][i] - Q(1, 2) * grad2
        self.P = P
        self.sij = sij
        # boundary restriction of s and its derivatives
        sb = s.restrict()
        self.sb = sb
        self.sbi = [sb.diff(i) for i in range(n)]
        self.sbij = [[self.sbi[i].diff(j) for j in range(n)] for i in range(n)]
        bgrad2 = None
        for i in range(n):
            t = self.sbi[i] * self.sbi[i]
            bgrad2 = t if bgrad2 is None else bgrad2 + t
        self.bgrad2 = bgrad2
        Pb = [[-self.sbij[i][j] + self.sbi[i] * self.sbi[j] for j in range(n)] for i in range(n)]
        for i in range(n):
            Pb[i][i] = Pb[i][i] - Q(1, 2) * bgrad2
        self.Pb = Pb
        self._curv = None
        self._coeffs = None
        self._bhessH = None
        self._sigma4 = None

    # -- exponential factors -------------------------------------------
    def e(self, m):
        if not self.conformal:
            return self.kit.one_ambient()
        return self.kit.exp_ambient(m)

    def be(self, m):
        if not self.conformal:
            return self.kit.one_boundary()
        return self.kit.exp_boundary(m)

    # -- ambient tensor helpers -----------------------------------------
    def _gamma(self, k, i, j):
        """Christoffel symbols of e^(2s)*flat: polynomial in s-partials."""
        out = None
        if k == i:
            out = self.si[j]
        if k == j:
            out = self.si[i] if out is None else out + self.si[i]
        if i == j:
            out = -self.si[k] if out is None else out - self.si[k]
        return out

    def hess(self, F):
        """Covariant Hessian components (lower indices)."""
        d = self.d
        Fi = [F.diff(i) for i in range(d)]
        out = [[None] * d for _ in range(d)]
        for i in range(d):
            for j in range(i, d):
                h = Fi[i].diff(j)
                for k in range(d):
                    g = self._gamma(k, i, j)
                    if g is not None:
                        h = h - g * Fi[k]
                out[i][j] = h
                out[j][i] = h
        return out

    def lap_hat(self, F):
        d = self.d
        acc = None
        for i in range(d):
            t = F.diff(i).diff(i)
            acc = t if acc is None else acc + t
        dot = None
        for i in range(d):
            t = self.si[i] * F.diff(i)
            dot = t if dot is None else dot + t
        return self.e(-2) * (acc + Q(self.n - 1) * dot)

    def J_hat(self):
        d = self.d
        tr = None
        for i in range(d):
            tr = self.sij[i][i] if tr is None else tr + self.sij[i][i]
        return self.e(-2) * (-tr - Q(self.n - 1, 2) * self.grad2)

    def P_norm_sq_hat(self):
        d = self.d
        acc = None
        for i in range(d):
            for j in range(d):
                t = self.P[i][j] * self.P[i][j]
                acc = t if acc is None else acc + t
        return self.e(-4) * acc

    def cov_P_nnn(self):
        """(nabla P)(eta-direction; eta, eta) flat component at index y."""
        d = self.d
        nu = d - 1
        h = self.P[nu][nu].diff(nu)
        for m in range(d):
            g = self._gamma(m, nu, nu)
            if g is not None:
                h = h - 2 * (g * self.P[m][nu])
        return h

    def P_dot_hess(self, u):
        d = self.d
        H = self.hess(u)
        acc = None
        for i in range(d):
            for j in range(d):
                t = self.P[i][j] * H[i][j]
                acc = t if acc is None else acc + t
        return self.e(-4) * acc

    # -- boundary intrinsic helpers ---------------------------------------
    def _bgamma(self, k, i, j):
        out = None
        if k == i:
            out = self.sbi[j]
        if k == j:
            out = self.sbi[i] if out is None else out + self.sbi[i]
        if i == j:
            out = -self.sbi[k] if out is None else out - self.sbi[k]
        return out

    def bhess(self, w):
        n = self.n
        wi = [w.diff(i) for i in range(n)]
        out = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                h = wi[i].diff(j)
                for k in range(n):
                    g = self._bgamma(k, i, j)
                    if g is not None:
                        h = h - g * wi[k]
                out[i][j] = h
                out[j][i] = h
        return out

    def blap(self, w):
        n = self.n
        acc = None
        for i in range(n):
            t = w.diff(i).diff(i)
            acc = t if acc is None else acc + t
        dot = None
        for i in range(n):
            t = self.sbi[i] * w.diff(i)
            dot = t if dot is None else dot + t
        return self.be(-2) * (acc + Q(n - 2) * dot)

    def bpair(self, a, w):
        n = self.n
        acc = None
        for i in range(n):
            t = a.diff(i) * w.diff(i)
            acc = t if acc is None else acc + t
        return self.be(-2) * acc

    def eta_scalar(self, F):
        return -(self.be(-1) * F.diff(self.d - 1).restrict())

    # -- curvature record -------------------------------------------------
    def curvature(self) -> CurvatureInputs:
        if self._curv is not None:
            return self._curv
        n = self.n
        nu = self.d - 1
        H = Q(-n) * (self.be(-1) * self.si[nu].restrict())
        Pnn = self.be(-2) * self.P[nu][nu].restrict()
        Jb = self.be(-2) * (
            -sum_all([self.sbij[i][i] for i in range(n)])
            - Q(n - 2, 2) * self.bgrad2
        )
        Jhat = self.J_hat()
        lapJhat = self.lap_hat(Jhat)
        etaJ = self.eta_scalar(Jhat)
        lapJ = lapJhat.restrict()
        hessJnn = self.be(-2) * self.hess(Jhat)[nu][nu].restrict()
        etaPnn = -(self.be(-3) * self.cov_P_nnn().restrict())
        etaPsq = self.eta_scalar(self.P_norm_sq_hat())
        etaLapJ = self.eta_scalar(lapJhat)
        lapbarH = self.blap(H)
        Pbar2 = self.be(-4) * sum_all([self.Pb[i][j] * self.Pb[i][j] for i in range(n) for j in range(n)])
        self._bhessH = self.bhess(H)
        PbarHessH = self.be(-4) * sum_all(
            [self.Pb[i][j] * self._bhessH[i][j] for i in range(n) for j in range(n)]
        )
        self._curv = CurvatureInputs(
            H=H, Pnn=Pnn, Jb=Jb, Pbar2=Pbar2, etaJ=etaJ, lapJ=lapJ,
            hessJnn=hessJnn, etaPnn=etaPnn, etaPsq=etaPsq, etaLapJ=etaLapJ,
            lapbarH=lapbarH, lapbar2H=self.blap(lapbarH), lapbarJb=self.blap(Jb),
            lapbarPnn=self.blap(Pnn), lapbar_etaJ=self.blap(etaJ),
            gradH2=self.bpair(H, H), PbarHessH=PbarHessH,
            pair_dH_dJb=self.bpair(H, Jb), pair_dH_dPnn=self.bpair(H, Pnn),
        )
        return self._curv

    def coeffs(self) -> dict:
        if self._coeffs is None:
            self._coeffs = coefficient_scalars(self.n, self.curvature())
        return self._coeffs

    def sigma4_components(self) -> list:
        """Boundary one-form coefficient of the order-five operator."""
        if self._sigma4 is not None:
            return self._sigma4
        n = self.n
        C = self.curvature()
        H, Jb, Pnn = C.H, C.Jb, C.Pnn
        lapbarH = C.lapbarH
        H3 = H * H * H
        comps = []
        for i in range(n):
            PbH = self.be(-2) * sum_all([self.Pb[i][k] * H.diff(k) for k in range(n)])
            c = (
                Q(16 * (n - 6), 3 * n) * lapbarH.diff(i)
                + Q(16 * n**2 - 96 * n - 64, 3 * n) * PbH
                - Q(7 * n - 47, 3) * C.etaJ.diff(i)
                - Q(15 * n**2 - 70 * n + 119, 6 * n) * (H * Jb.diff(i))
                - Q(2 * (5 * n**2 - 45 * n + 92), 3 * n) * (Jb * H.diff(i))
                - Q(2 * n**2 - 34 * n + 168, 3 * n) * (Pnn * H.diff(i))
                - Q(7 * n**2 - 86 * n + 303, 6 * n) * (H * Pnn.diff(i))
                + Q(3 * n**3 - 32 * n**2 + 117 * n - 144, 6 * n**3) * H3.diff(i)
            )
            comps.append(c)
        self._sigma4 = comps
        return comps

    # -- BoundaryOps interface ---------------------------------------------
    def bzero(self):
        return self.kit.zero_boundary()

    def restrict(self, u):
        return u.restrict()

    def eta(self, u):
        return self.eta_scalar(u)

    def lap(self, u):
        return self.lap_hat(u)

    def hess_nn(self, u):
        nu = self.d - 1
        return self.be(-2) * self.hess(u)[nu][nu].restrict()

    def lapbar(self, w):
        return self.blap(w)

    def divPbar(self, w):
        n = self.n
        alpha = [
            self.be(-2) * sum_all([self.Pb[i][k] * w.diff(k) for k in range(n)])
            for i in range(n)
        ]
        div = sum_all([alpha[i].diff(i) for i in range(n)])
        dot = sum_all([self.sbi[k] * alpha[k] for k in range(n)])
        return self.be(-2) * (div + Q(n - 2) * dot)

    def eta_P_hess(self, u):
        return self.eta_scalar(self.P_dot_hess(u))

    def pair(self, a, w):
        return self.bpair(a, w)

    def hesspair_H(self, w):
        if self._bhessH is None:
            self.curvature()
        hw = self.bhess(w)
        n = self.n
        acc = sum_all([self._bhessH[i][j] * hw[i][j] for i in range(n) for j in range(n)])
        return self.be(-4) * acc

    def sigma4_pair(self, w):
        comps = self.sigma4_components()
        n = self.n
        acc = sum_all([comps[i] * w.diff(i) for i in range(n)])
        return self.be(-2) * acc

    # -- entry point ---------------------------------------------------------
    def boundary_operator(self, j: int, u):
        return apply_boundary_operator(j, self.n, self.curvature(), self, u, self.coeffs())

    def t_scalar(self, j: int):
        return self.coeffs()[f"T{j}"]


def sum_all(items):
    acc = None
    for t in items:
        acc = t if acc is None else acc + t
    return acc
