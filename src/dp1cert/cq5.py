"""The curve of sections through Q with contact order >= 5.

For a normalized surface (Q = (x0:y0:0:1) over the fiber at (0:1)) the
sections x = qz^2 + pzw + x0 w^2, y = cz^3 + bz^2w + azw^2 + y0 w^3 meeting S
at Q with multiplicity >= 5 are cut out by F_1 = ... = F_5 = 0, where
sum_i F_i t^i is the section-surface form. Solving F_1 = F_2 = F_3 = 0
expresses (a, b, c) in terms of (p, q); the remaining equation becomes

    c1 q^2 + (c2 p^2 + c3 p + c4) q = c5 p^4 + c6 p^3 + c7 p^2 + c8 p + c9

(the plane curve G = 0, with G = phi2^3 * F_4). The sixth intersection map
sigma sends a section to its residual intersection with S, at fiber
coordinate t = -F_5 / F_6. The (-1)-curves through Q are F_4 = F_5 = F_6 = 0.

`section_curve` gives c1..c9, G, the lift (a, b, c), F_4 = phi2^-3 G and
F_5, F_6 in closed form. tests/test_closed_forms.py proves these once, over
QQ(p, q, x0, y0, f, g) and hence over GF(p) for p >= 5, against the section
substitution; `build` checks its inputs and recomputes no F_i.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactalg import (
    BiPoly, ExactAlgError, FieldElement, QuotientExt, UniPoly,
    UnsupportedField, ZeroDivisor, poly_gcd, rational_roots, resultant_q,
    _horner, sqrt, square_split, squarefree_decomposition, squarefree_part,
)
from .dp1 import Dp1Surface, SectionCurve, WeightedPoint, section_surface_form
from .weier import CurvePoint, PhiValues, WeierCurve, mul, phi_values


class TwoTorsionPoint(ExactAlgError):
    pass


class MinusOneCurve(ExactAlgError):
    pass


class PositiveDimensional(ExactAlgError):
    pass


class BothVanish(ExactAlgError):
    pass


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CQ5Data:
    surface: Dp1Surface
    x0: FieldElement
    y0: FieldElement
    f: tuple                 # f0..f4
    g: tuple                 # g0..g6
    phis: PhiValues
    c: tuple                 # c1..c9 (index 0 = c1)
    G: BiPoly
    F4: BiPoly
    F5: BiPoly
    F6: BiPoly
    lift_a: BiPoly
    lift_b: BiPoly
    lift_c: BiPoly

    @property
    def field(self):
        return self.x0.field

    def fiber_curve(self) -> WeierCurve:
        return WeierCurve(self.f[0], self.g[0])

    def base_curve_point(self) -> CurvePoint:
        return CurvePoint(self.x0, self.y0)

    def section(self, p, q) -> SectionCurve:
        p, q = self.field(p), self.field(q)
        return SectionCurve(x0=self.x0, y0=self.y0,
                            a=self.lift_a(p, q), b=self.lift_b(p, q),
                            c=self.lift_c(p, q), p=p, q=q)


def section_f_coefficients(S: Dp1Surface, C: SectionCurve) -> list:
    """F_0..F_6 read off as the coefficients of the section-surface form
    (independent route: no closed formulas)."""
    return list(section_surface_form(C, S).coeffs)


def section_constants(f, g, x0, v: PhiValues):
    """h1..h4, l1..l3 and c1..c9 from f0..f4, g0..g4, x0 and the Phi values
    at x0. Field-generic: used over the base field and over the function
    field Q(x0)."""
    psi, p2, p3, p4 = v.psi, v.phi2, v.phi3, v.phi4
    h1, h2, h3, h4 = ((f[i] * x0 + g[i]) * p2 ** (i - 1) for i in range(1, 5))
    l1, l2, l3 = (f[i] * p2 ** i - h * psi
                  for i, h in zip(range(1, 4), (h1, h2, h3)))
    c1 = p2 ** 2 * p3
    c2 = -3 * p2 * p4
    c3 = -2 * p2 * (l1 * psi + 2 * h1 * p3)
    c4 = p2 * (h1 ** 2 * psi - 2 * l1 * h1 + l2)
    c5 = p3 ** 2 - p4 * psi
    c6 = 2 * l1 * p3 - 2 * h1 * p2 ** 2 - 4 * h1 * p4 - l1 * psi ** 2
    c7 = (h1 ** 2 * psi ** 2 - 2 * (3 * h1 ** 2 - h2) * p3
          - (4 * l1 * h1 - l2) * psi + l1 ** 2)
    c8 = ((4 * h1 ** 3 - 2 * h1 * h2) * psi - 6 * l1 * h1 ** 2
          + 2 * l1 * h2 + 2 * l2 * h1 - l3)
    c9 = 5 * h1 ** 4 - 6 * h1 ** 2 * h2 + 2 * h1 * h3 + h2 ** 2 - h4
    return (h1, h2, h3), (l1, l2), (c1, c2, c3, c4, c5, c6, c7, c8, c9)


def section_curve(f, g, x0, y0, v: PhiValues, P, Q):
    """c1..c9, G, the lift (a, b, c) and (F4, F5, F6) in the variables P, Q.
    Field-generic: P and Q are BiPoly variables over the base field here,
    generators of a rational function field in tests/test_closed_forms.py."""
    psi, p2, p3, p4 = v.psi, v.phi2, v.phi3, v.phi4
    (h1, h2, h3), (l1, l2), c = section_constants(f, g, x0, v)
    c1, c2, c3, c4, c5, c6, c7, c8, c9 = c
    G = (c1 * Q ** 2 + (c2 * P ** 2 + c3 * P + c4) * Q
         - (c5 * P ** 4 + c6 * P ** 3 + c7 * P ** 2 + c8 * P + c9))
    # the lift: solve F1 = F2 = F3 = 0 for a, b, c
    inv4y0 = 1 / (4 * y0)
    a = (psi * P + 2 * h1) * inv4y0
    b = ((psi * p2) * Q + (2 * p3) * P ** 2 + (2 * l1) * P
         + (2 * h2 - 2 * h1 ** 2)) * (inv4y0 / p2)
    zeta = p2 * ((2 * p3) * P + l1)
    eta = (-p4 * P ** 3 - (2 * h1 * p3 + l1 * psi) * P ** 2
           + (l2 - 2 * h1 * l1 + h1 ** 2 * psi) * P
           + (h3 - 2 * h1 * h2 + 2 * h1 ** 3))
    cc = (zeta * Q + eta) * (1 / (2 * y0 * p2 ** 2))
    F4 = G * (1 / p2 ** 3)
    F5 = 3 * P * Q ** 2 + f[4] * P + f[3] * Q + g[5] - 2 * b * cc
    F6 = Q ** 3 + f[4] * Q + g[6] - cc * cc
    return c, G, (a, b, cc), (F4, F5, F6)


def build(S: Dp1Surface, Q: WeightedPoint) -> CQ5Data:
    """All derived constants for the normalized pair (S, Q = (x0:y0:0:1))."""
    if Q.z or not Q.w:
        raise ExactAlgError("Q must be normalized over the fiber (0:1)")
    if not S.contains(Q):
        raise ExactAlgError("Q is not on the surface")
    x0, y0 = Q.x, Q.y
    if not y0:
        raise TwoTorsionPoint("y0 = 0: Q is fixed by y -> -y")
    K = S.field
    f, g = tuple(S.f.coeffs), tuple(S.g.coeffs)
    v = phi_values(f[0], g[0], x0)
    if v.phi2 != 4 * y0 ** 2:
        raise ExactAlgError("phi2 != 4 y0^2: Q not on its fiber")
    c, G, (a, b, cc), (F4, F5, F6) = section_curve(
        f, g, x0, y0, v, BiPoly.var_p(K), BiPoly.var_q(K))
    if not c[0] and not c[1]:
        raise ExactAlgError("c1 = c2 = 0: degenerate section curve")
    return CQ5Data(surface=S, x0=x0, y0=y0, f=f, g=g, phis=v, c=c, G=G,
                   F4=F4, F5=F5, F6=F6, lift_a=a, lift_b=b, lift_c=cc)


# ---------------------------------------------------------------------------
# the sixth-intersection map
# ---------------------------------------------------------------------------

def sigma(data: CQ5Data, p, q) -> WeightedPoint:
    """Residual intersection of the section at (p, q) with S. (p, q) must
    lie on the section curve G = 0; that is not re-checked here, nor is
    membership of the result: callers check both."""
    K = data.field
    p, q = K(p), K(q)
    t = _t_at(data, p, q)
    if t is None:
        raise MinusOneCurve("the section lies inside S")
    return data.section(p, q).point_at(*t)


# ---------------------------------------------------------------------------
# limit points Omega and their sigma-images
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OmegaPoint:
    kind: str                      # "alpha" or "above_vertex"
    alpha: object = None           # FieldElement (possibly in a QuotientExt)
    double: bool = False


def omega_points(data: CQ5Data) -> list:
    """Points of the closure of the section curve over p = infinity:
    roots alpha of c1 T^2 + c2 T - c5, plus the points over the vertex of
    the weighted plane when c1 = 0 (order-3 case)."""
    K = data.field
    c1, c2 = data.c[0], data.c[1]
    c5 = data.c[4]
    out = []
    if not c1:
        out.append(OmegaPoint("alpha", alpha=c5 / c2))
        out.append(OmegaPoint("above_vertex"))
        return out
    disc = c2 ** 2 + 4 * c1 * c5
    if not disc:
        out.append(OmegaPoint("alpha", alpha=-c2 / (2 * c1), double=True))
        return out
    try:
        r = sqrt(disc)
    except UnsupportedField:
        r = None
    if r is not None:
        out.append(OmegaPoint("alpha", alpha=(-c2 + r) / (2 * c1)))
        out.append(OmegaPoint("alpha", alpha=(-c2 - r) / (2 * c1)))
        return out
    # conjugate pair in a quadratic extension
    m = UniPoly(K, [-c5, c2, c1], "T").monic()
    ext = QuotientExt(m)
    out.append(OmegaPoint("alpha", alpha=ext.generator()))
    return out


def nodal_alpha_values(data: CQ5Data):
    """For a nodal fiber: the distinguished root alpha1 and the other root
    alpha2, in closed form."""
    f0, g0 = data.f[0], data.g[0]
    x0 = data.x0
    a1 = f0 / (4 * (f0 * x0 - 3 * g0))
    a2 = (f0 * (2 * f0 * x0 - 21 * g0)
          / (4 * (f0 * x0 - 3 * g0) * (2 * f0 * x0 - 9 * g0)))
    return a1, a2


def sigma_at_omega(data: CQ5Data, omega: OmegaPoint) -> CurvePoint:
    """sigma extended to the limit points: -4Q when the fiber is cuspidal or
    when the fiber is nodal and omega is the distinguished root alpha1;
    -5Q in every other case (computed by the fiber group law)."""
    E = data.fiber_curve()
    Q = data.base_curve_point()
    if omega.kind == "above_vertex":
        return mul(E, -5, Q)   # order 3: -5Q = Q
    if E.kind == "cuspidal":
        return mul(E, -4, Q)
    if E.kind == "nodal" and omega.alpha is not None:
        a1, _ = nodal_alpha_values(data)
        if omega.alpha == a1:
            return mul(E, -4, Q)
    return mul(E, -5, Q)


def nodal_limit_image(d, x0, y0) -> CurvePoint:
    """Closed form for sigma at the distinguished nodal limit point: equals
    -4Q on y^2 = (x-d)^2 (x+2d) with Q = (x0, y0). Independent of the group
    law; used as a cross-check."""
    x1 = d + (x0 - d) ** 4 / (16 * (x0 + 2 * d) * (x0 + 5 * d) ** 2)
    y1 = -((x0 - d) ** 3 * (x0 ** 2 + 22 * d * x0 + 49 * d ** 2) * y0
           / (64 * (x0 + 2 * d) ** 2 * (x0 + 5 * d) ** 3))
    return CurvePoint(x1, y1)


# ---------------------------------------------------------------------------
# the (-1)-curve scheme F4 = F5 = F6 = 0
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MinusOneScheme:
    distinct_count: int
    count_with_multiplicity: int
    solutions: tuple     # (description, p-degree, q-count) triples


def _q_polys_at(Fs, K, at) -> list:
    """Each BiPoly as a UniPoly in q over K, each coefficient c in p taken
    to at(c): its value at a root in the base field K, or its class in
    K = k[p]/(modulus), the value at the generator."""
    return [UniPoly(K, [at(cp) for cp in F.coeffs_in_q()], "q") for F in Fs]


def _q_gcd(Fs_q) -> UniPoly:
    """gcd of the nonzero q-polynomials."""
    g = None
    for F in Fs_q:
        if not F.is_zero():
            g = F if g is None else poly_gcd(g, F)
    if g is None:
        raise PositiveDimensional("all three polynomials vanish")
    return g


def _q_count_over(Fs_q) -> int:
    """Degree of the squarefree gcd of the q-polynomials."""
    g = _q_gcd(Fs_q)
    return squarefree_part(g).degree() if g.degree() > 0 else 0


def _count_for_modulus(Fs, modulus: UniPoly) -> int:
    """Distinct (p, q) solutions with p a root of the squarefree modulus,
    splitting the modulus dynamically on zero divisors."""
    if modulus.degree() == 0:
        return 0
    if modulus.degree() == 1:
        # direct substitution at the rational root
        root = -modulus.coeff(0) / modulus.coeff(1)
        return _q_count_over(_q_polys_at(Fs, root.field, lambda c: c(root)))
    try:
        ext = QuotientExt(modulus)
        return modulus.degree() * _q_count_over(_q_polys_at(Fs, ext, ext))
    except ZeroDivisor as zd:
        # dynamic evaluation: recurse on both factors of the split modulus
        return (_count_for_modulus(Fs, zd.factor1)
                + _count_for_modulus(Fs, zd.factor2))


def _eliminate_q(Fs) -> UniPoly:
    """T0 = gcd of the nonzero pairwise resultants Res_q of F4, F5, F6; the
    p-coordinates of the common zeros are roots of T0."""
    res = [resultant_q(Fs[i], Fs[j]) for i, j in ((0, 1), (0, 2), (1, 2))]
    nonzero = [r for r in res if not r.is_zero()]
    if not nonzero:
        raise PositiveDimensional("all pairwise resultants vanish")
    T0 = nonzero[0]
    for r in nonzero[1:]:
        T0 = poly_gcd(T0, r)
    return T0


def minus_one_scheme(data: CQ5Data) -> MinusOneScheme:
    """Counts the distinct geometric solutions of F4 = F5 = F6 = 0 by
    q-elimination: pairwise resultants in q, then per-root q-counting."""
    Fs = (data.F4, data.F5, data.F6)
    if any(F.deg_q() < 0 for F in Fs):
        raise PositiveDimensional("a defining polynomial vanishes")
    T0 = _eliminate_q(Fs)
    if T0.degree() <= 0:
        return MinusOneScheme(0, 0, ())
    solutions = []
    distinct = 0
    with_mult = 0
    for factor, mult in squarefree_decomposition(T0):
        # peel off rational roots for cheap direct counting
        remaining = factor
        for root in rational_roots(factor):
            lin = UniPoly(factor.field, [-root, factor.field.one], factor.var)
            if (remaining % lin).is_zero():
                remaining = remaining // lin
                n = _count_for_modulus(Fs, lin)
                if n:
                    solutions.append((f"p = {root}", 1, n))
                distinct += n
                with_mult += mult * n
        if remaining.degree() > 0:
            n_total = _count_for_modulus(Fs, remaining.monic())
            if n_total:
                solutions.append((f"p root of {remaining.monic()}",
                                  remaining.degree(), n_total))
            distinct += n_total
            with_mult += mult * n_total
    return MinusOneScheme(distinct, with_mult, tuple(solutions))


def minus_one_rational_points(data: CQ5Data) -> list:
    """The base-field-rational solutions of F4 = F5 = F6 = 0."""
    Fs = (data.F4, data.F5, data.F6)
    T0 = _eliminate_q(Fs)
    if T0.degree() <= 0:
        return []
    out = []
    for p0 in rational_roots(squarefree_part(T0)):
        g = _q_gcd(_q_polys_at(Fs, p0.field, lambda c: c(p0)))
        for q0 in rational_roots(g) if g.degree() > 0 else []:
            out.append((p0, q0))
    return out


# ---------------------------------------------------------------------------
# components of the section curve and the vertical/horizontal test
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComponentDesc:
    H: BiPoly
    shape: str            # "graph" | "vertical_line" | "quadratic_cover"
    multiplicity: int = 1
    non_reduced: bool = False


def _is_square_in_Kp(a: UniPoly):
    """Square root of a in K[p] when one exists, else None."""
    if a.is_zero():
        return UniPoly(a.field, [], a.var)
    try:
        r = sqrt(a.lead())
    except UnsupportedField:
        return None
    if r is None:
        return None
    sq, red = square_split(a)
    if red.degree() > 0:
        return None
    root = sq * r
    return root if root * root == a else None


def components(data: CQ5Data) -> list:
    """Factor G using deg_q G <= 2: no general bivariate factorization."""
    K = data.field
    c1 = data.c[0]
    coeffs = data.G.coeffs_in_q("p")
    # pad to q-degree 2
    while len(coeffs) < 3:
        coeffs.append(UniPoly(K, [], "p"))
    negRHS, L, c1poly = coeffs
    if c1:
        # G = c1 q^2 + L q - RHS; discriminant L^2 + 4 c1 RHS
        disc = L * L - 4 * c1 * negRHS
        if disc.is_zero():
            # G = (2 c1 q + L)^2 / (4 c1): a doubled q-linear factor
            H = BiPoly.from_coeffs_in_q([L, UniPoly(K, [2 * c1], "p")])
            return [ComponentDesc(H, "graph", multiplicity=2,
                                  non_reduced=True)]
        W = _is_square_in_Kp(disc)
        if W is None:
            return [ComponentDesc(data.G, "quadratic_cover")]
        two_c1 = UniPoly(K, [2 * c1], "p")
        Hplus = BiPoly.from_coeffs_in_q([L - W, two_c1])
        Hminus = BiPoly.from_coeffs_in_q([L + W, two_c1])
        return [ComponentDesc(Hplus, "graph"), ComponentDesc(Hminus, "graph")]
    # c1 = 0: G = M(p) q - N(p)
    M, N = L, -negRHS
    if M.is_zero():
        raise ExactAlgError("degenerate section curve: no q term")
    d = poly_gcd(M, N) if not N.is_zero() else M.monic()
    out = []
    if d.degree() > 0:
        for factor, mult in squarefree_decomposition(d):
            out.append(ComponentDesc(
                BiPoly.from_coeffs_in_q([factor]), "vertical_line",
                multiplicity=mult, non_reduced=mult > 1))
    M1 = M.exact_div(d) if d.degree() > 0 else M
    N1 = N.exact_div(d) if d.degree() > 0 else N
    out.append(ComponentDesc(BiPoly.from_coeffs_in_q([-N1, M1]), "graph"))
    return out


def _reduces_to_zero(F: BiPoly, comp: ComponentDesc) -> bool:
    """Does F vanish identically on the component H = 0?"""
    H = comp.H
    if comp.shape == "vertical_line":
        m = H.coeffs_in_q("p")[0]
        return all((cq % m).is_zero() for cq in F.coeffs_in_q("p"))
    if comp.shape == "graph":
        hc = H.coeffs_in_q("p")
        # F(p, N/M) M^deg_q F = 0 as a polynomial in p, N = -hc0 and M = hc1
        num = _horner(F.coeffs_in_q("p"), -hc[0], hc[1])
        return F.is_zero() or num.is_zero()
    # quadratic cover: divide out in q (leading coefficient is the scalar c1)
    hc = H.coeffs_in_q("p")
    lc = hc[2]
    if lc.degree() != 0:
        raise ExactAlgError("quadratic component with nonconstant lead")
    inv = lc.coeff(0).inverse()
    # reduce F modulo H by leading-term elimination in q (H monic up to c1)
    Fq = F.coeffs_in_q("p")
    for k in range(len(Fq) - 1, 1, -1):
        t = Fq[k] * inv
        if t.is_zero():
            continue
        Fq[k - 1] = Fq[k - 1] - t * hc[1]
        Fq[k - 2] = Fq[k - 2] - t * hc[0]
    return Fq[0].is_zero() and (len(Fq) < 2 or Fq[1].is_zero())


@dataclass(frozen=True)
class ImageClass:
    kind: str                  # "horizontal" | "vertical"
    t: tuple = None            # (a, b) meaning (a : b) in P^1


_SAMPLES = 24      # points _points_on_component returns at most


def _points_on_component(data: CQ5Data, comp: ComponentDesc):
    """Sample points (p, q) on the component at p or q in 0, +-1, ..., +-7,
    over the base field when possible, else over a quadratic extension."""
    K = data.field
    H = comp.H
    candidates = [K(v) for v in
                  [0, 1, -1, 2, -2, 3, -3, 4, -4, 5, -5, 6, -6, 7, -7]]
    found = []
    hc = H.coeffs_in_q("p")
    if comp.shape == "vertical_line":
        m = hc[0]
        roots = rational_roots(m) if m.degree() > 0 else []
        if roots:
            for r in roots:
                for qv in candidates:
                    found.append((r, qv))
                    if len(found) >= _SAMPLES:
                        return found
            return found
        ext = QuotientExt(m.monic())
        gen = ext.generator()
        for qv in candidates:
            found.append((gen, ext(qv)))
        return found
    if comp.shape == "graph":
        M, N = hc[1], -hc[0]
        return [(pv, N(pv) / M(pv)) for pv in candidates if M(pv)]
    # quadratic cover: solve the q-quadratic at sampled p
    c1 = hc[2].coeff(0)
    for pv in candidates:
        Lv = hc[1](pv)
        Cv = hc[0](pv)
        disc = Lv ** 2 - 4 * c1 * Cv
        try:
            r = sqrt(disc)
        except UnsupportedField:
            r = None
        if r is None:
            continue
        for sgn in (1, -1):
            found.append((pv, (-Lv + sgn * r) / (2 * c1)))
        if len(found) >= _SAMPLES:
            break
    if not found:
        pv = candidates[1]
        Lv = hc[1](pv)
        Cv = hc[0](pv)
        m = UniPoly(K, [Cv, Lv, c1], "s").monic()
        if squarefree_part(m) == m:
            ext = QuotientExt(m)
            found.append((ext(pv), ext.generator()))
    return found


def _t_at(data: CQ5Data, p, q):
    """The fiber (z, w) = (-F5/F6, 1) or (1, 0) of sigma's image at (p, q);
    None when F5 = F6 = 0 there."""
    F5v = data.F5(p, q)
    F6v = data.F6(p, q)
    if not F5v and not F6v:
        return None
    if F6v:
        return (-F5v / F6v, F6v.field.one)
    return (F5v.field.one, F5v.field.zero)


def vertical_test(data: CQ5Data, comp: ComponentDesc) -> ImageClass:
    """Does sigma contract the component to a single fiber?"""
    K = data.field
    f5_zero = _reduces_to_zero(data.F5, comp)
    f6_zero = _reduces_to_zero(data.F6, comp)
    if f5_zero and f6_zero:
        raise BothVanish("F5 and F6 both vanish on a component")
    if f5_zero:
        return ImageClass("vertical", (K.zero, K.one))
    if f6_zero:
        return ImageClass("vertical", (K.one, K.zero))
    # tangential derivative criterion
    Hp, Hq = comp.H.d_p(), comp.H.d_q()

    def tangential(F):
        return F.d_p() * Hq - F.d_q() * Hp

    W = tangential(data.F5) * data.F6 - tangential(data.F6) * data.F5
    wz = _reduces_to_zero(W, comp)
    if not wz:
        return ImageClass("horizontal")
    # W = 0 on the component: vertical, with t read off a sample point;
    # in characteristic p confirm by sampling (the criterion can be vacuous
    # under inseparability)
    pts = _points_on_component(data, comp)
    ts = []
    for (pv, qv) in pts:
        t = _t_at(data, pv, qv)
        if t is not None:
            ts.append(t)
    if K.char and len(ts) >= 2:
        t0 = ts[0]
        for t in ts[1:]:
            if t0[0] * t[1] != t0[1] * t[0]:
                return ImageClass("horizontal")
    if ts:
        a, b = ts[0]
        if b:
            val = a / b
            try:
                # coerce down to the base field when the sample lives in an ext
                if isinstance(val.field, QuotientExt):
                    val = val.field.down(val)
            except ExactAlgError:
                pass
            return ImageClass("vertical", (val, K.one))
        return ImageClass("vertical", (K.one, K.zero))
    return ImageClass("vertical", None)
