"""The surface S: y^2 = x^3 + f(z,w) x + g(z,w) in P(2,3,1,1), with f a
binary quartic and g a binary sextic.

Weighted points, containment, the Jacobian smoothness test on both affine
charts, the discriminant Delta = 4f^3 + 27g^2 with its fiber census
(M nodal + 2 * N cuspidal = 12), base-change normalization moving a chosen
point's fiber to (0:1), degree-6 sections, and the z -> -z, w -> w - z
involution fixing the fiber over (0:1).
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactalg import (
    BinaryForm, ExactAlgError, Field, FieldElement, RationalField, UniPoly,
    _int_mul, pgl2_act, poly_gcd, rational_roots, squarefree_decomposition,
    squarefree_part,
)
from .weier import WeierCurve


class InvalidSurface(ExactAlgError):
    pass


class InvalidPoint(ExactAlgError):
    pass


class IsBasePoint(ExactAlgError):
    pass


class SmoothnessViolated(ExactAlgError):
    pass


class ParseError(ExactAlgError):
    pass


# ---------------------------------------------------------------------------
# weighted points
# ---------------------------------------------------------------------------

class WeightedPoint:
    """(x : y : z : w) under (x:y:z:w) ~ (l^2 x : l^3 y : l z : l w).

    Canonical form: z = 1 when z != 0; else w = 1 when w != 0; else the base
    point O = (1:1:0:0), which requires x^3 = y^2 != 0.
    """

    __slots__ = ("x", "y", "z", "w")

    def __init__(self, x, y, z, w):
        if not isinstance(x, FieldElement):
            raise ExactAlgError("coordinates must be FieldElements")
        field = x.field
        y, z, w = field(y), field(z), field(w)
        if z:
            lam = z.inverse()
        elif w:
            lam = w.inverse()
        else:
            if not x or not y or x ** 3 != y ** 2:
                raise InvalidPoint("point with z = w = 0 must scale to (1:1:0:0)")
            lam = x / y  # l^2 = 1/x and l^3 = 1/y
        self.x = x * lam ** 2
        self.y = y * lam ** 3
        self.z = z * lam
        self.w = w * lam

    @classmethod
    def base_point(cls, field: Field) -> "WeightedPoint":
        return cls(field.one, field.one, field.zero, field.zero)

    @property
    def is_base_point(self) -> bool:
        return not self.z and not self.w

    @property
    def field(self):
        return self.x.field

    def __eq__(self, other):
        if not isinstance(other, WeightedPoint):
            return NotImplemented
        return (self.x, self.y, self.z, self.w) == \
            (other.x, other.y, other.z, other.w)

    def __hash__(self):
        return hash((self.x, self.y, self.z, self.w))

    def __repr__(self):
        return f"({self.x}:{self.y}:{self.z}:{self.w})"


def parse_point(text: str, field) -> WeightedPoint:
    """A point from its exact text form "x,y,z,w"."""
    parts = text.split(",")
    if len(parts) != 4:
        raise ParseError(f"a point needs four coordinates, got {text!r}")
    try:
        return WeightedPoint(*[field(s.strip()) for s in parts])
    except (ValueError, ExactAlgError) as exc:
        raise ParseError(f"bad point {text!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# the surface
# ---------------------------------------------------------------------------

class Dp1Surface:
    __slots__ = ("field", "f", "g", "disc_form")

    def __init__(self, f: BinaryForm, g: BinaryForm):
        if f.d != 4 or g.d != 6:
            raise InvalidSurface("f must have degree 4 and g degree 6")
        if f.field != g.field:
            raise InvalidSurface("f and g over different fields")
        K = self.field = f.field
        self.f = f
        self.g = g
        # 4 f^3 + 27 g^2 in one pass: f^3 over df^3, g^2 over dg^2
        (F, df), (G, dg) = K._to_ints(f.coeffs), K._to_ints(g.coeffs)
        F3, G2 = _int_mul(_int_mul(F, F), F), _int_mul(G, G)
        sf, sg = 4 * dg ** 2, 27 * df ** 3
        self.disc_form = BinaryForm._of(K, 12, K._from_ints(
            [sf * a + sg * b for a, b in zip(F3, G2)], df ** 3 * dg ** 2))
        if self.disc_form.is_zero():
            raise InvalidSurface("4f^3 + 27g^2 vanishes identically: "
                                 "every fiber is singular")

    @classmethod
    def from_coeff_lists(cls, field: Field, f_coeffs, g_coeffs) -> "Dp1Surface":
        return cls(BinaryForm(field, 4, f_coeffs),
                   BinaryForm(field, 6, g_coeffs))

    def contains(self, P: WeightedPoint) -> bool:
        """Over QQ, y^2 = x^3 + (F/Fd) x + G/Gd is cleared to integers:
        yn^2 D = yd^2 R with D = xd^3 Fd Gd and R = xn^3 Fd Gd
        + F xn xd^2 Gd + G Fd xd^3. As gcd(yn, yd) = 1, yd^2 divides
        yn^2 D only when it divides D, so a nonzero remainder of D by yd^2
        rejects the point; otherwise the test is yn^2 (D / yd^2) = R."""
        if P.is_base_point:
            return True
        if not isinstance(self.field, RationalField):
            return (P.y ** 2
                    == P.x ** 3 + self.f(P.z, P.w) * P.x + self.g(P.z, P.w))
        x, y = P.x.rep, P.y.rep
        F, Fd = self.f.value_pair(P.z, P.w)
        G, Gd = self.g.value_pair(P.z, P.w)
        xn, xd = x.numerator, x.denominator
        xd2 = xd * xd
        c, rem = divmod(xd2 * xd * Fd * Gd, y.denominator ** 2)
        return not rem and (y.numerator ** 2 * c
                            == (xn * xn * Fd + F * xd2) * xn * Gd
                            + G * Fd * xd2 * xd)

    def fiber(self, z0, w0) -> WeierCurve:
        z0, w0 = self.field(z0), self.field(w0)
        if not z0 and not w0:
            raise ExactAlgError("(0:0) is not a point of P^1")
        return WeierCurve(self.f(z0, w0), self.g(z0, w0))

    def __eq__(self, other):
        return (isinstance(other, Dp1Surface)
                and self.f == other.f and self.g == other.g)

    def __repr__(self):
        return f"y^2 = x^3 + ({self.f})x + ({self.g})"


# ---------------------------------------------------------------------------
# smoothness
# ---------------------------------------------------------------------------

def _chart_smooth(f: UniPoly, g: UniPoly, disc: UniPoly) -> bool:
    """Jacobian criterion on one affine chart. A singular point forces y = 0,
    3x^2 + f = 0, x^3 + fx + g = 0 and f'x + g' = 0; its t-coordinate is a
    common root of disc and 2fg' - 3f'g, and there it must violate
    f = g = 0 with g' != 0."""
    h = poly_gcd(disc, 2 * f * g.derivative() - 3 * f.derivative() * g)
    if h.degree() == 0:
        return True
    hs = squarefree_part(h)
    fg = poly_gcd(f, g)
    if fg.is_zero() or not (squarefree_part(fg) % hs).is_zero():
        return False
    return poly_gcd(h, g.derivative()).degree() == 0


def is_smooth(S: Dp1Surface) -> bool:
    """True iff S has no singular point (the base point O is always smooth)."""
    for chart in ("w", "z"):
        if chart == "w":
            f, g, d = S.f.chart_w(), S.g.chart_w(), S.disc_form.chart_w()
        else:
            f, g, d = S.f.chart_z(), S.g.chart_z(), S.disc_form.chart_z()
        if not _chart_smooth(f, g, d):
            return False
    return True


# ---------------------------------------------------------------------------
# fiber census
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiberCensus:
    M: int                       # geometric nodal fibers (type I1)
    N: int                       # geometric cuspidal fibers (type II)
    pattern: dict                # multiplicity -> geometric root count


def fiber_census(S: Dp1Surface) -> FiberCensus:
    """Root multiplicities of Delta over the algebraic closure, including the
    point at infinity (multiplicity 12 - deg Delta(t,1)); asserts M + 2N = 12."""
    dt = S.disc_form.chart_w()
    pattern: dict = {}
    for factor, mult in squarefree_decomposition(dt):
        pattern[mult] = pattern.get(mult, 0) + factor.degree()
    inf_mult = 12 - dt.degree()
    if inf_mult:
        pattern[inf_mult] = pattern.get(inf_mult, 0) + 1
    if any(m >= 3 for m in pattern):
        raise SmoothnessViolated(
            f"discriminant root of multiplicity >= 3: {pattern}")
    M = pattern.get(1, 0)
    N = pattern.get(2, 0)
    if M + 2 * N != 12:
        raise SmoothnessViolated(f"M + 2N = {M + 2 * N} != 12")
    return FiberCensus(M, N, pattern)


def rational_singular_fibers(S: Dp1Surface) -> list:
    """(z, w, type) for each singular fiber over a rational point (z:w) of
    the base, roots of Delta(t, 1) first: type "I1" (nodal) where f != 0,
    else "II" (cuspidal). On a smooth surface these are the simple and the
    double roots of Delta."""
    K = S.field
    dt = S.disc_form.chart_w()
    fibers = [(root, K.one) for root in rational_roots(dt)]
    if dt.degree() < 12:
        fibers.append((K.one, K.zero))
    return [(z, w, "I1" if S.f(z, w) else "II") for z, w in fibers]


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def fiber_to_zero(z: FieldElement, w: FieldElement) -> tuple:
    """The PGL2 matrix M with column 1 = (z, w): under pgl2_act(M, .) the
    new fiber (0:1) is the old fiber (z:w)."""
    K = z.field
    if w:
        return ((K.one, z), (K.zero, w))
    return ((K.zero, z), (K.one, w))


@dataclass(frozen=True)
class Normalized:
    surface: Dp1Surface
    point: WeightedPoint          # (x0 : y0 : 0 : 1)
    matrix: tuple                 # the PGL2 matrix used


def move_to_zero(S: Dp1Surface, Q: WeightedPoint) -> Normalized:
    """Applies an automorphism of P^1 sending (0:1) to Q's fiber, so the
    transformed point sits over (0:1) as (x0 : y0 : 0 : 1)."""
    if Q.is_base_point:
        raise IsBasePoint("the base point lies over every fiber direction")
    if not S.contains(Q):
        raise InvalidPoint(f"{Q} is not on the surface")
    M = fiber_to_zero(Q.z, Q.w)
    S2 = Dp1Surface(pgl2_act(M, S.f), pgl2_act(M, S.g))
    # the new (0:1) maps to exactly (Q.z, Q.w), the canonical
    # representative, so (x, y) carry over unchanged
    Q2 = WeightedPoint(Q.x, Q.y, S.field.zero, S.field.one)
    if not S2.contains(Q2):
        raise ExactAlgError("normalization failed to preserve membership")
    return Normalized(S2, Q2, M)


def involution(S: Dp1Surface) -> Dp1Surface:
    """(x:y:z:w) -> (x:y:-z:w-z): fixes the fiber over (0:1) and swaps the
    fibers over (1:1) and (1:0); replaces f1, g1 by -4f0-f1, -6g0-g1."""
    field = S.field
    M = ((field(-1), field.zero), (field(-1), field.one))
    return Dp1Surface(pgl2_act(M, S.f), pgl2_act(M, S.g))


# ---------------------------------------------------------------------------
# sections
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SectionCurve:
    """x = q z^2 + p zw + x0 w^2,  y = c z^3 + b z^2 w + a zw^2 + y0 w^3."""
    x0: FieldElement
    y0: FieldElement
    a: FieldElement
    b: FieldElement
    c: FieldElement
    p: FieldElement
    q: FieldElement

    @property
    def field(self):
        return self.x0.field

    def x_form(self) -> BinaryForm:
        return BinaryForm(self.field, 2, [self.x0, self.p, self.q])

    def y_form(self) -> BinaryForm:
        return BinaryForm(self.field, 3, [self.y0, self.a, self.b, self.c])

    def point_at(self, z0, w0) -> WeightedPoint:
        z0, w0 = self.field(z0), self.field(w0)
        return WeightedPoint(self.x_form()(z0, w0), self.y_form()(z0, w0),
                             z0, w0)


def section_surface_form(C: SectionCurve, S: Dp1Surface) -> BinaryForm:
    """-y^2 + x^3 + f x + g with the section substituted: the degree-6 form
    whose roots (with multiplicity, including infinity) are the six
    intersections of the section with S; identically zero iff C lies in S."""
    x, y = C.x_form(), C.y_form()
    return -(y * y) + x * x * x + S.f * x + S.g


def is_minus_one_curve(C: SectionCurve, S: Dp1Surface) -> bool:
    return section_surface_form(C, S).is_zero()
