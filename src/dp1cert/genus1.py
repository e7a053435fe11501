"""Genus-one quartic machinery for the section curve.

Completing the square in q turns c1 q^2 + L(p) q = RHS(p) into v^2 = D(p)
with v = 2 c1 q + L(p) and D = L^2 + 4 c1 RHS (degree <= 4). This module
searches the quartic for rational points, maps it birationally to a short
Weierstrass cubic (its Jacobian, once a base point is chosen), certifies
that the quartic has infinitely many rational points, and generates them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .exactalg import (
    DEFAULT_BIT_BUDGET, QQ, ExactAlgError, FieldElement, OverHeightBudget,
    RationalField, UniPoly, UnsupportedField, check_budget, sqrt,
    square_split, squarefree_part,
)
from .weier import CurvePoint, WeierCurve, mul, non_torsion_certificate
from .cq5 import CQ5Data, components


class OrderThree(ExactAlgError):
    pass


class SingularQuartic(ExactAlgError):
    pass


# ---------------------------------------------------------------------------
# the quartic model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuarticModel:
    """v^2 = D(p) with the back-map q = (v - L(p)) / (2 c1)."""
    D: UniPoly
    L: UniPoly            # c2 p^2 + c3 p + c4
    c1: FieldElement

    @property
    def field(self):
        return self.c1.field

    def v_from_q(self, p, q) -> FieldElement:
        return 2 * self.c1 * q + self.L(p)

    def q_from_v(self, p, v) -> FieldElement:
        return (v - self.L(p)) / (2 * self.c1)

    @classmethod
    def from_poly(cls, D: UniPoly) -> "QuarticModel":
        """Standalone model for a bare quartic: v itself plays the role of q."""
        K = D.field
        half = K(1) / K(2)
        return cls(D, UniPoly(K, [], D.var), half)


@dataclass(frozen=True)
class QuarticPoint:
    kind: str                        # "affine" | "at_infinity"
    p: FieldElement = None
    v: FieldElement = None
    branch: FieldElement = None      # root alpha of c1 T^2 + c2 T - c5

    def __repr__(self):
        if self.kind == "affine":
            return f"({self.p}, {self.v})"
        return f"inf[{self.branch}]"


def complete_square(data: CQ5Data) -> QuarticModel:
    c1 = data.c[0]
    if not c1:
        raise OrderThree("c1 = 0: the section curve is q-linear, not a "
                         "double cover")
    K = data.field
    L = UniPoly(K, [data.c[3], data.c[2], data.c[1]], "p")
    rhs = UniPoly(K, [data.c[8], data.c[7], data.c[6], data.c[5], data.c[4]],
                  "p")
    return QuarticModel(L * L + 4 * c1 * rhs, L, c1)


def infinity_branches(model: QuarticModel) -> list:
    """Rational roots alpha of c1 T^2 + c2 T - c5 (the points of the closure
    over p = infinity); empty when the discriminant is not a square."""
    c1 = model.c1
    c2 = model.L.coeff(2)
    lead = model.D.coeff(4)          # = c2^2 + 4 c1 c5
    try:
        r = sqrt(lead)
    except UnsupportedField:
        return []
    if r is None:
        return []
    if not r:
        return [-c2 / (2 * c1)]
    return [(-c2 + r) / (2 * c1), (-c2 - r) / (2 * c1)]


def branch_to_v_slope(model: QuarticModel, alpha) -> FieldElement:
    """The limit of v / p^2 along the branch q / p^2 -> alpha."""
    return 2 * model.c1 * alpha + model.L.coeff(2)


# ---------------------------------------------------------------------------
# point search
# ---------------------------------------------------------------------------

def _square_values(D: UniPoly, height: int):
    """(p, v) with v >= 0 and v^2 = D(p) for every p = u/w in lowest terms
    with 1 <= w <= height and |u| <= height, w outer and u inner. With
    D = sum I_i p^i / L over integers and k = deg D rounded up to even,
    L^2 w^k D(u/w) = L sum I_i u^i w^(k-i) is an integer, and D(u/w) is a
    rational square exactly when it is an integer square."""
    ints, L = D.field._to_ints(D.coeffs)
    k = len(ints) - 1 + (len(ints) - 1) % 2
    for w in range(1, height + 1):
        scaled = [L * c * w ** (k - i) for i, c in enumerate(ints)]
        den = L * w ** (k // 2)
        for u in range(-height, height + 1):
            if gcd(u, w) != 1:
                continue
            val = 0    # w's powers are in scaled: faster than _horner here
            for c in reversed(scaled):
                val = val * u + c
            if val >= 0:
                r = isqrt(val)
                if r * r == val:
                    yield (FieldElement(QQ, Fraction(u, w)),
                           FieldElement(QQ, Fraction(r, den)))


def search_points(model: QuarticModel, height: int) -> list:
    """All affine rational points with p = u/w in lowest terms,
    max(|u|, w) <= height, plus the rational points at infinity."""
    K = model.field
    if not isinstance(K, RationalField):
        raise UnsupportedField("point search needs QQ")
    out = [QuarticPoint("at_infinity", branch=a)
           for a in infinity_branches(model)]
    for p, v in _square_values(model.D, height):
        out.append(QuarticPoint("affine", p=p, v=v))
        if v:
            out.append(QuarticPoint("affine", p=p, v=-v))
    return out


# ---------------------------------------------------------------------------
# quartic -> Weierstrass
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeierstrassMaps:
    E: WeierCurve
    forward: object          # QuarticPoint -> CurvePoint
    backward: object         # CurvePoint -> QuarticPoint


def _affine_jacobian(K, coeffs, v0):
    """Maps for v^2 = a u^4 + b u^3 + c u^2 + d u + e with base (0, v0),
    v0^2 = e. Returns (long coefficients, fwd, bwd) where the long model is
    Y^2 + a1 XY + a3 Y = X^3 + a2 X^2 + a4 X + a6 and inner points are
    ("a", u, v) or ("i", beta) with beta the v/u^2 slope at infinity."""
    e, d, c, b, a = (coeffs + [K.zero] * 5)[:5]
    if v0:
        q = v0
        r = d / (2 * q)
        s = (c - r * r) / (2 * q)
        h = b - 2 * r * s
        k = a - s * s
        long_c = (2 * r, -4 * q * s, 2 * q * h, -4 * q * q * k, K.zero)

        def W(u):
            return q + r * u + s * u * u

        def fwd(pt):
            if pt[0] == "i":
                beta = pt[1]
                return ("p", 2 * q * (beta + s), K.zero)
            _, u, v = pt
            if not u:
                if v == q:
                    return ("o",)
                return ("p", K.zero, -2 * q * h)
            num = v + W(u)
            return ("p", 2 * q * num / (u * u), 4 * q * q * num / (u ** 3))

        def bwd(pt):
            if pt[0] == "o":
                return ("a", K.zero, q)
            _, X, Y = pt
            if Y:
                if not X:
                    return ("a", K.zero, -q)
                u = 2 * q * X / Y
                return ("a", u, u * u * X / (2 * q) - W(u))
            if not X:
                if k:
                    u = -h / k
                    return ("a", u, -W(u))
                return ("i", -s)
            return ("i", X / (2 * q) - s)

        return long_c, fwd, bwd

    # base is a root of the quartic: v0 = 0, so e = 0 and d != 0
    if e:
        raise ExactAlgError("base (0, 0) is not on the quartic")
    if not d:
        raise SingularQuartic("base sits at a repeated root")
    long_c = (K.zero, c, K.zero, b * d, a * d * d)

    def fwd(pt):
        if pt[0] == "i":
            return ("p", K.zero, pt[1] * d)
        _, u, v = pt
        if not u:
            return ("o",)
        return ("p", d / u, d * v / (u * u))

    def bwd(pt):
        if pt[0] == "o":
            return ("a", K.zero, K.zero)
        _, X, Y = pt
        if not X:
            return ("i", Y / d)
        return ("a", d / X, d * Y / (X * X))

    return long_c, fwd, bwd


def to_weierstrass(model: QuarticModel, base: QuarticPoint) -> WeierstrassMaps:
    """Birational maps between v^2 = D(p) and a short Weierstrass cubic,
    sending the base point to the identity."""
    K = model.field
    D = model.D
    deg = D.degree()
    if deg not in (3, 4) or squarefree_part(D).degree() != deg:
        raise SingularQuartic("D must be squarefree of degree 3 or 4")
    c1, c2 = model.c1, model.L.coeff(2)
    dc = [D.coeff(i) for i in range(5)]

    if base.kind == "affine":
        if base.v * base.v != D(base.p):
            raise ExactAlgError("base point is not on the quartic")
        p0 = base.p
        shifted = D.shift(p0)
        inner = [shifted.coeff(i) for i in range(5)]
        v0 = base.v

        def to_inner(pt):
            if pt.kind == "affine":
                return ("a", pt.p - p0, pt.v)
            return ("i", branch_to_v_slope(model, pt.branch))

        def from_inner(pt):
            if pt[0] == "a":
                return QuarticPoint("affine", p=pt[1] + p0, v=pt[2])
            return QuarticPoint("at_infinity",
                                branch=(pt[1] - c2) / (2 * c1))
    else:
        # invert p -> 1/u so the infinity branch becomes the affine point
        # (0, beta) on the reversed quartic
        inner = list(reversed(dc))
        v0 = branch_to_v_slope(model, base.branch)
        if v0 * v0 != inner[0]:
            raise ExactAlgError("branch slope is not a root at infinity")

        def to_inner(pt):
            if pt.kind == "at_infinity":
                return ("a", K.zero, branch_to_v_slope(model, pt.branch))
            if not pt.p:
                return ("i", pt.v)
            return ("a", pt.p.inverse(), pt.v / (pt.p * pt.p))

        def from_inner(pt):
            if pt[0] == "i":
                return QuarticPoint("affine", p=K.zero, v=pt[1])
            _, u, v = pt
            if not u:
                return QuarticPoint("at_infinity",
                                    branch=(v - c2) / (2 * c1))
            return QuarticPoint("affine", p=u.inverse(), v=v / (u * u))

    long_c, fwd_inner, bwd_inner = _affine_jacobian(K, inner, v0)
    a1, a2, a3, a4, a6 = long_c
    # complete the square in Y, then depress the cubic
    A2 = a2 + a1 * a1 / K(4)
    A4 = a4 + a1 * a3 / K(2)
    A6 = a6 + a3 * a3 / K(4)
    A = A4 - A2 * A2 / K(3)
    B = A6 - A2 * A4 / K(3) + 2 * A2 ** 3 / K(27)
    E = WeierCurve(A, B)
    if E.kind != "smooth":
        raise SingularQuartic("the Jacobian cubic is singular")
    shift = A2 / K(3)

    def long_to_short(pt):
        if pt[0] == "o":
            return CurvePoint.identity()
        _, X, Y = pt
        return CurvePoint(X + shift, Y + (a1 * X + a3) / K(2))

    def short_to_long(P):
        if P.is_identity:
            return ("o",)
        X = P.x - shift
        return ("p", X, P.y - (a1 * X + a3) / K(2))

    def forward(pt: QuarticPoint) -> CurvePoint:
        P = long_to_short(fwd_inner(to_inner(pt)))
        if not E.on_curve(P):
            raise ExactAlgError("forward image off the cubic")
        return P

    def backward(P: CurvePoint) -> QuarticPoint:
        pt = from_inner(bwd_inner(short_to_long(P)))
        if pt.kind == "affine" and pt.v * pt.v != D(pt.p):
            raise ExactAlgError("backward image off the quartic")
        return pt

    return WeierstrassMaps(E, forward, backward)


# ---------------------------------------------------------------------------
# infinitude certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InfinitudeCertificate:
    kind: str          # rational_component | non_torsion_class | point_count
    #                  # | inconclusive
    description: str
    param: tuple = None            # rational-component parametrization data
    E: WeierCurve = None
    point: CurvePoint = None       # the non-torsion class
    witness: tuple = ()
    n: int = 0                     # distinct points found (point_count)
    maps: WeierstrassMaps = None
    model: QuarticModel = None
    base: QuarticPoint = None


def _rational_quartic_certificate(model: QuarticModel, height: int):
    """Certificates for non-squarefree or low-degree D: the quartic is a
    rational curve once it has a rational point."""
    K = model.field
    sq, red = square_split(model.D)
    if red.degree() <= 0:
        r = sqrt(red.coeff(0)) if not red.is_zero() else K.zero
        if red.is_zero() or r is not None:
            val = K.zero if red.is_zero() else r
            return InfinitudeCertificate(
                "rational_component", "v = const * square part",
                param=("const", sq, val), model=model)
        return None
    if red.degree() == 1:
        return InfinitudeCertificate(
            "rational_component", "v-bar parametrizes a degree-1 cover",
            param=("linear", sq, red), model=model)
    if red.degree() == 2:
        # conic vbar^2 = red(p): needs one rational point
        point = next(_square_values(red, height), None)
        if point is not None:
            return InfinitudeCertificate(
                "rational_component", "line pencil through a conic point",
                param=("conic", sq, red, *point), model=model)
        # a rational point at infinity of the conic also works, but then the
        # leading coefficient is a square and affine points abound; skip
        return None
    return None


def infinitude_certificate(data: CQ5Data, height: int = 40) \
        -> InfinitudeCertificate:
    """Certify that the section curve has infinitely many rational points."""
    if not isinstance(data.field, RationalField):
        raise UnsupportedField("infinitude certificates need QQ")
    if not data.c[0]:
        graph = [c for c in components(data) if c.shape == "graph"][0]
        return InfinitudeCertificate(
            "rational_component", "q-graph over the p-line",
            param=("graph", graph.H))
    model = complete_square(data)
    D = model.D
    if D.degree() < 3 or squarefree_part(D).degree() != D.degree():
        cert = _rational_quartic_certificate(model, height)
        if cert is not None:
            return cert
        return InfinitudeCertificate(
            "inconclusive", "rational quartic but no rational point found",
            model=model)
    pts = search_points(model, height)
    if len(pts) >= 2:
        base = pts[0]
        maps = to_weierstrass(model, base)
        for other in pts[1:]:
            R = maps.forward(other)
            if R.is_identity:
                continue
            verdict = non_torsion_certificate(maps.E, R)
            if not verdict.is_torsion:
                return InfinitudeCertificate(
                    "non_torsion_class", verdict.reason, E=maps.E, point=R,
                    witness=(base, other), maps=maps, model=model, base=base)
        if len(set(pts)) > 16:
            return InfinitudeCertificate(
                "point_count", "more points than any rational torsion group",
                param=("points", tuple(pts)), n=len(set(pts)), model=model)
    return InfinitudeCertificate(
        "inconclusive", f"{len(pts)} points up to height {height}",
        model=model)


# ---------------------------------------------------------------------------
# point generation
# ---------------------------------------------------------------------------

def scan_values(field):
    """0, 1, -1, 2, -2, ... as elements of field."""
    yield field.zero
    k = 1
    while True:
        yield field(k)
        yield field(-k)
        k += 1


def _parameters(field, max_iter: int):
    """scan_values, raising OverHeightBudget after max_iter + 1 values."""
    for i, t in enumerate(scan_values(field)):
        if i > max_iter:
            raise OverHeightBudget("parameter scan exhausted")
        yield t


def generate_points(data: CQ5Data, cert: InfinitudeCertificate, count: int,
                    budget: int = DEFAULT_BIT_BUDGET) -> list:
    """count distinct rational (p, q) on the section curve."""
    if count <= 0:
        return []
    if cert.kind == "inconclusive":
        raise ExactAlgError("cannot generate from an inconclusive certificate")
    K = data.field
    out = []
    seen = set()

    def push(p, q):
        check_budget(p, budget)
        check_budget(q, budget)
        if data.G(p, q):
            raise ExactAlgError("generated point is off the section curve")
        if (p, q) not in seen:
            seen.add((p, q))
            out.append((p, q))
        return len(out) >= count

    max_iter = 64 * count + 512

    if cert.kind == "rational_component":
        tag = cert.param[0]
        model = cert.model
        if tag == "graph":
            hc = cert.param[1].coeffs_in_q("p")
            M, Nn = hc[1], -hc[0]
            for t in _parameters(K, max_iter):
                if not M(t):
                    continue
                if push(t, Nn(t) / M(t)):
                    return out
        if tag == "line":
            p0 = cert.param[1]
            for t in _parameters(K, max_iter):
                if push(p0, t):
                    return out
        if tag == "const":
            sq, val = cert.param[1], cert.param[2]
            for t in _parameters(K, max_iter):
                if push(t, model.q_from_v(t, val * sq(t))):
                    return out
        if tag == "linear":
            sq, red = cert.param[1], cert.param[2]
            e0, e1 = red.coeff(0), red.coeff(1)
            for t in _parameters(K, max_iter):
                p = (t * t - e0) / e1
                if push(p, model.q_from_v(p, t * sq(p))):
                    return out
        if tag == "conic":
            sq, red, p0, w0 = cert.param[1:]
            e0, e1, e2 = red.coeff(0), red.coeff(1), red.coeff(2)
            for t in _parameters(K, max_iter):
                if t * t == e2:
                    continue
                p = (e2 * p0 + e1 - 2 * w0 * t + t * t * p0) / (t * t - e2)
                w = w0 + t * (p - p0)
                if push(p, model.q_from_v(p, w * sq(p))):
                    return out
        raise OverHeightBudget("parametrization produced too few points")

    if cert.kind == "non_torsion_class":
        E, R, maps, model = cert.E, cert.point, cert.maps, cert.model
        m = 0
        for i in range(max_iter):
            m = -m if m > 0 else -m + 1      # 1, -1, 2, -2, ...
            P = mul(E, m, R)
            qp = maps.backward(P)
            if qp.kind != "affine":
                continue
            if push(qp.p, model.q_from_v(qp.p, qp.v)):
                return out
        raise OverHeightBudget("multiple scan exhausted")

    # point_count: only the explicitly found points are available
    model = cert.model
    for qp in cert.param[1]:
        if qp.kind != "affine":
            continue
        if push(qp.p, model.q_from_v(qp.p, qp.v)):
            return out
    raise OverHeightBudget("point-count certificate holds fewer points "
                           "than requested")
