"""Density certification pipelines.

Two certified conclusions:
  - DenseByTheorem12: Q of order >= 3 on its fiber, not fixed by y -> -y,
    not on six (-1)-curves when its order is 3 or 5, not order 5 in
    characteristic 5, and the section curve through Q has a horizontal
    component with infinitely many rational points.
  - DenseByTheorem13: the surface has a nodal fiber over a rational point
    of the base; a non-torsion class between the two points at infinity of
    the section quartic certifies infinitude.

Also: the fiber-type base-change table, the symbolic verification of the
transformed nodal model over the function field Q(x0), density evidence
generation, and a registry of scripted example scenarios.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from itertools import islice
from math import gcd

from .exactalg import (
    DEFAULT_BIT_BUDGET, BinaryForm, ExactAlgError, FieldElement,
    FunctionField, OverHeightBudget, QQ, RationalField, UniPoly,
    UnsupportedField, check_budget, pgl2_act, rational_roots, sqrt,
)
from .weier import (
    CurvePoint, HitsSingularPoint, ZeroY, nodal_param,
    non_torsion_certificate, order_class, phi_values, walk_multiples,
)
from .dp1 import (
    Dp1Surface, InvalidPoint, WeightedPoint, fiber_to_zero, is_smooth,
    move_to_zero, parse_point, rational_singular_fibers,
)
from .cq5 import (
    BothVanish, MinusOneCurve, PositiveDimensional, build, components,
    minus_one_scheme, section_constants, sigma, vertical_test,
)
from .genus1 import (
    InfinitudeCertificate, QuarticPoint, SingularQuartic, complete_square,
    generate_points, infinitude_certificate, infinity_branches, scan_values,
    to_weierstrass,
)


class NotSmooth(ExactAlgError):
    pass


class NotOnSurface(ExactAlgError):
    pass


class NoRationalNodalFiber(ExactAlgError):
    pass


class IdentityFailed(ExactAlgError):
    def __init__(self, which, message=""):
        self.which = which
        super().__init__(f"identity check '{which}' failed. {message}")


class UnknownExample(ExactAlgError):
    pass


class Unsupported(ExactAlgError):
    pass


# ---------------------------------------------------------------------------
# run parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunParams:
    height: int = 40
    multiples: int = 8
    count: int = 25
    budget: int = DEFAULT_BIT_BUDGET


# ---------------------------------------------------------------------------
# Kodaira fiber types and the base-change table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KodairaType:
    symbol: str               # "I" | "I*" | "II" | "III" | "IV" |
    #                         # "II*" | "III*" | "IV*"
    n: int = 0

    def __post_init__(self):
        if self.symbol not in ("I", "I*", "II", "III", "IV",
                               "II*", "III*", "IV*"):
            raise ExactAlgError(f"unknown fiber type {self.symbol!r}")
        if self.n < 0:
            raise ExactAlgError("fiber index must be nonnegative")

    @classmethod
    def parse(cls, text: str) -> "KodairaType":
        t = text.strip()
        star = t.endswith("*")
        if star:
            t = t[:-1]
        if t and t[0] == "I" and t[1:].isdigit():
            return cls("I*" if star else "I", int(t[1:]))
        return cls(t + "*" if star else t)

    def __str__(self):
        if self.symbol == "I":
            return f"I{self.n}"
        if self.symbol == "I*":
            return f"I{self.n}*"
        return self.symbol


_I0 = KodairaType("I", 0)


def base_change_fiber_type(t: KodairaType, e: int) -> KodairaType:
    """Fiber type of the pullback under a degree-e base map totally ramified
    at the fiber."""
    if e < 1:
        raise ExactAlgError("base-change degree must be >= 1")
    if t.symbol == "I":
        return KodairaType("I", t.n * e)
    if t.symbol == "I*":
        return KodairaType("I", t.n * e) if e % 2 == 0 \
            else KodairaType("I*", t.n * e)
    if t.symbol == "IV*":
        return (_I0, KodairaType("IV*"), KodairaType("IV"))[e % 3]
    if t.symbol == "II":
        return (_I0, KodairaType("II"), KodairaType("IV"), KodairaType("I*"),
                KodairaType("IV*"), KodairaType("II*"))[e % 6]
    if t.symbol == "III":
        return (_I0, KodairaType("III"), KodairaType("I*"),
                KodairaType("III*"))[e % 4]
    raise Unsupported(f"{t} is not a base type of the table")


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComponentClass:
    shape: str
    multiplicity: int
    image: str                 # "horizontal" | "vertical" | "minus_one_family"
    fiber: str | None = None   # "a:b" for vertical images


@dataclass(frozen=True, kw_only=True)
class Certificate:
    surface_hash: str
    theorem: str                       # "1.2" | "1.3"
    q_original: WeightedPoint | None = None
    q_normalized: WeightedPoint | None = None
    order: int | None = None           # None: no order <= 12 detected
    char5_ok: bool = True
    minus_one_count: int | None = None
    component_classes: tuple = ()      # of ComponentClass
    infinitude: str | None = None      # certificate kind
    infinitude_description: str = ""
    conclusion: str                    # DenseByTheorem12 | DenseByTheorem13 |
    #                                  # HypothesisFailed | Inconclusive
    reasons: tuple = ()
    evidence: tuple = ()               # WeightedPoints on the input surface
    distinct_fibers: int = 0
    resources: dict = dc_field(default_factory=dict)

    @property
    def is_dense(self) -> bool:
        return self.conclusion in ("DenseByTheorem12", "DenseByTheorem13")


def surface_hash(S: Dp1Surface) -> str:
    desc = f"{S.field!r}|f={[str(c) for c in S.f.coeffs]}" \
           f"|g={[str(c) for c in S.g.coeffs]}"
    return hashlib.sha256(desc.encode()).hexdigest()[:16]


def _point_str(P: WeightedPoint | None):
    if P is None:
        return None
    return f"{P.x},{P.y},{P.z},{P.w}"


def certificate_to_json(cert: Certificate) -> dict:
    return {
        "surface_hash": cert.surface_hash,
        "theorem": cert.theorem,
        "q_original": _point_str(cert.q_original),
        "q_normalized": _point_str(cert.q_normalized),
        "order": cert.order,
        "char5_ok": cert.char5_ok,
        "minus_one_count": cert.minus_one_count,
        "component_classes": [
            {"shape": c.shape, "multiplicity": c.multiplicity,
             "image": c.image, "fiber": c.fiber}
            for c in cert.component_classes],
        "infinitude": cert.infinitude,
        "infinitude_description": cert.infinitude_description,
        "conclusion": cert.conclusion,
        "reasons": list(cert.reasons),
        "evidence": [_point_str(P) for P in cert.evidence],
        "distinct_fibers": cert.distinct_fibers,
        "resources": cert.resources,
    }


def certificate_from_json(doc: dict, field) -> Certificate:
    def pt(text):
        return None if text is None else parse_point(text, field)
    return Certificate(
        surface_hash=doc["surface_hash"],
        theorem=doc["theorem"],
        q_original=pt(doc["q_original"]),
        q_normalized=pt(doc["q_normalized"]),
        order=doc["order"],
        char5_ok=doc["char5_ok"],
        minus_one_count=doc["minus_one_count"],
        component_classes=tuple(
            ComponentClass(c["shape"], c["multiplicity"], c["image"],
                           c["fiber"])
            for c in doc["component_classes"]),
        infinitude=doc["infinitude"],
        infinitude_description=doc["infinitude_description"],
        conclusion=doc["conclusion"],
        reasons=tuple(doc["reasons"]),
        evidence=tuple(pt(t) for t in doc["evidence"]),
        distinct_fibers=doc["distinct_fibers"],
        resources=doc["resources"],
    )


# ---------------------------------------------------------------------------
# density evidence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvidenceReport:
    points: tuple              # WeightedPoints on the surface carrying data
    distinct_fibers: int
    skipped_minus_one: int


def density_evidence(S: Dp1Surface, data, points, multiples: int = 8,
                     budget: int = DEFAULT_BIT_BUDGET) -> EvidenceReport:
    """sigma-images of section-curve points (as generate_points returns
    them) and their fiberwise multiples."""
    out = []
    fibers = set()
    skipped = 0
    for (p, q) in points:
        try:
            R = sigma(data, p, q)
        except MinusOneCurve:
            skipped += 1
            continue
        try:
            check_budget(R.x, budget)
            check_budget(R.y, budget)
        except OverHeightBudget:
            continue            # R is the first multiple: no fiber to build
        E = S.fiber(R.z, R.w)
        for kR in walk_multiples(E, CurvePoint(R.x, R.y), multiples, budget):
            out.append(WeightedPoint(kR.x, kR.y, R.z, R.w))
            fibers.add((R.z, R.w))
    return EvidenceReport(tuple(out), len(fibers), skipped)


def _transform_point(M, P: WeightedPoint) -> WeightedPoint:
    (a, b), (c, d) = M
    return WeightedPoint(P.x, P.y, a * P.z + b * P.w, c * P.z + d * P.w)


def _evidence_on_input(S: Dp1Surface, M, points) -> tuple:
    """Evidence found on the transformed surface, mapped back through M and
    re-checked on the input surface S."""
    evidence = tuple(_transform_point(M, P) for P in points)
    if not all(S.contains(P) for P in evidence):
        raise ExactAlgError("transformed evidence point off the surface")
    return evidence


def _curve_point_count(params: RunParams) -> int:
    """Section-curve points to generate for params.count evidence points at
    params.multiples fiber multiples each (at least six)."""
    return max(6, -(-params.count // max(params.multiples, 1)) + 2)


# ---------------------------------------------------------------------------
# the order-3-or-more condition checker
# ---------------------------------------------------------------------------

def _infinitude_on_horizontal(data, horizontal, height):
    """Pick a horizontal component and certify it has infinitely many
    rational points. Returns (certificate, component) or (None, None)."""
    for comp in horizontal:
        if comp.shape == "graph":
            return InfinitudeCertificate(
                "rational_component", "q-graph over the p-line",
                param=("graph", comp.H)), comp
    for comp in horizontal:
        if comp.shape == "vertical_line":
            m = comp.H.coeffs_in_q("p")[0]
            roots = rational_roots(m)
            if roots:
                return InfinitudeCertificate(
                    "rational_component", f"line p = {roots[0]}",
                    param=("line", roots[0])), comp
    for comp in horizontal:
        if comp.shape == "quadratic_cover":
            return infinitude_certificate(data, height), comp
    return None, None


def check_conditions(S: Dp1Surface, Q: WeightedPoint,
                     params: RunParams | None = None) -> Certificate:
    params = params or RunParams()
    t_start = time.monotonic()
    if not is_smooth(S):
        raise NotSmooth("the surface has a singular point")
    try:
        norm = move_to_zero(S, Q)
    except InvalidPoint as exc:
        raise NotOnSurface(str(exc)) from exc

    shash = surface_hash(S)
    resources = {"height": params.height, "multiples": params.multiples}
    found = {}      # hypothesis data established so far

    def emit(conclusion, reasons=(), **fields):
        resources["elapsed_s"] = round(time.monotonic() - t_start, 3)
        cert = Certificate(
            surface_hash=shash, theorem="1.2", q_original=Q,
            q_normalized=norm.point, conclusion=conclusion,
            reasons=tuple(reasons), resources=dict(resources), **found,
            **fields)
        if conclusion == "DenseByTheorem12":
            _assert_dense12_sound(cert)
        return cert

    x0, y0 = norm.point.x, norm.point.y
    if not y0:
        return emit("HypothesisFailed",
                    ["Q is fixed by y -> -y (order at most 2)"], order=2)

    E = norm.surface.fiber(S.field.zero, S.field.one)
    try:
        order = order_class(E, CurvePoint(x0, y0))
    except HitsSingularPoint:
        order = None
    reasons = []
    char5_ok = not (S.field.char == 5 and order == 5)
    if not char5_ok:
        reasons.append("order-5 point in characteristic 5")
    found.update(order=order, char5_ok=char5_ok)

    data = build(norm.surface, norm.point)
    if order in (3, 5):
        try:
            minus_count = minus_one_scheme(data).distinct_count
        except PositiveDimensional:
            reasons.append("(-1)-curve locus through Q is not "
                           "zero-dimensional")
        else:
            found["minus_one_count"] = minus_count
            if minus_count >= 6:
                reasons.append(f"Q lies on {minus_count} >= 6 (-1)-curves")
    if reasons:
        return emit("HypothesisFailed", reasons)

    classes = []
    horizontal = []
    for comp in components(data):
        try:
            v = vertical_test(data, comp)
        except BothVanish:
            classes.append(ComponentClass(comp.shape, comp.multiplicity,
                                          "minus_one_family"))
            continue
        fiber = None
        if v.kind == "vertical" and v.t is not None:
            fiber = f"{v.t[0]}:{v.t[1]}"
        classes.append(ComponentClass(comp.shape, comp.multiplicity,
                                      v.kind, fiber))
        if v.kind == "horizontal":
            horizontal.append(comp)
    found["component_classes"] = tuple(classes)

    if not horizontal:
        return emit("Inconclusive",
                    ["no horizontal component of the section curve"])
    if not isinstance(S.field, RationalField):
        return emit("Inconclusive",
                    ["density certification is implemented over the "
                     "rationals only"])

    inf_cert, comp = _infinitude_on_horizontal(data, horizontal,
                                               params.height)
    if inf_cert is None or inf_cert.kind == "inconclusive":
        desc = inf_cert.description if inf_cert else \
            "no rational-point certificate on a horizontal component"
        return emit("Inconclusive", [desc], infinitude="inconclusive",
                    infinitude_description=desc)
    found.update(infinitude=inf_cert.kind,
                 infinitude_description=inf_cert.description)

    try:
        pts = generate_points(data, inf_cert, _curve_point_count(params),
                              params.budget)
    except OverHeightBudget as exc:
        return emit("Inconclusive", [f"point generation: {exc}"])
    report = density_evidence(norm.surface, data, pts, params.multiples,
                              params.budget)
    if report.distinct_fibers < 2 or len(report.points) < 2:
        return emit("Inconclusive",
                    ["density evidence touches fewer than two fibers"])
    return emit("DenseByTheorem12",
                evidence=_evidence_on_input(S, norm.matrix, report.points),
                distinct_fibers=report.distinct_fibers)


def _assert_dense12_sound(cert: Certificate):
    """Re-validate every hypothesis flag at emission time."""
    ok = (cert.q_normalized is not None and bool(cert.q_normalized.y)
          and (cert.order is None or cert.order >= 3)
          and cert.char5_ok
          and (cert.order not in (3, 5)
               or (cert.minus_one_count is not None
                   and cert.minus_one_count < 6))
          and any(c.image == "horizontal" for c in cert.component_classes)
          and cert.infinitude in ("rational_component", "non_torsion_class",
                                  "point_count")
          and cert.distinct_fibers >= 2)
    if not ok:
        raise ExactAlgError("unsound certificate: a hypothesis flag is "
                            "violated at emission")


# ---------------------------------------------------------------------------
# the nodal-fiber pipeline
# ---------------------------------------------------------------------------

def nodal_density(S: Dp1Surface, params: RunParams | None = None) \
        -> Certificate:
    params = params or RunParams()
    t_start = time.monotonic()
    K = S.field
    if not isinstance(K, RationalField):
        raise UnsupportedField("the nodal pipeline needs QQ")
    if not is_smooth(S):
        raise NotSmooth("the surface has a singular point")
    candidates = [fiber_to_zero(z, w)
                  for z, w, kind in rational_singular_fibers(S)
                  if kind == "I1"]
    if not candidates:
        raise NoRationalNodalFiber(
            "no simple rational root of the discriminant with f nonzero")
    shash = surface_hash(S)
    reasons = []
    resources = {"height": params.height, "multiples": params.multiples}

    for M in candidates:
        S2 = Dp1Surface(pgl2_act(M, S.f), pgl2_act(M, S.g))
        f0, g0 = S2.f.coeffs[0], S2.g.coeffs[0]
        d = -3 * g0 / (2 * f0)
        E0 = S2.fiber(K.zero, K.one)
        for s in islice(scan_values(K), 3, 53):      # s = 2, -2, ..., -26
            try:
                Q0 = nodal_param(d, s)
                # infinite order on the nodal group: no n Q0 = O for n <= 12
                if order_class(E0, Q0) is not None:
                    continue
            except (ZeroY, HitsSingularPoint):
                continue
            Q = WeightedPoint(Q0.x, Q0.y, K.zero, K.one)
            try:
                data = build(S2, Q)
                model = complete_square(data)
                branches = infinity_branches(model)
                if len(branches) != 2:
                    reasons.append("points at infinity are not rational")
                    continue
                b1 = QuarticPoint("at_infinity", branch=branches[0])
                b2 = QuarticPoint("at_infinity", branch=branches[1])
                maps = to_weierstrass(model, b1)
            except (SingularQuartic, ExactAlgError) as exc:
                reasons.append(str(exc))
                continue
            img = maps.forward(b2)
            verdict = non_torsion_certificate(maps.E, img)
            if verdict.is_torsion:
                reasons.append("class of the two infinity points is torsion")
                continue
            inf_cert = InfinitudeCertificate(
                "non_torsion_class", verdict.reason, E=maps.E, point=img,
                witness=(b1, b2), maps=maps, model=model, base=b1)
            # generate_points(.., n) is the first n points of one sequence
            # and density_evidence treats each point on its own, so each
            # doubling round walks only the points the last one lacked
            n_curve = _curve_point_count(params)
            points, done = [], 0
            try:
                while True:
                    pts = generate_points(data, inf_cert, n_curve,
                                          params.budget)
                    points += density_evidence(S2, data, pts[done:],
                                               params.multiples,
                                               params.budget).points
                    done, n_curve = len(pts), 2 * n_curve
                    if len(points) >= params.count \
                            or n_curve > 4 * params.count:
                        break
            except OverHeightBudget as exc:
                reasons.append(f"point generation: {exc}")
                continue
            fibers = len({(P.z, P.w) for P in points})
            if len(points) < params.count or fibers < 2:
                reasons.append("insufficient density evidence")
                continue
            evidence = _evidence_on_input(S, M, points)
            resources["elapsed_s"] = round(time.monotonic() - t_start, 3)
            return Certificate(
                surface_hash=shash, theorem="1.3",
                q_original=_transform_point(M, Q), q_normalized=Q,
                infinitude="non_torsion_class",
                infinitude_description=verdict.reason,
                conclusion="DenseByTheorem13", evidence=evidence,
                distinct_fibers=fibers, resources=resources)
    resources["elapsed_s"] = round(time.monotonic() - t_start, 3)
    return Certificate(surface_hash=shash, theorem="1.3",
                       conclusion="Inconclusive", reasons=tuple(reasons),
                       resources=resources)


# ---------------------------------------------------------------------------
# symbolic verification of the transformed nodal model over Q(x0)
# ---------------------------------------------------------------------------

def _eval_ff(el: FieldElement, v):
    """Evaluate a reduced rational function of x0 at a rational value."""
    num, den = el.rep
    dv = den(v)
    if not dv:
        raise IdentityFailed("evaluation", f"pole at x0 = {v}")
    return num(v) / dv


def verify_nodal_model(S: Dp1Surface) -> dict:
    """Check the four theorem-backed identities of the transformed model of
    the section quartic over the function field Q(x0), for a surface with a
    nodal fiber over (0:1)."""
    K = S.field
    if not isinstance(K, RationalField):
        raise UnsupportedField("symbolic verification needs QQ")
    f0, g0 = S.f.coeffs[0], S.g.coeffs[0]
    dt = S.disc_form.chart_w()
    if not f0 or dt.coeff(0) or not dt.coeff(1):
        raise ExactAlgError("the fiber over (0:1) must be a simple nodal "
                            "degeneration")
    F = FunctionField(QQ, "x0")
    x0 = F.gen()
    fco = [F(c) for c in S.f.coeffs]
    gco = [F(c) for c in S.g.coeffs]
    d = -3 * gco[0] / (2 * fco[0])
    c_lin = fco[1] * d + gco[1]            # f1 d + g1, nonzero (simple root)
    # every c_i is even in y0, hence a rational function of x0 once
    # phi2 = 4(x0^3 + f0 x0 + g0) is used
    phis = phi_values(fco[0], gco[0], x0)
    _, _, c = section_constants(fco, gco, x0, phis)
    c1, p2 = c[0], phis.phi2

    Lf = BinaryForm(F, 2, [c[3], c[2], c[1]])
    RHSf = BinaryForm(F, 4, [c[8], c[7], c[6], c[5], c[4]])
    Df = Lf * Lf + 4 * c1 * RHSf
    # transformed coordinates: pbar' = 8 (x0-d)^2 pbar + (x0-d) c_lin rbar,
    # rbar' = 8 rbar, qbar' = (2/phi2)(2 c1 qbar + L(pbar, rbar))
    A = (8 * (x0 - d) ** 2).inverse()
    B = -c_lin / (64 * (x0 - d))
    Hp = (4 * p2.inverse() ** 2) * pgl2_act(
        ((A, B), (F.zero, F(Fraction(1, 8)))), Df)

    dval = _eval_ff(d, QQ.zero)            # d is constant
    clin_val = _eval_ff(c_lin, QQ.zero)

    report = {}

    # (i) the fiber at x0 = d: 81 d^4 c (pbar^2 rbar (pbar + c rbar))
    got = [_eval_ff(co, dval.rep) for co in Hp.coeffs]
    scale = 81 * dval ** 4 * clin_val
    want = [QQ.zero, QQ.zero, scale * clin_val, scale, QQ.zero]
    if got != want:
        raise IdentityFailed("fiber_at_d", f"{got} != {want}")
    report["fiber_at_d"] = True

    # (ii) discriminant multiplicities (3, 8, 2) at (d, -2d, -3d)
    e0, e1, e2, e3, e4 = Hp.coeffs
    I = 12 * e4 * e0 - 3 * e3 * e1 + e2 * e2
    J = (72 * e4 * e2 * e0 + 9 * e3 * e2 * e1 - 27 * e4 * e1 * e1
         - 27 * e0 * e3 * e3 - 2 * e2 ** 3)
    disc = (4 * I ** 3 - J * J) / F(27)
    num, den = disc.rep
    if den.degree() != 0:
        raise IdentityFailed("discriminant", "not polynomial in x0")
    num = num * den.coeff(0).inverse()
    mults = []
    cof = num
    for root, want_m in ((dval, 3), (-2 * dval, 8), (-3 * dval, 2)):
        lin = UniPoly(QQ, [-root, QQ.one], "x0")
        m = 0
        while (cof % lin).is_zero():
            cof = cof // lin
            m += 1
        mults.append(m)
        if m != want_m:
            raise IdentityFailed("discriminant",
                                 f"multiplicity {m} != {want_m} at {root}")
    report["disc_multiplicities"] = tuple(mults)

    # (iii) 2^11 D(d) = -3^13 d^11 (f1 d + g1)^12
    lhs = 2 ** 11 * cof(dval)
    rhs = -(3 ** 13) * dval ** 11 * clin_val ** 12
    if lhs != rhs:
        raise IdentityFailed("cofactor_at_d", f"{lhs} != {rhs}")
    report["cofactor_at_d"] = True

    # (iv) the two sections (4 : +-6d(x0-d) : 0) lie on qbar'^2 = H
    h40 = Hp(F(4), F.zero)
    for sgn in (1, -1):
        sec = F(sgn) * 6 * d * (x0 - d)
        if sec * sec != h40:
            raise IdentityFailed("sections", "section off the model")
    report["sections"] = True
    return report


# ---------------------------------------------------------------------------
# rational point search on a surface
# ---------------------------------------------------------------------------

def search_surface_points(S: Dp1Surface, height: int = 8, limit: int = 8):
    """Small rational points (x:y:z:w) on S away from the base point, found
    by scanning fibers over small rational base points."""
    K = S.field
    if not isinstance(K, RationalField):
        raise UnsupportedField("surface point search needs QQ")
    found = []
    fiber_dirs = [(K(t), K.one) for t in range(-height, height + 1)]
    fiber_dirs.append((K.one, K.zero))
    for (z0, w0) in fiber_dirs:
        A = S.f(z0, w0)
        B = S.g(z0, w0)
        for xn in range(-height, height + 1):
            for xd in range(1, 4):
                if gcd(abs(xn), xd) != 1:
                    continue
                x = K(Fraction(xn, xd))
                y = sqrt(x ** 3 + A * x + B)
                if not y:
                    continue
                found.append(WeightedPoint(x, y, z0, w0))
                if len(found) >= limit:
                    return found
    return found


# ---------------------------------------------------------------------------
# the example registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExampleReport:
    name: str
    description: str
    passed: bool
    details: dict


def _registry():
    from . import instances
    from .exactalg import BiPoly

    def run_41():
        from .dp1 import is_minus_one_curve
        S, Q, section = instances.order5_section_instance()
        data = build(S, Q)
        ok = is_minus_one_curve(section, S)
        vt = [vertical_test(data, c) for c in components(data)]
        f6_vertical = all(v.kind == "vertical"
                          and v.t == (S.field.one, S.field.zero) for v in vt)
        return ok and f6_vertical, {
            "section_is_minus_one_curve": ok,
            "all_components_map_to_infinity": f6_vertical}

    def run_42():
        S, Q, alpha = instances.char5_constant_sigma_instance()
        data = build(S, Q)
        K = S.field
        P, Qv = BiPoly.var_p(K), BiPoly.var_q(K)
        expect = (Qv ** 2 + (2 * P ** 2 - BiPoly.const(K.one)) * Qv
                  + P ** 4 - P ** 2 + BiPoly.const(3 * alpha))
        shape_ok = data.G.proportional_to(expect)
        comps = components(data)
        vt = [vertical_test(data, c) for c in comps]
        sigma_const = all(v.kind == "vertical" and v.t == (K.zero, K.one)
                          for v in vt)
        return shape_ok and sigma_const, {
            "curve_shape": shape_ok, "sigma_constant": sigma_const}

    def run_43i():
        S, Q = instances.order3_split_instance()
        data = build(S, Q)
        shapes = sorted(c.shape for c in components(data))
        ok = shapes == ["graph", "vertical_line"]
        return ok, {"component_shapes": shapes}

    def run_43iii():
        S, Q = instances.order3_nonreduced_instance()
        data = build(S, Q)
        K = S.field
        vt = [vertical_test(data, c) for c in components(data)]
        ok = all(v.kind == "vertical" and v.t == (K.zero, K.one) for v in vt)
        return ok, {"all_vertical_to_Q_fiber": ok}

    def run_44i():
        S, Q = instances.order3_vertex_instance()
        data = build(S, Q)
        comps = components(data)
        by_shape = {c.shape: c for c in comps}
        graph_vertical = (vertical_test(data, by_shape["graph"]).kind
                          == "vertical")
        conic_horizontal = (vertical_test(data, by_shape["vertical_line"])
                            .kind == "horizontal")
        count = minus_one_scheme(data).distinct_count
        ok = graph_vertical and conic_horizontal and count >= 6
        return ok, {"graph_vertical": graph_vertical,
                    "conic_horizontal": conic_horizontal,
                    "minus_one_count": count}

    def run_44iii():
        S, Q = instances.order3_isotrivial_instance()
        data = build(S, Q)
        K = S.field
        vt = [vertical_test(data, c) for c in components(data)]
        ok = all(v.kind == "vertical" and v.t == (K.zero, K.one) for v in vt)
        return ok, {"all_vertical_to_Q_fiber": ok}

    def run_72():
        import random
        rng = random.Random(72)
        tried = 0
        while tried < 200:
            tried += 1
            f = [rng.randint(-1, 1) for _ in range(5)]
            g = [rng.randint(-1, 1) for _ in range(7)]
            try:
                S = Dp1Surface.from_coeff_lists(QQ, f, g)
            except ExactAlgError:
                continue
            if not is_smooth(S):
                continue
            pts = search_surface_points(S, height=6, limit=3)
            for Q in pts:
                cert = check_conditions(S, Q, RunParams(height=20, count=10))
                return True, {"conclusion": cert.conclusion,
                              "surfaces_tried": tried}
        return False, {"surfaces_tried": tried}

    def run_73():
        S, Q = instances.nine_curves_instance()
        cert = check_conditions(S, Q)
        data = build(S, Q)
        count = minus_one_scheme(data).distinct_count
        ok = (cert.conclusion == "HypothesisFailed" and count == 9
              and cert.order == 3)
        return ok, {"conclusion": cert.conclusion, "minus_one_count": count,
                    "order": cert.order}

    return {
        "ex-4.1": ("order-5 section over GF(11): the exhibited section is a "
                   "(-1)-curve and the section curve maps to the fiber at "
                   "infinity", run_41),
        "ex-4.2": ("characteristic 5: sigma is constant on the section "
                   "curve", run_42),
        "ex-4.3i": ("order-3 split family: conic pair factorization",
                    run_43i),
        "ex-4.3iii": ("order-3 non-reduced family: every component is "
                      "contracted to Q's fiber", run_43iii),
        "ex-4.4i": ("order-3 vertex family: vertical q-graph plus "
                    "horizontal conic, at least six (-1)-curves", run_44i),
        "ex-4.4iii": ("order-3 isotrivial family: sigma constant", run_44iii),
        "ex-7.2": ("random small-coefficient surface: the certifier runs "
                   "end to end on a searched point", run_72),
        "ex-7.3": ("order-3 point on nine (-1)-curves: hypotheses fail",
                   run_73),
    }


def example_registry(name: str) -> ExampleReport:
    reg = _registry()
    if name not in reg:
        raise UnknownExample(f"unknown example {name!r}; known: "
                             + ", ".join(sorted(reg)))
    desc, fn = reg[name]
    passed, details = fn()
    return ExampleReport(name=name, description=desc, passed=passed,
                         details=details)
