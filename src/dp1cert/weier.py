"""Weierstrass cubics y^2 = x^3 + Ax + B.

Group law on the smooth locus (valid also on singular cubics away from the
node/cusp), division-polynomial values Phi_2..Phi_6, point order
classification with a division-polynomial cross-check, Nagell-Lutz / Mazur
non-torsion certificates over QQ, and the normal forms
y^2 + e*x*y + beta*y = x^3 (order 3) and
y^2 + (beta+1)*x*y + beta*y = x^3 + beta*x^2 (order 5).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .exactalg import (
    DEFAULT_BIT_BUDGET, QQ, ExactAlgError, FieldElement, OverHeightBudget,
    RationalField, UnsupportedField, check_budget,
)


class HitsSingularPoint(ExactAlgError):
    pass


class ZeroY(ExactAlgError):
    pass


class WrongOrder(ExactAlgError):
    pass


class AnomalousOrderWarning(UserWarning):
    """Repeated addition and the division-polynomial check disagree
    (possible in small characteristic); repeated addition wins."""


# ---------------------------------------------------------------------------
# curves and points
# ---------------------------------------------------------------------------

class WeierCurve:
    """y^2 = x^3 + A x + B over a field of characteristic != 2, 3."""

    __slots__ = ("field", "A", "B", "_classification")

    def __init__(self, A: FieldElement, B: FieldElement):
        if not isinstance(A, FieldElement):
            raise ExactAlgError("A must be a FieldElement")
        self.field = A.field
        self.A = A
        self.B = self.field(B)
        self._classification = None

    def _classify(self) -> tuple:
        """(kind, x_sing) from the discriminant 4A^3 + 27B^2, computed on
        first use: the group law on a smooth fiber never needs it."""
        if self._classification is None:
            A, B = self.A, self.B
            if 4 * A ** 3 + 27 * B ** 2:
                self._classification = ("smooth", None)
            elif not A and not B:
                self._classification = ("cuspidal", self.field.zero)
            else:
                # double root of x^3 + Ax + B
                self._classification = ("nodal", -3 * B / (2 * A))
        return self._classification

    kind = property(lambda self: self._classify()[0])
    x_sing = property(lambda self: self._classify()[1])

    def rhs(self, x: FieldElement) -> FieldElement:
        return x ** 3 + self.A * x + self.B

    def on_curve(self, P: "CurvePoint") -> bool:
        if P.is_identity:
            return True
        if P.y ** 2 != self.rhs(P.x):
            return False
        return not self.is_singular_point(P)

    def is_singular_point(self, P: "CurvePoint") -> bool:
        return (not P.is_identity and not P.y and self.x_sing is not None
                and P.x == self.x_sing)

    def __eq__(self, other):
        return (isinstance(other, WeierCurve)
                and self.A == other.A and self.B == other.B)

    def __repr__(self):
        return f"y^2 = x^3 + ({self.A})x + ({self.B}) [{self.kind}]"


class CurvePoint:
    """Identity or an affine point (x, y)."""

    __slots__ = ("x", "y", "is_identity")

    def __init__(self, x=None, y=None):
        if x is None:
            self.is_identity = True
            self.x = self.y = None
        else:
            if not isinstance(x, FieldElement):
                raise ExactAlgError("coordinates must be FieldElements")
            self.is_identity = False
            self.x = x
            self.y = x.field(y)

    @classmethod
    def identity(cls):
        return cls()

    def neg(self):
        if self.is_identity:
            return self
        return CurvePoint(self.x, -self.y)

    def __eq__(self, other):
        if not isinstance(other, CurvePoint):
            return NotImplemented
        if self.is_identity or other.is_identity:
            return self.is_identity and other.is_identity
        return self.x == other.x and self.y == other.y

    def __hash__(self):
        return hash((self.x, self.y)) if not self.is_identity else hash("O")

    def __repr__(self):
        return "O" if self.is_identity else f"({self.x}, {self.y})"


def validate_point(E: WeierCurve, P: CurvePoint):
    if not E.on_curve(P):
        raise ExactAlgError(f"{P} not on the smooth locus of {E}")


def _chord(E: WeierCurve, P: CurvePoint, R: CurvePoint):
    """(slope, x) of the chord-tangent sum of affine P and R, or None when
    P + R = O."""
    if P.x == R.x:
        if P.y == -R.y:
            return None
        lam = (3 * P.x ** 2 + E.A) / (2 * P.y)
    else:
        lam = (R.y - P.y) / (R.x - P.x)
    return lam, lam ** 2 - P.x - R.x


def _third_point(E: WeierCurve, P: CurvePoint, lam, x3) -> CurvePoint:
    """The sum with slope lam and x-coordinate x3 through P."""
    out = CurvePoint(x3, lam * (P.x - x3) - P.y)
    if E.is_singular_point(out):
        raise HitsSingularPoint(f"sum lands on the singular point of {E}")
    return out


def add(E: WeierCurve, P: CurvePoint, R: CurvePoint) -> CurvePoint:
    """Chord-tangent sum on the smooth locus."""
    if P.is_identity:
        return R
    if R.is_identity:
        return P
    chord = _chord(E, P, R)
    if chord is None:
        return CurvePoint.identity()
    return _third_point(E, P, *chord)


def walk_multiples(E: WeierCurve, P: CurvePoint, n: int,
                   budget: int = DEFAULT_BIT_BUDGET):
    """Yield P, 2P, ..., nP, stopping before O or the first multiple with a
    coordinate over budget bits. x is checked before y is computed, so an
    over-budget x costs no y. Each y is taken through the fixed small P,
    which lies on the chord with acc and -(acc + P), so no difference of
    two large coordinates is formed. No multiple of a smooth P is singular:
    the smooth points of E form a group. A singular P is yielded, and its
    tangent gives O."""
    if P.is_identity:
        return
    acc = P
    try:
        for k in range(n):
            if k:
                chord = _chord(E, acc, P)
                if chord is None:
                    return
                check_budget(chord[1], budget)
                acc = _third_point(E, P, *chord)
            else:
                check_budget(P.x, budget)
            check_budget(acc.y, budget)
            yield acc
    except OverHeightBudget:
        return


def mul(E: WeierCurve, n: int, P: CurvePoint) -> CurvePoint:
    if n < 0:
        return mul(E, -n, P.neg())
    out = CurvePoint.identity()
    base = P
    while n:
        if n & 1:
            out = add(E, out, base)
        base = add(E, base, base)
        n >>= 1
    return out


# ---------------------------------------------------------------------------
# division-polynomial values
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhiValues:
    psi: FieldElement
    phi2: FieldElement
    phi3: FieldElement
    phi4: FieldElement
    phi5: FieldElement
    phi6: FieldElement


def phi_values(A: FieldElement, B, x0) -> PhiValues:
    field = A.field
    B, x0 = field(B), field(x0)
    phi2 = 4 * (x0 ** 3 + A * x0 + B)
    psi = 6 * x0 ** 2 + 2 * A
    quarter = field(1) / field(4)
    phi3 = 3 * x0 * phi2 - quarter * psi ** 2
    phi4 = psi * phi3 - phi2 ** 2
    phi5 = phi2 ** 2 * phi4 - phi3 ** 3
    phi6 = phi5 - phi4 ** 2
    return PhiValues(psi, phi2, phi3, phi4, phi5, phi6)


def _order_by_phi(E: WeierCurve, P: CurvePoint):
    """Order in {2,...,6} predicted by the Phi values, None if > 6."""
    v = phi_values(E.A, E.B, P.x)
    if not v.phi2:
        return 2
    if not v.phi3:
        return 3
    if not v.phi4:
        return 4
    if not v.phi5:
        return 5
    if not v.phi6:
        return 6
    return None


def order_class(E: WeierCurve, P: CurvePoint):
    """Smallest n <= 12 with nP = O by repeated addition, or None
    (exceeds 12, the Mazur bound over QQ). On smooth curves, cross-checked against the
    division-polynomial values; disagreement emits AnomalousOrderWarning.
    On singular curves a multiple can land on the singular point, which
    raises HitsSingularPoint."""
    if P.is_identity:
        raise ExactAlgError("order_class requires P != O")
    order = None
    acc = CurvePoint.identity()
    for n in range(1, 13):
        acc = add(E, acc, P)
        if acc.is_identity:
            order = n
            break
    if E.kind == "smooth":
        by_phi = _order_by_phi(E, P)
        add_side = order if (order is not None and order <= 6) else None
        if by_phi != add_side:
            warnings.warn(
                f"division-polynomial order {by_phi} disagrees with "
                f"repeated-addition order {order}", AnomalousOrderWarning)
    return order


# ---------------------------------------------------------------------------
# Nagell-Lutz / Mazur non-torsion certificate over QQ
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TorsionVerdict:
    is_torsion: bool
    n: int | None          # torsion order, or the witnessing multiple
    reason: str


def non_torsion_certificate(E: WeierCurve, P: CurvePoint) -> TorsionVerdict:
    """Nagell-Lutz on an integral model plus the Mazur order bound."""
    if not isinstance(E.field, RationalField):
        raise UnsupportedField("non_torsion_certificate needs QQ")
    if E.kind != "smooth":
        raise ExactAlgError("non_torsion_certificate needs a smooth curve")
    if P.is_identity:
        return TorsionVerdict(True, 1, "identity")
    # A*u^4 and B*u^6 are integral; Nagell-Lutz holds on any integral
    # model, so u need not be the least such scale
    u = math.lcm(E.A.rep.denominator, E.B.rep.denominator)
    Ai = E.A.rep * u ** 4
    Bi = E.B.rep * u ** 6
    D = abs(4 * Ai ** 3 + 27 * Bi ** 2)  # y^2 | D for integral torsion (strong form)
    Ei = WeierCurve(QQ(Ai), QQ(Bi))
    Pi = CurvePoint(QQ(P.x.rep * u ** 2), QQ(P.y.rep * u ** 3))
    acc = CurvePoint.identity()
    for n in range(1, 13):
        acc = add(Ei, acc, Pi)
        if acc.is_identity:
            return TorsionVerdict(True, n, f"{n}P = O")
        x, y = acc.x.rep, acc.y.rep
        if x.denominator != 1 or y.denominator != 1:
            return TorsionVerdict(False, n, f"{n}P has a non-integral coordinate")
        if y != 0 and D % (y.numerator ** 2) != 0:
            return TorsionVerdict(False, n,
                                  f"y({n}P)^2 does not divide the discriminant")
    return TorsionVerdict(False, None, "no nP = O for n <= 12 (order bound)")


# ---------------------------------------------------------------------------
# normal forms for order-3 and order-5 points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TateForm:
    n: int
    beta: FieldElement
    e: int | None           # 0 or 1 for n=3, None for n=5
    eta: FieldElement


def order3_family(field, beta, e: int, eta):
    """(x0, y0, A, B) of the order-3 parametrization with parameter beta,
    e in {0,1}, scaled by eta."""
    beta, eta = field(beta), field(eta)
    u = field(3 * e)
    A = (6 * beta - 27) * e
    B = beta ** 2 - 18 * (beta - 3) * e
    return (u * eta ** 2, beta * eta ** 3, A * eta ** 4, B * eta ** 6)


def order5_family(field, beta, eta):
    beta, eta = field(beta), field(eta)
    u0 = 3 * (beta ** 2 + 6 * beta + 1)
    v0 = 108 * beta
    A = -27 * (beta ** 4 + 12 * beta ** 3 + 14 * beta ** 2 - 12 * beta + 1)
    B = 54 * (beta ** 2 + 1) * (beta ** 4 + 18 * beta ** 3
                                + 74 * beta ** 2 - 18 * beta + 1)
    return (u0 * eta ** 2, v0 * eta ** 3, A * eta ** 4, B * eta ** 6)


def _tate_coefficients(E: WeierCurve, P: CurvePoint):
    """Move P to the origin and kill the linear term: returns (a1, a2, a3)
    of y^2 + a1*x*y + a3*y = x^3 + a2*x^2 with P at (0,0)."""
    x0, y0 = P.x, P.y
    if not y0:
        raise WrongOrder("2-torsion point")
    a3 = 2 * y0
    a2 = 3 * x0
    a4 = 3 * x0 ** 2 + E.A
    lam = a4 / a3
    return 2 * lam, a2 - lam ** 2, a3


def tate_normal_form(E: WeierCurve, P: CurvePoint, n: int) -> TateForm:
    """Parameters (beta, e, eta) reproducing (x0, y0, A, B) through the
    order-n family; n in {3, 5}."""
    if n not in (3, 5):
        raise WrongOrder(f"n must be 3 or 5, got {n}")
    if P.is_identity or order_class(E, P) != n:
        raise WrongOrder(f"point does not have order {n}")
    field = E.field
    a1, a2, a3 = _tate_coefficients(E, P)
    x0, y0 = P.x, P.y
    if n == 3:
        if a2:
            raise WrongOrder("point does not have order 3")
        if a1:
            beta = 108 * a3 / a1 ** 3
            e = 1
            eta = 3 * y0 / (beta * x0)
        else:
            beta = 108 * a3
            e = 0
            eta = field(1) / field(6)
        expect = order3_family(field, beta, e, eta)
        if expect != (x0, y0, E.A, E.B):
            raise WrongOrder("order-3 normal form does not reproduce the input")
        return TateForm(3, beta, e, eta)
    # n = 5
    if not a2 or not a3:
        raise WrongOrder("degenerate normal-form coefficients for order 5")
    beta = a2 ** 3 / a3 ** 2
    u = a3 / a2
    if a1 / u != beta + 1:
        raise WrongOrder("order-5 normal form inconsistent")
    eta = y0 * (3 * (beta ** 2 + 6 * beta + 1)) / ((108 * beta) * x0)
    expect = order5_family(field, beta, eta)
    if expect != (x0, y0, E.A, E.B):
        raise WrongOrder("order-5 normal form does not reproduce the input")
    return TateForm(5, beta, None, eta)


# ---------------------------------------------------------------------------
# nodal parametrization
# ---------------------------------------------------------------------------

def nodal_curve(d: FieldElement) -> WeierCurve:
    """y^2 = (x - d)^2 (x + 2d), i.e. A = -3d^2, B = 2d^3."""
    return WeierCurve(-3 * d ** 2, 2 * d ** 3)


def nodal_param(d: FieldElement, s: FieldElement) -> CurvePoint:
    """(s : 1) -> (s^2 - 2d, s^3 - 3ds) on y^2 = (x-d)^2(x+2d)."""
    if not s:
        raise ZeroY("s = 0 gives the 2-torsion point with y = 0")
    if s ** 2 == 3 * d:
        raise HitsSingularPoint("s^2 = 3d lands on the node")
    return CurvePoint(s ** 2 - 2 * d, s ** 3 - 3 * d * s)
