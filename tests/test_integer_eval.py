"""The integer paths over QQ: field element powers, `UniPoly` and
`BinaryForm` evaluation, `Dp1Surface.contains` and the lazy classification
of `WeierCurve`, each checked against an independent `Fraction` oracle
written here on seeded inputs; the GF(p) paths are checked against plain
integer arithmetic mod p."""

import math
import random
from fractions import Fraction

import pytest
import sympy

from dp1cert.certify import search_surface_points
from dp1cert.dp1 import Dp1Surface, WeightedPoint, is_smooth
from dp1cert.exactalg import (
    QQ, BinaryForm, DivisionByZero, ExactAlgError, PrimeField, QuotientExt,
    UniPoly,
)
from dp1cert.weier import CurvePoint, HitsSingularPoint, WeierCurve, add, mul


def form_value(coeffs, z, w):
    """sum_i e_i z^i w^(d-i) in Fractions."""
    d = len(coeffs) - 1
    return sum(Fraction(e) * Fraction(z) ** i * Fraction(w) ** (d - i)
               for i, e in enumerate(coeffs))


def on_surface(f, g, x, y, z, w):
    """y^2 = x^3 + f(z, w) x + g(z, w) in Fractions."""
    x, y = Fraction(x), Fraction(y)
    return y * y == x ** 3 + form_value(f, z, w) * x + form_value(g, z, w)


def random_fraction(rng, bits):
    num = rng.randint(-2 ** bits, 2 ** bits)
    return Fraction(num, rng.randint(1, 2 ** bits))


def random_coeffs(rng, d):
    """Fractional coefficients, some of them zero."""
    return [Fraction(0) if rng.random() < 0.2
            else Fraction(rng.randint(-50, 50), rng.randint(1, 12))
            for _ in range(d + 1)]


def repeated_power(b, n, one):
    """b ** n by repeated plain multiplication, of 1/b when n < 0."""
    if n < 0:
        b, n = one / b, -n
    out = one
    for _ in range(n):
        out = out * b
    return out


# ---------------------------------------------------------------------------
# powers
# ---------------------------------------------------------------------------

def test_power_over_qq_matches_repeated_multiplication():
    rng = random.Random(9100)
    bases = [random_fraction(rng, bits) for bits in (3, 40, 300)
             for _ in range(4)] + [Fraction(1), Fraction(-1), Fraction(1, 2)]
    for b in bases:
        for n in range(-3, 13):
            if b == 0 and n < 0:
                continue
            r = (QQ(b) ** n).rep
            expect = repeated_power(b, n, Fraction(1))
            assert r == expect
            # the representative is reduced with a positive denominator
            assert r.denominator > 0
            assert math.gcd(r.numerator, r.denominator) == 1


@pytest.mark.parametrize("p", [5, 101, 10007])
def test_power_over_prime_field_matches_repeated_multiplication(p):
    rng = random.Random(p)
    K = PrimeField(p)
    for b in [rng.randrange(1, p) for _ in range(6)] + [1, p - 1]:
        inv = pow(b, -1, p)
        for n in range(-3, 13):
            expect = 1
            for _ in range(abs(n)):
                expect = expect * (b if n >= 0 else inv) % p
            assert (K(b) ** n).rep == expect


def test_power_of_zero():
    for K in (QQ, PrimeField(101)):
        assert K.zero ** 0 == K.one
        assert K.zero ** 5 == K.zero
        for n in (-1, -3):
            with pytest.raises(DivisionByZero):
                K.zero ** n


def test_power_in_quotient_extension_is_unchanged():
    # QQ[a]/(a^3 - 2a + 5) keeps the generic square-and-multiply
    rng = random.Random(9101)
    K = QuotientExt(UniPoly(QQ, [5, -2, 0, 1], "a"))
    for _ in range(4):
        el = K(UniPoly(QQ, random_coeffs(rng, 2), "a"))
        if not el:
            continue
        for n in range(-3, 13):
            assert el ** n == repeated_power(el, n, K.one)
    assert K.zero ** 0 == K.one


# ---------------------------------------------------------------------------
# univariate polynomial values
# ---------------------------------------------------------------------------

def horner(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def test_unipoly_over_qq_matches_fraction_and_sympy_oracles():
    rng = random.Random(9102)
    t = sympy.Symbol("t")
    for d in range(9):
        for _ in range(6):
            coeffs = random_coeffs(rng, d)
            f = UniPoly(QQ, coeffs)
            sym = sympy.Poly(list(reversed([sympy.Rational(c.numerator,
                                                           c.denominator)
                                            for c in coeffs])), t)
            for x in (Fraction(0), Fraction(rng.randint(-9, 9)),
                      random_fraction(rng, 30), random_fraction(rng, 2000)):
                value = f(QQ(x))
                assert value.field == QQ
                assert value.rep == horner(coeffs, x)
                s = sym.eval(sympy.Rational(x.numerator, x.denominator))
                assert value.rep == Fraction(int(s.p), int(s.q))
                # plain scalars are coerced into QQ
                if x.denominator == 1:
                    assert f(int(x)) == value
                assert f(x) == value


def test_unipoly_over_qq_zero_polynomial():
    zero = UniPoly(QQ, [])
    assert zero(QQ(Fraction(3, 7))) == QQ.zero
    assert zero(0) == QQ.zero
    assert UniPoly(QQ, [Fraction(-5, 3)])(QQ(10 ** 40)) == QQ(Fraction(-5, 3))


def test_unipoly_over_qq_at_a_point_of_an_extension():
    # a point of QQ[a]/(a^2 - 2) keeps the generic loop: the value is the
    # remainder of f modulo the minimal polynomial
    rng = random.Random(9103)
    m = UniPoly(QQ, [-2, 0, 1], "t")
    K = QuotientExt(m)
    a = K.generator()
    for d in range(9):
        coeffs = random_coeffs(rng, d)
        f = UniPoly(QQ, coeffs, "t")
        assert f(a) == K(f % m)
        b = a + Fraction(1, 3)
        assert f(b) == K(f.compose(UniPoly(QQ, [Fraction(1, 3), 1], "t"))
                         % m)


def test_unipoly_over_prime_field_rejects_a_rational_point():
    f = UniPoly(PrimeField(101), [1, 2, 3])
    with pytest.raises(ExactAlgError):
        f(QQ(Fraction(1, 2)))
    assert f(PrimeField(101)(5)) == PrimeField(101)(86)


# ---------------------------------------------------------------------------
# binary forms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", [4, 6])
def test_binary_form_over_qq_matches_fraction_oracle(d):
    rng = random.Random(6000 + d)
    for _ in range(30):
        coeffs = random_coeffs(rng, d)
        F = BinaryForm(QQ, d, coeffs)
        points = [(Fraction(0), random_fraction(rng, 8)),
                  (random_fraction(rng, 8), Fraction(0)),
                  (random_fraction(rng, 20), random_fraction(rng, 20)),
                  (random_fraction(rng, 5000), random_fraction(rng, 5000)),
                  (random_fraction(rng, 5000), Fraction(1))]
        for z, w in points:
            expect = form_value(coeffs, z, w)
            assert F(QQ(z), QQ(w)) == QQ(expect)
            num, den = F.value_pair(z, w)
            assert den > 0 and Fraction(num, den) == expect


def test_binary_form_over_qq_zero_form_and_point():
    F = BinaryForm(QQ, 4, [0] * 5)
    assert F(QQ(3), QQ(Fraction(1, 7))) == QQ.zero
    G = BinaryForm(QQ, 6, [Fraction(1, 3)] + [0] * 6)
    assert G(QQ.zero, QQ(2)) == QQ(Fraction(64, 3))
    assert G(QQ(2), QQ.zero) == QQ.zero


@pytest.mark.parametrize("p", [101, 10007])
def test_binary_form_over_prime_field_matches_integer_oracle(p):
    rng = random.Random(p)
    K = PrimeField(p)
    for d in (4, 6):
        for _ in range(30):
            coeffs = [rng.randrange(p) for _ in range(d + 1)]
            z, w = rng.randrange(p), rng.randrange(p)
            expect = sum(e * z ** i * w ** (d - i)
                         for i, e in enumerate(coeffs)) % p
            assert BinaryForm(K, d, coeffs)(K(z), K(w)) == K(expect)


# ---------------------------------------------------------------------------
# surface membership
# ---------------------------------------------------------------------------

def searched_points(seed, count):
    """Smooth QQ surfaces with fractional coefficients and the points the
    bounded search finds on them, with large multiples of each on its
    fiber."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        f, g = random_coeffs(rng, 4), random_coeffs(rng, 6)
        try:
            S = Dp1Surface.from_coeff_lists(QQ, f, g)
        except ExactAlgError:
            continue
        if not is_smooth(S):
            continue
        for Q in search_surface_points(S, height=6, limit=2):
            out.append((S, f, g, Q))
            E = S.fiber(Q.z, Q.w)
            try:
                R = mul(E, 7, CurvePoint(Q.x, Q.y))
            except HitsSingularPoint:
                continue
            if not R.is_identity:
                out.append((S, f, g, WeightedPoint(R.x, R.y, Q.z, Q.w)))
    return out


def test_contains_over_qq_matches_fraction_oracle():
    cases = searched_points(61, 24)
    assert max(P.x.bit_size() for _, _, _, P in cases) > 500
    for S, f, g, P in cases:
        parts = (P.x.rep, P.y.rep, P.z.rep, P.w.rep)
        assert on_surface(f, g, *parts)
        assert S.contains(P)
        assert S.contains(WeightedPoint.base_point(QQ))
        # y shifted by 1/denominator is off the surface
        x, y, z, w = parts
        shifted = WeightedPoint(P.x, QQ(y + Fraction(1, y.denominator)),
                                P.z, P.w)
        assert not on_surface(f, g, x, shifted.y.rep, z, w)
        assert not S.contains(shifted)


def test_contains_over_qq_on_random_points():
    # points off the surface, and points with z or w zero
    rng = random.Random(62)
    f, g = [3, Fraction(-1, 2), 0, 5, 1], [Fraction(7, 3), 0, 1, -2, 0, 4, 9]
    S = Dp1Surface.from_coeff_lists(QQ, f, g)
    for _ in range(50):
        x, y = random_fraction(rng, 40), random_fraction(rng, 60)
        z, w = rng.choice([(0, 1), (1, 0), (random_fraction(rng, 10), 1)])
        P = WeightedPoint(QQ(x), QQ(y), QQ(z), QQ(w))
        assert S.contains(P) == on_surface(f, g, P.x.rep, P.y.rep, P.z.rep,
                                           P.w.rep)


def test_contains_over_prime_field_matches_integer_oracle():
    p = 10007
    rng = random.Random(63)
    K = PrimeField(p)
    hits = 0
    for _ in range(40):
        f = [rng.randrange(p) for _ in range(5)]
        g = [rng.randrange(p) for _ in range(7)]
        try:
            S = Dp1Surface.from_coeff_lists(K, f, g)
        except ExactAlgError:
            continue
        x, z, w = rng.randrange(p), rng.randrange(p), 1
        fv = sum(e * z ** i for i, e in enumerate(f))
        gv = sum(e * z ** i for i, e in enumerate(g))
        rhs = (x ** 3 + fv * x + gv) % p
        # y with y^2 = rhs when rhs is a square (p = 3 mod 4), else random
        y = pow(rhs, (p + 1) // 4, p)
        square = y * y % p == rhs
        if not square:
            y = rng.randrange(p)
        hits += square
        P = WeightedPoint(K(x), K(y), K(z), K(w))
        assert S.contains(P) == ((y * y - rhs) % p == 0)
    assert hits >= 5


# ---------------------------------------------------------------------------
# lazy classification of Weierstrass curves
# ---------------------------------------------------------------------------

def classify(A, B):
    """(kind, x_sing) from the discriminant in Fractions."""
    if 4 * A ** 3 + 27 * B ** 2:
        return "smooth", None
    if A == 0 and B == 0:
        return "cuspidal", Fraction(0)
    return "nodal", -3 * B / (2 * A)


def random_curves(rng):
    d = random_fraction(rng, 12) or Fraction(1)
    yield random_fraction(rng, 12), random_fraction(rng, 12)   # smooth
    yield -3 * d ** 2, 2 * d ** 3                               # nodal
    yield Fraction(0), Fraction(0)                              # cuspidal


def test_weier_kind_and_singular_sums_match_fraction_oracle():
    rng = random.Random(64)
    seen = set()
    for _ in range(20):
        for A, B in random_curves(rng):
            kind, xs = classify(A, B)
            seen.add(kind)
            E = WeierCurve(QQ(A), QQ(B))
            assert (E.kind, E.x_sing) == (kind, None if xs is None else QQ(xs))
            # P + R lands on (t, 0): the singular point when t = x_sing
            t = xs if xs is not None else random_fraction(rng, 12)
            x1, y1 = random_fraction(rng, 12), random_fraction(rng, 12) or 1
            if x1 == t:
                continue
            lam = y1 / (x1 - t)
            x2 = lam ** 2 - x1 - t
            if x2 == x1:
                continue
            P = CurvePoint(QQ(x1), QQ(y1))
            R = CurvePoint(QQ(x2), QQ(y1 + lam * (x2 - x1)))
            E = WeierCurve(QQ(A), QQ(B))
            if kind == "smooth":
                assert add(E, P, R) == CurvePoint(QQ(t), QQ(0))
            else:
                with pytest.raises(HitsSingularPoint):
                    add(E, P, R)
    assert seen == {"smooth", "nodal", "cuspidal"}


def test_group_law_on_smooth_curve_leaves_it_unclassified():
    # y^2 = x^3 - 2: multiples of (3, 5) never have y = 0, so the sums never
    # ask for the discriminant
    E = WeierCurve(QQ(0), QQ(-2))
    P = CurvePoint(QQ(3), QQ(5))
    acc = P
    for _ in range(6):
        acc = add(E, acc, P)
        assert acc.y ** 2 == acc.x ** 3 - 2
    assert E._classification is None
    assert E.kind == "smooth" and E.x_sing is None
