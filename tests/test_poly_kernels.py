"""Polynomial arithmetic on plain numbers: UniPoly +, -, *, scalar
multiples, divmod, derivative and values, BinaryForm +, -, *, powers,
values, pgl2_act and the surface discriminant 4f^3 + 27g^2, and BiPoly +,
-, *, derivatives and values over QQ and GF(p) (forms also over a quotient
extension and a function field, values also at points of a quadratic
extension) agree with two oracles that share none of
that code, a plain FieldElement loop kept here and sympy's Poly, and every
result is canonical. The genus1
square search agrees with the rational-by-rational loop it replaced, point
for point and in order."""

import math
import random
from fractions import Fraction

import pytest

from dp1cert.dp1 import Dp1Surface, InvalidSurface
from dp1cert.exactalg import (
    QQ, BinaryForm, BiPoly, FieldElement, FunctionField, PrimeField,
    QuotientExt, SingularMatrix, UniPoly, pgl2_act, sqrt, square_split,
)
from dp1cert.genus1 import (
    QuarticModel, _rational_quartic_certificate, search_points,
)

PRIMES = [5, 101, 10007, 2 ** 61 - 1]
FIELDS = [None] + PRIMES          # None is QQ


def field_of(p):
    return QQ if p is None else PrimeField(p)


# ---------------------------------------------------------------------------
# oracle 1: the element loop, on tuples of FieldElements
# ---------------------------------------------------------------------------

def trim(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return cs


def loop_add(a, b, K):
    n = max(len(a), len(b))
    pad = lambda c: list(c) + [K.zero] * (n - len(c))   # noqa: E731
    return trim(x + y for x, y in zip(pad(a), pad(b)))


def loop_neg(a):
    return [-x for x in a]


def loop_mul(a, b, K):
    if not a or not b:
        return []
    out = [K.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return trim(out)


def loop_divmod(a, b, K):
    rem, db = list(a), len(b) - 1
    if len(rem) <= db:
        return [], trim(rem)
    inv = b[-1].inverse()
    quo = [K.zero] * (len(rem) - db)
    for k in range(len(quo) - 1, -1, -1):
        c = quo[k] = rem[k + db] * inv
        for j, y in enumerate(b):
            rem[k + j] = rem[k + j] - c * y
    return trim(quo), trim(rem[:db])


def loop_derivative(a):
    return trim(x * i for i, x in enumerate(a) if i)


# ---------------------------------------------------------------------------
# oracle 2: sympy Poly
# ---------------------------------------------------------------------------

def to_sympy(a, p):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    if p is None:
        cs = [sympy.Rational(c.rep.numerator, c.rep.denominator)
              for c in reversed(a.coeffs)]
        return sympy.Poly(cs or [0], x, domain="QQ")
    return sympy.Poly([c.rep for c in reversed(a.coeffs)] or [0], x,
                      modulus=p)


def from_sympy(f, p):
    if f.is_zero:
        return []
    if p is None:
        return [Fraction(int(c.p), int(c.q)) for c in reversed(f.all_coeffs())]
    return [int(c) % p for c in reversed(f.all_coeffs())]


# ---------------------------------------------------------------------------
# inputs and the canonical-form check
# ---------------------------------------------------------------------------

def random_scalar(rng, p):
    if p is not None:
        return rng.randrange(p)
    kind = rng.random()
    if kind < 0.3:
        return Fraction(rng.randint(-9, 9))
    if kind < 0.6:
        return Fraction(rng.randint(-99, 99), rng.randint(1, 12))
    bits = rng.randint(1, 300)
    return Fraction(rng.randint(-2 ** bits, 2 ** bits),
                    rng.randint(1, 2 ** rng.randint(1, 300)))


def random_poly(rng, p, degree=None, zeros=0.2):
    """A polynomial with some zero coefficients; degree -1 is zero."""
    K = field_of(p)
    if degree is None:
        degree = rng.randint(-1, 9)
    cs = [0 if rng.random() < zeros else random_scalar(rng, p)
          for _ in range(degree + 1)]
    if cs:
        while not K(cs[-1]):
            cs[-1] = random_scalar(rng, p)
    return UniPoly(K, cs)


def reps(cs):
    return [c.rep for c in cs]


def assert_canonical(poly, K):
    assert isinstance(poly.coeffs, tuple)
    assert not poly.coeffs or poly.coeffs[-1]
    for c in poly.coeffs:
        assert_canonical_element(c, K)


def assert_canonical_element(c, K):
    assert isinstance(c, FieldElement) and c.field == K
    if K is QQ:
        assert type(c.rep) is Fraction
        assert c.rep.denominator > 0
        assert math.gcd(c.rep.numerator, c.rep.denominator) == 1
    else:
        assert type(c.rep) is int and 0 <= c.rep < K.p


# ---------------------------------------------------------------------------
# UniPoly
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", FIELDS)
def test_unipoly_ops_match_element_loop(p):
    rng = random.Random(f"uni-{p}")
    K = field_of(p)
    for _ in range(60):
        A, B = random_poly(rng, p), random_poly(rng, p)
        a, b = A.coeffs, B.coeffs
        k = K(random_scalar(rng, p))
        cases = [(A + B, loop_add(a, b, K)),
                 (A - B, loop_add(a, loop_neg(b), K)),
                 (-A, loop_neg(a)),
                 (A * B, loop_mul(a, b, K)),
                 (A * k, trim(x * k for x in a)),
                 (k * A, trim(x * k for x in a)),
                 (A * 3, trim(x * 3 for x in a)),
                 (A.derivative(), loop_derivative(a))]
        if not B.is_zero():
            Q, R = divmod(A, B)
            q, r = loop_divmod(a, b, K)
            cases += [(Q, q), (R, r)]
            assert R.degree() < B.degree()
            assert Q * B + R == A
        for got, want in cases:
            assert_canonical(got, K)
            assert list(got.coeffs) == want


@pytest.mark.parametrize("p", FIELDS)
def test_unipoly_ops_match_sympy(p):
    rng = random.Random(f"uni-sympy-{p}")
    K = field_of(p)
    for _ in range(40):
        A, B = random_poly(rng, p), random_poly(rng, p)
        fa, fb = to_sympy(A, p), to_sympy(B, p)
        assert reps((A + B).coeffs) == from_sympy(fa + fb, p)
        assert reps((A - B).coeffs) == from_sympy(fa - fb, p)
        assert reps((A * B).coeffs) == from_sympy(fa * fb, p)
        assert reps(A.derivative().coeffs) == from_sympy(fa.diff(), p)
        if not B.is_zero():
            fq, fr = fa.div(fb)
            Q, R = divmod(A, B)
            assert reps(Q.coeffs) == from_sympy(fq, p)
            assert reps(R.coeffs) == from_sympy(fr, p)
        k = random_scalar(rng, p)
        assert reps((A * K(k)).coeffs) == from_sympy(fa * to_sympy(
            UniPoly(K, [k]), p), p)


@pytest.mark.parametrize("p", FIELDS)
def test_divmod_edge_cases(p):
    K = field_of(p)
    rng = random.Random(f"div-{p}")
    zero, one = UniPoly(K, []), UniPoly(K, [1])
    for _ in range(30):
        B = random_poly(rng, p, degree=rng.randint(0, 4))
        Q0 = random_poly(rng, p, degree=rng.randint(-1, 5))
        R0 = random_poly(rng, p, degree=rng.randint(-1, B.degree() - 1))
        for A, q, r in ((Q0 * B + R0, Q0, R0), (Q0 * B, Q0, zero),
                        (B, one, zero), (R0, zero, R0)):
            Q, R = divmod(A, B)
            assert (Q, R) == (q, r)
            assert_canonical(Q, K)
            assert_canonical(R, K)
    # a divisor with a non-unit leading coefficient over QQ, and a
    # dividend of lower degree
    a = UniPoly(K, [1, 2, 3, 4, 5, 6])
    b = UniPoly(K, [7, 0, 9])
    q, r = divmod(a, b)
    assert (list(q.coeffs), list(r.coeffs)) == \
        loop_divmod(a.coeffs, b.coeffs, K)
    assert divmod(b, a) == (UniPoly(K, []), b)


def test_quotient_extension_keeps_the_element_loop():
    K = QuotientExt(UniPoly(PrimeField(101), [3, 0, 1], "a"))
    rng = random.Random(7)
    a = K.generator()

    def rand():
        return UniPoly(K, [K(rng.randrange(101)) + K(rng.randrange(101)) * a
                           for _ in range(rng.randint(1, 5))])
    for _ in range(10):
        A, B = rand(), rand()
        assert list((A * B).coeffs) == loop_mul(A.coeffs, B.coeffs, K)
        assert list((A + B).coeffs) == loop_add(A.coeffs, B.coeffs, K)
        assert list((A - B).coeffs) == \
            loop_add(A.coeffs, loop_neg(B.coeffs), K)
        assert list(A.derivative().coeffs) == loop_derivative(A.coeffs)
        if not B.is_zero():
            Q, R = divmod(A, B)
            assert Q * B + R == A and R.degree() < B.degree()


# ---------------------------------------------------------------------------
# binary forms
# ---------------------------------------------------------------------------

# QQ(sqrt 2) and QQ(u) run the same form code on their elements
EXT = QuotientExt(UniPoly(QQ, [-2, 0, 1], "a"))
FUN = FunctionField(QQ, "u")
FORM_FIELDS = FIELDS + ["ext", "fun"]


def form_field(p):
    return EXT if p == "ext" else FUN if p == "fun" else field_of(p)


def form_scalar(rng, p):
    if p == "ext":
        return EXT(UniPoly(QQ, [random_scalar(rng, None) for _ in range(2)],
                           "a"))
    if p == "fun":
        num = FUN.poly([rng.randint(-9, 9) for _ in range(rng.randint(1, 3))])
        return num / FUN.poly([rng.randint(-3, 3), 1])
    return random_scalar(rng, p)


def random_form(rng, p, d):
    return BinaryForm(form_field(p), d, [
        0 if rng.random() < 0.2 else form_scalar(rng, p)
        for _ in range(d + 1)])


def random_matrix(rng, p):
    K = form_field(p)
    while True:
        M = [[K(form_scalar(rng, p)) for _ in range(2)] for _ in range(2)]
        if M[0][0] * M[1][1] != M[0][1] * M[1][0]:
            return M


def assert_canonical_form(form, K):
    assert isinstance(form.coeffs, tuple) and len(form.coeffs) == form.d + 1
    for c in form.coeffs:
        if K is EXT:
            # a tuple of Fractions: the remainder modulo the modulus, with
            # no trailing zero
            assert c.field == K and type(c.rep) is tuple
            poly = UniPoly(QQ, c.rep, "a")
            assert [x.rep for x in poly.coeffs] == list(c.rep)
            assert poly == poly % EXT.modulus
            for x in c.rep:
                assert_canonical_element(FieldElement(QQ, x), QQ)
        elif K is FUN:
            assert c.field == K and c.rep == FUN._canon(*c.rep)
        else:
            assert_canonical_element(c, K)


def conv(a, b, K):
    """The coefficients of a product of forms, by the element loop."""
    out = [K.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def loop_disc(f, g, K):
    f3 = conv(conv(f.coeffs, f.coeffs, K), f.coeffs, K)
    return [4 * x + 27 * y for x, y in zip(f3, conv(g.coeffs, g.coeffs, K))]


def loop_pgl2_act(M, f, K):
    """pgl2_act by the element loop: the powers of the linear forms
    zl = M00 z + M01 w and wl = M10 z + M11 w, then sum_i c_i zl^i wl^(d-i)."""
    m = [[K(e) for e in row] for row in M]
    zl, wl = [m[0][1], m[0][0]], [m[1][1], m[1][0]]
    zpow, wpow = [[K.one]], [[K.one]]
    for _ in range(f.d):
        zpow.append(conv(zpow[-1], zl, K))
        wpow.append(conv(wpow[-1], wl, K))
    out = [K.zero] * (f.d + 1)
    for i, c in enumerate(f.coeffs):
        out = [x + c * y for x, y in zip(out, conv(zpow[i], wpow[f.d - i], K))]
    return out


def mat_mul(A, B):
    return [[A[i][0] * B[0][j] + A[i][1] * B[1][j] for j in range(2)]
            for i in range(2)]


@pytest.mark.parametrize("p", FORM_FIELDS)
def test_form_powers_and_pgl2_act_match_element_loop(p):
    rng = random.Random(f"form-{p}")
    K = form_field(p)
    for _ in range(3 if p == "fun" else 12):
        d = rng.randint(0, 4)
        f, g = random_form(rng, p, d), random_form(rng, p, d)
        h = random_form(rng, p, rng.randint(0, 3))
        k = K(form_scalar(rng, p))
        n = rng.randint(0, 2 if p == "fun" else 4)
        power = [K.one]
        for _ in range(n):
            power = conv(power, f.coeffs, K)
        cases = [(f + g, [x + y for x, y in zip(f.coeffs, g.coeffs)]),
                 (f - g, [x - y for x, y in zip(f.coeffs, g.coeffs)]),
                 (-f, [-x for x in f.coeffs]),
                 (f * k, [x * k for x in f.coeffs]),
                 (k * f, [x * k for x in f.coeffs]),
                 (f * 3, [x * 3 for x in f.coeffs]),
                 (f * h, conv(f.coeffs, h.coeffs, K)),
                 (f ** n, power)]
        M1, M2 = random_matrix(rng, p), random_matrix(rng, p)
        cases.append((pgl2_act(M1, f), loop_pgl2_act(M1, f, K)))
        for got, want in cases:
            assert_canonical_form(got, K)
            assert list(got.coeffs) == want
        assert (f ** n).d == n * d and (f * h).d == d + h.d
        assert pgl2_act(M1, pgl2_act(M2, h)) == pgl2_act(mat_mul(M2, M1), h)


@pytest.mark.parametrize("p", FORM_FIELDS)
def test_discriminant_matches_element_loop(p):
    rng = random.Random(f"disc-{p}")
    K = form_field(p)
    for _ in range(2 if p == "fun" else 10):
        f, g = random_form(rng, p, 4), random_form(rng, p, 6)
        want = loop_disc(f, g, K)
        if any(want):
            disc = Dp1Surface(f, g).disc_form
            assert_canonical_form(disc, K)
            assert disc.d == 12 and list(disc.coeffs) == want
            assert disc == 4 * f ** 3 + 27 * g ** 2
        M = random_matrix(rng, p)
        for form in (f, g):
            assert list(pgl2_act(M, form).coeffs) == \
                loop_pgl2_act(M, form, K)


def sympy_coeffs(expr, d, p):
    sympy = pytest.importorskip("sympy")
    z, w = sympy.symbols("z w")
    P = (sympy.Poly(expr, z, w, domain="QQ") if p is None
         else sympy.Poly(expr, z, w, modulus=p))
    cs = [P.coeff_monomial(z ** i * w ** (d - i)) for i in range(d + 1)]
    if p is None:
        return [Fraction(int(c.p), int(c.q)) for c in cs]
    return [int(c) % p for c in cs]


@pytest.mark.parametrize("p", FIELDS)
def test_disc_and_pgl2_act_match_sympy(p):
    sympy = pytest.importorskip("sympy")
    z, w = sympy.symbols("z w")
    rng = random.Random(f"disc-sympy-{p}")
    K = field_of(p)

    def num(c):
        r = K(c).rep
        return sympy.Rational(r.numerator, r.denominator) if p is None else r

    def expr(form, zs, ws):
        return sum(num(c) * zs ** i * ws ** (form.d - i)
                   for i, c in enumerate(form.coeffs))
    for _ in range(6):
        f, g = random_form(rng, p, 4), random_form(rng, p, 6)
        want = sympy_coeffs(4 * expr(f, z, w) ** 3 + 27 * expr(g, z, w) ** 2,
                            12, p)
        if any(want):
            assert reps(Dp1Surface(f, g).disc_form.coeffs) == want
        M = random_matrix(rng, p)
        m = [[num(e) for e in row] for row in M]
        zs, ws = m[0][0] * z + m[0][1] * w, m[1][0] * z + m[1][1] * w
        for form in (f, g):
            assert reps(pgl2_act(M, form).coeffs) == \
                sympy_coeffs(expr(form, zs, ws), form.d, p)


@pytest.mark.parametrize("p", FORM_FIELDS)
def test_singular_matrix_and_vanishing_discriminant_raise(p):
    rng = random.Random(f"raise-{p}")
    K = form_field(p)
    for _ in range(3):
        f = random_form(rng, p, 4)
        a, b, k = (K(form_scalar(rng, p)) for _ in range(3))
        with pytest.raises(SingularMatrix):
            pgl2_act([[a, b], [k * a, k * b]], f)
        h = random_form(rng, p, 2)
        while h.is_zero():
            h = random_form(rng, p, 2)
        with pytest.raises(InvalidSurface):
            Dp1Surface(-3 * h ** 2, 2 * h ** 3)


# ---------------------------------------------------------------------------
# BiPoly
# ---------------------------------------------------------------------------

def random_bipoly(rng, p):
    K = field_of(p)
    return BiPoly(K, {(i, j): random_scalar(rng, p)
                      for i in range(rng.randint(0, 3))
                      for j in range(rng.randint(0, 3))
                      if rng.random() < 0.7})


def loop_bi_add(a, b, K):
    out = dict(a.terms)
    for k, v in b.terms.items():
        out[k] = out.get(k, K.zero) + v
    return {k: v for k, v in out.items() if v}


def loop_bi_mul(a, b, K):
    out = {}
    for (i1, j1), x in a.terms.items():
        for (i2, j2), y in b.terms.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, K.zero) + x * y
    return {k: v for k, v in out.items() if v}


@pytest.mark.parametrize("p", FIELDS)
def test_bipoly_ops_match_element_loop(p):
    rng = random.Random(f"bi-{p}")
    K = field_of(p)
    for _ in range(40):
        a, b = random_bipoly(rng, p), random_bipoly(rng, p)
        k = K(random_scalar(rng, p))
        cases = [(a + b, loop_bi_add(a, b, K)),
                 (a - b, loop_bi_add(a, -b, K)),
                 (a * b, loop_bi_mul(a, b, K)),
                 (a * k, {m: v * k for m, v in a.terms.items() if v * k}),
                 (a.d_p(), {(i - 1, j): v * i for (i, j), v in a.terms.items()
                            if i and v * i}),
                 (a.d_q(), {(i, j - 1): v * j for (i, j), v in a.terms.items()
                            if j and v * j})]
        for got, want in cases:
            assert got.terms == want
            for v in got.terms.values():
                assert v and v.field == K
                if K is QQ:
                    assert math.gcd(v.rep.numerator, v.rep.denominator) == 1
                else:
                    assert 0 <= v.rep < K.p


# ---------------------------------------------------------------------------
# the genus1 square search
# ---------------------------------------------------------------------------

def old_search(D, height):
    """The loop the integer search replaced: every u/w in lowest terms,
    w outer and u inner, then sqrt(D(u/w)), with both signs."""
    out = []
    for w in range(1, height + 1):
        for u in range(-height, height + 1):
            if math.gcd(abs(u), w) == 1:
                p = QQ(Fraction(u, w))
                v = sqrt(D(p))
                if v is None:
                    continue
                out.append((p, v))
                if v:
                    out.append((p, -v))
    return out


def planted_quartic(rng, degree):
    """D = Q^2 + e prod (t - r_i) with rational r_i of small height, so
    that D(r_i) is a square; coefficients are fractions."""
    cs = [Fraction(rng.randint(-40, 40), rng.randint(1, 6))
          for _ in range(degree // 2 + 1)]
    Q = UniPoly(QQ, cs, "p")
    e = Fraction(rng.choice([-1, 1]) * rng.randint(1, 30), rng.randint(1, 5))
    cofactor = UniPoly(QQ, [e], "p")
    for _ in range(degree):
        r = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
        cofactor = cofactor * UniPoly(QQ, [-r, 1], "p")
    return Q * Q + cofactor


def affine(points):
    return [(pt.p, pt.v) for pt in points if pt.kind == "affine"]


def test_square_search_matches_old_loop():
    rng = random.Random(1212)
    hits = 0
    for degree in (4, 4, 4, 3, 3, 2, 2, 1, 0):
        for _ in range(6):
            D = planted_quartic(rng, degree)
            if rng.random() < 0.3:                 # no planted square
                D = D + UniPoly(QQ, [Fraction(rng.randint(1, 9), 7)], "p")
            height = rng.randint(1, 9)
            want = old_search(D, height)
            got = affine(search_points(QuarticModel.from_poly(D), height))
            assert got == want
            for p, v in got:
                assert v * v == D(p)
            hits += len(got)
    assert hits > 100
    for D in (UniPoly(QQ, [], "p"), UniPoly(QQ, [Fraction(9, 4)], "p"),
              UniPoly(QQ, [-1], "p")):
        assert affine(search_points(QuarticModel.from_poly(D), 3)) == \
            old_search(D, 3)


def test_conic_certificate_takes_the_first_old_loop_point():
    rng = random.Random(2020)
    found = 0
    for _ in range(30):
        red = planted_quartic(rng, 2)
        r0 = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        sq = UniPoly(QQ, [-r0, 1], "p")
        D = sq * sq * red
        _, red_split = square_split(D)
        if red_split.degree() != 2:
            continue
        height = rng.randint(1, 8)
        cert = _rational_quartic_certificate(QuarticModel.from_poly(D),
                                             height)
        first = old_search(red_split, height)[:1]
        if first:
            found += 1
            assert cert.param[0] == "conic"
            assert cert.param[3:] == first[0]
        else:
            assert cert is None
    assert found > 10


@pytest.mark.parametrize("p", FIELDS)
def test_bipoly_values_match_element_loop(p):
    rng = random.Random(f"bi-call-{p}")
    K = field_of(p)
    for _ in range(40):
        a = random_bipoly(rng, p)
        pv, qv = K(random_scalar(rng, p)), K(random_scalar(rng, p))
        want = K.zero
        for (i, j), c in a.terms.items():
            want = want + c * pv ** i * qv ** j
        got = a(pv, qv)
        assert got == want and got.field == K
        if K is QQ:
            assert math.gcd(got.rep.numerator, got.rep.denominator) == 1
        else:
            assert 0 <= got.rep < K.p
    # points of a quadratic extension lift the coefficients, as the image
    # of sigma is sampled there; and the zero polynomial
    L = ext_of(K)
    for _ in range(20):
        a = random_bipoly(rng, p)
        pv, qv = ext_scalar(rng, p, L), ext_scalar(rng, p, L)
        want = L.zero
        for (i, j), c in a.terms.items():
            want = want + L(c) * pv ** i * qv ** j
        got = a(pv, qv)
        assert got == want and got.field == L
    zero = BiPoly.zero(K)
    assert zero(K(random_scalar(rng, p)), K.one) == K.zero
    assert zero(ext_scalar(rng, p, L), L.one) == L.zero


def ext_of(K):
    """K[a]/(a^2 - 2), squarefree over QQ and every GF(p) with p >= 5."""
    return QuotientExt(UniPoly(K, [-2, 0, 1], "a"))


def ext_scalar(rng, p, L):
    return L(UniPoly(field_of(p), [random_scalar(rng, p) for _ in range(2)],
                     "a"))


def loop_value(A, x, K):
    want = K.zero
    for c in reversed(A.coeffs):
        want = want * x + K(c)
    return want


def loop_form_value(f, z, w, K):
    want = K.zero
    for i, c in enumerate(f.coeffs):
        want = want + K(c) * z ** i * w ** (f.d - i)
    return want


@pytest.mark.parametrize("p", FIELDS)
def test_poly_and_form_values_match_element_loop(p):
    rng = random.Random(f"values-{p}")
    K = field_of(p)
    for _ in range(40):
        A = random_poly(rng, p)
        x, z, w = (K(random_scalar(rng, p)) for _ in range(3))
        assert A(x) == loop_value(A, x, K)
        f = random_form(rng, p, rng.randint(0, 6))
        assert f(z, w) == loop_form_value(f, z, w, K)
        assert f(K.one, K.zero) == f.coeffs[-1]
    # points of a quadratic extension, the zero polynomial and (1 : 0)
    L = ext_of(K)
    for _ in range(20):
        A = random_poly(rng, p)
        x, z, w = (ext_scalar(rng, p, L) for _ in range(3))
        got = A(x)
        assert got == loop_value(A, x, L) and got.field == L
        f = random_form(rng, p, rng.randint(0, 6))
        got = f(z, w)
        assert got == loop_form_value(f, z, w, L) and got.field == L
        assert f(L.one, L.zero) == L(f.coeffs[-1])
    x = K(random_scalar(rng, p))
    assert UniPoly(K, [])(x) == K.zero
    assert UniPoly(K, [])(ext_scalar(rng, p, L)) == L.zero
    assert BinaryForm(K, 3, [0] * 4)(x, K.one) == K.zero
    if K is QQ:
        # forms over QQ(u): verify_nodal_model evaluates one at (4 : 0)
        for _ in range(15):
            f = random_form(rng, "fun", rng.randint(0, 4))
            z, w = form_scalar(rng, "fun"), form_scalar(rng, "fun")
            got = f(z, w)
            assert got == loop_form_value(f, z, w, FUN) and got.field == FUN
            assert f(FUN(4), FUN.zero) == FUN(4) ** f.d * f.coeffs[-1]
