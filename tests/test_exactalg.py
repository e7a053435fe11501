import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dp1cert.exactalg import (
    QQ, BinaryForm, BiPoly, DivisionByZero, ExactAlgError, FunctionField,
    InseparableCase, PrimeField, QuotientExt, SingularMatrix, UniPoly,
    UnsupportedField, ZeroDivisor, parse_rational, pgl2_act, poly_gcd,
    rational_roots, resultant_q, sqrt, squarefree_decomposition,
    squarefree_part,
)
from dp1cert.weier import CurvePoint

GF11 = PrimeField(11)
GF5 = PrimeField(5)


# --------------------------------------------------------------------------
# field arithmetic
# --------------------------------------------------------------------------

def test_rational_arith():
    assert QQ("2/3") + QQ("1/6") == QQ("5/6")
    assert QQ(2) / QQ(3) == QQ(Fraction(2, 3))
    with pytest.raises(DivisionByZero):
        QQ(1) / QQ(0)


def test_prime_field_arith():
    assert GF11(4) * GF11(4) == GF11(5)
    assert GF11(3) / GF11(7) == GF11(3 * pow(7, -1, 11))
    assert GF11(Fraction(1, 2)) == GF11(6)
    with pytest.raises(DivisionByZero):
        GF11(1) / GF11(0)


def test_prime_field_rejects_bad_p():
    from dp1cert.exactalg import ExactAlgError
    for bad in (2, 3, 4, 15, 318665857834031151167461,
                3317044064679887385961981):
        with pytest.raises(ExactAlgError):
            PrimeField(bad)


# composites that fool weaker tests: Carmichael numbers; strong
# pseudoprimes to base 2, the five from 3215031751 on strong to every prime
# base up to 7, 11, 13, 17 and 23 in turn, the last two to every base up to
# 37; strong Lucas pseudoprimes (Selfridge's parameters); a semiprime
HARD_COMPOSITES = [
    561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 62745, 825265,
    321197185, 5394826801, 232250619601, 9746347772161,
    2047, 3277, 4033, 4681, 8321, 5459, 5777, 10877, 16109, 18971,
    3215031751, 2152302898747, 3474749660383, 341550071728321,
    3825123056546413051, 318665857834031151167461,
    3317044064679887385961981, (2 ** 61 - 1) * (2 ** 89 - 1),
]


def test_primality_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from dp1cert.exactalg import _is_probable_prime
    assert [n for n in range(10 ** 5)
            if _is_probable_prime(n) != sympy.isprime(n)] == []
    rng = random.Random(14)
    odd = [rng.getrandbits(rng.randint(64, 512)) | 1 for _ in range(200)]
    primes = [int(sympy.nextprime(n)) for n in odd[:24]]
    cases = (HARD_COMPOSITES + odd + primes
             + [x * y for x, y in zip(primes, primes[1:])])
    assert [n for n in cases
            if _is_probable_prime(n) != sympy.isprime(n)] == []
    assert not any(_is_probable_prime(n) for n in HARD_COMPOSITES)


def test_quotient_ext_golden_ratio():
    # QQ[a]/(a^2 - a - 1): a*a = a + 1
    m = UniPoly(QQ, [-1, -1, 1], "a")
    K = QuotientExt(m)
    a = K.generator()
    assert a * a == a + K(1)
    # inversion: a^{-1} = a - 1
    assert a.inverse() == a - K(1)


def test_quotient_ext_zero_divisor_split():
    # modulus (a^2 - 1) is squarefree but reducible; inverting (a - 1) splits it
    m = UniPoly(QQ, [-1, 0, 1], "a")
    K = QuotientExt(m)
    a = K.generator()
    with pytest.raises(ZeroDivisor) as exc:
        (a - K(1)).inverse()
    f1, f2 = exc.value.factor1, exc.value.factor2
    assert f1.degree() >= 1 and f2.degree() >= 1
    assert f1 * f2 == m.monic()


def test_function_field_canonical():
    F = FunctionField(QQ, "u")
    u = F.gen()
    e = (u * u - 1) / (u - 1)
    assert e == u + 1
    # monic denominator
    e2 = F(1) / (2 * u)
    assert F.denominator(e2).lead() == QQ(1)
    with pytest.raises(DivisionByZero):
        F(1) / F(0)


@st.composite
def field_and_elements(draw, n=3):
    kind = draw(st.sampled_from(["QQ", "GF5", "GF11", "ext"]))
    if kind == "QQ":
        K = QQ
        els = [K(Fraction(draw(st.integers(-30, 30)),
                          draw(st.integers(1, 12)))) for _ in range(n)]
    elif kind in ("GF5", "GF11"):
        K = GF5 if kind == "GF5" else GF11
        els = [K(draw(st.integers(0, K.p - 1))) for _ in range(n)]
    else:
        K = QuotientExt(UniPoly(QQ, [-1, -1, 1], "a"))
        els = [K(UniPoly(QQ, [draw(st.integers(-5, 5)),
                              draw(st.integers(-5, 5))], "a"))
               for _ in range(n)]
    return K, els


@settings(max_examples=250)
@given(field_and_elements())
def test_field_axioms(data):
    K, (a, b, c) = data
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == K.zero
    if a:
        assert a * a.inverse() == K.one


def test_sqrt():
    assert sqrt(QQ("9/4")) == QQ("3/2")
    assert sqrt(GF11(5)) == GF11(4)
    assert sqrt(QQ(2)) is None
    assert sqrt(GF11(2)) is None
    assert sqrt(QQ(0)) == QQ(0)
    K = QuotientExt(UniPoly(QQ, [-1, -1, 1], "a"))
    with pytest.raises(UnsupportedField):
        sqrt(K(1))


def test_parse_rational():
    assert parse_rational("-12") == Fraction(-12)
    assert parse_rational("3/4") == Fraction(3, 4)
    with pytest.raises(ValueError):
        parse_rational("1//2")


# --------------------------------------------------------------------------
# the coercion rule: a field returns its own elements unchanged, lifts
# elements of its base field and rejects all others
# --------------------------------------------------------------------------

GF7 = PrimeField(7)


@pytest.mark.parametrize("build", [
    lambda: UniPoly(QQ, [GF7(1), 1]),
    lambda: BinaryForm(QQ, 1, [GF7(1), 1]),
    lambda: BiPoly(QQ, {(0, 0): GF7(1)}),
    lambda: CurvePoint(QQ(1), GF7(2)),
], ids=["UniPoly", "BinaryForm", "BiPoly", "CurvePoint"])
def test_elements_of_another_field_are_rejected(build):
    with pytest.raises(ExactAlgError, match="field mismatch"):
        build()


def test_own_elements_and_units_are_shared():
    x = QQ(Fraction(3, 4))
    assert QQ(x) is x
    assert QQ.zero is QQ.zero and QQ.one is QQ.one
    assert QQ.zero == 0 and GF7.one == 1


def test_equal_fields_hash_their_elements_equal():
    a, b = PrimeField(7), PrimeField(7)
    assert a is not b
    x = a(3)
    assert b(x) is x
    assert hash(a(3)) == hash(b(3)) == hash(b(10))
    assert len({a(3), b(3), b(10)}) == 1


def test_extensions_lift_base_elements_but_arithmetic_does_not():
    K = QuotientExt(UniPoly(QQ, [-2, 0, 1], "a"))
    r = K.generator()
    three = K(QQ(3))
    assert three.field == K and three == K(3)
    assert r * r == K(QQ(2))
    F = FunctionField(QQ, "u")
    assert F(QQ(3)) == F.poly([3])
    with pytest.raises(ExactAlgError, match="field mismatch"):
        K(GF7(3))
    with pytest.raises(ExactAlgError, match="field mismatch"):
        r + QQ(1)
    with pytest.raises(ExactAlgError, match="field mismatch"):
        QQ(1) * GF7(1)
    # evaluation at an extension point lifts the coefficients
    assert UniPoly(QQ, [-2, 0, 1])(r) == K.zero
    assert BiPoly(QQ, {(2, 0): 1, (0, 0): -2})(r, QQ(5)) == K.zero


def test_scalars_defer_to_polynomial_operators():
    t = UniPoly(QQ, [0, 1])
    assert QQ(2) + t == UniPoly(QQ, [2, 1])
    assert QQ(2) - t == UniPoly(QQ, [2, -1])
    assert QQ(2) * t == t * 2 == UniPoly(QQ, [0, 2])
    P = BiPoly.var_p(QQ)
    assert QQ(2) * P == BiPoly(QQ, {(1, 0): 2})
    assert QQ(2) * BinaryForm(QQ, 1, [1, 1]) == BinaryForm(QQ, 1, [2, 2])


# --------------------------------------------------------------------------
# polynomials
# --------------------------------------------------------------------------

def P(coeffs, field=QQ, var="t"):
    return UniPoly(field, coeffs, var)


def test_poly_divmod():
    a = P([1, 0, 1]) * P([-2, 1]) + P([7])
    q, r = divmod(a, P([1, 0, 1]))
    assert q == P([-2, 1]) and r == P([7])


def test_gcd_examples():
    assert poly_gcd(P([-1, 0, 1]), P([-1, 1])) == P([-1, 1])
    assert poly_gcd(P([0, 0, 0, 1]), P([0, 0, 1])) == P([0, 0, 1])
    assert poly_gcd(P([], QQ), P([2, 4])) == P([Fraction(1, 2), 1])


def test_gcd_of_separable_discriminant():
    # polynomial with 12 simple roots: gcd with derivative is constant
    d = P([1])
    for r in range(12):
        d = d * P([-r, 1])
    assert poly_gcd(d, d.derivative()).degree() == 0


@settings(max_examples=100)
@given(st.lists(st.integers(-5, 5), min_size=1, max_size=5),
       st.lists(st.integers(-5, 5), min_size=1, max_size=5),
       st.lists(st.integers(-5, 5), min_size=1, max_size=4))
def test_gcd_divides_both(ca, cb, cc):
    a, b, c = P(ca), P(cb), P(cc)
    a, b = a * c, b * c  # force a common factor
    if a.is_zero() or b.is_zero():
        return
    g = poly_gcd(a, b)
    assert (a % g).is_zero() and (b % g).is_zero()
    if c.degree() > 0:
        assert (g % c.monic()).is_zero() or g.degree() >= c.degree()


def test_squarefree_decomposition_char0():
    a = P([-1, 1]) ** 2 * P([2, 1])
    dec = squarefree_decomposition(a)
    assert dec == [(P([2, 1]), 1), (P([-1, 1]), 2)]
    sf = P([1, 1, 1])  # irreducible over QQ
    assert squarefree_decomposition(sf) == [(sf, 1)]


@settings(max_examples=60)
@given(st.lists(st.integers(-3, 3), min_size=2, max_size=4),
       st.lists(st.integers(-3, 3), min_size=2, max_size=3),
       st.integers(1, 3))
def test_squarefree_reassembles(ca, cb, mult):
    a = P(ca) * P(cb) ** mult
    if a.is_zero() or a.degree() < 1:
        return
    dec = squarefree_decomposition(a)
    prod = P([1])
    for f, i in dec:
        prod = prod * f ** i
    assert prod == a.monic()
    # pairwise coprime
    for i in range(len(dec)):
        for j in range(i + 1, len(dec)):
            assert poly_gcd(dec[i][0], dec[j][0]).degree() == 0


def test_squarefree_char_p_inseparable():
    # (t^5 - t) has zero derivative issues only for p-th powers; t^5 in GF(5)
    a = UniPoly(GF5, [0, 0, 0, 0, 0, 1], "t")  # t^5 = (t)^5
    with pytest.raises(InseparableCase):
        squarefree_decomposition(a)


def test_squarefree_char_p_ok():
    a = UniPoly(GF5, [1, 1], "t") ** 2 * UniPoly(GF5, [2, 1], "t")
    dec = squarefree_decomposition(a)
    assert (UniPoly(GF5, [2, 1], "t"), 1) in dec
    assert (UniPoly(GF5, [1, 1], "t"), 2) in dec


def test_rational_roots():
    assert set(r.rep for r in rational_roots(P([-1, -1, 2]))) == \
        {Fraction(1), Fraction(-1, 2)}
    assert rational_roots(P([1, 0, 1])) == []
    r5 = rational_roots(UniPoly(GF5, [1, 0, 1], "t"))
    assert set(x.rep for x in r5) == {2, 3}
    # root at zero
    assert QQ(0) in rational_roots(P([0, 0, 1]))


def test_rational_roots_large_coeffs():
    big = 10**9 + 7
    a = P([-big, 1]) * P([1, big])
    roots = rational_roots(a)
    assert QQ(big) in roots and QQ(Fraction(-1, big)) in roots


# --------------------------------------------------------------------------
# binary forms
# --------------------------------------------------------------------------

def test_binary_form_eval_and_charts():
    g = BinaryForm(QQ, 6, [16, 0, 0, 0, 0, 0, 243])  # 16w^6 + 243z^6
    assert g(0, 1) == QQ(16)
    assert g(1, 0) == QQ(243)
    assert g.chart_w().coeff(6) == QQ(243)
    assert g.chart_z().coeff(6) == QQ(16)


def test_pgl2_identity_and_swap():
    f = BinaryForm(QQ, 4, [1, 2, 3, 4, 5])
    ident = [[1, 0], [0, 1]]
    assert pgl2_act(ident, f) == f
    swap = [[0, 1], [1, 0]]
    assert pgl2_act(swap, f).coeffs == tuple(reversed(f.coeffs))
    with pytest.raises(SingularMatrix):
        pgl2_act([[1, 1], [2, 2]], f)


def test_pgl2_moves_roots():
    # form vanishing at (z0:w0)=(3:1); M with column giving new-(0:1) preimage
    f = BinaryForm(QQ, 1, [1, Fraction(-1, 3)])  # w - z/3 up to scale: z*? ...
    f = BinaryForm(QQ, 1, [-3, 1])  # -3w + z  vanishes at (3:1)
    M = [[1, 3], [0, 1]]  # new z -> z + 3w: (0:1) maps to old (3:1)
    g = pgl2_act(M, f)
    assert g(0, 1) == QQ(0)


@settings(max_examples=60)
@given(st.lists(st.integers(-4, 4), min_size=5, max_size=5),
       st.tuples(st.integers(-3, 3), st.integers(-3, 3),
                 st.integers(-3, 3), st.integers(-3, 3)),
       st.tuples(st.integers(-3, 3), st.integers(-3, 3),
                 st.integers(-3, 3), st.integers(-3, 3)))
def test_pgl2_right_action(coeffs, m1, m2):
    M1 = [[m1[0], m1[1]], [m1[2], m1[3]]]
    M2 = [[m2[0], m2[1]], [m2[2], m2[3]]]
    if m1[0] * m1[3] - m1[1] * m1[2] == 0 or m2[0] * m2[3] - m2[1] * m2[2] == 0:
        return
    f = BinaryForm(QQ, 4, coeffs)
    lhs = pgl2_act(M1, pgl2_act(M2, f))
    prod = [[QQ(M2[i][0]) * M1[0][j] + QQ(M2[i][1]) * M1[1][j]
             for j in range(2)] for i in range(2)]
    assert lhs == pgl2_act(prod, f)


# --------------------------------------------------------------------------
# bivariate polynomials and resultants
# --------------------------------------------------------------------------

def bp(terms, field=QQ):
    return BiPoly(field, terms)


def test_resultant_examples():
    q_minus_p = bp({(0, 1): 1, (1, 0): -1})
    q_plus_p = bp({(0, 1): 1, (1, 0): 1})
    r = resultant_q(q_minus_p, q_plus_p)
    assert r == UniPoly(QQ, [0, 2], "p")
    q2 = bp({(0, 2): 1})
    assert resultant_q(q2, q_minus_p) == UniPoly(QQ, [0, 0, 1], "p")
    a = bp({(0, 2): 1, (1, 1): 3, (2, 0): -1})
    b = q_minus_p * a
    assert resultant_q(a, b).is_zero()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_resultant_vanishes_iff_common_factor(seed):
    rng = random.Random(seed)

    def rand_bp(dq):
        return BiPoly(QQ, {(i, j): rng.randint(-4, 4)
                           for i in range(3) for j in range(dq + 1)})
    a, b = rand_bp(2), rand_bp(2)
    if a.deg_q() < 0 or b.deg_q() < 0:
        return
    res = resultant_q(a, b)
    if not res.is_zero():
        return
    # zero resultant: verify a common specialization root numerically-exactly
    # by checking gcd after specializing p at several rationals
    hits = 0
    for pv in range(-5, 6):
        ap = UniPoly(QQ, [c(QQ(pv)) for c in a.coeffs_in_q()], "q")
        bq = UniPoly(QQ, [c(QQ(pv)) for c in b.coeffs_in_q()], "q")
        if ap.is_zero() or bq.is_zero() or poly_gcd(ap, bq).degree() > 0:
            hits += 1
    assert hits >= 6  # common factor forces common roots at most p-values


def test_bipoly_arith_and_partials():
    p, q = BiPoly.var_p(QQ), BiPoly.var_q(QQ)
    g = p * p * q + 3 * q - p
    assert g(2, 1) == QQ(4 + 3 - 2)
    assert g.d_p() == 2 * p * q - BiPoly.const(QQ(1))
    assert g.d_q() == p * p + BiPoly.const(QQ(3))
    assert g.deg_q() == 1 and g.deg_p() == 2
    cs = g.coeffs_in_q()
    assert cs[1] == UniPoly(QQ, [3, 0, 1], "p")
    assert BiPoly.from_coeffs_in_q(cs) == g


def test_squarefree_part():
    a = P([-1, 1]) ** 3 * P([1, 1])
    assert squarefree_part(a) == (P([-1, 1]) * P([1, 1])).monic()
