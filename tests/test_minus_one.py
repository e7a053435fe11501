"""The (-1)-curve count on coefficient lists. `resultant_q` agrees with
sympy's resultant and with the Bareiss elimination on UniPoly entries that
it replaced; quotient-extension products, inverses and zero-divisor splits
agree with a plain FieldElement loop; `minus_one_scheme` agrees with the
route it replaced (UniPoly representatives, UniPoly-entry Bareiss), kept
here, on the order-3 families and on a forced split; and
`Dp1Surface.contains` over QQ agrees with Fraction arithmetic."""

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from dp1cert import cq5, instances
from dp1cert.cq5 import MinusOneScheme, build, minus_one_scheme
from dp1cert.dp1 import Dp1Surface, InvalidSurface, WeightedPoint, move_to_zero
from dp1cert.exactalg import (
    QQ, BiPoly, ExactAlgError, Field, PrimeField, QuotientExt, UniPoly,
    ZeroDivisor, _zp_divmod, poly_gcd, rational_roots, resultant_q,
    squarefree_decomposition, squarefree_part,
)

from test_poly_kernels import loop_add, loop_divmod, loop_mul, loop_neg, trim


# ---------------------------------------------------------------------------
# the replaced route, kept as an oracle
# ---------------------------------------------------------------------------

def bareiss_unipoly(a, b, var="p"):
    """Res_q(a, b): the Sylvester determinant by Bareiss elimination with
    UniPoly entries, as resultant_q computed it before."""
    ca, cb = a.coeffs_in_q(var), b.coeffs_in_q(var)
    m, n = len(ca) - 1, len(cb) - 1
    field = a.field
    zero = UniPoly(field, [], var)
    if m == 0 and n == 0:
        return UniPoly(field, [1], var)
    if m == 0:
        return ca[0] ** n
    if n == 0:
        return cb[0] ** m
    size = m + n
    rows = []
    for i in range(n):
        row = [zero] * size
        for j, c in enumerate(reversed(ca)):
            row[i + j] = c
        rows.append(row)
    for i in range(m):
        row = [zero] * size
        for j, c in enumerate(reversed(cb)):
            row[i + j] = c
        rows.append(row)
    sign = 1
    prev = UniPoly(field, [1], var)
    for k in range(size - 1):
        if rows[k][k].is_zero():
            for i in range(k + 1, size):
                if not rows[i][k].is_zero():
                    rows[k], rows[i] = rows[i], rows[k]
                    sign = -sign
                    break
            else:
                return zero
        piv = rows[k][k]
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                rows[i][j] = (rows[i][j] * piv
                              - rows[i][k] * rows[k][j]).exact_div(prev)
            rows[i][k] = zero
        prev = piv
    det = rows[size - 1][size - 1]
    return det if sign == 1 else -det


def unipoly_ext_gcd(a, b):
    """(g, s) with s a = g (mod b): plain extended Euclid on UniPolys."""
    r0, r1 = a, b
    s0, s1 = UniPoly(a.field, [1], a.var), UniPoly(a.field, [], a.var)
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
    return r0, s0


class UniPolyExt(Field):
    """K[a]/(m) with UniPoly representatives, as QuotientExt was."""

    kind = "quotient"

    def __init__(self, modulus):
        self.modulus = modulus.monic()
        self.base = modulus.field
        self.var = modulus.var
        self.char = self.base.char

    def generator(self):
        return self(UniPoly(self.base, [0, 1], self.var))

    def _coerce_rep(self, v):
        if isinstance(v, UniPoly):
            return v % self.modulus
        return UniPoly(self.base, [self.base(v)], self.var)

    def _mul(self, a, b):
        return (a * b) % self.modulus

    def _inv(self, a):
        g, s = unipoly_ext_gcd(a, self.modulus)
        if g.degree() == 0:
            return (s * g.lead().inverse()) % self.modulus
        raise ZeroDivisor(g.monic(), (self.modulus // g).monic())

    def _is_zero(self, a):
        return a.is_zero()

    def __eq__(self, other):
        return isinstance(other, UniPolyExt) and other.modulus == self.modulus

    def __hash__(self):
        return hash(("unipoly-ext", self.modulus))


def old_q_count(Fs_q):
    g = None
    for F in Fs_q:
        if not F.is_zero():
            g = F if g is None else poly_gcd(g, F)
    if g.degree() <= 0:
        return 0
    return sum(f.degree() for f, _ in squarefree_decomposition(g))


def old_q_polys_at(Fs, p0):
    return [UniPoly(p0.field, [cp(p0) for cp in F.coeffs_in_q()], "q")
            for F in Fs]


def old_count_for_modulus(Fs, modulus):
    if modulus.degree() == 0:
        return 0
    if modulus.degree() == 1:
        root = -modulus.coeff(0) / modulus.coeff(1)
        return old_q_count(old_q_polys_at(Fs, root))
    try:
        gen = UniPolyExt(modulus).generator()
        return modulus.degree() * old_q_count(old_q_polys_at(Fs, gen))
    except ZeroDivisor as zd:
        return (old_count_for_modulus(Fs, zd.factor1)
                + old_count_for_modulus(Fs, zd.factor2))


def old_minus_one_scheme(data):
    Fs = (data.F4, data.F5, data.F6)
    res = [bareiss_unipoly(Fs[i], Fs[j]) for i, j in ((0, 1), (0, 2), (1, 2))]
    nonzero = [r for r in res if not r.is_zero()]
    T0 = nonzero[0]
    for r in nonzero[1:]:
        T0 = poly_gcd(T0, r)
    if T0.degree() <= 0:
        return MinusOneScheme(0, 0, ())
    solutions, distinct, with_mult = [], 0, 0
    for factor, mult in squarefree_decomposition(T0):
        remaining = factor
        for root in rational_roots(factor):
            lin = UniPoly(factor.field, [-root, factor.field.one], factor.var)
            if (remaining % lin).is_zero():
                remaining = remaining // lin
                n = old_count_for_modulus(Fs, lin)
                if n:
                    solutions.append((f"p = {root}", 1, n))
                distinct += n
                with_mult += mult * n
        if remaining.degree() > 0:
            n = old_count_for_modulus(Fs, remaining.monic())
            if n:
                solutions.append((f"p root of {remaining.monic()}",
                                  remaining.degree(), n))
            distinct += n
            with_mult += mult * n
    return MinusOneScheme(distinct, with_mult, tuple(solutions))


# ---------------------------------------------------------------------------
# resultant_q
# ---------------------------------------------------------------------------

RES_FIELDS = [None, 101, 10007]          # None is QQ


def field_of(p):
    return QQ if p is None else PrimeField(p)


def random_bipoly(rng, K, dq):
    """Degree dq in q: dense with small or wide coefficients, sparse, or
    constant in p with unit coefficients (zero pivots, so rows swap)."""
    density, values, dp = rng.choice([
        (0.7, [Fraction(c, rng.randint(1, 6)) for c in range(-9, 10)], 2),
        (0.7, range(-10 ** 12, 10 ** 12), 3),
        (0.25, range(-9, 10), 2),
        (0.5, (-1, 1), 0)])
    while True:
        f = BiPoly(K, {(i, j): K(rng.choice(values))
                       for i in range(dp + 1) for j in range(dq + 1)
                       if rng.random() < density})
        if f.deg_q() == dq:
            return f


def sympy_resultant(a, b, p):
    """Res_q(a, b) from sympy over ZZ or QQ, reduced mod p over GF(p): both
    leading coefficients in q stay nonzero, so the Sylvester matrix of the
    integer lifts reduces to the one over GF(p). sympy 1.14.0 has the sign
    of Res wrong for q-degrees (1, 3), so it is asked with the larger
    degree first and the sign (-1)^(mn) is applied."""
    sympy = pytest.importorskip("sympy")
    pv, qv = sympy.symbols("p q")

    def expr(f):
        # a residue is an int, whose denominator is 1
        return sum(sympy.Rational(c.rep.numerator, c.rep.denominator)
                   * pv ** i * qv ** j for (i, j), c in f.terms.items())
    m, n = a.deg_q(), b.deg_q()
    if m >= n:
        r, sign = sympy.resultant(expr(a), expr(b), qv), 1
    else:
        r, sign = sympy.resultant(expr(b), expr(a), qv), (-1) ** (m * n)
    coeffs = [sign * Fraction(int(c.p), int(c.q)) for c in
              reversed(sympy.Poly(r, pv, domain="QQ").all_coeffs())]
    if p is not None:
        coeffs = [c.numerator * pow(c.denominator, -1, p) % p
                  for c in coeffs]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


@pytest.mark.parametrize("p", RES_FIELDS)
def test_resultant_q_against_sympy_and_unipoly_bareiss(p):
    rng = random.Random(f"minus-one-res-{p}")
    K = field_of(p)
    kinds = {"zero": 0, "constant": 0}
    for k in range(48):
        a = random_bipoly(rng, K, rng.randint(0, 3))
        b = random_bipoly(rng, K, rng.randint(0, 3))
        if k % 6 == 0:                       # a planted common factor
            c = random_bipoly(rng, K, rng.randint(1, 2))
            a, b = a * c, b * c
        res = resultant_q(a, b)
        assert res == bareiss_unipoly(a, b)
        assert [c.rep for c in res.coeffs] == sympy_resultant(a, b, p)
        kinds["zero"] += res.is_zero()
        kinds["constant"] += min(a.deg_q(), b.deg_q()) == 0
    assert kinds["zero"] >= 8 and kinds["constant"] >= 4


def test_resultant_q_pivot_swaps_and_constant_sides():
    K = PrimeField(10007)
    one = BiPoly.const(K.one)
    q = BiPoly.var_q(K)
    pp = BiPoly.var_p(K)
    # Res(q, q^3 + 1) = 1 (sympy 1.14.0 says -1) and Res(q^3 + 1, q) = -1
    assert resultant_q(q, q ** 3 + one) == UniPoly(K, [1], "p")
    assert resultant_q(q ** 3 + one, q) == UniPoly(K, [-1], "p")
    # constant sides: Res(c, b) = c^deg b, Res(c, d) = 1
    c = pp * 3 + one
    assert resultant_q(c, q ** 2 + pp) == UniPoly(K, [1, 6, 9], "p")
    assert resultant_q(c, pp) == UniPoly(K, [1], "p")
    # the Sylvester matrix of (q^2 - p, q) has a zero second pivot, so two
    # rows are swapped: Res = (q^2 - p)(0) = -p
    a = q ** 2 - pp
    assert resultant_q(a, q) == UniPoly(K, [0, -1], "p") == bareiss_unipoly(a, q)
    a, b = q ** 2 + pp, q ** 3 + pp * q + one
    assert resultant_q(a, b) == bareiss_unipoly(a, b)
    assert resultant_q(b, a) == bareiss_unipoly(b, a)
    with pytest.raises(ExactAlgError):
        resultant_q(BiPoly.zero(K), q)


def test_residue_division_reduces_a_short_unreduced_dividend():
    # a Bareiss numerator can vanish mod p without vanishing as integers
    assert _zp_divmod([101, -202], [5, 0, 1], 101) == ([], [])
    assert _zp_divmod([103, 0, 101], [5, 1], 101) == ([0, 0], [2])


# ---------------------------------------------------------------------------
# quotient extensions
# ---------------------------------------------------------------------------

def loop_ext_gcd(a, m, K):
    """(g, s) with s a = g (mod m) and g monic, on FieldElement lists."""
    r0, r1 = trim(m), trim(a)
    s0, s1 = [], [K.one]
    while r1:
        q, r = loop_divmod(r0, r1, K)
        r0, r1 = r1, r
        s0, s1 = s1, loop_add(s0, loop_neg(loop_mul(q, s1, K)), K)
    inv = r0[-1].inverse()
    return [c * inv for c in r0], [c * inv for c in s0]


def random_poly(rng, K, degree):
    while True:
        cs = [K(Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                if K is QQ else rng.randrange(K.p)) for _ in range(degree + 1)]
        if cs[-1]:
            return cs


def random_modulus(rng, K):
    """Monic and squarefree, often reducible: a product of coprime
    factors of degree 1 to 3."""
    while True:
        factors = [UniPoly(K, random_poly(rng, K, rng.randint(1, 3)), "a")
                   .monic() for _ in range(rng.randint(1, 3))]
        m = UniPoly(K, [1], "a")
        for f in factors:
            m = m * f
        if poly_gcd(m, m.derivative()).degree() == 0:
            return m, factors


@pytest.mark.parametrize("p", [None, 101, 10007])
def test_quotient_ext_against_element_loop(p):
    rng = random.Random(f"minus-one-ext-{p}")
    K = field_of(p)
    splits = 0
    for _ in range(40):
        m, factors = random_modulus(rng, K)
        ext = QuotientExt(m)
        mc = list(m.coeffs)
        for _ in range(4):
            a = random_poly(rng, K, rng.randint(0, 2 * m.degree()))
            b = random_poly(rng, K, rng.randint(0, 2 * m.degree()))
            if rng.random() < 0.4:          # a multiple of a factor
                a = loop_mul(a, list(rng.choice(factors).coeffs), K)
            A, B = ext(UniPoly(K, a, "a")), ext(UniPoly(K, b, "a"))
            assert A.rep == tuple(c.rep for c in loop_divmod(a, mc, K)[1])
            want = loop_divmod(loop_mul(a, b, K), mc, K)[1]
            assert (A * B).rep == tuple(c.rep for c in want)
            if not A:
                continue
            g, s = loop_ext_gcd(loop_divmod(a, mc, K)[1], mc, K)
            if len(g) == 1:
                assert A.inverse().rep == tuple(
                    c.rep for c in loop_divmod(s, mc, K)[1])
                assert A * A.inverse() == ext.one
                continue
            with pytest.raises(ZeroDivisor) as exc:
                A.inverse()
            splits += 1
            f1, f2 = exc.value.factor1, exc.value.factor2
            assert list(f1.coeffs) == g
            cof, rem = loop_divmod(mc, g, K)
            assert not rem and list(f2.coeffs) == [c * cof[-1].inverse()
                                                   for c in cof]
    assert splits >= 10


def test_quotient_ext_down_repr_and_base_lift():
    m = UniPoly(QQ, [-2, 0, 1], "a")
    ext = QuotientExt(m)
    r = ext.generator()
    assert ext.down(r * r) == QQ(2) and ext.down(ext.zero) == QQ(0)
    with pytest.raises(ExactAlgError):
        ext.down(r)
    assert str(r * 3 + Fraction(1, 2)) == str(UniPoly(QQ, [Fraction(1, 2), 3],
                                                      "a"))
    assert (r * r).bit_size() == QQ(2).bit_size()
    with pytest.raises(ExactAlgError):
        QuotientExt(UniPoly(ext, [0, 1], "b"))


# ---------------------------------------------------------------------------
# minus_one_scheme
# ---------------------------------------------------------------------------

def family_data(rng, lo):
    """CQ5Data of an order-3 family surface over GF(p), p a prime drawn
    from [lo, 1.05 lo), with random parameters, as in the benchmark."""
    p = rng.randrange(lo, lo + lo // 20)
    while not all(p % k for k in range(2, int(p ** 0.5) + 1)):
        p += 1
    make = rng.choice([instances.order3_vertex_instance,
                       instances.order3_split_instance])
    while True:
        try:
            S, Q = make(*[rng.randrange(1, p) for _ in range(4)],
                        field=PrimeField(p))
            norm = move_to_zero(S, Q)
            return build(norm.surface, norm.point)
        except ExactAlgError:
            continue


def scheme_or_error(route, data):
    try:
        return route(data)
    except ExactAlgError as exc:
        return type(exc).__name__


def test_minus_one_scheme_matches_replaced_route_on_order3_families():
    rng = random.Random("minus-one-families")
    datas = [family_data(rng, lo) for lo in (1000, 2000) for _ in range(12)]
    for make in (instances.order3_vertex_instance,
                 instances.order3_split_instance,
                 instances.nine_curves_instance):
        norm = move_to_zero(*make())
        datas.append(build(norm.surface, norm.point))
    degrees = set()
    for data in datas:
        got = scheme_or_error(minus_one_scheme, data)
        assert got == scheme_or_error(old_minus_one_scheme, data)
        degrees.update(deg for _, deg, _ in got.solutions)
    # both routes count over rational roots and over extensions
    assert 1 in degrees and max(degrees) >= 4


@pytest.mark.parametrize("p", [None, 10007])
def test_count_over_a_forced_split(p):
    # over k[p]/((p^2 - 2)(p^2 - 3)) the leading coefficient p^2 - 2 of F4
    # is a zero divisor: the count splits the modulus, finds nothing over
    # p^2 = 2 (F4 = -1) and q = 1 twice over p^2 = 3
    K = field_of(p)
    P, Q, one = BiPoly.var_p(K), BiPoly.var_q(K), BiPoly.const(K.one)
    F4 = (P ** 2 - one * 2) * Q - one
    Fs = (F4, F4 * Q, F4 * (Q + P))
    m = UniPoly(K, [-2, 0, 1], "p") * UniPoly(K, [-3, 0, 1], "p")
    ext = QuotientExt(m)
    with pytest.raises(ZeroDivisor):
        (ext.generator() ** 2 - 2).inverse()
    assert cq5._count_for_modulus(Fs, m) == 2
    assert old_count_for_modulus(Fs, m) == 2


@pytest.mark.parametrize("p", [None, 10007])
def test_squarefree_part_of_low_degree(p):
    # the q-gcd of a count is mostly linear: its own squarefree part
    K = field_of(p)
    lin = UniPoly(K, [3, 2], "q")
    assert squarefree_part(lin) == lin.monic()
    assert squarefree_part(lin * lin) == lin.monic()
    assert squarefree_part(lin * UniPoly(K, [1, 1], "q")).degree() == 2


def test_minus_one_scheme_runs_on_a_data_namespace():
    # the count needs only F4, F5 and F6
    K = PrimeField(10007)
    P, Q, one = BiPoly.var_p(K), BiPoly.var_q(K), BiPoly.const(K.one)
    data = SimpleNamespace(F4=Q - P, F5=Q ** 2 - one, F6=Q * P - one)
    assert minus_one_scheme(data) == old_minus_one_scheme(data)
    assert minus_one_scheme(data).distinct_count == 2


# ---------------------------------------------------------------------------
# Dp1Surface.contains over QQ
# ---------------------------------------------------------------------------

def form_value(coeffs, z, w):
    d = len(coeffs) - 1
    return sum(Fraction(c) * z ** i * w ** (d - i) for i, c in enumerate(coeffs))


def on_surface(f, g, x, y, z, w):
    return y * y == x ** 3 + form_value(f, z, w) * x + form_value(g, z, w)


def random_rational(rng, bits):
    return Fraction(rng.randint(-2 ** bits, 2 ** bits),
                    rng.randint(1, 2 ** rng.randint(0, bits)))


def test_contains_over_qq_against_fraction_arithmetic():
    rng = random.Random("minus-one-contains")
    checked = {"on": 0, "off": 0, "x0": 0, "y0": 0}
    for k in range(120):
        bits = rng.choice([3, 20, 200])
        f = [random_rational(rng, bits) for _ in range(5)]
        g = [random_rational(rng, bits) for _ in range(7)]
        z, w = ((Fraction(1), random_rational(rng, bits)) if k % 5
                else (Fraction(0), Fraction(1)))
        x = Fraction(0) if k % 7 == 0 else random_rational(rng, bits)
        y = Fraction(0) if k % 11 == 0 else random_rational(rng, bits)
        # plant (x : y : z : w) through the coefficient of z^6 (z = 1) or
        # of w^6 (z = 0, w = 1), which the form takes times 1
        i = 6 if z else 0
        g[i] = 0
        g[i] = y * y - x ** 3 - form_value(f, z, w) * x - form_value(g, z, w)
        try:
            S = Dp1Surface.from_coeff_lists(QQ, f, g)
        except InvalidSurface:
            continue
        for dy in (0, 1, Fraction(1, 3), Fraction(1, y.denominator * 7)):
            pt = [QQ(c) for c in (x, y + dy, z, w)]
            want = on_surface(f, g, x, y + dy, z, w)
            assert S.contains(WeightedPoint(*pt)) == want
            checked["on" if want else "off"] += 1
        checked["x0"] += x == 0
        checked["y0"] += y == 0
        # a point with a denominator of y that no cleared side can absorb
        big = WeightedPoint(QQ(x), QQ(Fraction(1, 2 ** 300 + 1)), QQ(z), QQ(w))
        assert S.contains(big) == on_surface(f, g, big.x.rep, big.y.rep,
                                             big.z.rep, big.w.rep)
    assert min(checked.values()) >= 8
