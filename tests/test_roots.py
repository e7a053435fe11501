"""Root finding without integer factoring or scans of GF(p): `dp1cert check`
on inputs whose discriminant has large coefficients or lives over a large
prime field finishes in bounded time, `rational_roots` / `sqrt` and the
rest of the polynomial layer (`poly_gcd`, `squarefree_decomposition`,
`resultant_q`) agree with sympy as an independent oracle, and the GF(p)
residue-list kernel agrees with a plain element loop."""

import io
import json
import math
import random
import signal
from contextlib import contextmanager
from fractions import Fraction

import pytest

from dp1cert.cli import main
from dp1cert.exactalg import (
    QQ, BiPoly, PrimeField, UniPoly, _zp_divmod, _zp_gcd, _zp_mul,
    _zp_powmod, poly_gcd, rational_roots, resultant_q, sqrt,
    squarefree_decomposition,
)

from test_poly_kernels import loop_divmod, loop_mul

MERSENNE61 = 2 ** 61 - 1


@contextmanager
def deadline(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"did not finish within {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def check_report(tmp_path, field, f, g):
    path = tmp_path / "surface.json"
    path.write_text(json.dumps({"field": field, "f": [str(c) for c in f],
                                "g": [str(c) for c in g]}))
    out = io.StringIO()
    assert main(["check", str(path), "--format", "json"], out=out) == 0
    return json.loads(out.getvalue())


def disc_at(f, g, z, w):
    """4 F(z,w)^3 + 27 G(z,w)^2 with F = sum f_i z^i w^(4-i), G likewise."""
    F = sum(c * z ** i * w ** (4 - i) for i, c in enumerate(f))
    G = sum(c * z ** i * w ** (6 - i) for i, c in enumerate(g))
    return 4 * F ** 3 + 27 * G ** 2


def listed_fibers(report):
    return [tuple(Fraction(v) for v in item["fiber"].split(","))
            for item in report["rational_singular_fibers"]]


# A random surface with 12-digit coefficients: the constant coefficient of
# its discriminant is 4 times two 17- and 18-digit primes, which a root
# finder built on integer factoring takes minutes to split.
HARD_F = [-243229668112, 644180310286, -442035807975, 238067983761,
          304105988235]
HARD_G = [314324721042, 391949925206, -729907353933, -305336856527,
          361600127686, -524605692151, 622956748978]
# F = -3 w^4 + L*C, G = 2 w^6 + L*Q with L = 7z - (10^12 + 39)w, so the
# fiber (10^12 + 39 : 7) is singular (Delta = 4*(-27) + 27*4 = 0 there).
PLANTED_F = [-60000000002340, 34000000001746, -90000000003748, 8000000000942,
             -59]
PLANTED_G = [-77000000003003, -90000000002971, -67000000001983,
             -36000000000935, 92000000003840, -20000000001424, 142]


@pytest.mark.parametrize("f, g, expected", [
    (HARD_F, HARD_G, []),
    (PLANTED_F, PLANTED_G, [(Fraction(10 ** 12 + 39, 7), Fraction(1))]),
])
def test_check_large_qq_coefficients_is_fast(tmp_path, f, g, expected):
    with deadline(10):
        report = check_report(tmp_path, {"kind": "rationals"}, f, g)
    fibers = listed_fibers(report)
    assert fibers == expected
    for z, w in fibers:
        assert disc_at(f, g, z, w) == 0


def test_check_over_large_prime_field_is_fast(tmp_path):
    f, g = [3, -1, 0, 2, 1], [-2, 5, 0, 1, 0, 7, 1]
    with deadline(1.0):
        report = check_report(tmp_path, {"kind": "prime", "p": MERSENNE61},
                              f, g)
    fibers = listed_fibers(report)
    assert len(fibers) == 2
    for z, w in fibers:
        assert disc_at(f, g, int(z), int(w)) % MERSENNE61 == 0


def planted_poly(rng, field, root):
    """A random cofactor times 1-3 planted linear factors with
    multiplicities 1-3; root(rng) gives (numerator, denominator)."""
    a = UniPoly(field, [rng.randint(-10 ** 6, 10 ** 6)
                        for _ in range(rng.randint(1, 4))])
    while a.is_zero():
        a = UniPoly(field, [rng.randint(1, 9)])
    for _ in range(rng.randint(1, 3)):
        num, den = root(rng)
        a = a * UniPoly(field, [-num, den]) ** rng.randint(1, 3)
    return a


def sympy_roots(a, p=None):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    if p is None:
        coeffs = [sympy.Rational(c.rep.numerator, c.rep.denominator)
                  for c in reversed(a.coeffs)]
        return {Fraction(int(r.p), int(r.q))
                for r in sympy.Poly(coeffs, x, domain="QQ").ground_roots()}
    coeffs = [c.rep for c in reversed(a.coeffs)]
    return {int(r) % p
            for r in sympy.Poly(coeffs, x, modulus=p).ground_roots()}


def test_rational_roots_qq_against_sympy():
    pytest.importorskip("sympy")
    rng = random.Random(2024)
    for _ in range(40):
        digits = rng.choice([2, 8, 20])
        a = planted_poly(rng, QQ, lambda r: (
            rng.randint(-10 ** digits, 10 ** digits), rng.randint(1, 10 ** 3)))
        roots = [r.rep for r in rational_roots(a)]
        assert roots == sorted(roots, key=lambda r: (r.denominator, r))
        assert set(roots) == sympy_roots(a) and len(set(roots)) == len(roots)


@pytest.mark.parametrize("p", [10007, 1000003, 2 ** 31 - 1, MERSENNE61])
def test_rational_roots_gfp_against_sympy(p):
    pytest.importorskip("sympy")
    rng = random.Random(p)
    K = PrimeField(p)
    for _ in range(10):
        a = planted_poly(rng, K, lambda r: (rng.randrange(p), 1))
        roots = [r.rep for r in rational_roots(a)]
        assert roots == sorted(set(roots))
        assert set(roots) == sympy_roots(a, p)


@pytest.mark.parametrize("p", [5, 13, 10007, 2 ** 31 - 1, MERSENNE61])
def test_sqrt_gfp_against_sympy(p):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(p)
    K = PrimeField(p)
    for a in [0, 1, p - 1] + [rng.randrange(p) for _ in range(30)]:
        expected = sympy.ntheory.sqrt_mod(a, p, all_roots=True)
        r = sqrt(K(a))
        assert (r.rep if r is not None else None) == \
            (min(expected) if expected else None)


# gcd, squarefree decomposition and resultants over QQ and GF(101) (gcd and
# squarefree decomposition also over a 14-bit and a 61-bit prime field), on
# seeded inputs with planted common factors and multiplicities

ORACLE_FIELDS = [None, 101]
GCD_FIELDS = ORACLE_FIELDS + [10007, MERSENNE61]


def field_of(p):
    return QQ if p is None else PrimeField(p)


def small_root(p):
    if p is None:
        return lambda r: (r.randint(-50, 50), r.randint(1, 9))
    return lambda r: (r.randrange(p), 1)


def to_sympy(a, p):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    if p is None:
        coeffs = [sympy.Rational(c.rep.numerator, c.rep.denominator)
                  for c in reversed(a.coeffs)]
        return sympy.Poly(coeffs, x, domain="QQ")
    return sympy.Poly([c.rep for c in reversed(a.coeffs)], x, modulus=p)


def sympy_coeffs(P, p):
    """Coefficients of a sympy Poly, lowest degree first, as our reps."""
    cs = reversed(P.all_coeffs())
    if p is None:
        return [Fraction(int(c.p), int(c.q)) for c in cs]
    return [int(c) % p for c in cs]


def reps(a):
    return [c.rep for c in a.coeffs]


@pytest.mark.parametrize("p", GCD_FIELDS)
def test_poly_gcd_against_sympy(p):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(f"gcd-{p}")
    K = field_of(p)
    for _ in range(30):
        common = planted_poly(rng, K, small_root(p))
        a = common * planted_poly(rng, K, small_root(p))
        b = common * planted_poly(rng, K, small_root(p))
        expected = sympy.gcd(to_sympy(a, p), to_sympy(b, p)).monic()
        assert reps(poly_gcd(a, b)) == sympy_coeffs(expected, p)


@pytest.mark.parametrize("p", GCD_FIELDS)
def test_squarefree_decomposition_against_sympy(p):
    pytest.importorskip("sympy")
    rng = random.Random(f"sqf-{p}")
    K = field_of(p)
    for _ in range(30):
        a = planted_poly(rng, K, small_root(p)) \
            * planted_poly(rng, K, small_root(p))
        _, factors = to_sympy(a, p).sqf_list()
        expected = sorted((m, sympy_coeffs(f.monic(), p)) for f, m in factors)
        got = sorted((m, reps(f)) for f, m in squarefree_decomposition(a))
        assert got == expected


def random_bipoly(rng, K):
    """Degree 1-3 in q, with a nonzero leading coefficient in q: dense with
    coefficients up to 9 and degree 2 in p, sparse, or constant in p with
    unit coefficients (the last two make zero pivots, so row swaps occur).
    Coefficients are the reps of K, so sympy sees the same polynomial."""
    dq = rng.randint(1, 3)
    density, values, dp = rng.choice([(0.7, range(-9, 10), 2),
                                      (0.2, range(-9, 10), 2),
                                      (0.5, (-1, 1), 0)])
    while True:
        terms = {(i, j): K(rng.choice(values))
                 for i in range(dp + 1) for j in range(dq + 1)
                 if rng.random() < density}
        f = BiPoly(K, terms)
        if f.deg_q() == dq:
            return f


def bipoly_to_sympy(f, pv, qv):
    sympy = pytest.importorskip("sympy")
    return sum(sympy.Rational(c.rep) * pv ** i * qv ** j
               for (i, j), c in f.terms.items())


@pytest.mark.parametrize("p", ORACLE_FIELDS)
def test_resultant_q_against_sylvester_determinant(p):
    # the Sylvester determinant, not sympy.resultant: sympy 1.14.0 gives
    # resultant(q, q**3 + 1, q) = -1 where the determinant is 1; the
    # determinant is taken over ZZ[p] or QQ[p] (a symbolic det is minutes)
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    from sympy.polys.subresultants_qq_zz import sylvester
    rng = random.Random(f"res-{p}")
    K = field_of(p)
    pv, qv = sympy.symbols("p q")
    for k in range(60):
        a, b = random_bipoly(rng, K), random_bipoly(rng, K)
        if k % 4 == 0:                       # a planted common factor
            c = random_bipoly(rng, K)
            a, b = a * c, b * c
        M = DomainMatrix.from_Matrix(sylvester(
            bipoly_to_sympy(a, pv, qv), bipoly_to_sympy(b, pv, qv), qv, 1))
        det = sympy.Poly(M.domain.to_sympy(M.det()), pv, domain="QQ")
        expected = sympy_coeffs(det, None)
        if p is not None:
            expected = [c.numerator * pow(c.denominator, -1, p) % p
                        for c in expected]
        while expected and not expected[-1]:
            expected.pop()
        res = resultant_q(a, b)
        assert reps(res) == expected
        if k % 4 == 0:
            assert res.is_zero()


# the GF(p) residue-list kernel: plain ints in [0, p), lowest degree first

KERNEL_PRIMES = [5, 10007, MERSENNE61]


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_poly_gcd_gfp_edge_cases(p):
    K = PrimeField(p)
    zero, one = UniPoly(K, []), UniPoly(K, [1])
    a = UniPoly(K, [3, -2, 0, 7])
    assert poly_gcd(zero, a) == a.monic() and poly_gcd(a, zero) == a.monic()
    assert poly_gcd(zero, zero) == zero
    assert _zp_gcd(reps(a), [], p) == reps(a.monic())
    assert poly_gcd(UniPoly(K, [4]), a) == one
    assert poly_gcd(a, UniPoly(K, [4])) == one
    # (t - 1)(t - 2) and (t - 3)(t + 1) share no root in any GF(p), p >= 5
    b = UniPoly(K, [-1, 1]) * UniPoly(K, [-2, 1])
    c = UniPoly(K, [-3, 1]) * UniPoly(K, [1, 1])
    assert poly_gcd(b, c) == one and poly_gcd(c, b) == one
    assert poly_gcd(a, a) == a.monic()
    assert poly_gcd(a, a * 3) == a.monic()
    assert poly_gcd(b * c, c * c) == c


def random_residues(rng, p, degree, monic=False):
    """A residue list of exactly the given degree."""
    lead = 1 if monic else rng.randrange(1, p)
    return [rng.randrange(p) for _ in range(degree)] + [lead]


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_residue_kernel_matches_unipoly(p):
    rng = random.Random(f"zp-{p}")
    K = PrimeField(p)
    for _ in range(40):
        a = random_residues(rng, p, rng.randint(0, 14)) if rng.random() < 0.9 \
            else []
        b = random_residues(rng, p, rng.randint(0, 6))
        m = random_residues(rng, p, rng.randint(1, 8), monic=True)
        A, B, M = UniPoly(K, a), UniPoly(K, b), UniPoly(K, m)
        # UniPoly * and divmod run on this kernel too: compare with the
        # element loop
        assert _zp_mul(a, b, p) == [c.rep for c in
                                    loop_mul(A.coeffs, B.coeffs, K)]
        q, r = _zp_divmod(a, m, p)
        assert (q, r) == tuple([c.rep for c in cs] for cs in
                               loop_divmod(A.coeffs, M.coeffs, K))
        base = random_residues(rng, p, rng.randint(0, 3))
        n = rng.randrange(40)
        assert _zp_powmod(base, n, m, p) == \
            reps((UniPoly(K, base) ** n) % M)


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_powmod_large_exponent_at_planted_roots(p):
    # modulo m = prod (t - c_i) with distinct c_i, base^n mod m is the one
    # polynomial of degree < deg m taking the value base(c_i)^n at each c_i
    rng = random.Random(f"zp-pow-{p}")
    K = PrimeField(p)
    for _ in range(20):
        cs = rng.sample(range(p), rng.randint(1, min(p, 8)))
        m = reps(math.prod((UniPoly(K, [-c, 1]) for c in cs),
                           start=UniPoly(K, [1])))
        base = random_residues(rng, p, rng.randint(0, 4))
        n = rng.choice([p, (p - 1) // 2, rng.randrange(2 ** 80)])
        r = UniPoly(K, _zp_powmod(base, n, m, p))
        assert r.degree() < len(cs)
        for c in cs:
            assert r(K(c)).rep == pow(UniPoly(K, base)(K(c)).rep, n, p)
