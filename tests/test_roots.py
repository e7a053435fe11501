"""Root finding without integer factoring or scans of GF(p): `dp1cert check`
on inputs whose discriminant has large coefficients or lives over a large
prime field finishes in bounded time, and `rational_roots` / `sqrt` agree
with sympy as an independent oracle."""

import io
import json
import random
import signal
from contextlib import contextmanager
from fractions import Fraction

import pytest

from dp1cert.cli import main
from dp1cert.exactalg import QQ, PrimeField, UniPoly, rational_roots, sqrt

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
