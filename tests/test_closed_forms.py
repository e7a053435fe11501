"""A proof of the closed forms for the section curve C_Q(5).

`cq5.section_curve`, with `cq5.section_constants` and `weier.phi_values`
under it, runs unchanged on the generators of the rational function field
QQ(P, Q, x0, y0, f0..f4, g0..g6). F0..F6 are derived independently, as the
z-coefficients of -y^2 + x^3 + f(z) x + g(z) on the section
x = Q z^2 + P z + x0, y = c z^3 + b z^2 + a z + y0 through the lift (a, b, c).
Each identity below is a quotient N / D of polynomials whose numerator N has
remainder 0 on division by the one generator y0^2 - (x0^3 + f0 x0 + g0) of
the ideal of Q on its fiber:

- F0 = F1 = F2 = F3 = 0 under the lift;
- phi2^3 F4 = G, and the F4 of `section_curve` is the z^4 coefficient;
- F5 and F6 of `section_curve` are the z^5 and z^6 coefficients.

Every coefficient of N and of the quotient has a denominator dividing a
power of 6, and every D is a 6-smooth constant times powers of y0 and of
x0^3 + f0 x0 + g0 = phi2 / 4, which `cq5.build` requires to be nonzero. So
the identities hold over QQ and over GF(p) for every p >= 5, the fields
PrimeField accepts.
"""

import time

import pytest

pytest.importorskip("sympy")
from sympy import QQ as SQQ  # noqa: E402
from sympy.polys.fields import field  # noqa: E402

from dp1cert.cq5 import section_curve  # noqa: E402
from dp1cert.weier import phi_values  # noqa: E402

BUDGET_S = 5


def _six_smooth(n: int) -> bool:
    n = abs(int(n))
    for p in (2, 3):
        while n and n % p == 0:
            n //= p
    return n == 1


def _conv(a: list, b: list) -> list:
    """Product of two coefficient lists in z."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


class Proof:
    """The closed forms of `section_curve` and the independent z-coefficients
    as pairs (numerator, denominator) of polynomials over QQ."""

    def __init__(self):
        K, P, Q, x0, y0, *fg = field(
            "P Q x0 y0 f0 f1 f2 f3 f4 g0 g1 g2 g3 g4 g5 g6", SQQ)
        f, g = fg[:5], fg[5:]
        v = phi_values(f[0], g[0], x0)
        _, G, (a, b, c), (F4, F5, F6) = section_curve(f, g, x0, y0, v, P, Q)
        self.ring = K.ring
        self.gen = (y0 ** 2 - x0 ** 3 - f[0] * x0 - g[0]).numer
        self.units = (y0.numer, (x0 ** 3 + f[0] * x0 + g[0]).numer)
        self.forms = {"G": G, "F4": F4, "F5": F5, "F6": F6, "phi2": v.phi2}
        # y D = Y(z) with one common denominator D of the lift; then
        # D^2 (-y^2 + x^3 + f x + g) = sum N_i z^i by polynomial arithmetic
        D = a.denom.lcm(b.denom).lcm(c.denom)
        Y = [y0.numer * D] + [e.numer * D.exquo(e.denom) for e in (a, b, c)]
        X = [x0.numer, P.numer, Q.numer]
        X2 = _conv(X, X)
        rhs = _conv(X2, X)
        for i, fi in enumerate(f):
            for j, xj in enumerate(X):
                rhs[i + j] += fi.numer * xj
        for i, gi in enumerate(g):
            rhs[i] += gi.numer
        D2 = D ** 2
        N = [D2 * r for r in rhs]
        for i, s in enumerate(_conv(Y, Y)):
            N[i] -= s
        self.F = [(n, D2) for n in N]

    def form(self, name):
        e = self.forms[name]
        return e.numer, e.denom

    def vanishes(self, num, den) -> bool:
        """num / den lies in the ideal: num has remainder 0 on division by
        the generator. Asserts the Z[1/6] denominators of num and of the
        quotient and that den is a 6-smooth constant times unit powers."""
        q, rem = num.div(self.gen)
        if rem:
            return False
        for poly in (num, q):
            assert all(_six_smooth(c.denominator) for c in poly.coeffs())
        for u in self.units:
            while True:
                qu, ru = den.div(u)
                if ru:
                    break
                den = qu
        assert den.is_ground, den
        assert _six_smooth(den.LC.numerator)
        assert _six_smooth(den.LC.denominator)
        return True

    def identities(self) -> dict:
        """Name -> (numerator, denominator) of each expression that must
        vanish on Q's fiber."""
        out = {f"F{i}": self.F[i] for i in range(4)}
        (g, gd), (p2, p2d) = self.form("G"), self.form("phi2")
        n4, d4 = self.F[4]
        out["phi2^3 F4 - G"] = (p2 ** 3 * n4 * gd - g * p2d ** 3 * d4,
                                p2d ** 3 * d4 * gd)
        for i in (4, 5, 6):
            (n, d), (m, e) = self.form(f"F{i}"), self.F[i]
            out[f"F{i}"] = (n * e - m * d, d * e)
        return out


@pytest.fixture(scope="module")
def proof():
    t0 = time.monotonic()
    pf = Proof()
    pf.ids = pf.identities()
    pf.setup_s = time.monotonic() - t0
    return pf


def test_closed_forms_hold_on_the_fiber(proof):
    t0 = time.monotonic()
    ids = proof.ids
    assert set(ids) == {"F0", "F1", "F2", "F3", "phi2^3 F4 - G",
                        "F4", "F5", "F6"}
    failed = [name for name, nd in ids.items() if not proof.vanishes(*nd)]
    assert not failed, failed
    assert proof.setup_s + time.monotonic() - t0 < BUDGET_S


def test_planted_errors_leave_a_remainder(proof):
    ids = proof.ids
    P, Q = proof.ring.gens[:2]
    (n3, d3), (n2, d2) = ids["F3"], ids["F2"]
    (g, gd), (p2, p2d) = proof.form("G"), proof.form("phi2")
    n4, d4 = proof.F[4]
    wrong = [
        (n3 + d3, d3),                                         # F3 + 1
        (n2 + P * Q * d2, d2),                                 # F2 + PQ
        (p2 ** 2 * n4 * gd - g * p2d ** 2 * d4, p2d ** 2 * d4 * gd),
    ]                                                          # phi2^2 F4 - G
    assert not any(proof.vanishes(*nd) for nd in wrong)
