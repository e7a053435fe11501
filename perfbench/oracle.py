"""Output checks that do not trust the program.

Certificates are hashed through their canonical JSON with the wall-clock
field ``resources.elapsed_s`` left out, so identical work gives identical
hashes. Every Dense* certificate is re-checked with plain ``Fraction``
arithmetic on the input coefficients: each evidence point must satisfy
y^2 = x^3 + f(z, w) x + g(z, w), and the evidence must cover at least two
distinct fibers, no more than the certificate claims. The JSON report of
``dp1cert check`` is re-checked with integer arithmetic, modulo p over GF(p):
its discriminant must be 4 f^3 + 27 g^2 and each rational singular fiber it
lists must be a root of that discriminant.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction


def canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def certificate_doc(cert_json: dict) -> dict:
    doc = dict(cert_json)
    doc["resources"] = {k: v for k, v in doc["resources"].items()
                        if k != "elapsed_s"}
    return doc


def op_hash(outcome: str, cert_docs: list, text: str) -> str:
    body = canonical({"outcome": outcome, "certs": cert_docs, "text": text})
    return hashlib.sha256(body.encode()).hexdigest()


def fold(hashes) -> str:
    acc = hashlib.sha256()
    for h in hashes:
        acc.update(bytes.fromhex(h))
    return acc.hexdigest()[:32]


def _form(coeffs, z: Fraction, w: Fraction) -> Fraction:
    """sum c_i z^i w^(d - i), coefficient i multiplying z^i."""
    d = len(coeffs) - 1
    return sum(Fraction(c) * z ** i * w ** (d - i)
               for i, c in enumerate(coeffs))


def _ratio(text: str):
    """Numerator and denominator of exact scalar text such as "-3/4"."""
    num, _, den = text.partition("/")
    return int(num), int(den or 1)


def on_surface(x: str, y: str, z: Fraction, w: Fraction, f, g) -> bool:
    """y^2 = x^3 + f(z, w) x + g(z, w), cross-multiplied so that the large
    coordinates x and y never go through a gcd."""
    (a, b), (c, d) = _ratio(x), _ratio(y)
    F, G = _form(f, z, w), _form(g, z, w)
    fn, fd, gn, gd = F.numerator, F.denominator, G.numerator, G.denominator
    b2 = b * b
    rhs = a ** 3 * fd * gd + fn * a * b2 * gd + gn * b2 * b * fd
    return c * c * b2 * b * fd * gd == d * d * rhs


def recheck(cert_json: dict, f, g) -> str | None:
    """None when a Dense* certificate holds up on the input surface (f, g),
    else the reason it is rejected. Other conclusions are not checked."""
    if cert_json["conclusion"] not in ("DenseByTheorem12",
                                       "DenseByTheorem13"):
        return None
    fibers = set()
    for text in cert_json["evidence"]:
        x, y, z, w = text.split(",")
        z, w = Fraction(z), Fraction(w)
        if z == 0 and w == 0:
            return f"evidence point {text} is the base point"
        if not on_surface(x, y, z, w, f, g):
            return f"evidence point {text} is off the input surface"
        fibers.add((z / w, 1) if w else (1, 0))
    if len(fibers) < 2:
        return f"evidence covers {len(fibers)} fiber(s), need 2"
    if len(fibers) > cert_json["distinct_fibers"]:
        return (f"evidence covers {len(fibers)} fibers, certificate claims "
                f"{cert_json['distinct_fibers']}")
    return None


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def recheck_report(text: str, p: int, f, g) -> str | None:
    """None when a ``dp1cert check`` JSON report agrees with the input
    surface (f, g) over GF(p), or over QQ when p is 0; else the reason it
    is rejected."""
    report = json.loads(text)
    disc = [4 * a + 27 * b for a, b in zip(_mul(f, _mul(f, f)), _mul(g, g))]
    reported = [Fraction(c) for c in report["disc"]]
    if p:
        disc = [c % p for c in disc]
    if reported != disc:
        return "discriminant is not 4 f^3 + 27 g^2"
    fibers = [fiber["fiber"] for fiber in report.get(
        "rational_singular_fibers", [])]
    if len(set(fibers)) != len(fibers):
        return "a singular fiber is listed twice"
    for fiber in fibers:
        z, w = fiber.split(",")
        if w == "0":
            if disc[-1]:
                return "fiber at infinity listed, discriminant has degree 12"
            continue
        r, value = (int(z) if p else Fraction(z)), 0
        for c in reversed(disc):
            value = value * r + c
            if p:
                value %= p
        if value:
            return f"listed fiber {fiber} is not a root of the discriminant"
    return None
