"""Exact field arithmetic and polynomial algebra.

Supported fields: the rationals QQ, prime fields GF(p) with p >= 5, quotient
extensions K[a]/(m(a)) of those two with squarefree modulus (dynamic
evaluation: inversion that discovers a factor of the modulus raises
ZeroDivisor carrying the split), and rational function fields K(u) with
monic-denominator canonical form.

Everything here is immutable and exact; no floating point is used anywhere.
"""

from __future__ import annotations

import functools
import math
import random
import sys
from fractions import Fraction
from itertools import zip_longest

# exact rationals within the default bit budget can exceed the interpreter's
# conservative int-to-string limit; allow printing anything we can compute
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(10 ** 7)


# ---------------------------------------------------------------------------
# errors
# ---------------------------------------------------------------------------

class ExactAlgError(Exception):
    pass


class DivisionByZero(ExactAlgError):
    pass


class ZeroDivisor(ExactAlgError):
    """Inversion in a quotient extension found a factor of the modulus.

    Carries the two nonconstant cofactors so the caller can split the
    extension and continue on both branches (dynamic evaluation).
    """

    def __init__(self, factor1, factor2):
        super().__init__(f"zero divisor splits modulus: ({factor1}) * ({factor2})")
        self.factor1 = factor1
        self.factor2 = factor2


class SingularMatrix(ExactAlgError):
    pass


class InseparableCase(ExactAlgError):
    pass


class UnsupportedField(ExactAlgError):
    pass


class OverHeightBudget(ExactAlgError):
    pass


DEFAULT_BIT_BUDGET = 2 ** 16


# ---------------------------------------------------------------------------
# integer helpers
# ---------------------------------------------------------------------------

def _is_probable_prime(n: int) -> bool:
    """Baillie-PSW (Baillie and Wagstaff, Math. Comp. 1980): trial division
    by the primes up to 37, so small n stay cheap, then a strong test to
    base 2 and a strong Lucas test with Selfridge's parameters."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    # base 2: 2^d = 1 or 2^(d 2^r) = -1 for some 0 <= r < s, n - 1 = d 2^s
    s = ((n - 1) & (1 - n)).bit_length() - 1
    xs = [pow(2, (n - 1) >> s, n)]
    for _ in range(s - 1):
        xs.append(xs[-1] * xs[-1] % n)
    if xs[0] != 1 and n - 1 not in xs:
        return False
    if math.isqrt(n) ** 2 == n:     # no D has (D / n) = -1
        return False
    D = 5     # Selfridge: the first of 5, -7, 9, -11, ... with (D / n) = -1
    while (j := _jacobi(D, n)) == 1:
        D = 2 - D if D < 0 else -2 - D
    return j == -1 and _strong_lucas(n, D, (1 - D) // 4)


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a / n), n odd and positive."""
    a, t = a % n, 1
    while a:
        z = (a & -a).bit_length() - 1
        a >>= z
        if z & 1 and n % 8 in (3, 5):
            t = -t
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a, n = n % a, a
    return t if n == 1 else 0


def _strong_lucas(n: int, D: int, Q: int) -> bool:
    """U_d = 0 or V_(d 2^r) = 0 mod n for some 0 <= r < s, n + 1 = d 2^s
    with d odd and P = 1: along the bits of d by U_2k = U_k V_k, V_2k = V_k^2
    - 2 Q^k, U_(k+1) = (U_k + V_k) / 2 and V_(k+1) = (D U_k + V_k) / 2."""
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    U, V, Qk, half = 1, 1, Q % n, (n + 1) // 2
    for bit in bin((n + 1) >> s)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V = (U + V) * half % n, (D * U + V) * half % n
            Qk = Qk * Q % n
    for _ in range(s):
        if not U or not V:
            return True
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
    return False


def _power(base, n: int, one):
    """base ** n for n >= 0 by square-and-multiply; one is the unit of
    base's ring."""
    out = one
    while n:
        if n & 1:
            out = out * base
        n >>= 1
        if n:
            base = base * base
    return out


# ---------------------------------------------------------------------------
# fields and elements
# ---------------------------------------------------------------------------

class FieldElement:
    """Element of a Field; wraps a canonical representative."""

    __slots__ = ("field", "rep")

    def __init__(self, field, rep):
        self.field = field
        self.rep = rep

    def _coerce(self, other):
        """other as an element of this field for arithmetic; None when it is
        no scalar. Elements of any other field, the base field included,
        are rejected: arithmetic never lifts implicitly."""
        if isinstance(other, FieldElement):
            if other.field is self.field or other.field == self.field:
                return other
            raise ExactAlgError("field mismatch")
        if isinstance(other, (int, Fraction, str)):
            return self.field(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, self.field._add(self.rep, o.rep))

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, self.field._neg(self.rep))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, self.field._mul(self.rep, o.rep))

    __rmul__ = __mul__

    def inverse(self):
        if not self:
            raise DivisionByZero(str(self.field))
        return FieldElement(self.field, self.field._inv(self.rep))

    def __truediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o / self

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return FieldElement(self.field, self.field._pow(self.rep, n))

    def __bool__(self):
        return not self.field._is_zero(self.rep)

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return ((self.field is other.field or self.field == other.field)
                    and self.rep == other.rep)
        if isinstance(other, (int, Fraction)):
            return self == self.field(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.rep))

    def __repr__(self):
        return self.field._to_str(self.rep)

    __str__ = __repr__

    def bit_size(self) -> int:
        return self.field._bit_size(self.rep)


class Field:
    """Base class; subclasses implement raw-representative arithmetic.
    base is the field that an extension is built on (None for QQ, GF(p))."""

    base = None

    def __call__(self, value) -> FieldElement:
        """The one coercion rule: an element of this field is returned
        unchanged, an element of the base field is lifted, an element of any
        other field is rejected, and a scalar (int, Fraction, exact text) or,
        in an extension, a polynomial over the base is converted."""
        if isinstance(value, FieldElement):
            if value.field is self or value.field == self:
                return value
            if value.field != self.base:
                raise ExactAlgError("field mismatch")
        return FieldElement(self, self._coerce_rep(value))

    @functools.cached_property
    def zero(self):
        return self(0)

    @functools.cached_property
    def one(self):
        return self(1)

    def _add(self, a, b):
        return a + b

    def _neg(self, a):
        return -a

    def _pow(self, a, n):
        """a ** n for n >= 0 on representatives."""
        return _power(FieldElement(self, a), n, self.one).rep

    # Polynomial coefficients as numbers: _to_ints gives (ints, den) with
    # coefficient i equal to ints[i] / den, and _from_ints turns such a list
    # back into canonical representatives. Polynomial products, division
    # and derivatives run on ints with +, - and * only. QQ uses integers
    # over one common denominator, GF(p) residues over 1; any other field
    # keeps its elements as the "ints" over 1, so its polynomials run the
    # element loop. QQ and GF(p) also convert bare representatives
    # (_ints_of), the coefficients of a quotient-extension element. The
    # same numbers serve for values: _point gives a point (z : w) of P^1 as
    # (a, b, c) with z = a / c and w = b / c, and a form's value is
    # _horner(ints, a, b) over den c^d (_value).
    def _to_ints(self, coeffs):
        return list(coeffs), 1

    def _from_ints(self, ints, den):
        return [self(c).rep for c in ints]

    def _point(self, z, w):
        (a, b), c = self._to_ints([z, w])
        return a, b, c

    def _to_str(self, a):
        return str(a)

    def _bit_size(self, rep) -> int:
        return 0


def parse_rational(text) -> Fraction:
    """Exact scalar text format: integers like "-12", fractions like "3/4"."""
    if isinstance(text, (int, Fraction)):
        return Fraction(text)
    s = str(text).strip()
    if s.count("/") > 1 or "//" in s:
        raise ValueError(f"malformed scalar {text!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed scalar {text!r}") from exc


class RationalField(Field):
    kind = "rationals"
    char = 0

    def _coerce_rep(self, v):
        if isinstance(v, str):
            return parse_rational(v)
        return Fraction(v)

    def _mul(self, a, b):
        return a * b

    def _pow(self, a, n):
        # numerator and denominator stay coprime: no gcd, unlike squaring
        return a ** n

    def _to_ints(self, coeffs):
        return self._ints_of([c.rep for c in coeffs])

    def _ints_of(self, reps):
        den = math.lcm(*(c.denominator for c in reps))
        return [c.numerator * (den // c.denominator) for c in reps], den

    def _from_ints(self, ints, den):
        # one gcd per coefficient, the only reduction the result needs
        return [Fraction(c, den) for c in ints]

    def _inv(self, a):
        return 1 / a

    def _is_zero(self, a):
        return a == 0

    def _bit_size(self, a):
        return a.numerator.bit_length() + a.denominator.bit_length()

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


QQ = RationalField()


class PrimeField(Field):
    kind = "prime"

    def __init__(self, p: int):
        if p in (2, 3) or not _is_probable_prime(p):
            raise ExactAlgError(f"prime field needs a prime p >= 5, got {p}")
        self.p = p
        self.char = p

    def _coerce_rep(self, v):
        if isinstance(v, str):
            v = parse_rational(v)
        if isinstance(v, Fraction):
            den = v.denominator % self.p
            if den == 0:
                raise DivisionByZero(f"denominator divisible by {self.p}")
            return v.numerator * pow(den, -1, self.p) % self.p
        return int(v) % self.p

    def _add(self, a, b):
        return (a + b) % self.p

    def _neg(self, a):
        return -a % self.p

    def _mul(self, a, b):
        return a * b % self.p

    def _pow(self, a, n):
        return pow(a, n, self.p)

    def _to_ints(self, coeffs):
        return [c.rep for c in coeffs], 1

    def _ints_of(self, reps):
        return list(reps), 1

    def _from_ints(self, ints, den):
        # den is 1: residue lists are over 1, and so are their products
        return [c % self.p for c in ints]

    def _inv(self, a):
        return pow(a, -1, self.p)

    def _is_zero(self, a):
        return a == 0

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"GF({self.p})"


class QuotientExt(Field):
    """K[a]/(m(a)) over K = QQ or GF(p), with m squarefree over K (not
    necessarily irreducible). An element is its remainder modulo the monic
    m, kept as a tuple of K's representatives, lowest degree first, with no
    trailing zero; products are reduced on K's coefficient lists."""

    kind = "quotient"

    def __init__(self, modulus: "UniPoly"):
        if not isinstance(modulus.field, (RationalField, PrimeField)):
            raise UnsupportedField(f"quotient extension of {modulus.field}")
        if modulus.degree() < 1:
            raise ExactAlgError("modulus must be nonconstant")
        self.modulus = modulus.monic()
        self.base = modulus.field
        self.var = modulus.var
        self.char = self.base.char
        self._m = self.base._to_ints(self.modulus.coeffs)
        self._one = (self.base.one.rep,)

    def generator(self):
        return self(UniPoly(self.base, [0, 1], self.var))

    def _poly(self, a) -> "UniPoly":
        return UniPoly._of(self.base, list(a), self.var)

    def _reduce(self, ints, den) -> tuple:
        """The representative of the base polynomial ints / den."""
        _, r, den = _pdivmod(self.base, ints, den, *self._m)
        return tuple(_strip(self.base._from_ints(r, den)))

    def _coerce_rep(self, v):
        if isinstance(v, UniPoly):
            if v.field != self.base:
                raise ExactAlgError("field mismatch")
            return self._reduce(*self.base._to_ints(v.coeffs))
        r = self.base(v).rep
        return () if self.base._is_zero(r) else (r,)

    def _add(self, a, b):
        if len(a) < len(b):
            a, b = b, a
        K = self.base
        return tuple(_strip([K._add(x, y) for x, y in zip(a, b)]
                            + list(a[len(b):])))

    def _neg(self, a):
        return tuple([self.base._neg(c) for c in a])

    def _mul(self, a, b):
        # a factor one (a Horner step at w = 1) costs no reduction
        if a == self._one:
            return b
        if b == self._one:
            return a
        (A, da), (B, db) = self.base._ints_of(a), self.base._ints_of(b)
        return self._reduce(_int_mul(A, B), da * db)

    def _divmod(self, a, b) -> tuple:
        """Quotient and remainder of base polynomials, on representatives."""
        K = self.base
        Q, R, den = _pdivmod(K, *K._ints_of(a), *K._ints_of(b))
        return _strip(K._from_ints(Q, den)), _strip(K._from_ints(R, den))

    def _inv(self, a):
        # extended Euclid on representatives: s0 a = r0 and s1 a = r1 (mod m)
        K = self.base
        r0, r1 = [c.rep for c in self.modulus.coeffs], a
        s0, s1 = (), (K.one.rep,)
        while r1:
            q, r = self._divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, self._add(s0, self._neg(self._mul(q, s1)))
        if len(r0) == 1:
            return self._mul(s0, (K._inv(r0[0]),))
        # r0 is a nonconstant proper factor of the squarefree modulus
        g = self._poly(r0).monic()
        raise ZeroDivisor(g, (self.modulus // g).monic())

    def _is_zero(self, a):
        return not a

    def _to_str(self, a):
        return str(self._poly(a))

    def _bit_size(self, a):
        return sum(self.base._bit_size(c) for c in a)

    def down(self, el: FieldElement) -> FieldElement:
        """Coerce a degree-0 element back into the base field."""
        rep = el.rep
        if len(rep) > 1:
            raise ExactAlgError("element is not in the base field")
        return FieldElement(self.base, rep[0]) if rep else self.base.zero

    def __eq__(self, other):
        return (isinstance(other, QuotientExt) and other.var == self.var
                and other.modulus == self.modulus)

    def __hash__(self):
        return hash(("ext", self.var, self.modulus))

    def __repr__(self):
        return f"{self.base}[{self.var}]/({self.modulus})"


class FunctionField(Field):
    """K(u): fractions of UniPoly over K, canonical with monic denominator."""

    kind = "function"

    def __init__(self, base: Field, var: str):
        self.base = base
        self.var = var
        self.char = base.char

    def poly(self, coeffs) -> FieldElement:
        return self(UniPoly(self.base, coeffs, self.var))

    def gen(self) -> FieldElement:
        return self.poly([0, 1])

    def _canon(self, num: "UniPoly", den: "UniPoly"):
        if den.is_zero():
            raise DivisionByZero("zero denominator in function field")
        if num.is_zero():
            return (UniPoly(self.base, [], self.var), UniPoly(self.base, [1], self.var))
        g = poly_gcd(num, den)
        if g.degree() > 0:
            num, den = num // g, den // g
        lc = den.lead().inverse()
        return (num * lc, den * lc)

    def _coerce_rep(self, v):
        if isinstance(v, UniPoly):
            if v.field != self.base:
                raise ExactAlgError("field mismatch")
            return self._canon(v, UniPoly(self.base, [1], self.var))
        return self._coerce_rep(UniPoly(self.base, [self.base(v)], self.var))

    def _add(self, a, b):
        return self._canon(a[0] * b[1] + b[0] * a[1], a[1] * b[1])

    def _neg(self, a):
        return (-a[0], a[1])

    def _mul(self, a, b):
        return self._canon(a[0] * b[0], a[1] * b[1])

    def _inv(self, a):
        return self._canon(a[1], a[0])

    def _is_zero(self, a):
        return a[0].is_zero()

    def _to_str(self, a):
        if a[1].degree() == 0 and a[1].coeffs and a[1].coeffs[0] == a[1].field(1):
            return str(a[0])
        return f"({a[0]})/({a[1]})"

    def _bit_size(self, a):
        return (sum(c.bit_size() for c in a[0].coeffs)
                + sum(c.bit_size() for c in a[1].coeffs))

    def numerator(self, el: FieldElement) -> "UniPoly":
        return el.rep[0]

    def denominator(self, el: FieldElement) -> "UniPoly":
        return el.rep[1]

    def __eq__(self, other):
        return (isinstance(other, FunctionField) and other.var == self.var
                and other.base == self.base)

    def __hash__(self):
        return hash(("ff", self.var, self.base))

    def __repr__(self):
        return f"{self.base}({self.var})"


def sqrt(a: FieldElement):
    """Square root in QQ or GF(p); None when a is not a square."""
    f = a.field
    if isinstance(f, RationalField):
        v = a.rep
        if v < 0:
            return None
        rn, rd = math.isqrt(v.numerator), math.isqrt(v.denominator)
        if rn * rn == v.numerator and rd * rd == v.denominator:
            return f(Fraction(rn, rd))
        return None
    if isinstance(f, PrimeField):
        roots = _roots_mod_p([-a.rep % f.p, 0, 1], f.p)
        return f(min(roots)) if roots else None
    raise UnsupportedField(f"sqrt over {f}")


# ---------------------------------------------------------------------------
# univariate polynomials
# ---------------------------------------------------------------------------

def _horner(ints: list, a, b):
    """sum_i ints[i] a^i b^(d-i), d = len(ints) - 1, by one homogeneous
    Horner pass: the one evaluation loop. Entries and point may be
    integers, field elements or polynomials; no entry gives 0."""
    acc, bp = 0, 1
    for e in reversed(ints):
        acc *= a
        if e:
            acc += e * bp
        bp *= b
    return acc


def _lift(K: Field, field: Field, coeffs) -> tuple:
    """coeffs of field as K's (ints, den); K is the field of a point, field
    itself or an extension of it, into which they are lifted."""
    return K._to_ints(coeffs) if K == field else ([K(c) for c in coeffs], 1)


def _value(field: Field, coeffs, z, w) -> tuple:
    """(K, N, D) with sum_i coeffs[i] z^i w^(d-i) = N / D in the ints form
    of K, the field of z (field or an extension of it), unreduced: integers
    with D > 0 and no gcd over QQ. d = len(coeffs) - 1, 0 for no coeffs."""
    K = z.field if isinstance(z, FieldElement) else field
    a, b, c = K._point(K(z), K(w))
    ints, den = _lift(K, field, coeffs)
    return K, _horner(ints, a, b), den * c ** max(len(ints) - 1, 0)


class UniPoly:
    """Dense univariate polynomial over a Field; immutable."""

    __slots__ = ("field", "var", "coeffs")

    def __init__(self, field: Field, coeffs, var: str = "t"):
        self.field = field
        self.var = var
        cs = [field(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- basics ------------------------------------------------------------
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def lead(self) -> FieldElement:
        if not self.coeffs:
            raise ExactAlgError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int) -> FieldElement:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.field.zero

    def _same(self, other):
        if isinstance(other, UniPoly):
            if other.field != self.field or other.var != self.var:
                raise ExactAlgError("polynomial ring mismatch")
            return other
        return UniPoly(self.field, [other], self.var)

    @classmethod
    def _of(cls, field: Field, reps: list, var: str) -> "UniPoly":
        """The polynomial with these canonical representatives of field as
        coefficients, trailing zeros stripped; no coercion."""
        while reps and field._is_zero(reps[-1]):
            reps.pop()
        out = object.__new__(cls)
        out.field, out.var = field, var
        out.coeffs = tuple([FieldElement(field, r) for r in reps])
        return out

    # -- arithmetic ----------------------------------------------------------
    def _plus(self, other, sign: int):
        K = self.field
        a = [c.rep for c in self.coeffs]
        b = [c.rep if sign > 0 else K._neg(c.rep)
             for c in self._same(other).coeffs]
        n = min(len(a), len(b))
        return UniPoly._of(K, [K._add(x, y) for x, y in zip(a, b)]
                           + a[n:] + b[n:], self.var)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        K = self.field
        return UniPoly._of(K, [K._neg(c.rep) for c in self.coeffs], self.var)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return self._same(other) - self

    def __mul__(self, other):
        K = self.field
        if isinstance(other, (FieldElement, int)):
            k = K(other).rep
            return UniPoly._of(K, [K._mul(c.rep, k) for c in self.coeffs],
                               self.var)
        (A, da), (B, db) = (K._to_ints(self.coeffs),
                            K._to_ints(self._same(other).coeffs))
        return UniPoly._of(K, K._from_ints(_int_mul(A, B), da * db), self.var)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return _power(self, n, UniPoly(self.field, [1], self.var))

    def __divmod__(self, other):
        o = self._same(other)
        if o.is_zero():
            raise DivisionByZero("polynomial division by zero")
        K, var = self.field, self.var
        if len(self.coeffs) < len(o.coeffs):
            return UniPoly._of(K, [], var), self
        Q, R, den = _pdivmod(K, *K._to_ints(self.coeffs),
                             *K._to_ints(o.coeffs))
        return (UniPoly._of(K, K._from_ints(Q, den), var),
                UniPoly._of(K, K._from_ints(R, den), var))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other) -> "UniPoly":
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ExactAlgError("inexact polynomial division")
        return q

    # -- structure -----------------------------------------------------------
    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        return self * self.lead().inverse()

    def derivative(self) -> "UniPoly":
        K = self.field
        A, da = K._to_ints(self.coeffs)
        return UniPoly._of(K, K._from_ints([i * A[i] for i in range(1, len(A))],
                                           da), self.var)

    def __call__(self, x):
        K, N, D = _value(self.field, self.coeffs, x, self.field.one)
        return FieldElement(K, K._from_ints([N], D)[0])

    def compose(self, other: "UniPoly") -> "UniPoly":
        acc = UniPoly(self.field, [], self.var)
        for c in reversed(self.coeffs):
            acc = acc * other + self._same(c)
        return acc

    def shift(self, a) -> "UniPoly":
        """p(t + a)."""
        lin = UniPoly(self.field, [a, 1], self.var)
        return self.compose(lin)

    def __eq__(self, other):
        if isinstance(other, UniPoly):
            return (self.field == other.field and self.var == other.var
                    and self.coeffs == other.coeffs)
        return NotImplemented

    def __hash__(self):
        return hash((self.var, self.coeffs))

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree(), -1, -1):
            c = self.coeff(i)
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                mono = self.var if i == 1 else f"{self.var}^{i}"
                cs = str(c)
                parts.append(mono if cs == "1" else f"{cs}*{mono}"
                             if not ("/" in cs or "+" in cs or " " in cs)
                             else f"({cs})*{mono}")
        return " + ".join(parts).replace("+ -", "- ")


def _primitive(ints: list) -> list:
    """Integer coefficients divided by their content."""
    g = math.gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


def _qq_poly_to_int_list(a: UniPoly):
    return _primitive(a.field._to_ints(a.coeffs)[0])


def _strip(a: list) -> list:
    """a without trailing zeros, in place."""
    while a and not a[-1]:
        a.pop()
    return a


def _int_pdivmod(a: list, b: list) -> tuple:
    """(q, r, s) with s a = q b + r and deg r < deg b, for integer lists a
    and b (b without trailing zero). Each step scales by |lc(b)| / gcd(lc(b),
    top) > 0, so a divisor with lc(b) = +-1 never scales, and an exact
    division ends with s = 1 and r = 0. The one integer pseudo-division:
    divmod, quotient extensions, poly_gcd and resultant_q use it."""
    lb, db = b[-1], len(b) - 1
    sign = 1 if lb > 0 else -1
    r, s = list(a), 1
    q = [0] * (len(r) - db)
    for k in range(len(q) - 1, -1, -1):
        t = r[k + db]
        if not t:
            continue
        g = sign * math.gcd(t, lb)
        m = lb // g
        if m != 1:
            s *= m
            q = [x * m for x in q]
            r = [x * m for x in r[:k + db]]
        c = q[k] = t // g
        for j in range(db):
            r[k + j] -= c * b[j]
    return q, r[:db], s


def _int_mul(a: list, b: list) -> list:
    """Product of coefficient lists, accumulated unreduced."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


# Residue lists: a polynomial over GF(p) as plain ints in [0, p), lowest
# degree first, without trailing zeros (the zero polynomial is []). Products
# accumulate unreduced and are reduced once per coefficient.

def _zp(cs, p) -> list:
    """Integers reduced mod p, trailing zeros stripped."""
    return _strip([c % p for c in cs])


def _zp_mul(a: list, b: list, p) -> list:
    return _zp(_int_mul(a, b), p)


def _zp_monic(a: list, p) -> list:
    if not a or a[-1] == 1:
        return a
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _zp_divmod(a: list, m: list, p) -> tuple:
    """(q, r) with a = q m + r and deg r < deg m, for m monic; a may be
    unreduced, q comes reduced and r as a residue list."""
    dm = len(m) - 1
    if len(a) <= dm:
        return [], _zp(a, p)
    r = list(a)
    q = [0] * (len(r) - dm)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = r[k + dm] % p
        if c:
            for j in range(dm):
                r[k + j] -= c * m[j]
    return q, _zp(r[:dm], p)


def _zp_gcd(a: list, b: list, p) -> list:
    """Monic gcd by Euclid; gcd(0, b) = monic(b)."""
    while b:
        b = _zp_monic(b, p)
        a, b = b, _zp_divmod(a, b, p)[1]
    return _zp_monic(a, p)


def _zp_powmod(base: list, n: int, m: list, p) -> list:
    """base^n mod the monic m by left-to-right square-and-multiply, so every
    multiply is by base itself: O(deg m) for the root finder's linear
    bases, where right-to-left would multiply two full remainders."""
    out = [1]
    for bit in bin(n)[2:]:
        out = _zp_divmod(_zp_mul(out, out, p), m, p)[1]
        if bit == "1":
            out = _zp_divmod(_zp_mul(out, base, p), m, p)[1]
    return out


def _pdivmod(K, A: list, da, B: list, db) -> tuple:
    """(Q, R, den) with A / da = (Q / den)(B / db) + R / den and deg R <
    deg B, for coefficient lists of K in its _to_ints form, B without
    trailing zero: the residue division by the monic B / lc(B) over GF(p),
    the integer pseudo-division over QQ (s A = Q B + R, so den = s da), and
    the element loop over any other field; den = da except over QQ."""
    if isinstance(K, PrimeField):
        inv = pow(B[-1], -1, K.p)
        Q, R = _zp_divmod(A, [y * inv % K.p for y in B], K.p)
        return [x * inv for x in Q], R, 1
    if isinstance(K, RationalField):
        Q, R, s = _int_pdivmod(A, B)
        return [x * db for x in Q] if db != 1 else Q, R, s * da
    inv, n = B[-1].inverse(), len(B) - 1
    Q, R = [K.zero] * (len(A) - n), list(A)
    for k in range(len(Q) - 1, -1, -1):
        c = Q[k] = R[k + n] * inv
        if c:
            for j, y in enumerate(B):
                R[k + j] = R[k + j] - c * y
    return Q, R[:n], 1


def _zp_minus_power(a: list, k: int, p) -> list:
    """a - t^k."""
    out = a + [0] * (k + 1 - len(a))
    out[k] -= 1
    return _zp(out, p)


def poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd; primitive PRS over ZZ when the field is QQ (avoids fraction
    blow-up), Euclid on residue lists over GF(p), monic Euclid otherwise.
    gcd(0, b) = monic(b)."""
    if a.field != b.field or a.var != b.var:
        raise ExactAlgError("polynomial ring mismatch")
    if a.is_zero():
        return b.monic()
    if b.is_zero():
        return a.monic()
    if isinstance(a.field, RationalField):
        u, v = _qq_poly_to_int_list(a), _qq_poly_to_int_list(b)
        if len(u) < len(v):
            u, v = v, u
        while v:
            u, v = v, _primitive(_strip(_int_pdivmod(u, v)[1]))
        return UniPoly(a.field, u, a.var).monic()
    if isinstance(a.field, PrimeField):
        return UniPoly(a.field, _zp_gcd([c.rep for c in a.coeffs],
                                        [c.rep for c in b.coeffs],
                                        a.field.p), a.var)
    r0, r1 = a, b
    while not r1.is_zero():
        r0, r1 = r1, r0 % r1
        if not r1.is_zero():
            r1 = r1.monic()
    return r0.monic()


def squarefree_part(a: UniPoly) -> UniPoly:
    """Monic product of the distinct irreducible factors; InseparableCase
    propagates from the characteristic-p decomposition. A polynomial of
    degree at most 1 is its own squarefree part."""
    if a.degree() < 2:
        return a.monic()
    return math.prod((factor for factor, _ in squarefree_decomposition(a)),
                     start=UniPoly(a.field, [1], a.var))


def squarefree_decomposition(a: UniPoly):
    """Returns [(factor_i, i)] with a = lc * prod factor_i^i, factors monic,
    squarefree, pairwise coprime. Raises InseparableCase in characteristic p
    when a multiplicity >= p (or a p-th power part) appears."""
    if a.is_zero():
        raise ExactAlgError("squarefree decomposition of zero")
    a = a.monic()
    if a.degree() == 0:
        return []
    p = a.field.char
    da = a.derivative()
    if p == 0:
        # Yun's algorithm
        g = poly_gcd(a, da)
        out = []
        c = a.exact_div(g)
        d = da.exact_div(g) - c.derivative()
        i = 1
        while c.degree() > 0:
            f = poly_gcd(c, d)
            if f.degree() > 0:
                out.append((f, i))
            c = c.exact_div(f)
            d = d.exact_div(f) - c.derivative()
            i += 1
        return out
    if da.is_zero():
        raise InseparableCase(str(a))
    g = poly_gcd(a, da)
    w = a.exact_div(g)
    out = []
    i = 1
    while w.degree() > 0:
        if i >= p:
            raise InseparableCase(f"multiplicity >= characteristic in {a}")
        y = poly_gcd(w, g)
        z = w.exact_div(y)
        if z.degree() > 0:
            out.append((z, i))
        i += 1
        w = y
        g = g.exact_div(y)
    if g.degree() > 0:
        raise InseparableCase(f"p-th power part {g}")
    return out


def square_split(a: UniPoly):
    """(sq, red) with a = sq^2 * red, sq monic and red = lc(a) times a
    squarefree monic polynomial."""
    sq = UniPoly(a.field, [1], a.var)
    red = UniPoly(a.field, [a.lead()], a.var)
    for factor, m in squarefree_decomposition(a):
        sq = sq * factor ** (m // 2)
        if m % 2:
            red = red * factor
    return sq, red


def _roots_mod_p(a: list, p: int) -> list:
    """Distinct roots in [0, p) of the residue list a, unordered: the linear
    part gcd(a, t^p - t), split by Cantor-Zassenhaus equal-degree splitting
    with a fixed seed (von zur Gathen-Gerhard, Modern Computer Algebra,
    14.3)."""
    a = _zp_monic(a, p)
    if len(a) < 2:
        return []
    t_p = _zp_powmod([0, 1], p, a, p)
    stack = [_zp_gcd(a, _zp_minus_power(t_p, 1, p), p)]
    rng = random.Random(0xD1CE)
    roots = []
    while stack:
        h = stack.pop()
        if len(h) == 2:
            roots.append(-h[0] % p)
        elif len(h) > 2:
            w = _zp_powmod([rng.randrange(p), 1], (p - 1) // 2, h, p)
            g = _zp_gcd(h, _zp_minus_power(w, 0, p), p)
            if 1 < len(g) < len(h):
                stack += [g, _zp_divmod(h, g, p)[0]]
            else:
                stack.append(h)
    return roots


def rational_roots(a: UniPoly) -> list:
    """All roots of a in its coefficient field, each once. GF(p): ascending.
    QQ: the roots mod the first prime p >= 7 that keeps the primitive
    squarefree part f squarefree of the same degree, Newton-lifted past
    2(|lc| + max|a_i|) >= 2|lc * r| and confirmed exactly; sorted by
    (denominator, value). No integer is factored."""
    if a.is_zero():
        raise ExactAlgError("rational_roots of zero polynomial")
    field = a.field
    if isinstance(field, PrimeField):
        return [field(r) for r in
                sorted(_roots_mod_p([c.rep for c in a.coeffs], field.p))]
    if not isinstance(field, RationalField):
        raise UnsupportedField(f"rational_roots over {field}")
    ints = _qq_poly_to_int_list(squarefree_part(a))
    if len(ints) < 2:
        return []
    lc, bound = ints[-1], 2 * (abs(ints[-1]) + max(map(abs, ints)))
    dints = [i * c for i, c in enumerate(ints)][1:]
    p = 7
    while True:
        if lc % p and _is_probable_prime(p):
            fp = _zp(ints, p)
            if len(_zp_gcd(fp, _zp(dints, p), p)) == 1:
                break
        p += 2

    def at(cs, x, m):   # reduced at each step: faster than _horner here
        acc = 0
        for c in reversed(cs):
            acc = (acc * x + c) % m
        return acc

    roots = []
    for r in _roots_mod_p(fp, p):
        m = p
        while m <= bound:
            m *= m
            r = (r - at(ints, r, m) * pow(at(dints, r, m), -1, m)) % m
        u = lc * r % m
        cand = field(Fraction(u - m if 2 * u > m else u, lc))
        if not a(cand):
            roots.append(cand)
    return sorted(roots, key=lambda r: (r.rep.denominator, r.rep))


# ---------------------------------------------------------------------------
# binary forms in (z, w)
# ---------------------------------------------------------------------------

class BinaryForm:
    """Homogeneous form sum_i e_i z^i w^(d-i); stores exactly d+1 coefficients."""

    __slots__ = ("field", "d", "coeffs")

    def __init__(self, field: Field, degree: int, coeffs):
        cs = [field(c) for c in coeffs]
        if len(cs) != degree + 1:
            raise ExactAlgError(f"degree-{degree} form needs {degree + 1} coefficients")
        self.field = field
        self.d = degree
        self.coeffs = tuple(cs)

    @classmethod
    def _of(cls, field: Field, d: int, reps: list) -> "BinaryForm":
        """The degree-d form with these d+1 canonical representatives of
        field as coefficients; no coercion."""
        out = object.__new__(cls)
        out.field, out.d = field, d
        out.coeffs = tuple([FieldElement(field, r) for r in reps])
        return out

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __add__(self, other):
        if other.d != self.d or other.field != self.field:
            raise ExactAlgError("form mismatch")
        K = self.field
        return BinaryForm._of(K, self.d, [K._add(x.rep, y.rep) for x, y
                                          in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        K = self.field
        return BinaryForm._of(K, self.d, [K._neg(c.rep) for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        K = self.field
        if not isinstance(other, BinaryForm):
            k = K(other).rep
            return BinaryForm._of(K, self.d,
                                  [K._mul(c.rep, k) for c in self.coeffs])
        if other.field != K:
            raise ExactAlgError("form mismatch")
        (A, da), (B, db) = K._to_ints(self.coeffs), K._to_ints(other.coeffs)
        return BinaryForm._of(K, self.d + other.d,
                              K._from_ints(_int_mul(A, B), da * db))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return _power(self, n, BinaryForm._of(self.field, 0,
                                              [self.field.one.rep]))

    def __call__(self, z0, w0) -> FieldElement:
        K, N, D = _value(self.field, self.coeffs, z0, w0)
        return FieldElement(K, K._from_ints([N], D)[0])

    def value_pair(self, z0, w0) -> tuple:
        """The value at (z0 : w0) as the unreduced pair (N, D) of _value:
        integers with D > 0 and no gcd over QQ."""
        return _value(self.field, self.coeffs, z0, w0)[1:]

    def chart_w(self, var: str = "t") -> UniPoly:
        """Dehomogenize at w=1: coefficient of t^i is e_i."""
        return UniPoly._of(self.field, [c.rep for c in self.coeffs], var)

    def chart_z(self, var: str = "u") -> UniPoly:
        """Dehomogenize at z=1: coefficient of u^j is e_(d-j)."""
        return UniPoly._of(self.field, [c.rep for c in reversed(self.coeffs)],
                           var)

    def __eq__(self, other):
        if isinstance(other, BinaryForm):
            return (self.field == other.field and self.d == other.d
                    and self.coeffs == other.coeffs)
        return NotImplemented

    def __hash__(self):
        return hash((self.d, self.coeffs))

    def __repr__(self):
        return " + ".join(f"({c})*z^{i}w^{self.d - i}"
                          for i, c in enumerate(self.coeffs) if c) or "0"


def pgl2_act(M, form: BinaryForm) -> BinaryForm:
    """form(M . (z,w)^T): substitutes z -> M00 z + M01 w, w -> M10 z + M11 w.
    Satisfies act(M1, act(M2, f)) = act(M2*M1, f)."""
    K, d = form.field, form.d
    m = [K(e) for row in M for e in row]
    if not m[0] * m[3] - m[1] * m[2]:
        raise SingularMatrix(str(M))
    (m00, m01, m10, m11), den = K._to_ints(m)
    # the i-th powers of the two linear forms, over den^i
    zpow, wpow = [[1]], [[1]]
    for _ in range(d):
        zpow.append(_int_mul(zpow[-1], [m01, m00]))
        wpow.append(_int_mul(wpow[-1], [m11, m10]))
    C, dc = K._to_ints(form.coeffs)
    out = [0] * (d + 1)
    for i, c in enumerate(C):
        if c:
            for j, y in enumerate(_int_mul(zpow[i], wpow[d - i])):
                out[j] += c * y
    return BinaryForm._of(K, d, K._from_ints(out, dc * den ** d))


# ---------------------------------------------------------------------------
# bivariate polynomials in (p, q)
# ---------------------------------------------------------------------------

class BiPoly:
    """Sparse polynomial in k[p, q]; keys are (deg_p, deg_q)."""

    __slots__ = ("field", "terms")

    def __init__(self, field: Field, terms: dict):
        self.field = field
        terms = ((k, field(v)) for k, v in terms.items())
        self.terms = {k: v for k, v in terms if v}

    @classmethod
    def zero(cls, field):
        return cls(field, {})

    @classmethod
    def const(cls, c: FieldElement):
        return cls(c.field, {(0, 0): c})

    @classmethod
    def var_p(cls, field):
        return cls(field, {(1, 0): field.one})

    @classmethod
    def var_q(cls, field):
        return cls(field, {(0, 1): field.one})

    def is_zero(self) -> bool:
        return not self.terms

    def deg_p(self) -> int:
        return max((i for i, _ in self.terms), default=-1)

    def deg_q(self) -> int:
        return max((j for _, j in self.terms), default=-1)

    def _ints(self):
        """The coefficients as the field's (ints, den), in term order."""
        return self.field._to_ints(self.terms.values())

    @classmethod
    def _of(cls, field: Field, terms: dict) -> "BiPoly":
        """The polynomial with monomial -> canonical representative; zeros
        dropped, no coercion."""
        out = object.__new__(cls)
        out.field = field
        out.terms = {k: FieldElement(field, r) for k, r in terms.items()
                     if not field._is_zero(r)}
        return out

    @classmethod
    def _of_ints(cls, field: Field, terms: dict, den) -> "BiPoly":
        """The polynomial with monomial -> field ints over den."""
        return cls._of(field, dict(zip(terms, field._from_ints(
            terms.values(), den))))

    def _plus(self, other, sign: int):
        K = self.field
        o = self._same(other)
        out = {k: c.rep for k, c in self.terms.items()}
        for k, c in o.terms.items():
            y = c.rep if sign > 0 else K._neg(c.rep)
            out[k] = K._add(out[k], y) if k in out else y
        return BiPoly._of(K, out)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        K = self.field
        return BiPoly._of(K, {k: K._neg(c.rep) for k, c in self.terms.items()})

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return self._same(other) - self

    def _same(self, other):
        if isinstance(other, BiPoly):
            if other.field != self.field:
                raise ExactAlgError("field mismatch")
            return other
        return BiPoly.const(self.field(other))

    def __mul__(self, other):
        K = self.field
        if isinstance(other, (FieldElement, int)):
            k = K(other).rep
            return BiPoly._of(K, {m: K._mul(c.rep, k)
                                  for m, c in self.terms.items()})
        o = self._same(other)
        (A, da), (B, db) = self._ints(), o._ints()
        out = {}
        for (i1, j1), x in zip(self.terms, A):
            for (i2, j2), y in zip(o.terms, B):
                key = (i1 + i2, j1 + j2)
                out[key] = out[key] + x * y if key in out else x * y
        return BiPoly._of_ints(K, out, da * db)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return _power(self, n, BiPoly.const(self.field.one))

    def __call__(self, pv, qv) -> FieldElement:
        # each q-row at (p : 1), then the column of values at (q : 1)
        K = pv.field if isinstance(pv, FieldElement) else self.field
        ap, bp, cp = K._point(K(pv), K.one)
        aq, bq, cq = K._point(K(qv), K.one)
        rows, den = _q_rows(self, K)
        N = _horner([_horner(r, ap, bp) for r in rows], aq, bq)
        D = den * cp ** max(self.deg_p(), 0) * cq ** max(len(rows) - 1, 0)
        return FieldElement(K, K._from_ints([N], D)[0])

    def coeffs_in_q(self, var: str = "p") -> list:
        """List of UniPoly in p; entry j is the coefficient of q^j."""
        n = self.deg_q()
        if n < 0:
            return []
        rows = [[self.field.zero] * (self.deg_p() + 1) for _ in range(n + 1)]
        for (i, j), c in self.terms.items():
            rows[j][i] = c
        return [UniPoly(self.field, row, var) for row in rows]

    @classmethod
    def from_coeffs_in_q(cls, coeffs) -> "BiPoly":
        terms = {}
        field = coeffs[0].field
        for j, poly in enumerate(coeffs):
            for i, c in enumerate(poly.coeffs):
                if c:
                    terms[(i, j)] = c
        return cls(field, terms)

    def d_p(self) -> "BiPoly":
        A, den = self._ints()
        return BiPoly._of_ints(self.field, {(i - 1, j): i * x for (i, j), x
                                            in zip(self.terms, A) if i}, den)

    def d_q(self) -> "BiPoly":
        A, den = self._ints()
        return BiPoly._of_ints(self.field, {(i, j - 1): j * x for (i, j), x
                                            in zip(self.terms, A) if j}, den)

    def __eq__(self, other):
        if isinstance(other, BiPoly):
            return self.field == other.field and self.terms == other.terms
        return NotImplemented

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for (i, j) in sorted(self.terms, key=lambda m: (-m[1], -m[0])):
            c = self.terms[(i, j)]
            mono = ("" if i == 0 else f"p^{i}" if i > 1 else "p") + \
                   ("" if j == 0 else f"q^{j}" if j > 1 else "q")
            parts.append(f"({c}){'*' + mono if mono else ''}")
        return " + ".join(parts)

    def proportional_to(self, other: "BiPoly") -> bool:
        """True when self = scalar * other for some nonzero scalar."""
        if self.is_zero() or other.is_zero():
            return self.is_zero() and other.is_zero()
        if set(self.terms) != set(other.terms):
            return False
        key = next(iter(self.terms))
        ratio = self.terms[key] / other.terms[key]
        return all(self.terms[k] == ratio * other.terms[k] for k in self.terms)


def resultant_q(a: BiPoly, b: BiPoly, var: str = "p") -> UniPoly:
    """Res_q(a, b) as a UniPoly in p over QQ or GF(p): the Sylvester
    determinant by fraction-free Bareiss elimination (Bareiss 1968) on
    coefficient lists in p. Over GF(p) the entries are residue lists; over
    QQ, a = A / da and b = B / db with A and B in Z[p][q], the determinant
    is taken in Z[p] and divided by da^n db^m once at the end (m = deg_q a,
    n = deg_q b). Every division by the previous pivot is exact."""
    K = a.field
    if not isinstance(K, (RationalField, PrimeField)):
        raise UnsupportedField(f"resultant over {K}")
    if a.deg_q() < 0 or b.deg_q() < 0:
        raise ExactAlgError("resultant of zero polynomial")
    (ca, da), (cb, db) = _q_rows(a, K), _q_rows(b, K)
    ca, cb = [_strip(r) for r in ca[::-1]], [_strip(r) for r in cb[::-1]]
    m, n = len(ca) - 1, len(cb) - 1
    size = m + n
    rows = ([[[]] * i + ca + [[]] * (n - 1 - i) for i in range(n)]
            + [[[]] * i + cb + [[]] * (m - 1 - i) for i in range(m)])

    def exact_div(x, d):
        q, r, den = _pdivmod(K, x, 1, d, 1)
        assert den == 1 and not any(r)
        return _zp(q, K.p) if K.char else _strip(q)
    sign, prev = 1, [1]
    for k in range(size - 1):
        if not rows[k][k]:
            i = next((i for i in range(k + 1, size) if rows[i][k]), None)
            if i is None:
                return UniPoly._of(K, [], var)
            rows[k], rows[i] = rows[i], rows[k]
            sign = -sign
        piv, pivot_row = rows[k][k], rows[k]
        for row in rows[k + 1:]:
            lead, row[k] = row[k], []
            for j in range(k + 1, size):
                x = [u - v for u, v in zip_longest(
                    _int_mul(row[j], piv), _int_mul(lead, pivot_row[j]),
                    fillvalue=0)]
                row[j] = exact_div(x, prev)
        prev = piv
    det = rows[-1][-1] if size else [1]
    return UniPoly._of(K, K._from_ints([sign * c for c in det],
                                       da ** n * db ** m), var)


def _q_rows(a: BiPoly, K: Field) -> tuple:
    """(rows, den): a = sum_j rows[j] q^j / den, each row the coefficient of
    q^j as K's ints of its coefficients in p, deg_p a + 1 of them (_lift:
    K is a's field or an extension of it)."""
    ints, den = _lift(K, a.field, a.terms.values())
    rows = [[0] * (a.deg_p() + 1) for _ in range(a.deg_q() + 1)]
    for (i, j), x in zip(a.terms, ints):
        rows[j][i] = x
    return rows, den


# ---------------------------------------------------------------------------
# budget guard
# ---------------------------------------------------------------------------

def check_budget(el: FieldElement, budget: int = DEFAULT_BIT_BUDGET):
    if el.bit_size() > budget:
        raise OverHeightBudget(f"coordinate exceeds {budget} bits")
    return el
