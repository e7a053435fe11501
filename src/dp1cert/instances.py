"""Named instance constructors for the scripted scenarios exposed through
the `example` CLI subcommand and reused as regression fixtures.

Each constructor returns (surface, Q) with Q already normalized over the
fiber at (0:1); some also return extra data (e.g. a known section).
"""

from __future__ import annotations

from .exactalg import Field, PrimeField, QQ
from .dp1 import Dp1Surface, SectionCurve, WeightedPoint, is_smooth
from .weier import order5_family


def _surface(field: Field, f, g) -> Dp1Surface:
    return Dp1Surface.from_coeff_lists(field, f, g)


def order5_section_instance():
    """Over GF(11): an isotrivial-in-f surface whose fiber at (0:1) carries a
    point of order 5, with delta chosen so a section through Q lies in S.
    (beta, eps, alpha, delta) = (2, 1, 4, 4) with alpha^2 = alpha + 1."""
    K = PrimeField(11)
    beta = K(2)
    x0, y0, f0, g0 = order5_family(K, beta, 1)
    delta = K(4)
    S = _surface(K, [f0, 0, 0, 0, 0], [g0, 0, 0, 0, 0, delta, 0])
    Q = WeightedPoint(x0, y0, K.zero, K.one)
    # the exhibited section: eps = 1, alpha = 4
    section = SectionCurve(x0=x0, y0=y0, a=K(7), b=K(6), c=K(10),
                           p=K(2), q=K(1))
    return S, Q, section


def char5_constant_sigma_instance():
    """Over GF(5): f = alpha z^4, g = beta z^6 + (3 alpha + 1) z^5 w + z w^5,
    Q = (1:1:0:1); first (alpha, beta) making the surface smooth with the
    section curve an irreducible double cover of the p-line."""
    from .cq5 import build, components

    K = PrimeField(5)
    for a in range(5):
        for b in range(5):
            alpha, beta = K(a), K(b)
            try:
                S = _surface(K, [0, 0, 0, 0, alpha],
                             [0, 1, 0, 0, 0, 3 * alpha + 1, beta])
            except Exception:
                continue
            Q = WeightedPoint(K.one, K.one, K.zero, K.one)
            if not (is_smooth(S) and S.contains(Q)):
                continue
            comps = components(build(S, Q))
            if len(comps) == 1 and comps[0].shape == "quadratic_cover":
                return S, Q, alpha
    raise RuntimeError("no smooth instance found")


def order3_split_instance(beta=1, a1=2, a2=1, a3=1, field=QQ):
    """Q = (3 : beta : 0 : 1) of order 3; the section curve splits as a pair
    of conics (one vertical over each root of p^2 = beta*a1)."""
    K = field
    beta, a1, a2, a3 = K(beta), K(a1), K(a2), K(a3)
    f0 = 6 * beta - 27
    g0 = beta ** 2 - 18 * beta + 54
    f = [f0, 0, (18 - 3 * beta) * a1, 3 * a2, -3 * a1 ** 2]
    g = [g0, 0, (15 * beta - 54) * a1, (beta - 9) * a2,
         (18 - 6 * beta) * a1 ** 2, 3 * a1 * a2, a3]
    S = _surface(K, f, g)
    Q = WeightedPoint(K(3), beta, K.zero, K.one)
    return S, Q


def order3_nonreduced_instance(beta=1, eps=1, delta=1, field=QQ):
    """The a1 = 0 degeneration of the split instance: section curve
    p^2 (beta q - p^2) = 0, all components contracted by sigma."""
    K = field
    beta, eps, delta = K(beta), K(eps), K(delta)
    f0 = 6 * beta - 27
    g0 = beta ** 2 - 18 * beta + 54
    S = _surface(K, [f0, 0, 0, 3 * eps, 0],
                 [g0, 0, 0, (beta - 9) * eps, 0, 0, delta])
    Q = WeightedPoint(K(3), beta, K.zero, K.one)
    return S, Q


def order3_vertex_instance(beta=5, alpha=2, delta=3, eps=1, field=QQ):
    """Q = (0 : beta : 0 : 1) of order 3 on g = eps z^6 + delta z^3 w^3
    + beta^2 w^6 with f = alpha z^2 w^2: section curve (3p^2 + alpha) q = 0."""
    K = field
    beta, alpha, delta, eps = K(beta), K(alpha), K(delta), K(eps)
    S = _surface(K, [0, 0, alpha, 0, 0],
                 [beta ** 2, 0, 0, delta, 0, 0, eps])
    Q = WeightedPoint(K.zero, beta, K.zero, K.one)
    return S, Q


def order3_isotrivial_instance(beta=5, delta=3, eps=1, field=QQ):
    """The f = 0 degeneration of the vertex instance: section curve p^2 q = 0,
    sigma constant, isotrivial fibration."""
    K = field
    beta, delta, eps = K(beta), K(delta), K(eps)
    S = _surface(K, [0] * 5, [beta ** 2, 0, 0, delta, 0, 0, eps])
    Q = WeightedPoint(K.zero, beta, K.zero, K.one)
    return S, Q


def nine_curves_instance():
    """f = 0, g = 243 z^6 + 16 w^6 with Q = (0:4:0:1): Q has order 3 and lies
    on nine (-1)-curves, so the order-3/5 hypothesis fails."""
    S = _surface(QQ, [0] * 5, [16, 0, 0, 0, 0, 0, 243])
    Q = WeightedPoint(QQ(0), QQ(4), QQ(0), QQ(1))
    return S, Q


def nodal_fixture():
    """Nodal fiber at (0:1) with d = 1 and Q = (2:2:0:1) on it."""
    S = _surface(QQ, [-3, 0, 0, 0, 0], [2, 1, 0, 0, 0, 0, 1])
    Q = WeightedPoint(QQ(2), QQ(2), QQ(0), QQ(1))
    return S, Q
