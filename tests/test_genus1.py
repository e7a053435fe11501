import dataclasses
import random
from fractions import Fraction

import pytest

from dp1cert.exactalg import (
    QQ, ExactAlgError, OverHeightBudget, UniPoly, sqrt,
)
from dp1cert.dp1 import Dp1Surface, WeightedPoint
from dp1cert.weier import CurvePoint, mul, non_torsion_certificate, order_class
from dp1cert import instances
from dp1cert.cq5 import build, omega_points, sigma, sigma_at_omega
from dp1cert.genus1 import (
    InfinitudeCertificate, OrderThree, QuarticModel, QuarticPoint,
    SingularQuartic, complete_square, generate_points, infinitude_certificate,
    infinity_branches, search_points, to_weierstrass,
)

from test_cq5 import build_random, random_normalized_pair


def poly(coeffs):
    return UniPoly(QQ, coeffs, "p")


# ---------------------------------------------------------------------------
# complete_square
# ---------------------------------------------------------------------------

def test_complete_square_roundtrip_and_lead():
    rng = random.Random(61)
    done = 0
    while done < 10:
        data = build_random(rng)
        c1 = data.c[0]
        if not c1:
            with pytest.raises(OrderThree):
                complete_square(data)
            continue
        model = complete_square(data)
        c2, c5 = data.c[1], data.c[4]
        assert model.D.coeff(4) == c2 ** 2 + 4 * c1 * c5
        # (p, q) -> v -> q round trip on scanned curve points
        coeffs = data.G.coeffs_in_q("p")
        for pv in range(-6, 7):
            pv = QQ(pv)
            disc = coeffs[1](pv) ** 2 - 4 * c1 * coeffs[0](pv)
            assert disc == model.D(pv)
            r = sqrt(disc)
            if r is None:
                continue
            qv = (-coeffs[1](pv) + r) / (2 * c1)
            v = model.v_from_q(pv, qv)
            assert v * v == model.D(pv)
            assert model.q_from_v(pv, v) == qv
        done += 1


# ---------------------------------------------------------------------------
# search_points
# ---------------------------------------------------------------------------

def test_search_points_simple_quartics():
    model = QuarticModel.from_poly(poly([1, 0, 0, 0, 1]))   # v^2 = p^4 + 1
    pts = search_points(model, 1)
    affine = {(pt.p, pt.v) for pt in pts if pt.kind == "affine"}
    assert affine == {(QQ(0), QQ(1)), (QQ(0), QQ(-1))}
    # leading coefficient 1 is a square: two rational branches at infinity
    assert sum(1 for pt in pts if pt.kind == "at_infinity") == 2

    empty = QuarticModel.from_poly(poly([-1, 0, 0, 0, -1]))
    assert search_points(empty, 5) == []


def test_search_points_fractional():
    # v^2 = (p^2 - 1/4)^2 vanishes at p = 1/2
    model = QuarticModel.from_poly(poly([Fraction(1, 16), 0,
                                         Fraction(-1, 2), 0, 1]))
    pts = search_points(model, 2)
    ps = {pt.p.rep for pt in pts if pt.kind == "affine"}
    assert Fraction(1, 2) in ps


# ---------------------------------------------------------------------------
# to_weierstrass
# ---------------------------------------------------------------------------

def test_to_weierstrass_two_torsion_image():
    model = QuarticModel.from_poly(poly([1, 0, 0, 0, 1]))
    base = QuarticPoint("affine", p=QQ(0), v=QQ(1))
    maps = to_weierstrass(model, base)
    assert maps.forward(base).is_identity
    other = QuarticPoint("affine", p=QQ(0), v=QQ(-1))
    img = maps.forward(other)
    assert not img.is_identity
    assert mul(maps.E, 2, img).is_identity
    back = maps.backward(img)
    assert (back.p, back.v) == (other.p, other.v)


def _roundtrip(maps, pt):
    P = maps.forward(pt)
    back = maps.backward(P)
    if pt.kind == "affine":
        assert back.kind == "affine" and (back.p, back.v) == (pt.p, pt.v)
    else:
        assert back.kind == "at_infinity" and back.branch == pt.branch


def test_to_weierstrass_roundtrips_random():
    rng = random.Random(71)
    done = 0
    while done < 6:
        # plant a base point: constant term q^2
        q = QQ(rng.randint(1, 4))
        coeffs = [q * q] + [QQ(rng.randint(-4, 4)) for _ in range(4)]
        D = poly([c.rep for c in coeffs])
        model = QuarticModel.from_poly(D)
        if D.degree() not in (3, 4):
            continue
        try:
            maps = to_weierstrass(model, QuarticPoint("affine", p=QQ(0), v=q))
        except SingularQuartic:
            continue
        # round-trip the planted points and the branches
        for pt in [QuarticPoint("affine", p=QQ(0), v=q),
                   QuarticPoint("affine", p=QQ(0), v=-q)]:
            _roundtrip(maps, pt)
        for a in infinity_branches(model):
            _roundtrip(maps, QuarticPoint("at_infinity", branch=a))
        # forward/backward inverse on cubic points: multiples of an image
        seed_pt = maps.forward(QuarticPoint("affine", p=QQ(0), v=-q))
        for m in range(1, 8):
            P = mul(maps.E, m, seed_pt)
            back = maps.backward(P)
            assert maps.forward(back) == P
        done += 1


def test_to_weierstrass_rejects_singular():
    model = QuarticModel.from_poly(poly([0, 0, 1, 0, 1]))  # p^2 (p^2 + 1)
    with pytest.raises(SingularQuartic):
        to_weierstrass(model, QuarticPoint("affine", p=QQ(0), v=QQ(0)))


def test_to_weierstrass_infinity_base():
    # v^2 = p^4 + 3 p + 1: squarefree, leading coefficient 1
    model = QuarticModel.from_poly(poly([1, 3, 0, 0, 1]))
    branches = infinity_branches(model)
    assert len(branches) == 2
    base = QuarticPoint("at_infinity", branch=branches[0])
    maps = to_weierstrass(model, base)
    assert maps.forward(base).is_identity
    _roundtrip(maps, QuarticPoint("at_infinity", branch=branches[1]))
    for pt in [QuarticPoint("affine", p=QQ(0), v=QQ(1)),
               QuarticPoint("affine", p=QQ(0), v=QQ(-1))]:
        _roundtrip(maps, pt)
        # consistency of the group transport
        P = maps.forward(pt)
        assert maps.E.on_curve(P)


# ---------------------------------------------------------------------------
# the nodal-fiber instance end-to-end
# ---------------------------------------------------------------------------

def nodal_data():
    S, Q = instances.nodal_fixture()
    return build(S, Q)


def test_nodal_instance_infinity_points_rational():
    data = nodal_data()
    model = complete_square(data)
    branches = infinity_branches(model)
    assert len(branches) == 2
    alphas = {w.alpha for w in omega_points(data) if w.kind == "alpha"}
    assert set(branches) == alphas


def test_nodal_instance_nontorsion_class():
    data = nodal_data()
    model = complete_square(data)
    branches = infinity_branches(model)
    base = QuarticPoint("at_infinity", branch=branches[0])
    other = QuarticPoint("at_infinity", branch=branches[1])
    maps = to_weierstrass(model, base)
    img = maps.forward(other)
    verdict = non_torsion_certificate(maps.E, img)
    assert not verdict.is_torsion


def test_nodal_instance_certificate_and_generation():
    data = nodal_data()
    cert = infinitude_certificate(data, height=8)
    assert cert.kind == "non_torsion_class"
    pts = generate_points(data, cert, 5)
    assert len(pts) == 5 and len(set(pts)) == 5
    for (p, q) in pts:
        assert not data.G(p, q)
        # each maps to a surface point (or a (-1)-curve, not expected here)
        R = sigma(data, p, q)
        assert data.surface.contains(R)


def test_sigma_at_infinity_matches_limits():
    # sigma of back-images near infinity converges to sigma_at_omega; check
    # instead that each branch is an omega point with the documented image
    data = nodal_data()
    for w in omega_points(data):
        img = sigma_at_omega(data, w)
        E = data.fiber_curve()
        Q = data.base_curve_point()
        assert img in (mul(E, -4, Q), mul(E, -5, Q))


# ---------------------------------------------------------------------------
# infinitude certificates
# ---------------------------------------------------------------------------

def test_certificate_rational_component_order3():
    S, Q = instances.order3_vertex_instance()
    data = build(S, Q)
    cert = infinitude_certificate(data)
    assert cert.kind == "rational_component"
    pts = generate_points(data, cert, 10)
    assert len(pts) == 10 and len({p for p, _ in pts}) == 10
    for (p, q) in pts:
        assert not data.G(p, q)


def test_certificate_inconclusive():
    rng = random.Random(83)
    found = 0
    while found < 1:
        data = build_random(rng)
        if not data.c[0]:
            continue
        cert = infinitude_certificate(data, height=2)
        if cert.kind == "inconclusive":
            with pytest.raises(Exception):
                generate_points(data, cert, 1)
            found += 1


def test_generate_points_checks_the_budget_before_the_curve():
    """An over-budget point costs no section-curve evaluation; an in-budget
    point off the curve still raises."""
    data = nodal_data()
    cert = infinitude_certificate(data, height=8)
    calls = []

    def shifted_G(p, q):        # G + 1: no generated point lies on it
        calls.append((p, q))
        return data.G(p, q) + 1
    off = dataclasses.replace(data, G=shifted_G)
    with pytest.raises(OverHeightBudget):
        generate_points(off, cert, 5, budget=0)
    assert calls == []
    with pytest.raises(ExactAlgError, match="off the section curve"):
        generate_points(off, cert, 5)
    assert len(calls) == 1


def test_generate_points_empty():
    data = nodal_data()
    cert = infinitude_certificate(data, height=8)
    assert generate_points(data, cert, 0) == []
