import random
from fractions import Fraction

import pytest

from dp1cert.exactalg import QQ, BiPoly, PrimeField, UniPoly, rational_roots
from dp1cert.dp1 import (
    Dp1Surface, SectionCurve, WeightedPoint, involution, is_smooth,
    move_to_zero, section_surface_form,
)
from dp1cert.weier import (
    CurvePoint, WeierCurve, mul, order5_family, order_class,
)
from dp1cert import instances
from dp1cert.cq5 import (
    BothVanish, CQ5Data, ImageClass, MinusOneCurve, OmegaPoint,
    TwoTorsionPoint, build, components,
    minus_one_rational_points, minus_one_scheme, nodal_alpha_values,
    nodal_limit_image, omega_points, section_f_coefficients, sigma,
    sigma_at_omega, vertical_test,
)


def random_normalized_pair(rng, field=QQ, span=3):
    """Random smooth-ish (S, Q) with Q = (x0:y0:0:1) on S; g0 adjusted so Q
    lies on the surface. Returns None when degenerate."""
    K = field
    x0 = K(rng.randint(-span, span))
    y0 = K(rng.randint(1, span))
    f = [K(rng.randint(-span, span)) for _ in range(5)]
    g = [K(rng.randint(-span, span)) for _ in range(7)]
    g[0] = y0 ** 2 - x0 ** 3 - f[0] * x0
    try:
        S = Dp1Surface.from_coeff_lists(K, f, g)
    except Exception:
        return None
    Q = WeightedPoint(x0, y0, K.zero, K.one)
    return S, Q


def build_random(rng, field=QQ):
    while True:
        pair = random_normalized_pair(rng, field)
        if pair is None:
            continue
        S, Q = pair
        try:
            return build(S, Q)
        except Exception:
            continue


# ---------------------------------------------------------------------------
# construction invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("K", [QQ, PrimeField(1009)], ids=["QQ", "GF1009"])
def test_build_matches_section_substitution(K):
    # at random (p, q) and at the points of G = 0 over p in -8..8: the lift
    # kills F0..F3 of the section, F4..F6 are the section's coefficients
    # and phi2^3 F4 = G, all read off the section-surface form; the order-3
    # instances have G linear in q, so many points on G = 0 over QQ
    rng = random.Random(17)
    datas = [build_random(rng, K) for _ in range(12)] + [
        build(*inst(field=K)) for inst in (instances.order3_split_instance,
                                           instances.order3_vertex_instance)]
    on = off = 0
    for data in datas:
        pts = [(K(rng.randint(-9, 9)), K(rng.randint(-9, 9)))
               for _ in range(3)]
        rows = data.G.coeffs_in_q("p")
        for pv in map(K, range(-8, 9)):
            at_p = UniPoly(K, [r(pv) for r in rows], "q")
            if at_p.degree() > 0:
                pts += [(pv, qv) for qv in rational_roots(at_p)]
        for pv, qv in pts:
            F = section_f_coefficients(data.surface, data.section(pv, qv))
            assert not any(F[:4])
            assert F[4:] == [data.F4(pv, qv), data.F5(pv, qv),
                             data.F6(pv, qv)]
            G = data.G(pv, qv)
            assert data.phis.phi2 ** 3 * F[4] == G
            on, off = on + (not G), off + bool(G)
    assert on >= 20 and off >= 40


def test_build_invariants_random():
    rng = random.Random(23)
    for _ in range(15):
        data = build_random(rng)
        # the closed forms are proven in test_closed_forms.py; check the
        # completed-square leading-coefficient identity
        v = data.phis
        c1, c2, c5 = data.c[0], data.c[1], data.c[4]
        assert c2 ** 2 + 4 * c1 * c5 == v.phi2 ** 2 * (v.phi4 ** 2 - 4 * v.phi6)
        assert data.phis.phi2 == 4 * data.y0 ** 2
        # c1 = 0 iff Q has order 3
        order = order_class(data.fiber_curve(), data.base_curve_point()) \
            if data.fiber_curve().kind == "smooth" else None
        if data.fiber_curve().kind == "smooth":
            assert (not c1) == (order == 3)


def test_build_rejects_two_torsion():
    S = Dp1Surface.from_coeff_lists(QQ, [-1, 0, 0, 0, 1],
                                    [0, 1, 0, 0, 0, 0, 1])
    Q = WeightedPoint(QQ(1), QQ(0), QQ(0), QQ(1))
    assert S.contains(Q)
    with pytest.raises(TwoTorsionPoint):
        build(S, Q)


def test_sigma_on_random_curve_points():
    # find (p, q) on G = 0 by solving the quadratic in q over QQ at scanned p
    rng = random.Random(31)
    from dp1cert.exactalg import sqrt
    checked = 0
    attempts = 0
    while checked < 5 and attempts < 200:
        attempts += 1
        data = build_random(rng)
        c1 = data.c[0]
        if not c1:
            continue
        coeffs = data.G.coeffs_in_q("p")
        for pv in range(-8, 9):
            pv = QQ(pv)
            disc = coeffs[1](pv) ** 2 - 4 * c1 * coeffs[0](pv)
            r = sqrt(disc)
            if r is None:
                continue
            qv = (-coeffs[1](pv) + r) / (2 * c1)
            assert not data.G(pv, qv)
            try:
                P = sigma(data, pv, qv)
            except MinusOneCurve:
                continue
            assert data.surface.contains(P)
            # fiber coordinate is (-F5 : F6)
            F5v, F6v = data.F5(pv, qv), data.F6(pv, qv)
            assert P.z * F6v == -F5v * P.w
            checked += 1
            break
    assert checked >= 5


# ---------------------------------------------------------------------------
# fixtures: order-3 vertex family  (G ~ (3p^2 + alpha) q, F5 = 3 p q^2)
# ---------------------------------------------------------------------------

def test_vertex_family_shape():
    S, Q = instances.order3_vertex_instance()
    data = build(S, Q)
    K = data.field
    P, Qv = BiPoly.var_p(K), BiPoly.var_q(K)
    expect_G = (3 * P ** 2 + BiPoly.const(K(2))) * Qv
    assert data.G.proportional_to(expect_G)
    assert data.F5 == 3 * P * Qv ** 2
    comps = components(data)
    shapes = sorted(c.shape for c in comps)
    assert shapes == ["graph", "vertical_line"]
    by_shape = {c.shape: c for c in comps}
    # the graph is q = 0: contracted to the fiber over (0:1)
    v = vertical_test(data, by_shape["graph"])
    assert v.kind == "vertical" and v.t == (K.zero, K.one)
    # the conic 3p^2 + alpha = 0 maps horizontally
    h = vertical_test(data, by_shape["vertical_line"])
    assert h.kind == "horizontal"


def test_vertex_family_minus_one_count():
    S, Q = instances.order3_vertex_instance()
    data = build(S, Q)
    scheme = minus_one_scheme(data)
    assert scheme.distinct_count >= 6


# ---------------------------------------------------------------------------
# fixtures: order-3 split family
# ---------------------------------------------------------------------------

def test_split_family_factorization():
    S, Q = instances.order3_split_instance(beta=1, a1=2, a2=1, a3=1)
    data = build(S, Q)
    K = data.field
    P, Qv = BiPoly.var_p(K), BiPoly.var_q(K)
    beta, a1 = K(1), K(2)
    expect = (P ** 2 - BiPoly.const(beta * a1)) * \
        (beta * Qv - P ** 2 + BiPoly.const(2 * beta * a1))
    assert data.G.proportional_to(expect)
    comps = components(data)
    by_shape = {c.shape: c for c in comps}
    assert set(by_shape) == {"graph", "vertical_line"}
    # vertical-line factor is p^2 - beta*a1 (monic)
    m = by_shape["vertical_line"].H.coeffs_in_q("p")[0]
    assert m == UniPoly(K, [-2, 0, 1], "p")


def test_nonreduced_family():
    S, Q = instances.order3_nonreduced_instance(beta=1, eps=1, delta=1)
    data = build(S, Q)
    K = data.field
    P, Qv = BiPoly.var_p(K), BiPoly.var_q(K)
    expect = P ** 2 * (K(1) * Qv - P ** 2)
    assert data.G.proportional_to(expect)
    comps = components(data)
    line = [c for c in comps if c.shape == "vertical_line"][0]
    assert line.multiplicity == 2 and line.non_reduced
    # every component is contracted by sigma (to the Q-fiber)
    for c in comps:
        v = vertical_test(data, c)
        assert v.kind == "vertical"
        assert v.t == (K.zero, K.one)


def test_isotrivial_family_sigma_constant():
    S, Q = instances.order3_isotrivial_instance()
    data = build(S, Q)
    K = data.field
    P, Qv = BiPoly.var_p(K), BiPoly.var_q(K)
    assert data.G.proportional_to(P ** 2 * Qv)
    comps = components(data)
    for c in comps:
        v = vertical_test(data, c)
        assert v.kind == "vertical" and v.t == (K.zero, K.one)
    # sigma lands at Q itself on sampled curve points
    for pv in [1, 2, 3]:
        # points with q = 0 lie on the curve
        img = sigma(data, K(pv), K.zero)
        assert (img.x, img.y, img.z, img.w) == (Q.x, Q.y, K.zero, K.one)


def test_isotrivial_family_minus_one_count():
    S, Q = instances.order3_isotrivial_instance()
    data = build(S, Q)
    assert minus_one_scheme(data).distinct_count == 9


# ---------------------------------------------------------------------------
# fixtures: characteristic 5
# ---------------------------------------------------------------------------

def test_char5_instance():
    S, Q, alpha = instances.char5_constant_sigma_instance()
    K = S.field
    data = build(S, Q)
    P, Qv = BiPoly.var_p(K), BiPoly.var_q(K)
    expect = (Qv ** 2 + (2 * P ** 2 - BiPoly.const(K.one)) * Qv
              + P ** 4 - P ** 2 + BiPoly.const(3 * alpha))
    assert data.G.proportional_to(expect)
    comps = components(data)
    assert len(comps) == 1
    v = vertical_test(data, comps[0])
    assert v.kind == "vertical" and v.t == (K.zero, K.one)


# ---------------------------------------------------------------------------
# fixtures: order-5 section instance over GF(11)
# ---------------------------------------------------------------------------

def test_order5_instance_section_and_f6():
    S, Q, section = instances.order5_section_instance()
    K = S.field
    assert section_surface_form(section, S).is_zero()
    data = build(S, Q)
    # the exhibited section corresponds to (p, q) = (2, 1) on the curve
    assert not data.G(section.p, section.q)
    assert data.section(section.p, section.q) == section
    with pytest.raises(MinusOneCurve):
        sigma(data, section.p, section.q)
    # F6 vanishes on every component
    for c in components(data):
        v = vertical_test(data, c)
        assert v.kind == "vertical" and v.t == (K.one, K.zero)
    assert minus_one_scheme(data).distinct_count >= 10


def test_vertical_image_after_involution():
    """The involution swaps the fibers (1:0) and (1:1), so every component
    that sigma contracts to (1:0) on S is contracted to (1:1) on its image.
    Over QQ the component's sample points lie in a quadratic extension."""
    x0, y0, f0, g0 = order5_family(QQ, QQ(2), 1)
    S = Dp1Surface.from_coeff_lists(QQ, [f0, 0, 0, 0, 0],
                                    [g0, 0, 0, 0, 0, 1, 0])
    Q = WeightedPoint(x0, y0, QQ.zero, QQ.one)
    S11, Q11, _ = instances.order5_section_instance()
    for surface, point in ((S, Q), (S11, Q11)):
        K = surface.field
        for image, t in ((surface, (K.one, K.zero)),
                         (involution(surface), (K.one, K.one))):
            data = build(image, point)
            comps = components(data)
            assert comps
            for c in comps:
                assert vertical_test(data, c) == ImageClass("vertical", t)


# ---------------------------------------------------------------------------
# fixtures: order-3 point on nine (-1)-curves
# ---------------------------------------------------------------------------

def test_nine_curves_count():
    S, Q = instances.nine_curves_instance()
    data = build(S, Q)
    assert order_class(data.fiber_curve(), data.base_curve_point()) == 3
    assert minus_one_scheme(data).distinct_count == 9


# ---------------------------------------------------------------------------
# minus-one scheme vs. brute force over GF(p)
# ---------------------------------------------------------------------------

def test_minus_one_rational_points_brute_oracle():
    rng = random.Random(41)
    for p in (5, 7, 11):
        K = PrimeField(p)
        done = 0
        while done < 3:
            pair = random_normalized_pair(rng, K, span=p - 1)
            if pair is None:
                continue
            S, Q = pair
            try:
                data = build(S, Q)
                pts = set(minus_one_rational_points(data))
            except Exception:
                continue
            brute = set()
            for a in range(p):
                for b in range(p):
                    pv, qv = K(a), K(b)
                    if not data.F4(pv, qv) and not data.F5(pv, qv) \
                            and not data.F6(pv, qv):
                        brute.add((pv, qv))
            assert pts == brute
            assert minus_one_scheme(data).distinct_count >= len(brute)
            done += 1


# ---------------------------------------------------------------------------
# limit points
# ---------------------------------------------------------------------------

def nodal_data():
    S, Q = instances.nodal_fixture()
    assert is_smooth(S)
    return build(S, Q)


def test_omega_nodal_alphas():
    data = nodal_data()
    assert data.fiber_curve().kind == "nodal"
    a1, a2 = nodal_alpha_values(data)
    assert a1 == QQ(Fraction(1, 16))
    # alpha2 = (x0 + 7d) / (4 (x0 + 2d)(x0 + 3d)) with d = 1, x0 = 2
    assert a2 == QQ(Fraction(9, 80))
    alphas = sorted((w.alpha.rep for w in omega_points(data)
                     if w.kind == "alpha"))
    assert alphas == [Fraction(1, 16), Fraction(9, 80)]


def test_sigma_at_omega_nodal():
    data = nodal_data()
    E = data.fiber_curve()
    Q = data.base_curve_point()
    w1 = OmegaPoint("alpha", alpha=QQ(Fraction(1, 16)))
    w2 = OmegaPoint("alpha", alpha=QQ(Fraction(9, 80)))
    img1 = sigma_at_omega(data, w1)
    assert img1 == CurvePoint(QQ(Fraction(3137, 3136)),
                              QQ(Fraction(-97, 175616)))
    assert img1 == mul(E, -4, Q)
    assert img1 == nodal_limit_image(QQ(1), QQ(2), QQ(2))
    assert sigma_at_omega(data, w2) == mul(E, -5, Q)


def test_sigma_at_omega_smooth_and_vertex():
    rng = random.Random(53)
    found = 0
    while found < 3:
        data = build_random(rng)
        if data.fiber_curve().kind != "smooth":
            continue
        ws = omega_points(data)
        for w in ws:
            if w.kind == "above_vertex":
                assert sigma_at_omega(data, w) == data.base_curve_point()
            else:
                assert sigma_at_omega(data, w) == \
                    mul(data.fiber_curve(), -5, data.base_curve_point())
        found += 1


def test_cuspidal_alpha():
    # cuspidal fiber: f0 = g0 = 0; alpha = 1/(4 x0) double
    S = Dp1Surface.from_coeff_lists(QQ, [0, 1, 0, 0, 0],
                                    [0, 0, 1, 0, 0, 0, 1])
    Q = WeightedPoint(QQ(1), QQ(1), QQ(0), QQ(1))
    assert S.contains(Q)
    data = build(S, Q)
    assert data.fiber_curve().kind == "cuspidal"
    ws = omega_points(data)
    assert len(ws) == 1 and ws[0].double
    assert ws[0].alpha == QQ(Fraction(1, 4))
    assert sigma_at_omega(data, ws[0]) == mul(data.fiber_curve(), -4,
                                              data.base_curve_point())
    # c1 = 48 x0^10 on cuspidal fibers
    assert data.c[0] == QQ(48)
