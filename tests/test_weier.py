import random
import warnings
from fractions import Fraction

import pytest

from dp1cert.exactalg import QQ, ExactAlgError, PrimeField, UnsupportedField
from dp1cert.weier import (
    AnomalousOrderWarning, CurvePoint, HitsSingularPoint,
    PhiValues, TateForm, WeierCurve, WrongOrder, ZeroY, add, mul,
    nodal_curve, nodal_param, non_torsion_certificate, order3_family,
    order5_family, order_class, phi_values, tate_normal_form, validate_point,
)

O = CurvePoint.identity()


def qpt(x, y):
    return CurvePoint(QQ(x), QQ(y))


E1 = WeierCurve(QQ(0), QQ(1))            # y^2 = x^3 + 1
EN = WeierCurve(QQ(-3), QQ(2))           # y^2 = (x-1)^2 (x+2), nodal


def test_curve_kinds():
    assert E1.kind == "smooth"
    assert EN.kind == "nodal" and EN.x_sing == QQ(1)
    EC = WeierCurve(QQ(0), QQ(0))
    assert EC.kind == "cuspidal" and EC.x_sing == QQ(0)


def test_curve_point_needs_field_elements():
    with pytest.raises(ExactAlgError):
        CurvePoint(1, 2)


def test_add_examples():
    P, R = qpt(2, 3), qpt(0, 1)
    assert add(E1, P, R) == qpt(-1, 0)
    assert add(E1, P, O) == P
    assert add(E1, P, P.neg()) == O


def test_mul_nodal_example():
    Q = qpt(2, 2)
    assert mul(EN, 2, Q) == qpt(Fraction(17, 16), Fraction(7, 64))
    assert mul(EN, 4, Q) == qpt(Fraction(3137, 3136), Fraction(97, 175616))
    assert mul(EN, 0, Q) == O
    assert mul(EN, -2, Q) == qpt(Fraction(17, 16), Fraction(-7, 64))


def test_phi_values_examples():
    v = phi_values(QQ(0), QQ(1), QQ(0))
    assert (v.psi, v.phi2, v.phi3) == (QQ(0), QQ(4), QQ(0))
    v2 = phi_values(QQ(-1), QQ(0), QQ(1))
    assert v2.phi2 == QQ(0)


def test_phi_identities_random():
    rng = random.Random(7)
    for _ in range(100):
        A, B, x0 = (QQ(rng.randint(-9, 9)) for _ in range(3))
        v = phi_values(A, B, x0)
        assert v.phi3 * v.psi == v.phi4 + v.phi2 ** 2
        lhs = v.phi3 * v.phi4 * v.psi - v.phi3 ** 3
        assert lhs == v.phi4 ** 2 + v.phi5
        assert lhs == 2 * v.phi4 ** 2 + v.phi6


def test_order_class_examples():
    assert order_class(E1, qpt(2, 3)) == 6
    assert order_class(E1, qpt(0, 1)) == 3
    E2 = WeierCurve(QQ(-1), QQ(0))
    assert order_class(E2, qpt(0, 0)) == 2
    # generic point has order exceeding the bound
    E3 = WeierCurve(QQ(-2), QQ(0))
    assert order_class(E3, qpt(-1, 1)) is None


def test_order_class_phi_agreement_random():
    rng = random.Random(11)
    fields = [QQ, PrimeField(5), PrimeField(7), PrimeField(11), PrimeField(13)]
    done = 0
    while done < 60:
        K = fields[done % len(fields)]
        x = K(rng.randint(-9, 9))
        y = K(rng.randint(1, 9))
        A = K(rng.randint(-9, 9))
        B = y ** 2 - x ** 3 - A * x
        E = WeierCurve(A, B)
        if E.kind != "smooth":
            continue
        P = CurvePoint(x, y)
        with warnings.catch_warnings():
            warnings.simplefilter("error", AnomalousOrderWarning)
            order_class(E, P)  # no AnomalousOrderWarning raised
        done += 1


def test_non_torsion_certificate():
    E = WeierCurve(QQ(-2), QQ(0))
    v = non_torsion_certificate(E, qpt(-1, 1))
    assert not v.is_torsion
    assert non_torsion_certificate(E1, qpt(2, 3)) == \
        non_torsion_certificate(E1, qpt(2, 3))
    assert non_torsion_certificate(E1, qpt(2, 3)).is_torsion
    assert non_torsion_certificate(E1, qpt(2, 3)).n == 6
    t3 = non_torsion_certificate(E1, qpt(0, 1))
    assert t3.is_torsion and t3.n == 3
    # non-integral model gets rescaled
    Eq = WeierCurve(QQ(Fraction(-2, 16)), QQ(0))
    vq = non_torsion_certificate(Eq, qpt(Fraction(-1, 4), Fraction(1, 8)))
    assert not vq.is_torsion
    with pytest.raises(UnsupportedField):
        non_torsion_certificate(WeierCurve(PrimeField(5)(1), PrimeField(5)(1)),
                                CurvePoint(PrimeField(5)(0), PrimeField(5)(1)))


def test_order3_family_and_tate_e1():
    # (x0,y0,f0,g0) = (3, beta, 6beta-27, beta^2-18beta+54), beta=1
    x0, y0, A, B = order3_family(QQ, 1, 1, 1)
    assert (x0, y0, A, B) == (QQ(3), QQ(1), QQ(-21), QQ(37))
    E = WeierCurve(A, B)
    P = CurvePoint(x0, y0)
    assert order_class(E, P) == 3
    tf = tate_normal_form(E, P, 3)
    assert (tf.beta, tf.e, tf.eta) == (QQ(1), 1, QQ(1))


def test_tate_e0():
    # (x0,y0,A,B) = (0, 5, 0, 25): order-3 point with psi = 0
    E = WeierCurve(QQ(0), QQ(25))
    P = qpt(0, 5)
    assert order_class(E, P) == 3
    tf = tate_normal_form(E, P, 3)
    assert tf.e == 0
    assert order3_family(QQ, tf.beta, tf.e, tf.eta) == (P.x, P.y, E.A, E.B)


def test_tate_scaled_e1():
    x0, y0, A, B = order3_family(QQ, 7, 1, 2)
    E = WeierCurve(A, B)
    P = CurvePoint(x0, y0)
    tf = tate_normal_form(E, P, 3)
    assert (tf.beta, tf.e, tf.eta) == (QQ(7), 1, QQ(2))


def test_tate_order5():
    x0, y0, A, B = order5_family(QQ, 1, 1)
    E = WeierCurve(A, B)
    P = CurvePoint(x0, y0)
    assert order_class(E, P) == 5
    tf = tate_normal_form(E, P, 5)
    assert (tf.beta, tf.eta) == (QQ(1), QQ(1))
    # scaled instance
    x0, y0, A, B = order5_family(QQ, 2, 3)
    tf2 = tate_normal_form(WeierCurve(A, B), CurvePoint(x0, y0), 5)
    assert (tf2.beta, tf2.eta) == (QQ(2), QQ(3))


def test_tate_wrong_order():
    with pytest.raises(WrongOrder):
        tate_normal_form(E1, qpt(2, 3), 3)  # order 6
    with pytest.raises(WrongOrder):
        tate_normal_form(E1, qpt(0, 1), 5)  # order 3


def test_nodal_param():
    assert nodal_param(QQ(1), QQ(2)) == qpt(2, 2)
    assert nodal_param(QQ(1), QQ(-2)) == qpt(2, -2)
    assert nodal_param(QQ(0), QQ(1)) == qpt(1, 1)
    with pytest.raises(ZeroY):
        nodal_param(QQ(1), QQ(0))
    with pytest.raises(HitsSingularPoint):
        nodal_param(QQ(3), QQ(3))
    # image lies on the curve
    d = QQ(2)
    E = nodal_curve(d)
    P = nodal_param(d, QQ(5))
    validate_point(E, P)


def test_group_axioms_random():
    rng = random.Random(3)
    GF11 = PrimeField(11)
    trials = 0
    while trials < 50:
        K = QQ if trials % 2 == 0 else GF11
        d = K(rng.randint(1, 6))
        E = nodal_curve(d)
        pts = []
        for _ in range(3):
            s = K(rng.randint(2, 9))
            if not s or s ** 2 == 3 * d:
                break
            pts.append(nodal_param(d, s))
        if len(pts) < 3:
            continue
        P, R, T = pts
        assert add(E, add(E, P, R), T) == add(E, P, add(E, R, T))
        assert add(E, P, P.neg()) == O
        trials += 1


def test_nodal_param_sums_stay_smooth():
    rng = random.Random(5)
    d = QQ(1)
    E = nodal_curve(d)
    for _ in range(20):
        s1, s2 = QQ(rng.randint(2, 30)), QQ(rng.randint(2, 30))
        P = add(E, nodal_param(d, s1), nodal_param(d, s2))
        validate_point(E, P)
