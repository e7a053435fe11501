import random

import pytest

from dp1cert.exactalg import QQ, ExactAlgError, PrimeField
from dp1cert.dp1 import Dp1Surface, IsBasePoint, WeightedPoint
from dp1cert.weier import mul
from dp1cert import instances
from dp1cert.cq5 import build
from dp1cert.certify import (
    Certificate, ComponentClass, IdentityFailed, KodairaType, NoRationalNodalFiber,
    NotOnSurface, NotSmooth, RunParams, UnknownExample, Unsupported,
    base_change_fiber_type, certificate_from_json, certificate_to_json,
    check_conditions, density_evidence, example_registry, nodal_density,
    search_surface_points, surface_hash, verify_nodal_model,
)

from test_cq5 import random_normalized_pair


def kt(text):
    return KodairaType.parse(text)


# ---------------------------------------------------------------------------
# base-change table
# ---------------------------------------------------------------------------

def test_base_change_spot_values():
    assert base_change_fiber_type(kt("I2"), 3) == kt("I6")
    assert base_change_fiber_type(kt("II"), 5) == kt("II*")
    assert base_change_fiber_type(kt("I1*"), 2) == kt("I2")
    assert base_change_fiber_type(kt("IV*"), 2) == kt("IV")
    assert base_change_fiber_type(kt("III"), 3) == kt("III*")
    assert base_change_fiber_type(kt("I0"), 7) == kt("I0")


def test_base_change_periodicity():
    periods = {"I3": 1, "I2*": 2, "IV*": 3, "II": 6, "III": 4}
    for name, period in periods.items():
        t = kt(name)
        for e in range(1, 25):
            lhs = base_change_fiber_type(t, e)
            rhs = base_change_fiber_type(t, e + period)
            if t.symbol in ("I", "I*"):
                # the index grows with e; compare only the symbol pattern
                assert (lhs.symbol == rhs.symbol) == (
                    base_change_fiber_type(t, e).symbol
                    == base_change_fiber_type(t, e + period).symbol)
            else:
                assert lhs == rhs


def test_base_change_star_parity():
    for e in range(1, 25):
        out = base_change_fiber_type(kt("I2*"), e)
        assert out == (kt(f"I{2*e}") if e % 2 == 0 else kt(f"I{2*e}*"))


def test_base_change_unsupported():
    for name in ("II*", "III*", "IV"):
        with pytest.raises(Unsupported):
            base_change_fiber_type(kt(name), 2)


def test_kodaira_parse_roundtrip():
    for s in ("I0", "I12", "I3*", "II", "III*", "IV*"):
        assert str(kt(s)) == s


# ---------------------------------------------------------------------------
# check_conditions
# ---------------------------------------------------------------------------

def test_check_conditions_nine_curves_fails():
    S, Q = instances.nine_curves_instance()
    cert = check_conditions(S, Q)
    assert cert.conclusion == "HypothesisFailed"
    assert cert.order == 3
    assert cert.minus_one_count == 9
    assert any("(-1)" in r for r in cert.reasons)


def test_check_conditions_two_torsion_fails():
    S = Dp1Surface.from_coeff_lists(QQ, [-1, 0, 0, 0, 1],
                                    [0, 1, 0, 0, 0, 0, 1])
    Q = WeightedPoint(QQ(1), QQ(0), QQ(0), QQ(1))
    cert = check_conditions(S, Q)
    assert cert.conclusion == "HypothesisFailed"
    assert any("y -> -y" in r for r in cert.reasons)


def test_check_conditions_errors():
    S, Q = instances.nine_curves_instance()
    with pytest.raises(NotOnSurface):
        check_conditions(S, WeightedPoint(QQ(0), QQ(5), QQ(0), QQ(1)))
    with pytest.raises(IsBasePoint):
        check_conditions(S, WeightedPoint.base_point(QQ))
    singular = Dp1Surface.from_coeff_lists(QQ, [0] * 5,
                                           [0, 0, 0, 0, 0, 0, 1])
    with pytest.raises(NotSmooth):
        check_conditions(singular, WeightedPoint(QQ(0), QQ(1), QQ(1), QQ(1)))


def test_check_conditions_dense_random_search():
    # scan small surfaces with searched points until one certifies dense
    rng = random.Random(7)
    dense = None
    tried = 0
    while dense is None and tried < 300:
        tried += 1
        f = [rng.randint(-1, 1) for _ in range(5)]
        g = [rng.randint(-1, 1) for _ in range(7)]
        try:
            S = Dp1Surface.from_coeff_lists(QQ, f, g)
        except ExactAlgError:
            continue
        from dp1cert.dp1 import is_smooth
        if not is_smooth(S):
            continue
        for Q in search_surface_points(S, height=5, limit=3):
            cert = check_conditions(S, Q, RunParams(height=16, count=10))
            if cert.conclusion == "DenseByTheorem12":
                dense = cert
                break
    assert dense is not None, f"no dense certificate in {tried} surfaces"
    assert dense.distinct_fibers >= 2
    assert len(dense.evidence) >= 2
    assert any(c.image == "horizontal" for c in dense.component_classes)
    assert dense.infinitude in ("rational_component", "non_torsion_class",
                                "point_count")


def test_check_conditions_finite_field_inconclusive():
    S, Q, _ = instances.order5_section_instance()
    cert = check_conditions(S, Q)
    assert cert.conclusion in ("Inconclusive", "HypothesisFailed")


# ---------------------------------------------------------------------------
# density evidence
# ---------------------------------------------------------------------------

def test_density_evidence_counts():
    S, Q = instances.nodal_fixture()
    data = build(S, Q)
    from dp1cert.genus1 import generate_points, infinitude_certificate
    cert = infinitude_certificate(data, height=8)
    pts = generate_points(data, cert, 6)
    report = density_evidence(S, data, pts, multiples=5)
    assert len(report.points) >= 10
    assert report.distinct_fibers >= 2
    for P in report.points:
        assert S.contains(P)


def test_distinct_fibers_count_only_fibers_with_evidence():
    # at a small bit budget most sigma-images keep no multiple; their
    # fibers must not be counted
    cert = check_conditions(*instances.nodal_fixture(), RunParams(budget=1500))
    assert cert.conclusion == "DenseByTheorem12"
    assert cert.distinct_fibers == len({(P.z, P.w) for P in cert.evidence})


def test_density_evidence_empty():
    S, Q = instances.nodal_fixture()
    data = build(S, Q)
    report = density_evidence(S, data, [], multiples=5)
    assert report.points == () and report.distinct_fibers == 0


# ---------------------------------------------------------------------------
# nodal pipeline
# ---------------------------------------------------------------------------

def test_nodal_density_end_to_end():
    S, _ = instances.nodal_fixture()
    cert = nodal_density(S, RunParams(count=25, multiples=8))
    assert cert.conclusion == "DenseByTheorem13"
    assert len(cert.evidence) >= 25
    assert cert.distinct_fibers >= 5
    for P in cert.evidence:
        assert S.contains(P)


def test_nodal_density_no_rational_fiber():
    # isotrivial f = 0: Delta = 27 g^2 has no simple roots
    S, _ = instances.order3_isotrivial_instance()
    with pytest.raises(NoRationalNodalFiber):
        nodal_density(S)
    # cuspidal-only rational degeneration: f = g = 0 at t0 is not a node
    S2 = Dp1Surface.from_coeff_lists(QQ, [0, 1, 1, 0, 0],
                                     [0, 1, 0, 1, 0, 0, 1])
    with pytest.raises(NoRationalNodalFiber):
        nodal_density(S2)


# ---------------------------------------------------------------------------
# symbolic model verification
# ---------------------------------------------------------------------------

def test_verify_nodal_model_fixture():
    S, _ = instances.nodal_fixture()
    report = verify_nodal_model(S)
    assert report["fiber_at_d"]
    assert report["disc_multiplicities"] == (3, 8, 2)
    assert report["cofactor_at_d"]
    assert report["sections"]


def test_verify_nodal_model_random():
    # random smooth surfaces with a nodal fiber over (0:1)
    rng = random.Random(13)
    from dp1cert.dp1 import is_smooth
    done = 0
    while done < 3:
        d = rng.choice([1, 2, -1, 3])
        f = [-3 * d * d] + [rng.randint(-2, 2) for _ in range(4)]
        g = [2 * d ** 3] + [rng.randint(-2, 2) for _ in range(6)]
        try:
            S = Dp1Surface.from_coeff_lists(QQ, f, g)
        except ExactAlgError:
            continue
        if not is_smooth(S):
            continue
        dt = S.disc_form.chart_w()
        if dt.coeff(0) or not dt.coeff(1):
            continue
        report = verify_nodal_model(S)
        assert report["disc_multiplicities"] == (3, 8, 2)
        done += 1


# ---------------------------------------------------------------------------
# certificate JSON round trip
# ---------------------------------------------------------------------------

def test_certificate_json_roundtrip():
    S, Q = instances.nine_curves_instance()
    cert = check_conditions(S, Q)
    doc = certificate_to_json(cert)
    import json
    doc2 = json.loads(json.dumps(doc))
    back = certificate_from_json(doc2, QQ)
    assert back == cert


def test_certificate_json_roundtrip_dense():
    S, _ = instances.nodal_fixture()
    cert = nodal_density(S, RunParams(count=10))
    import json
    back = certificate_from_json(
        json.loads(json.dumps(certificate_to_json(cert))), QQ)
    assert back == cert


# ---------------------------------------------------------------------------
# examples
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["ex-4.1", "ex-4.2", "ex-4.3i", "ex-4.3iii",
                                  "ex-4.4i", "ex-4.4iii", "ex-7.2", "ex-7.3"])
def test_example_registry(name):
    report = example_registry(name)
    assert report.passed, report.details


def test_example_registry_unknown():
    with pytest.raises(UnknownExample):
        example_registry("ex-99")


# ---------------------------------------------------------------------------
# soundness fuzz (small local version; the full one is an acceptance test)
# ---------------------------------------------------------------------------

def test_soundness_fuzz_small():
    rng = random.Random(99)
    checked = 0
    while checked < 40:
        pair = random_normalized_pair(rng)
        if pair is None:
            continue
        S, Q = pair
        try:
            cert = check_conditions(S, Q, RunParams(height=8, count=6))
        except (NotSmooth, NotOnSurface, IsBasePoint):
            checked += 1
            continue
        if cert.is_dense:
            # every hypothesis flag must hold
            assert cert.q_normalized.y
            assert cert.order is None or cert.order >= 3
            assert cert.char5_ok
            if cert.order in (3, 5):
                assert cert.minus_one_count is not None
                assert cert.minus_one_count < 6
            assert any(c.image == "horizontal"
                       for c in cert.component_classes)
            assert cert.distinct_fibers >= 2
            for P in cert.evidence:
                assert S.contains(P)
        checked += 1
