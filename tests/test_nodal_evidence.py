"""The nodal evidence path: the fiberwise multiples walk and the doubling
rounds of nodal_density.

walk_multiples is checked against a plain-Fraction chord-tangent oracle.
The rounds of nodal_density walk only the curve points that the previous
round lacked; that is exact because generate_points(.., n) is a prefix of
generate_points(.., 2n) and density_evidence treats each curve point on its
own, and both facts are tested here on real section curves.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from dp1cert import certify, instances, weier
from dp1cert.certify import (
    RunParams, certificate_to_json, density_evidence, nodal_density,
)
from dp1cert.cq5 import MinusOneCurve, build, sigma
from dp1cert.dp1 import Dp1Surface
from dp1cert.exactalg import DEFAULT_BIT_BUDGET, QQ
from dp1cert.genus1 import generate_points, infinitude_certificate
from dp1cert.weier import (
    CurvePoint, HitsSingularPoint, WeierCurve, walk_multiples,
)


def bits(q: Fraction) -> int:
    return q.numerator.bit_length() + q.denominator.bit_length()


def oracle_multiples(A, B, x, y, n, budget):
    """(x, y) of P, 2P, ..., nP by repeated chord-tangent addition in
    Fractions, up to O, the singular point (y = 0 and 3x^2 + A = 0) or the
    first multiple with a coordinate over budget bits."""
    out = []
    ax, ay = x, y
    for k in range(n):
        if k:
            if ax == x and ay == -y:
                break
            if ax == x:
                lam = (3 * ax * ax + A) / (2 * ay)
            else:
                lam = (y - ay) / (x - ax)
            x3 = lam * lam - ax - x
            ax, ay = x3, lam * (ax - x3) - ay
            if ay == 0 and 3 * ax * ax + A == 0:
                break
        if bits(ax) > budget or bits(ay) > budget:
            break
        assert ay * ay == ax ** 3 + A * ax + B
        out.append((ax, ay))
    return out


def walked(E, x, y, n, budget):
    P = CurvePoint(QQ(x), QQ(y))
    return [(kP.x.rep, kP.y.rep)
            for kP in walk_multiples(E, P, n, budget)]


def random_curve_point(rng):
    """A seeded QQ curve y^2 = x^3 + Ax + B through a random point."""
    x = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
    y = Fraction(rng.randint(1, 30), rng.randint(1, 9))
    A = Fraction(rng.randint(-20, 20), rng.randint(1, 4))
    return A, y * y - x ** 3 - A * x, x, y


@pytest.fixture
def checked(monkeypatch):
    """Every element walk_multiples asks check_budget about, in order."""
    seen = []
    real = weier.check_budget

    def spy(el, budget):
        seen.append(el.rep)
        return real(el, budget)

    monkeypatch.setattr(weier, "check_budget", spy)
    return seen


# ---------------------------------------------------------------------------
# the multiples walk
# ---------------------------------------------------------------------------

def test_walk_matches_fraction_oracle():
    rng = random.Random(808)
    for _ in range(30):
        A, B, x, y = random_curve_point(rng)
        E = WeierCurve(QQ(A), QQ(B))
        full = oracle_multiples(A, B, x, y, 8, 10 ** 9)
        assert walked(E, x, y, 8, 10 ** 9) == full
        assert walked(E, x, y, 3, 10 ** 9) == full[:3]
        assert walked(E, x, y, 0, 10 ** 9) == []
        for budget in sorted({bits(c) + d for pt in full for c in pt
                              for d in (-1, 0)}):
            assert walked(E, x, y, 8, budget) == \
                oracle_multiples(A, B, x, y, 8, budget)


def test_walk_stops_at_torsion():
    # (2, 3) on y^2 = x^3 + 1 has order 6
    E = WeierCurve(QQ(0), QQ(1))
    out = walked(E, 2, 3, 12, 64)
    assert out == oracle_multiples(0, 1, Fraction(2), Fraction(3), 12, 64)
    assert out == [(2, 3), (0, 1), (-1, 0), (0, -1), (2, -3)]
    assert walked(E, -1, 0, 12, 64) == [(-1, 0)]         # order 2
    assert list(walk_multiples(E, CurvePoint.identity(), 5)) == []


def test_walk_stops_at_the_node():
    # y^2 = (x - 1)^2 (x + 2): the node (1, 0) is yielded as the first
    # multiple, like any point, and its tangent gives O
    EN = WeierCurve(QQ(-3), QQ(2))
    assert walked(EN, 1, 0, 8, 64) == [(1, 0)]
    # smooth points on the nodal cubic agree with the oracle, which stops
    # at the node; chord and tangent sums of smooth points never reach it
    rng = random.Random(2718)
    for _ in range(10):
        s = Fraction(rng.randint(2, 40), rng.randint(1, 9))
        x, y = s * s - 2, s ** 3 - 3 * s           # nodal_param at d = 1
        assert walked(EN, x, y, 6, 10 ** 9) == \
            oracle_multiples(Fraction(-3), Fraction(2), x, y, 6, 10 ** 9)
    # every kP lies on the curve through P with the same A, so a walk from a
    # smooth point never lands on a node and the walk has no stop for it: a
    # curve whose cached classification wrongly declares the 2-torsion
    # point 2P = (0, 0) singular makes the step raise, not end the walk
    E = WeierCurve(QQ(4), QQ(0))                 # (2, 4) has order 4
    assert walked(E, 2, 4, 8, 64) == [(2, 4), (0, 0), (2, -4)]
    E._classification = ("nodal", QQ(0))
    with pytest.raises(HitsSingularPoint):
        walked(E, 2, 4, 8, 64)


def test_walk_checks_x_before_computing_y(checked):
    A, B, x, y = Fraction(0), Fraction(-2), Fraction(3), Fraction(5)
    E = WeierCurve(QQ(A), QQ(B))
    full = oracle_multiples(A, B, x, y, 8, 10 ** 9)
    assert len(full) == 8
    exits = set()
    for k in range(1, 8):
        xk, yk = full[k]
        fits = max(bits(c) for pt in full[:k] for c in pt)
        # budget between the sizes of x and y: y is computed and fails
        if max(fits, bits(xk)) < bits(yk):
            checked.clear()
            assert walked(E, x, y, 8, max(fits, bits(xk))) == full[:k]
            assert checked[-2:] == [xk, yk]
            exits.add("y")
        # budget below x: the walk stops before y exists
        if fits < bits(xk):
            checked.clear()
            assert walked(E, x, y, 8, fits) == full[:k]
            assert checked[-1] == xk and yk not in checked
            exits.add("x")
    assert exits == {"x", "y"}


def _fixture_curve_points(n):
    S, Q = instances.nodal_fixture()
    data = build(S, Q)
    cert = infinitude_certificate(data, height=8)
    return S, data, cert, generate_points(data, cert, n)


def test_walk_of_sigma_images_matches_fraction_oracle():
    # real fibers of the nodal fixture under the default budget, where the
    # coordinates of the multiples grow to tens of thousands of bits
    S, data, _, pts = _fixture_curve_points(8)
    walks = 0
    largest = 0
    for p, q in pts:
        try:
            R = sigma(data, p, q)
        except MinusOneCurve:
            continue
        E = S.fiber(R.z, R.w)
        got = walked(E, R.x.rep, R.y.rep, 8, DEFAULT_BIT_BUDGET)
        assert got == oracle_multiples(E.A.rep, E.B.rep, R.x.rep, R.y.rep,
                                       8, DEFAULT_BIT_BUDGET)
        walks += 1
        largest = max([largest] + [bits(c) for pt in got for c in pt])
    assert walks >= 6
    assert largest > 20000


# ---------------------------------------------------------------------------
# density evidence and the doubling rounds
# ---------------------------------------------------------------------------

def test_density_evidence_treats_curve_points_one_by_one():
    S, data, _, pts = _fixture_curve_points(8)
    whole = density_evidence(S, data, pts, multiples=5)
    assert len(whole.points) >= 10
    for k in (1, 3, 6):
        head = density_evidence(S, data, pts[:k], multiples=5)
        tail = density_evidence(S, data, pts[k:], multiples=5)
        assert head.points + tail.points == whole.points
        assert head.skipped_minus_one + tail.skipped_minus_one == \
            whole.skipped_minus_one
        assert whole.distinct_fibers == \
            len({(P.z, P.w) for P in whole.points})


def test_budget_checked_on_sigma_image_before_building_the_fiber(
        monkeypatch):
    S, data, _, pts = _fixture_curve_points(6)
    fibers = []
    real = Dp1Surface.fiber

    def fiber(self, z, w):
        fibers.append((z, w))
        return real(self, z, w)

    monkeypatch.setattr(Dp1Surface, "fiber", fiber)
    report = density_evidence(S, data, pts, multiples=5, budget=0)
    assert report.points == () and fibers == []
    assert density_evidence(S, data, pts, multiples=5).points
    assert fibers


# seed-808 nodal input 2 of the check-wide workload: its first round at
# n_curve = 6 falls short, so the certificate comes from the second round
SECOND_ROUND_F = [-12, 2, -1, 2, 1]
SECOND_ROUND_G = [-16, -2, -1, -1, 1, 2, 2]


def _generate_calls(monkeypatch, S, params):
    """nodal_density(S, params) and the (data, cert, n) of each
    generate_points call it made."""
    calls = []
    real = certify.generate_points

    def spy(data, cert, n, budget):
        calls.append((data, cert, n))
        return real(data, cert, n, budget)

    monkeypatch.setattr(certify, "generate_points", spy)
    return nodal_density(S, params), calls


@pytest.mark.parametrize("surface", ["fixture", "check-wide"])
def test_generate_points_doubling_only_appends(monkeypatch, surface):
    if surface == "fixture":
        S, _ = instances.nodal_fixture()
    else:
        S = Dp1Surface.from_coeff_lists(QQ, SECOND_ROUND_F, SECOND_ROUND_G)
    _, calls = _generate_calls(monkeypatch, S, RunParams(count=25))
    data, cert, n = calls[0]
    first = generate_points(data, cert, n)
    assert len(first) == n
    assert generate_points(data, cert, 2 * n)[:n] == first


def test_second_round_certificate_is_pinned(monkeypatch):
    S = Dp1Surface.from_coeff_lists(QQ, SECOND_ROUND_F, SECOND_ROUND_G)
    cert, calls = _generate_calls(monkeypatch, S,
                                  RunParams(count=25, multiples=8))
    assert [n for _, _, n in calls] == [6, 12]
    doc = certificate_to_json(cert)
    doc["resources"].pop("elapsed_s")
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    # recorded before the rounds walked only the new curve points
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "abd9ede3b737e9d77676aad2129a4c5d"
        "9d929191d86507b59aa5f220be02c12f")


def test_nodal_density_count_one_runs_a_round():
    # the first round used to be skipped when 6 curve points exceed
    # 4 * count, so count = 1 gave Inconclusive with no evidence searched
    S, _ = instances.nodal_fixture()
    for count in (1, 2):
        cert = nodal_density(S, RunParams(count=count))
        assert cert.conclusion == "DenseByTheorem13"
        assert len(cert.evidence) == 25 and cert.distinct_fibers >= 2
        assert all(S.contains(P) for P in cert.evidence)
