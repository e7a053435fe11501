"""Top-level acceptance checks. Each test covers one numbered criterion,
prints a single PASS/FAIL line, and enforces the stated time bound.
Criterion 9 (the statistical corpus reproduction) only warns on a miss.
"""

import random
import time
import warnings

import pytest

from dp1cert.exactalg import QQ, ExactAlgError, PrimeField, sqrt
from dp1cert.dp1 import (
    Dp1Surface, IsBasePoint, WeightedPoint, fiber_census, is_smooth,
)
from dp1cert.weier import (
    CurvePoint, WeierCurve, add, mul, _order_by_phi,
)
from dp1cert.cq5 import (
    build, nodal_alpha_values, omega_points,
    section_f_coefficients, sigma_at_omega,
)
from dp1cert.certify import (
    KodairaType, NoRationalNodalFiber, NotOnSurface, NotSmooth, RunParams,
    Unsupported, base_change_fiber_type, check_conditions, example_registry,
    nodal_density, search_surface_points, verify_nodal_model,
)

from test_cq5 import build_random, random_normalized_pair


def report(number, elapsed, bound, label):
    line = f"[ACCEPTANCE {number:2d}] PASS in {elapsed:6.2f}s" \
           f" (bound {bound}s) - {label}"
    print(line)
    assert elapsed < bound, f"criterion {number} exceeded {bound}s"


def _random_curve_point(rng, field):
    """A random smooth curve with a planted point: pick (x, y, A), solve B."""
    for _ in range(50):
        x = field(rng.randint(-9, 9))
        y = field(rng.randint(-9, 9))
        A = field(rng.randint(-9, 9))
        if not y:
            continue
        B = y * y - x ** 3 - A * x
        E = WeierCurve(A, B)
        if E.kind == "smooth":
            return E, CurvePoint(x, y)
    raise RuntimeError("no curve found")


def test_criterion_01_order_agreement():
    t0 = time.monotonic()
    rng = random.Random(101)
    fields = [QQ] + [PrimeField(p) for p in (5, 7, 11, 13)]
    for i in range(200):
        field = fields[i % len(fields)]
        E, P = _random_curve_point(rng, field)
        # route 1: division-polynomial values
        by_phi = _order_by_phi(E, P)
        # route 2: repeated addition, independently of order_class
        by_add = None
        acc = CurvePoint.identity()
        for n in range(1, 7):
            acc = add(E, acc, P)
            if acc.is_identity:
                by_add = n
                break
        assert by_phi == by_add, (E.A, E.B, P)
    report(1, time.monotonic() - t0, 5, "division-polynomial order vs "
                                        "repeated addition, 200 pairs")


def test_criterion_02_f_oracle_chain():
    t0 = time.monotonic()
    rng = random.Random(202)
    done = 0
    while done < 50:
        pair = random_normalized_pair(rng)
        if pair is None:
            continue
        S, Q = pair
        data = build(S, Q)
        # (i) the lift kills F0..F3 of the section at a random (p, q), and
        # F4..F6 there are the section-substitution coefficients
        p, q = QQ(rng.randint(-4, 4)), QQ(rng.randint(-4, 4))
        by_oracle = section_f_coefficients(S, data.section(p, q))
        assert not any(by_oracle[:4])
        assert by_oracle[4:] == [data.F4(p, q), data.F5(p, q), data.F6(p, q)]
        # (ii) phi2^3 F4 = G at that point
        assert data.phis.phi2 ** 3 * by_oracle[4] == data.G(p, q)
        done += 1
    report(2, time.monotonic() - t0, 10, "F-coefficient oracle chain, "
                                         "50 random (S, Q)")


def test_criterion_03_nodal_closed_form():
    t0 = time.monotonic()
    from dp1cert import instances
    S, Q = instances.nodal_fixture()      # d = 1, Q = (2 : 2 : 0 : 1)
    data = build(S, Q)
    a1, _ = nodal_alpha_values(data)
    w = next(w for w in omega_points(data)
             if w.kind == "alpha" and w.alpha == a1)
    img = sigma_at_omega(data, w)
    assert (img.x, img.y) == (QQ("3137/3136"), QQ("-97/175616"))
    # independent chord-tangent route
    E = data.fiber_curve()
    expect = mul(E, -4, data.base_curve_point())
    assert img == expect
    report(3, time.monotonic() - t0, 1, "nodal sigma(alpha1) closed form "
                                        "vs chord-tangent -4Q")


def test_criterion_04_scripted_fixtures():
    t0 = time.monotonic()
    for name in ("ex-4.4i", "ex-4.3i", "ex-4.3iii", "ex-4.4iii",
                 "ex-4.2", "ex-4.1", "ex-7.3"):
        rep = example_registry(name)
        assert rep.passed, (name, rep.details)
    report(4, time.monotonic() - t0, 30, "scripted fixture scenarios")


def test_criterion_05_identity_suite():
    t0 = time.monotonic()
    rng = random.Random(505)
    fields = [QQ, PrimeField(7), PrimeField(13)]
    for i in range(100):
        field = fields[i % len(fields)]
        E, P = _random_curve_point(rng, field)
        from dp1cert.weier import phi_values
        v = phi_values(E.A, E.B, P.x)
        # c2^2 + 4 c1 c5 = phi2^2 (phi4^2 - 4 phi6) with
        # c1 = phi2^2 phi3, c2 = -3 phi2 phi4, c5 = phi3^2 - phi4 psi
        lhs = (9 * v.phi2 ** 2 * v.phi4 ** 2
               + 4 * v.phi2 ** 2 * v.phi3 * (v.phi3 ** 2 - v.phi4 * v.psi))
        assert lhs == v.phi2 ** 2 * (v.phi4 ** 2 - 4 * v.phi6)
        # phi3 phi4 psi - phi3^3 = phi4^2 + phi5 = 2 phi4^2 + phi6
        mid = v.phi3 * v.phi4 * v.psi - v.phi3 ** 3
        assert mid == v.phi4 ** 2 + v.phi5
        assert mid == 2 * v.phi4 ** 2 + v.phi6
    report(5, time.monotonic() - t0, 2, "division-polynomial identities, "
                                        "100 random inputs")


def test_criterion_06_base_change_table():
    t0 = time.monotonic()
    kt = KodairaType.parse
    for d in (1, 2, 3, 5):
        for e in (1, 2, 3, 4):
            assert base_change_fiber_type(kt(f"I{d}"), e) == kt(f"I{d * e}")
    assert base_change_fiber_type(kt("II"), 5) == kt("II*")
    assert base_change_fiber_type(kt("I1*"), 2) == kt("I2")
    assert base_change_fiber_type(kt("IV*"), 2) == kt("IV")
    assert base_change_fiber_type(kt("III"), 3) == kt("III*")
    periods = {"IV*": 3, "II": 6, "III": 4}
    for name, period in periods.items():
        for e in range(1, 25):
            assert (base_change_fiber_type(kt(name), e)
                    == base_change_fiber_type(kt(name), e + period))
    for e in range(1, 25):
        out = base_change_fiber_type(kt("I1*"), e)
        assert str(out) == (f"I{e}" if e % 2 == 0 else f"I{e}*")
    report(6, time.monotonic() - t0, 1, "base-change fiber-type table "
                                        "and periodicity")


def test_criterion_07_fiber_census():
    t0 = time.monotonic()
    rng = random.Random(707)
    done = 0
    while done < 50:
        f = [QQ(rng.randint(-3, 3)) for _ in range(5)]
        g = [QQ(rng.randint(-3, 3)) for _ in range(7)]
        try:
            S = Dp1Surface.from_coeff_lists(QQ, f, g)
        except ExactAlgError:
            continue
        if not is_smooth(S):
            continue
        census = fiber_census(S)
        assert census.M + 2 * census.N == 12
        assert set(census.pattern) <= {1, 2}
        done += 1
    # the isotrivial family f = 0: Delta = 27 g^2, all six roots doubled
    done = 0
    while done < 5:
        g = [QQ(rng.randint(-3, 3)) for _ in range(7)]
        try:
            S = Dp1Surface.from_coeff_lists(QQ, [0] * 5, g)
        except ExactAlgError:
            continue
        if not is_smooth(S):
            continue
        census = fiber_census(S)
        assert (census.M, census.N) == (0, 6)
        done += 1
    report(7, time.monotonic() - t0, 10, "M + 2N = 12 census, 50 random "
                                         "smooth surfaces + isotrivial family")


def _random_nodal_surface(rng):
    """A random smooth surface with a node over (0:1) and a simple
    discriminant root there."""
    while True:
        d = rng.choice([1, -1, 2, 3, -2])
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
        return S


def test_criterion_08_nodal_pipeline():
    t0 = time.monotonic()
    rng = random.Random(808)
    S = _random_nodal_surface(rng)
    cert = nodal_density(S, RunParams(count=25, multiples=8))
    assert cert.conclusion == "DenseByTheorem13"
    assert len(cert.evidence) >= 25
    assert cert.distinct_fibers >= 5
    for P in cert.evidence:
        assert S.contains(P)
    elapsed1 = time.monotonic() - t0
    assert elapsed1 < 60, "nodal_density exceeded 60s"
    t1 = time.monotonic()
    for _ in range(5):
        S = _random_nodal_surface(rng)
        rep = verify_nodal_model(S)
        assert rep["fiber_at_d"] and rep["cofactor_at_d"] and rep["sections"]
        assert rep["disc_multiplicities"] == (3, 8, 2)
    elapsed2 = time.monotonic() - t1
    report(8, elapsed1 + elapsed2, 60 + 120,
           "nodal density pipeline + symbolic model identities")
    assert elapsed2 < 120, "verify_nodal_model exceeded 120s"


def test_criterion_09_corpus_statistics():
    t0 = time.monotonic()
    rng = random.Random(4072)
    dense = 0
    total = 0
    while total < 100:
        f = [rng.randint(-1, 1) for _ in range(5)]
        g = [rng.randint(-1, 1) for _ in range(7)]
        try:
            S = Dp1Surface.from_coeff_lists(QQ, f, g)
        except ExactAlgError:
            continue
        total += 1
        if not is_smooth(S):
            continue
        try:
            candidates = search_surface_points(S, height=40, limit=4)
        except ExactAlgError:
            continue
        for Q in candidates:
            try:
                cert = check_conditions(S, Q, RunParams(height=16, count=10))
            except ExactAlgError:
                continue
            if cert.is_dense:
                dense += 1
                break
    elapsed = time.monotonic() - t0
    rate = dense / total
    line = f"[ACCEPTANCE  9] corpus density rate {dense}/{total}" \
           f" = {rate:.0%} in {elapsed:.1f}s (soft threshold 25%)"
    print(line)
    assert elapsed < 1800
    if rate < 0.25:
        warnings.warn(f"corpus density rate {rate:.0%} below the 25% "
                      "soft threshold (warning only)")


def test_criterion_10_soundness_fuzz():
    t0 = time.monotonic()
    rng = random.Random(1010)
    violations = 0
    checked = 0
    while checked < 500:
        if rng.random() < 0.3:
            # raw random surface, mixed smooth/singular, random point
            f = [QQ(rng.randint(-2, 2)) for _ in range(5)]
            g = [QQ(rng.randint(-2, 2)) for _ in range(7)]
            try:
                S = Dp1Surface.from_coeff_lists(QQ, f, g)
            except ExactAlgError:
                continue
            Q = WeightedPoint(QQ(rng.randint(-3, 3)), QQ(rng.randint(-3, 3)),
                              QQ(0), QQ(1))
        else:
            pair = random_normalized_pair(rng)
            if pair is None:
                continue
            S, Q = pair
        checked += 1
        try:
            cert = check_conditions(S, Q, RunParams(height=6, count=4,
                                                    multiples=4))
        except (NotSmooth, NotOnSurface, IsBasePoint):
            continue
        if not cert.is_dense:
            continue
        ok = (cert.q_normalized is not None and bool(cert.q_normalized.y)
              and (cert.order is None or cert.order >= 3)
              and cert.char5_ok
              and (cert.order not in (3, 5)
                   or (cert.minus_one_count is not None
                       and cert.minus_one_count < 6))
              and any(c.image == "horizontal"
                      for c in cert.component_classes)
              and cert.distinct_fibers >= 2
              and all(S.contains(P) for P in cert.evidence))
        if not ok:
            violations += 1
    assert violations == 0
    report(10, time.monotonic() - t0, 1800,
           "soundness fuzz, 500 random (S, Q), zero Dense* violations")
