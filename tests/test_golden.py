"""Golden outputs: certificates and reports must stay byte-identical.

Each case renders one pipeline output as canonical JSON (sorted keys, no
whitespace, `resources.elapsed_s` removed) and compares its SHA-256 with a
value recorded before the certifier helpers were folded together. A change
to any closed form, elimination, search order or certificate layout shows
up here as a hash mismatch.
"""

import hashlib
import io
import json

import pytest

from dp1cert import instances
from dp1cert.cli import main, serialize_surface
from dp1cert.cq5 import build, minus_one_rational_points
from dp1cert.certify import (
    RunParams, certificate_to_json, check_conditions, nodal_density,
    verify_nodal_model,
)
from dp1cert.dp1 import Dp1Surface, WeightedPoint
from dp1cert.exactalg import QQ, PrimeField


def _canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _cert_doc(cert) -> dict:
    doc = certificate_to_json(cert)
    doc["resources"] = {k: v for k, v in doc["resources"].items()
                        if k != "elapsed_s"}
    return doc


def _qq_point(S, x, y, z, w):
    return S, WeightedPoint(*(QQ(v) for v in (x, y, z, w)))


def _qq_surface(f, g):
    return Dp1Surface.from_coeff_lists(QQ, f, g)


def _check_theorem12(S, Q):
    return _cert_doc(check_conditions(S, Q, RunParams(height=16, count=10)))


def _cli(tmp_path, S, *argv):
    path = tmp_path / "surface.json"
    path.write_text(json.dumps(serialize_surface(S)))
    out = io.StringIO()
    code = main([argv[0], str(path), *argv[1:], "--format", "json"], out=out)
    doc = json.loads(out.getvalue())
    if "resources" in doc:
        doc["resources"].pop("elapsed_s", None)
    return {"exit": code, "doc": doc}


def _dense12_order3(tmp_path):
    S = _qq_surface([0, 1, 1, 1, -1], [1, 1, 1, 1, 1, -1, 1])
    return _check_theorem12(*_qq_point(S, 0, 1, 0, 1))


def _dense12_non_torsion(tmp_path):
    S = _qq_surface([0, 1, 1, 1, -1], [0, 1, -1, 1, -1, 0, -1])
    return _check_theorem12(*_qq_point(S, 1, 1, 0, 1))


def _inconclusive(tmp_path):
    S = _qq_surface([0, 1, 0, 0, 1], [0, -1, 0, -1, 0, 1, 0])
    return _check_theorem12(*_qq_point(S, 1, 1, 0, 1))


def _hypothesis_failed(tmp_path):
    return _cert_doc(check_conditions(*instances.nine_curves_instance()))


def _order3_over_gfp(tmp_path):
    S, Q = instances.order3_vertex_instance(field=PrimeField(1009))
    return _cert_doc(check_conditions(S, Q))


def _order5_over_gf11(tmp_path):
    S, Q, _ = instances.order5_section_instance()
    return _cert_doc(check_conditions(S, Q))


def _dense13(tmp_path):
    S, _ = instances.nodal_fixture()
    return _cert_doc(nodal_density(S, RunParams(count=5)))


def _nodal_model_report(tmp_path):
    S, _ = instances.nodal_fixture()
    return {k: list(v) if isinstance(v, tuple) else v
            for k, v in verify_nodal_model(S).items()}


def _minus_one_points(tmp_path):
    S, Q, _ = instances.order5_section_instance()
    data = build(S, Q)
    return [[str(p), str(q)] for p, q in minus_one_rational_points(data)]


def _cli_check_qq(tmp_path):
    S, _ = instances.nodal_fixture()
    return _cli(tmp_path, S, "check")


def _cli_check_gfp(tmp_path):
    S, _ = instances.order3_split_instance(field=PrimeField(1009))
    return _cli(tmp_path, S, "check")


def _cli_cq5(tmp_path):
    S, _ = instances.nodal_fixture()
    return _cli(tmp_path, S, "cq5", "--point", "2,2,0,1")


def _cli_certify_no_point(tmp_path):
    S = _qq_surface([-9, 3, 4, -9, 5], [-1, -2, 9, -6, 1, -9, -9])
    return _cli(tmp_path, S, "certify", "--height", "1")


GOLDEN = {
    "dense12_order3": (
        _dense12_order3,
        "27589c6b6f1769352aa4612245bc4207d60747be5fc732260b6cde5aa736e245"),
    "dense12_non_torsion": (
        _dense12_non_torsion,
        "c12107abef8ea4763c410754a1e83643ef3777a6da4feb79bf41660a45c71892"),
    "inconclusive": (
        _inconclusive,
        "3f4f157983f13685f9e58729cdea87c8c0f66717550dbbe480375dd0c3f45477"),
    "hypothesis_failed": (
        _hypothesis_failed,
        "89a0c6625621f8cf62297ce31757cb5c37131ec8399c597a6d10da58083df572"),
    "order3_over_gfp": (
        _order3_over_gfp,
        "67aacef4d154c5df58d4e8be6f69771754d32d1a798e83663c7a7cd47bf7fffb"),
    "order5_over_gf11": (
        _order5_over_gf11,
        "649899468ab17aef369e132c433f5bc9d21f79c2f1b5ab9db4a595dae6f9e9be"),
    "dense13": (
        _dense13,
        "61566836970da9f667f2a1006dc1a00e791c1e7a2026b69fd310a2658637c076"),
    "nodal_model_report": (
        _nodal_model_report,
        "810946543dc6b2f030320fa94fd4055c365c83fc30fceb5ba72eb17eca81f688"),
    "minus_one_points": (
        _minus_one_points,
        "943ba25cff9173d8b069b1f53d74e2939bec8054b7fed8bfff0fe2dbd5f162fb"),
    "cli_check_qq": (
        _cli_check_qq,
        "fe7012f709759876cee34d9c866c506e258a6e011951da44670f47b93a26f35c"),
    "cli_check_gfp": (
        _cli_check_gfp,
        "60091814476df3b794fd032db6863e2baa5551aa0d9905964302ad523969630e"),
    "cli_cq5": (
        _cli_cq5,
        "a7f0391c265df796c2178e1157062124690f472a58730c33524c8ea0b7e89cef"),
    "cli_certify_no_point": (
        _cli_certify_no_point,
        "2f228c0baeacbd365fd998bc05ea7cbb5251621507d7c946a0af937b24e485e7"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output(name, tmp_path):
    build_doc, want = GOLDEN[name]
    got = hashlib.sha256(_canonical(build_doc(tmp_path)).encode()).hexdigest()
    assert got == want, f"{name}: output changed"
