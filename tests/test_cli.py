import io
import json
import os
import pathlib
import signal
import subprocess
import sys
from contextlib import contextmanager

import pytest

from dp1cert import instances
from dp1cert.cli import (
    ParseError, main, parse_point, parse_surface, serialize_surface,
)
from dp1cert.exactalg import QQ
from dp1cert.certify import certificate_from_json


def write_surface(tmp_path, S, name="surface.json"):
    path = tmp_path / name
    path.write_text(json.dumps(serialize_surface(S)))
    return str(path)


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# surface files
# ---------------------------------------------------------------------------

def test_surface_roundtrip():
    S, _ = instances.nodal_fixture()
    doc = serialize_surface(S)
    S2 = parse_surface(json.loads(json.dumps(doc)))
    assert S2.f.coeffs == S.f.coeffs and S2.g.coeffs == S.g.coeffs
    assert S2.field == S.field


def test_surface_roundtrip_prime_field():
    S, _, _ = instances.order5_section_instance()
    S2 = parse_surface(serialize_surface(S))
    assert S2.field == S.field and S2.g.coeffs == S.g.coeffs


def test_parse_errors(tmp_path, capsys):
    with pytest.raises(ParseError):
        parse_surface({"field": {"kind": "rationals"}, "f": ["1"], "g": []})
    with pytest.raises(ParseError):
        parse_surface({"field": {"kind": "rationals"},
                       "f": ["1//2", "0", "0", "0", "0"],
                       "g": ["0"] * 6 + ["1"]})
    with pytest.raises(ParseError):
        parse_point("1,2,3", QQ)
    # bad arguments are bad input: one error line and exit code 1, not
    # argparse's exit code 2 (which means HypothesisFailed / NotSmooth)
    path = write_surface(tmp_path, instances.nine_curves_instance()[0])
    # a non-integral field size is bad input, not truncated to GF(11)
    float_p = tmp_path / "float_p.json"
    float_p.write_text(json.dumps({"field": {"kind": "prime", "p": 11.9},
                                   "f": ["1", "0", "0", "0", "0"],
                                   "g": ["0"] * 6 + ["1"]}))
    for argv in (["certify", path, "--height", "abc"],
                 ["check", str(float_p)],
                 ["certify", path, "--seed", "1"],
                 ["nodal-density", path, "--count", "1.5"],
                 ["no-such-command"],
                 []):
        code, text = run(argv)
        assert (code, text) == (1, ""), argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, argv


def fresh_run(argv):
    """`dp1cert argv` in a new interpreter: (exit code, stdout, stderr)."""
    import dp1cert
    env = dict(os.environ,
               PYTHONPATH=str(pathlib.Path(dp1cert.__file__).parent.parent))
    done = subprocess.run([sys.executable, "-m", "dp1cert.cli", *argv],
                          capture_output=True, text=True, env=env)
    return done.returncode, done.stdout, done.stderr


def test_main_repeated_in_one_process(tmp_path, capsys):
    # the parser is built once per process; a call after a bad command
    # line must still answer as a fresh process does
    path = write_surface(tmp_path, instances.nodal_fixture()[0])
    calls = (["check", path, "--format", "json"],
             ["check", path, "--point", "1,2,3,4"],
             ["check", path, "--format", "json"])
    for argv in calls:
        code, text = run(argv)
        assert (code, text, capsys.readouterr().err) == fresh_run(argv), argv
    assert [run(argv)[0] for argv in calls] == [0, 1, 0]


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def test_check_isotrivial(tmp_path):
    S, _ = instances.nine_curves_instance()
    code, text = run(["check", write_surface(tmp_path, S),
                      "--format", "json"])
    assert code == 0
    doc = json.loads(text)
    assert doc["smooth"] is True
    assert doc["census"] == {"M": 0, "N": 6}


def test_check_nodal_fibers(tmp_path):
    S, _ = instances.nodal_fixture()
    code, text = run(["check", write_surface(tmp_path, S),
                      "--format", "json"])
    assert code == 0
    doc = json.loads(text)
    fibers = {f["fiber"]: f["type"] for f in doc["rational_singular_fibers"]}
    assert fibers.get("0,1") == "I1"


def test_check_not_smooth(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"field": {"kind": "rationals"},
                                "f": ["0"] * 5, "g": ["0"] * 6 + ["1"]}))
    code, text = run(["check", str(path), "--format", "json"])
    assert code == 2
    assert json.loads(text)["smooth"] is False


def test_check_malformed_scalar(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"field": {"kind": "rationals"},
                                "f": ["1//2", "0", "0", "0", "0"],
                                "g": ["0"] * 6 + ["1"]}))
    code, _ = run(["check", str(path)])
    assert code == 1


# ---------------------------------------------------------------------------
# certify / nodal-density
# ---------------------------------------------------------------------------

def test_certify_hypothesis_failed(tmp_path):
    S, Q = instances.nine_curves_instance()
    code, text = run(["certify", write_surface(tmp_path, S),
                      "--point", "0,4,0,1", "--format", "json"])
    assert code == 2
    doc = json.loads(text)
    assert doc["conclusion"] == "HypothesisFailed"
    # JSON output round-trips to an equal certificate
    cert = certificate_from_json(doc, QQ)
    assert certificate_from_json(
        json.loads(json.dumps(doc)), QQ) == cert


def test_certify_without_point_searches(tmp_path):
    S, _ = instances.nodal_fixture()
    code, text = run(["certify", write_surface(tmp_path, S),
                      "--height", "6", "--count", "6", "--format", "json"])
    doc = json.loads(text)
    assert code in (0, 2, 3)
    assert doc["conclusion"] in ("DenseByTheorem12", "HypothesisFailed",
                                 "Inconclusive")


def test_nodal_density_cli(tmp_path):
    S, _ = instances.nodal_fixture()
    code, text = run(["nodal-density", write_surface(tmp_path, S),
                      "--count", "8", "--format", "json"])
    assert code == 0
    doc = json.loads(text)
    assert doc["conclusion"] == "DenseByTheorem13"
    assert len(doc["evidence"]) >= 8


def test_nodal_density_no_fiber_exit_code(tmp_path):
    S, _ = instances.nine_curves_instance()
    code, _ = run(["nodal-density", write_surface(tmp_path, S)])
    assert code == 2


@contextmanager
def deadline(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"did not finish within {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_run_flags_must_be_positive(tmp_path, capsys):
    # the README example surface; a non-positive --height, --multiples or
    # --count is rejected before any search (it used to search at height
    # 8, loop without collecting evidence, or end in a silent Inconclusive)
    path = tmp_path / "surface.json"
    path.write_text(json.dumps({"field": {"kind": "rationals"},
                                "f": ["-3", "0", "0", "0", "0"],
                                "g": ["2", "1", "0", "0", "0", "0", "1"]}))
    for command in ("certify", "nodal-density"):
        for flag in ("--height", "--multiples", "--count"):
            for value in ("0", "-2"):
                argv = [command, str(path), flag, value]
                with deadline(5):
                    code, text = run(argv)
                assert (code, text) == (1, ""), argv
                err = capsys.readouterr().err
                assert err == f"error: {flag} must be >= 1, got {value}\n", \
                    argv


def test_budget_env_override(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DP1CERT_BIT_BUDGET", "131072")
    S, _ = instances.nodal_fixture()
    path = write_surface(tmp_path, S)
    code, _ = run(["nodal-density", path, "--count", "5", "--format", "json"])
    assert code == 0
    # a budget that is not a positive integer is bad input (exit code 1)
    for bad in ("abc", "0", "-8", "1e6"):
        monkeypatch.setenv("DP1CERT_BIT_BUDGET", bad)
        for argv in (["nodal-density", path, "--count", "5"],
                     ["certify", path, "--point", "2,2,0,1"]):
            code, text = run(argv)
            assert (code, text) == (1, ""), (bad, argv)
            err = capsys.readouterr().err
            assert err.startswith("error: DP1CERT_BIT_BUDGET"), (bad, argv)


# ---------------------------------------------------------------------------
# sigma / cq5
# ---------------------------------------------------------------------------

def test_sigma_subcommand(tmp_path):
    S, Q = instances.order3_vertex_instance()
    # the section curve contains the whole line q = 0
    code, text = run(["sigma", write_surface(tmp_path, S),
                      "--point", "0,5,0,1", "--at", "1,0",
                      "--format", "json"])
    assert code == 0
    doc = json.loads(text)
    x, y, z, w = doc["sigma"].split(",")
    assert z == "0" and w == "1"


def test_sigma_rejects_off_curve(tmp_path):
    S, Q = instances.order3_vertex_instance()
    code, _ = run(["sigma", write_surface(tmp_path, S),
                   "--point", "0,5,0,1", "--at", "1,1"])
    assert code == 1


def test_cq5_subcommand(tmp_path):
    S, Q = instances.nodal_fixture()
    code, text = run(["cq5", write_surface(tmp_path, S),
                      "--point", "2,2,0,1", "--format", "json"])
    assert code == 0
    doc = json.loads(text)
    assert set(doc["c"]) == {f"c{i}" for i in range(1, 10)}
    assert doc["phi"]["phi2"] == "16"
    alphas = {w.get("alpha") for w in doc["omega"]}
    assert "1/16" in alphas and "9/80" in alphas


# ---------------------------------------------------------------------------
# base-change / example
# ---------------------------------------------------------------------------

def test_base_change_subcommand():
    for args, expected in [(["base-change", "I2", "3"], "I6"),
                           (["base-change", "II", "5"], "II*"),
                           (["base-change", "I1*", "2"], "I2"),
                           (["base-change", "IV*", "2"], "IV"),
                           (["base-change", "III", "3"], "III*")]:
        code, text = run(args)
        assert code == 0 and text.strip() == expected
    code, _ = run(["base-change", "II*", "2"])
    assert code == 2


def test_base_change_bad_input(capsys):
    # a malformed fiber type or a degree below 1 is bad input (exit code
    # 1); II* above is a limit of the table (exit code 2)
    for argv in (["base-change", "foo", "2"],
                 ["base-change", "I-3", "2"],
                 ["base-change", "I1", "0"],
                 ["base-change", "I2", "-1"]):
        code, text = run(argv)
        assert (code, text) == (1, ""), argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, argv
        assert "ExactAlgError" not in err, argv


def test_example_subcommand():
    code, text = run(["example", "ex-7.3", "--format", "json"])
    assert code == 0
    assert json.loads(text)["result"] == "PASS"
    code, _ = run(["example", "nope"])
    assert code == 2
