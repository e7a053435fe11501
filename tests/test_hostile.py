"""Hostile inputs through the command line. Each input runs through
cli.main under a SIGALRM deadline and must end with its documented exit
code and either a report or a single `error:` line, never a traceback (an
uncaught exception fails the test)."""

import io
import json
import signal

import pytest

from dp1cert.cli import main

from test_cli import deadline

# composites that pass Miller-Rabin to the twelve prime bases 2..37
# (Sorenson and Webster, Math. Comp. 2017); the first is
# 399165290221 * 798330580441
PSEUDOPRIMES = [318665857834031151167461, 3317044064679887385961981]
F = ["3", "1", "4", "1", "5"]
G = ["9", "2", "6", "5", "3", "5", "8"]

pytestmark = pytest.mark.skipif(not hasattr(signal, "SIGALRM"),
                                reason="needs SIGALRM")


def check(tmp_path, capsys, p, f, g):
    path = tmp_path / "surface.json"
    path.write_text(json.dumps({"field": {"kind": "prime", "p": p},
                                "f": f, "g": g}))
    with deadline(10):
        code = main(["check", str(path)], out=io.StringIO())
    return code, capsys.readouterr().err.splitlines()


def assert_one_error_line(code, err):
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert "prime field needs a prime" in err[0]


@pytest.mark.parametrize("p", PSEUDOPRIMES)
def test_pseudoprime_modulus_is_rejected(tmp_path, capsys, p):
    assert_one_error_line(*check(tmp_path, capsys, p, F, G))


@pytest.mark.parametrize("where", ["f4", "g0", "g3"])
def test_coefficient_sharing_a_factor_with_the_modulus(tmp_path, capsys,
                                                       where):
    # over the first modulus, a coefficient that is one of its factors made
    # an inversion fail with an uncaught ValueError
    f, g = list(F), list(G)
    coeffs, i = (f, 4) if where == "f4" else (g, int(where[1]))
    coeffs[i] = "399165290221"
    assert_one_error_line(*check(tmp_path, capsys, PSEUDOPRIMES[0], f, g))
