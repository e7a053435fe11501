"""Command-line front end: parse surface/point files, dispatch the
certification pipelines, and emit text or JSON reports.

Exit codes: 0 for a Dense* conclusion (or a plain successful report),
2 for HypothesisFailed / NotSmooth, 3 for Inconclusive, 1 for bad input.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .exactalg import (
    DEFAULT_BIT_BUDGET, ExactAlgError, PrimeField, QQ, parse_rational,
)
from .dp1 import (
    Dp1Surface, ParseError, fiber_census, is_smooth, parse_point,
    rational_singular_fibers,
)
from .cq5 import build, omega_points, sigma, sigma_at_omega
from .certify import (
    Certificate, KodairaType, RunParams, base_change_fiber_type,
    certificate_to_json, check_conditions, example_registry, nodal_density,
    search_surface_points, surface_hash,
)

BUDGET_ENV = "DP1CERT_BIT_BUDGET"


# ---------------------------------------------------------------------------
# surface / point files
# ---------------------------------------------------------------------------

def parse_surface(doc: dict) -> Dp1Surface:
    try:
        fd = doc["field"]
        if fd["kind"] == "rationals":
            field = QQ
        elif fd["kind"] == "prime":
            p = parse_rational(fd["p"])
            if p.denominator != 1:
                raise ParseError(f"p must be an integer, got {fd['p']!r}")
            field = PrimeField(int(p))
        else:
            raise ParseError(f"unknown field kind {fd['kind']!r}")
        f, g = doc["f"], doc["g"]
        if len(f) != 5 or len(g) != 7:
            raise ParseError("need 5 f-coefficients and 7 g-coefficients")
        # BinaryForm coerces each coefficient once, by the exact text rules
        return Dp1Surface.from_coeff_lists(
            field, [str(c) for c in f], [str(c) for c in g])
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError, ExactAlgError) as exc:
        raise ParseError(f"bad surface description: {exc}") from exc


def serialize_surface(S: Dp1Surface) -> dict:
    fd = {"kind": "rationals"} if S.field.kind == "rationals" \
        else {"kind": "prime", "p": S.field.p}
    return {"field": fd,
            "f": [str(c) for c in S.f.coeffs],
            "g": [str(c) for c in S.g.coeffs]}


def load_surface(path: str) -> Dp1Surface:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read surface file {path}: {exc}") from exc
    return parse_surface(doc)


def parse_scalar_pair(text: str, field):
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError(f"expected two scalars, got {text!r}")
    try:
        return tuple(field(s.strip()) for s in parts)
    except (ValueError, ExactAlgError) as exc:
        raise ParseError(f"bad scalar pair {text!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _emit(doc: dict, fmt: str, out):
    if fmt == "json":
        json.dump(doc, out, indent=2)
        out.write("\n")
    else:
        _emit_text(doc, out)


def _emit_text(doc, out, indent=""):
    for key, value in doc.items():
        if isinstance(value, dict):
            out.write(f"{indent}{key}:\n")
            _emit_text(value, out, indent + "  ")
        elif isinstance(value, (list, tuple)):
            out.write(f"{indent}{key}:\n")
            for item in value:
                if isinstance(item, dict):
                    _emit_text(item, out, indent + "  ")
                else:
                    out.write(f"{indent}  {item}\n")
        else:
            out.write(f"{indent}{key}: {value}\n")


def _exit_code(cert: Certificate) -> int:
    if cert.is_dense:
        return 0
    if cert.conclusion == "HypothesisFailed":
        return 2
    return 3


def _run_params(args) -> RunParams:
    try:
        budget = int(os.environ.get(BUDGET_ENV, DEFAULT_BIT_BUDGET))
    except ValueError:
        budget = 0
    if budget <= 0:
        raise ParseError(f"{BUDGET_ENV} must be a positive integer")
    kwargs = {"budget": budget}
    for name in ("height", "multiples", "count"):
        value = getattr(args, name, None)
        if value is not None:
            if value < 1:
                raise ParseError(f"--{name} must be >= 1, got {value}")
            kwargs[name] = value
    return RunParams(**kwargs)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_check(args, out):
    S = load_surface(args.surface)
    smooth = is_smooth(S)
    report = {"surface_hash": surface_hash(S),
              "smooth": smooth,
              "disc": [str(c) for c in S.disc_form.coeffs]}
    if smooth:
        census = fiber_census(S)
        report["census"] = {"M": census.M, "N": census.N}
        report["rational_singular_fibers"] = [
            {"fiber": f"{z},{w}", "type": kind}
            for z, w, kind in rational_singular_fibers(S)]
    _emit(report, args.format, out)
    return 0 if smooth else 2


def cmd_certify(args, out):
    S = load_surface(args.surface)
    params = _run_params(args)
    if args.point is not None:
        cert = check_conditions(S, parse_point(args.point, S.field), params)
    else:
        candidates = search_surface_points(S, height=min(args.height or 8, 12),
                                           limit=8)
        cert = None
        for Q in candidates:
            cert = check_conditions(S, Q, params)
            if cert.is_dense:
                break
        if cert is None:
            cert = Certificate(
                surface_hash=surface_hash(S), theorem="1.2",
                conclusion="Inconclusive",
                reasons=("no rational point found by the bounded search",))
    _emit(certificate_to_json(cert), args.format, out)
    return _exit_code(cert)


def cmd_nodal_density(args, out):
    S = load_surface(args.surface)
    cert = nodal_density(S, _run_params(args))
    _emit(certificate_to_json(cert), args.format, out)
    return _exit_code(cert)


def cmd_sigma(args, out):
    S = load_surface(args.surface)
    Q = parse_point(args.point, S.field)
    p, q = parse_scalar_pair(args.at, S.field)
    from .dp1 import move_to_zero
    norm = move_to_zero(S, Q)
    data = build(norm.surface, norm.point)
    if data.G(p, q):
        raise ParseError(f"({p}, {q}) does not satisfy G = 0")
    R = sigma(data, p, q)
    if not data.surface.contains(R):
        raise ExactAlgError("sigma image off the surface")
    _emit({"sigma": f"{R.x},{R.y},{R.z},{R.w}",
           "normalized": str(norm.matrix != ((S.field.one, S.field.zero),
                                             (S.field.zero, S.field.one)))},
          args.format, out)
    return 0


def cmd_cq5(args, out):
    S = load_surface(args.surface)
    Q = parse_point(args.point, S.field)
    from .dp1 import move_to_zero
    norm = move_to_zero(S, Q)
    data = build(norm.surface, norm.point)
    omegas = []
    for w in omega_points(data):
        entry = {"kind": w.kind, "double": w.double}
        if w.alpha is not None:
            entry["alpha"] = str(w.alpha)
        img = sigma_at_omega(data, w)
        entry["sigma_image"] = "O" if img.is_identity else f"{img.x},{img.y}"
        omegas.append(entry)
    report = {
        "c": {f"c{i + 1}": str(c) for i, c in enumerate(data.c)},
        "G": str(data.G),
        "F4": str(data.F4), "F5": str(data.F5), "F6": str(data.F6),
        "phi": {f"phi{i + 2}": str(v)
                for i, v in enumerate([data.phis.phi2, data.phis.phi3,
                                       data.phis.phi4, data.phis.phi5,
                                       data.phis.phi6])},
        "omega": omegas,
    }
    _emit(report, args.format, out)
    return 0


def cmd_base_change(args, out):
    if args.e < 1:
        raise ParseError(f"base-change degree must be >= 1, got {args.e}")
    try:
        t = KodairaType.parse(args.type)
    except ExactAlgError as exc:
        raise ParseError(str(exc)) from exc
    out.write(f"{base_change_fiber_type(t, args.e)}\n")
    return 0


def cmd_example(args, out):
    report = example_registry(args.name)
    _emit({"name": report.name, "description": report.description,
           "result": "PASS" if report.passed else "FAIL",
           "details": report.details}, args.format, out)
    return 0 if report.passed else 2


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(sp, point_required=False, with_point=True):
    sp.add_argument("surface", help="surface JSON file")
    if with_point:
        sp.add_argument("--point", required=point_required,
                        help='point as "X,Y,Z,W" in exact scalar text')
    sp.add_argument("--format", choices=("json", "text"), default="text")


def _add_run_flags(sp):
    sp.add_argument("--height", type=int, default=None)
    sp.add_argument("--multiples", type=int, default=None)
    sp.add_argument("--count", type=int, default=None)


class _ArgumentParser(argparse.ArgumentParser):
    """Reports bad arguments as ParseError (exit code 1) instead of
    exiting with argparse's code 2, which means HypothesisFailed here."""

    def error(self, message):
        raise ParseError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing keeps no state
    in it, and building it costs more than a small `check`."""
    ap = _ArgumentParser(
        prog="dp1cert",
        description="Zariski-density certification for rational points on "
                    "degree-1 del Pezzo surfaces y^2 = x^3 + f x + g")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("check", help="smoothness, discriminant and "
                                      "singular-fiber census")
    _add_common(sp, with_point=False)
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("certify", help="run the order-3-or-more density "
                                        "certifier at a point")
    _add_common(sp)
    _add_run_flags(sp)
    sp.set_defaults(fn=cmd_certify)

    sp = sub.add_parser("nodal-density", help="run the nodal-fiber density "
                                              "certifier")
    _add_common(sp, with_point=False)
    _add_run_flags(sp)
    sp.set_defaults(fn=cmd_nodal_density)

    sp = sub.add_parser("sigma", help="sixth intersection point of the "
                                      "section at (p, q)")
    _add_common(sp, point_required=True)
    sp.add_argument("--at", required=True, help='curve point as "p,q"')
    sp.set_defaults(fn=cmd_sigma)

    sp = sub.add_parser("cq5", help="dump the section-curve data at a point")
    _add_common(sp, point_required=True)
    sp.set_defaults(fn=cmd_cq5)

    sp = sub.add_parser("base-change", help="fiber type after a totally "
                                            "ramified degree-e base change")
    sp.add_argument("type", help="fiber type, e.g. I2, I1*, IV*")
    sp.add_argument("e", type=int)
    sp.set_defaults(fn=cmd_base_change)

    sp = sub.add_parser("example", help="run a named scripted scenario")
    sp.add_argument("name")
    sp.add_argument("--format", choices=("json", "text"), default="text")
    sp.set_defaults(fn=cmd_example)

    return ap


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args, out)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ExactAlgError as exc:
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
