"""Per-layer spans and counters, recorded from outside the program.

Wrappers are installed at run time around the public functions listed in
TARGETS and removed afterwards. The package binds functions with
``from .x import f``, so one function can be reachable under several module
names; a wrapper replaces every binding of the original object in every
``dp1cert`` module, and restoring puts each binding back.

Spans are kept in memory as (id, parent id, operation index, name, start,
end), so the spans of one operation share its index, and are turned into
per-function call counts and self times when the run ends. Self time is a
span's duration minus the time covered by its direct child spans.
"""

from __future__ import annotations

import json
import sys
import time

# (module, function, end-to-end metrics it should move, workloads) — the
# prediction written down before any change is measured. Functions marked
# "totals" are wrapped so that their self time is not charged to callers.
TARGETS = (
    ("certify", "search_surface_points", "ops_per_s latency_p50_ms",
     "corpus-qq"),
    ("certify", "density_evidence", "ops_per_s latency_tail_ms",
     "corpus-qq check-wide"),
    ("dp1", "Dp1Surface.contains", "ops_per_s latency_tail_ms",
     "corpus-qq check-wide"),
    ("weier", "add", "ops_per_s", "check-wide corpus-qq"),
    ("weier", "mul", "ops_per_s", "check-wide corpus-qq"),
    ("genus1", "generate_points", "ops_per_s", "check-wide corpus-qq"),
    ("genus1", "infinitude_certificate", "latency_p50_ms latency_tail_ms",
     "corpus-qq"),
    ("genus1", "search_points", "latency_p50_ms latency_tail_ms",
     "corpus-qq"),
    ("genus1", "to_weierstrass", "latency_p50_ms latency_tail_ms",
     "corpus-qq"),
    ("dp1", "is_smooth", "latency_p50_ms", "corpus-qq check-wide"),
    ("dp1", "move_to_zero", "latency_p50_ms", "corpus-qq check-wide"),
    ("cq5", "build", "latency_p50_ms", "corpus-qq check-wide"),
    ("cq5", "components", "latency_p50_ms", "corpus-qq check-wide"),
    ("cq5", "vertical_test", "latency_p50_ms", "corpus-qq check-wide"),
    ("cq5", "sigma", "latency_p50_ms", "corpus-qq check-wide"),
    ("cq5", "minus_one_scheme", "ops_per_s", "check-wide"),
    ("exactalg", "rational_roots", "ops_per_s latency_tail_ms",
     "check-wide"),
    ("exactalg", "resultant_q", "ops_per_s", "check-wide"),
    ("exactalg", "poly_gcd", "ops_per_s", "check-wide"),
    ("exactalg", "squarefree_decomposition", "ops_per_s", "check-wide"),
    ("dp1", "fiber_census", "ops_per_s", "check-wide"),
    ("cli", "main", "ops_per_s", "check-wide"),
    ("weier", "order_class", "totals", "all"),
    ("weier", "non_torsion_certificate", "totals", "all"),
    ("certify", "check_conditions", "totals", "all"),
    ("certify", "nodal_density", "totals", "all"),
)

PACKAGE = "dp1cert"


def span_name(module: str, qualname: str) -> str:
    return f"{module}.{qualname.rsplit('.', 1)[-1]}"


def per_layer_names() -> list:
    """Every per-layer metric a traced run reports, with its unit."""
    names = []
    for module, qualname, _, _ in TARGETS:
        name = span_name(module, qualname)
        names += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    names += [
        ("certify.candidates_per_dense", "ratio"),
        ("certify.density_evidence.points", "count"),
        ("certify.density_evidence.skipped_minus_one", "count"),
        ("genus1.infinitude_certificate.inconclusive_ratio", "ratio"),
        ("cq5.minus_one_scheme.distinct", "count"),
        ("exactalg.rational_roots.max_degree", "count"),
        ("exactalg.max_bits", "bits"),
        ("exactalg.max_bits_ratio", "ratio"),
    ]
    return names


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE
                                  or name.startswith(PACKAGE + "."))]


def installed_wrappers() -> list:
    """Names of package attributes that are tracing wrappers right now."""
    found = []
    for mod in _package_modules():
        for attr, value in vars(mod).items():
            if getattr(value, "_perfbench_wrapper", False):
                found.append(f"{mod.__name__}.{attr}")
            if isinstance(value, type):
                found += [f"{mod.__name__}.{attr}.{k}"
                          for k, v in vars(value).items()
                          if getattr(v, "_perfbench_wrapper", False)]
    return found


class Tracer:
    """Installs wrappers, records spans and counters, restores originals."""

    def __init__(self):
        self.spans = []            # (id, parent, op, name, start, end)
        self.op = None             # index of the operation running now
        self._stack = [0]          # open span ids; 0 is the root
        self._next_id = 1
        self._restore = []         # (namespace, attribute, original)
        self.counters = {"dense": 0, "evidence_points": 0,
                         "skipped_minus_one": 0, "inf_inconclusive": 0,
                         "minus_one_distinct": 0, "max_degree": 0,
                         "max_bits": 0, "max_bits_ratio": 0.0}

    # -- recording --------------------------------------------------------

    def _wrap(self, name, fn, observe=None):
        tracer = self

        def wrapper(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1]
            tracer._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((sid, parent, tracer.op, name, start,
                                     end))
            if observe is not None:
                observe(result, args, kwargs)
            return result

        wrapper._perfbench_wrapper = True
        wrapper.__wrapped__ = fn
        return wrapper

    def _count_only(self, fn, observe):
        def wrapper(*args, **kwargs):
            observe(args, kwargs)
            return fn(*args, **kwargs)

        wrapper._perfbench_wrapper = True
        wrapper.__wrapped__ = fn
        return wrapper

    def _observers(self, exactalg):
        c = self.counters

        def check_conditions(cert, args, kwargs):
            c["dense"] += cert.is_dense

        def density_evidence(report, args, kwargs):
            c["evidence_points"] += len(report.points)
            c["skipped_minus_one"] += report.skipped_minus_one

        def infinitude_certificate(cert, args, kwargs):
            c["inf_inconclusive"] += cert.kind == "inconclusive"

        def minus_one_scheme(scheme, args, kwargs):
            c["minus_one_distinct"] += scheme.distinct_count

        def rational_roots(roots, args, kwargs):
            c["max_degree"] = max(c["max_degree"], args[0].degree())

        def check_budget(args, kwargs):
            el = args[0]
            budget = (args[1] if len(args) > 1
                      else kwargs.get("budget", exactalg.DEFAULT_BIT_BUDGET))
            bits = el.bit_size()
            c["max_bits"] = max(c["max_bits"], bits)
            c["max_bits_ratio"] = max(c["max_bits_ratio"], bits / budget)

        return {"check_conditions": check_conditions,
                "density_evidence": density_evidence,
                "infinitude_certificate": infinitude_certificate,
                "minus_one_scheme": minus_one_scheme,
                "rational_roots": rational_roots}, check_budget

    # -- installation -----------------------------------------------------

    def _rebind(self, original, replacement) -> int:
        """Replace every module-level binding of original in the package."""
        n = 0
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, replacement)
                    n += 1
        return n

    def install(self):
        mods = {m.__name__.rsplit(".", 1)[-1]: m for m in _package_modules()}
        observers, check_budget = self._observers(mods["exactalg"])
        for module, qualname, _, _ in TARGETS:
            name = span_name(module, qualname)
            if "." in qualname:
                cls_name, meth = qualname.split(".")
                cls = getattr(mods[module], cls_name)
                original = vars(cls)[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original))
                continue
            original = getattr(mods[module], qualname)
            wrapper = self._wrap(name, original,
                                 observers.get(qualname))
            if not self._rebind(original, wrapper):
                raise RuntimeError(f"{name} is bound nowhere")
        original = mods["exactalg"].check_budget
        self._rebind(original, self._count_only(original, check_budget))

    def restore(self):
        while self._restore:
            namespace, attr, original = self._restore.pop()
            setattr(namespace, attr, original)

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-function calls and self seconds, plus the counters."""
        child_time = {}
        for _, parent, _, _, start, end in self.spans:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        calls, self_s = {}, {}
        for sid, _, _, name, start, end in self.spans:
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = (self_s.get(name, 0.0)
                            + (end - start) - child_time.get(sid, 0.0))
        out = {}
        for module, qualname, _, _ in TARGETS:
            name = span_name(module, qualname)
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        c = self.counters
        checks = calls.get("certify.check_conditions", 0)
        infs = calls.get("genus1.infinitude_certificate", 0)
        out["certify.candidates_per_dense"] = (checks / c["dense"]
                                               if c["dense"] else 0.0)
        out["certify.density_evidence.points"] = c["evidence_points"]
        out["certify.density_evidence.skipped_minus_one"] = \
            c["skipped_minus_one"]
        out["genus1.infinitude_certificate.inconclusive_ratio"] = (
            c["inf_inconclusive"] / infs if infs else 0.0)
        out["cq5.minus_one_scheme.distinct"] = c["minus_one_distinct"]
        out["exactalg.rational_roots.max_degree"] = c["max_degree"]
        out["exactalg.max_bits"] = c["max_bits"]
        out["exactalg.max_bits_ratio"] = c["max_bits_ratio"]
        return out

    def write_spans(self, path: str):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
