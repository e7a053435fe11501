"""Closed-loop benchmark of the dp1cert certifier.

One client in one process sends the next operation only when the previous
one has returned, as a user running the certifier over a batch of surfaces
does. Inputs come from the workload seed and are generated before timing
starts; the program is imported from ``src/`` of the checkout this file sits
in.

    python3 perfbench/run.py --workload corpus-qq --seed 4072 --seconds 55 \
        --trace 0

Times are reported at a reference machine speed. On a shared host the
speed of one core drifts by up to a factor of two within minutes, which
would swamp the differences a change to the program makes. So a fixed
calibration kernel (Fraction and big-integer arithmetic, like the program's)
runs before every operation and every set-up, outside their timing, and
each measured time is multiplied by CALIBRATION_REF_S over the kernel's
mean time just before and just after it. The raw wall-clock figures are
printed next to the scaled ones.

``--trace 0`` measures the end-to-end metrics with no wrappers installed.
``--trace 1`` measures half the time untraced, then replays the same
operations with tracing wrappers installed and reports the per-layer
metrics (self times in raw seconds) and the tracing overhead; it then tries
the known hard input of workloads.py under the per-operation deadline.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. Every run
prints the certificate digest of its first operations; when a change is
meant to alter certificates, copy the digest of the default seed into
expected.json by hand.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from contextlib import contextmanager
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
EXPECTED = os.path.join(HERE, "expected.json")

# Operations every run completes, whatever --seconds says. The certificate
# digest and dense_ratio cover exactly these, so they repeat between runs.
PREFIX = {"corpus-qq": 40, "check-wide": 44}
# Inputs generated per run: one and a half to two times what a 55-second
# run of the current program uses. A faster program cycles through them
# again, and each repeat must reproduce its first result.
POOL = {"corpus-qq": 160, "check-wide": 176}
# Fixed, so that a faster program, which completes more operations, is
# compared at the same percentile. Each sits inside a band of similar
# operations: corpus-qq latencies form a cheap cluster (no candidate passes
# the search) and a costly one, which meet near p80, and p80 of check-wide
# falls among its checks at p ~ 15000. At 55 s a run of either workload
# usually completes 70 or more operations, so ten or more samples lie
# beyond; the run prints the count.
TAIL_PERCENTILE = {"corpus-qq": 85, "check-wide": 80}
DEADLINE_S = 30.0           # per operation; an operation past it has failed
SETUP_REPEATS = 3
# Time of calibrate() at the reference speed: its median on an idle core of
# a 2-vCPU x86-64 VM with CPython 3.11. Only ratios to it matter.
CALIBRATION_REF_S = 0.004


class DeadlineExceeded(BaseException):
    """Raised by the interval timer. A BaseException, so that no handler in
    the program mistakes it for one of its own errors."""


def _alarm(signum, frame):
    raise DeadlineExceeded()


@contextmanager
def deadline(seconds: float):
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _kernel():
    acc, n = Fraction(1, 3), 1
    for i in range(1, 120):
        acc = acc * Fraction(i + 1, i + 2) + Fraction(1, i)
        n = n * 7 + i
    return acc, n


def calibrate() -> float:
    """Seconds taken by a fixed amount of interpreter and big-integer work."""
    start = time.perf_counter()
    for _ in range(4):
        _kernel()
    return time.perf_counter() - start


def at_reference(seconds: float, before: float, after: float) -> float:
    """A time measured between two calibrations, at the reference speed."""
    return seconds * CALIBRATION_REF_S * 2 / (before + after)


def _purge_program():
    for name in list(sys.modules):
        if name in ("dp1cert", "workloads") or name.startswith("dp1cert."):
            del sys.modules[name]


def set_up(workload: str, seed: int, workdir: str):
    """Import the program, generate the inputs and warm up, several times.
    Returns the modules and inputs of the last round and the median time,
    raw and at the reference speed."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        before = calibrate()
        start = time.perf_counter()
        _purge_program()
        wl = importlib.import_module("workloads")
        inputs = wl.GENERATORS[workload](seed, POOL[workload])
        wl.warm_up(workdir)
        raw.append(time.perf_counter() - start)
        scaled.append(at_reference(raw[-1], before, calibrate()))
    return wl, inputs, statistics.median(raw), statistics.median(scaled)


def measure(wl, inputs, workdir, seconds=None, min_ops=0, n_ops=None,
            tracer=None):
    """Run operations back to back: exactly n_ops of them, or at least
    min_ops and until `seconds` have passed. Returns the records
    (raw latency_s, latency_s at the reference speed, OpResult or None,
    error or None) and the wall time."""
    records = []
    start = time.perf_counter()
    before = calibrate()
    while True:
        i = len(records)
        if n_ops is not None:
            if i >= n_ops:
                break
        elif i >= min_ops and time.perf_counter() - start >= seconds:
            break
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        result, error = None, None
        try:
            with deadline(DEADLINE_S):
                result = wl.run_op(inputs[i % len(inputs)], workdir)
        except DeadlineExceeded:
            error = f"deadline of {DEADLINE_S} s exceeded"
        except Exception as exc:      # one failed operation; keep measuring
            error = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        after = calibrate()
        records.append((latency, at_reference(latency, before, after),
                        result, error))
        before = after
    return records, time.perf_counter() - start


def check(wl, records, oracle):
    """Hash every operation's output and re-check every Dense* certificate
    and every `dp1cert check` report. Returns the per-operation hashes (None
    for an operation that raised) and {operation index: reason} for the
    operations the oracle rejects."""
    hashes, rejected = [], {}
    for i, (_, _, result, error) in enumerate(records):
        if error is not None:
            hashes.append(None)
            continue
        docs = [oracle.certificate_doc(wl.certify.certificate_to_json(c))
                for c in result.certs]
        for doc in docs:
            if doc["conclusion"].startswith("Dense") and result.f is None:
                reason = "Dense* certificate without an input to re-check"
            else:
                reason = oracle.recheck(doc, result.f, result.g)
            if reason:
                rejected[i] = f"oracle rejects: {reason}"
        if result.p is not None:
            reason = oracle.recheck_report(result.text, result.p, result.f,
                                           result.g)
            if reason:
                rejected[i] = f"oracle rejects the report: {reason}"
        hashes.append(oracle.op_hash(result.outcome, docs, result.text))
    return hashes, rejected


def repeat_mismatches(hashes, period):
    """Operations whose repeat of an earlier input gave another result."""
    return [i for i in range(period, len(hashes))
            if hashes[i] is not None and hashes[i - period] is not None
            and hashes[i] != hashes[i - period]]


def percentile(sorted_values, q):
    k = min(len(sorted_values) - 1, int(q / 100 * len(sorted_values)))
    return sorted_values[k], len(sorted_values) - 1 - k


# Measures of the whole run that a traced run reports next to the layers.
RUN_LEVEL_UNITS = [
    ("bench.dense_ratio", "ratio"),
    ("bench.failed_ratio", "ratio"),
    ("trace.ops_per_s", "1/s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.self_s_sum", "s"),
    ("cli.main.hard_input_deadline_exceeded", "count"),
]


def main(argv=None) -> int:
    with open(EXPECTED) as fh:
        expected = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(expected))
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: the workload's own)")
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    name = args.workload
    info = expected[name]
    seed = info["default_seed"] if args.seed is None else args.seed

    if not os.path.isfile(os.path.join(SRC, "dp1cert", "__init__.py")):
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import oracle
    import tracing

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=OUT)
    traced = []
    try:
        wl, inputs, setup_raw, setup_s = set_up(name, seed, workdir)
        if not wl.certify.__file__.startswith(SRC + os.sep):
            print(f"error: dp1cert imported from {wl.certify.__file__}",
                  file=sys.stderr)
            return 2
        wrong = [f"wrapper installed before tracing: {w}"
                 for w in tracing.installed_wrappers()]
        seconds = args.seconds / 2 if args.trace else args.seconds
        records, wall = measure(wl, inputs, workdir, seconds, PREFIX[name])
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced, traced_wall = measure(wl, inputs, workdir,
                                              n_ops=len(records),
                                              tracer=tracer)
            finally:
                tracer.restore()
            wrong += [f"wrapper left installed: {w}"
                      for w in tracing.installed_wrappers()]
            hard, hard_exceeded = None, 0
            try:
                with deadline(DEADLINE_S):
                    hard = wl.run_op(wl.HARD_QQ_CHECK, workdir)
            except DeadlineExceeded:
                hard_exceeded = 1
            except Exception as exc:
                wrong.append(f"hard input raised {type(exc).__name__}: "
                             f"{exc}")
        # failures[(phase, op index)] = reason; an operation counts once
        failures = {}
        hashes = {}
        for phase, recs in (("untraced", records), ("traced", traced)):
            hashes[phase], rejected = check(wl, recs, oracle)
            failures.update({(phase, i): e for i, (*_, e) in enumerate(recs)
                             if e is not None})
            failures.update({(phase, i): r for i, r in rejected.items()})
            if rejected:
                wrong.append(f"{len(rejected)} {phase} op(s) rejected by "
                             "the oracle")
        different = (
            [(i, "differs from its first run")
             for i in repeat_mismatches(hashes["untraced"], len(inputs))]
            + [(i, "differs when traced") for i, (a, b) in
               enumerate(zip(hashes["untraced"], hashes["traced"]))
               if a is not None and b is not None and a != b])
        failures.update({("untraced", i): f"result {r}"
                         for i, r in different})
        if different:
            wrong.append(f"{len(different)} op(s) not deterministic")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    prefix = PREFIX[name]
    digest = oracle.fold(h or "00" * 32 for h in hashes["untraced"][:prefix])
    digest_failed = 0
    if seed == info["default_seed"]:
        if digest == info.get("prefix_digest"):
            digest_note = "matches the committed value"
        else:
            digest_note = f"MISMATCH, committed {info.get('prefix_digest')}"
            wrong.append("certificate digest differs from the committed "
                         "value")
            digest_failed = prefix
    else:
        digest_note = "no committed value for this seed"

    attempted = len(records) + len(traced)
    failed = min(attempted, len(failures) + digest_failed)
    dense = sum(1 for _, _, r, _ in records[:prefix]
                if r is not None and r.outcome.startswith("Dense"))
    busy_raw = sum(rec[0] for rec in records)
    busy = sum(rec[1] for rec in records)
    # Throughput over whole rounds of the workload's mix of operations.
    whole = len(records) - len(records) % wl.ROUND[name]
    whole_raw = sum(rec[0] for rec in records[:whole])
    whole_busy = sum(rec[1] for rec in records[:whole])
    latencies = sorted(rec[1] for rec in records)
    raw_latencies = sorted(rec[0] for rec in records)
    tail, beyond = percentile(latencies, TAIL_PERCENTILE[name])
    raw_tail = percentile(raw_latencies, TAIL_PERCENTILE[name])[0]
    e2e = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (whole / whole_busy, "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "latency_tail_ms": (tail * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} set-ups; raw {setup_raw:.4f}",
        "ops_per_s": f"{whole} of {len(records)} ops in whole rounds of "
                     f"{wl.ROUND[name]}; {busy_raw:.2f} s busy in "
                     f"{wall:.2f} s; raw {whole / whole_raw:.4f}",
        "latency_p50_ms": f"raw {statistics.median(raw_latencies) * 1000:.2f}",
        "latency_tail_ms": f"p{TAIL_PERCENTILE[name]}, {beyond} of "
                           f"{len(latencies)} samples beyond; raw "
                           f"{raw_tail * 1000:.2f}",
    }
    print(f"workload {name}  seed {seed}  trace {args.trace}")
    print(f"machine speed {busy / busy_raw:.3f} of the reference; times "
          "below are at the reference speed")
    for key, (value, unit) in e2e.items():
        print(f"{key} {value:.4f} {unit}  {notes.get(key, '')}")
    print(f"failed_ratio {failed / attempted:.4f}  ({failed} of {attempted})")
    print(f"dense_ratio {dense / prefix:.4f}  ({dense} of the first "
          f"{prefix} ops)")
    print(f"digest {digest}  ({digest_note})")

    if args.trace:
        metrics = tracer.metrics()
        self_times = {k: v for k, v in metrics.items()
                      if k.endswith(".self_s")}
        self_sum = sum(self_times.values())
        if self_sum > traced_wall:
            wrong.append("self times exceed the wall time")
        wrong += [f"negative self time: {k} {v}"
                  for k, v in self_times.items() if v < 0]
        if hard is not None:
            reason = oracle.recheck_report(hard.text, hard.p, hard.f, hard.g)
            if reason:
                wrong.append(f"oracle rejects the hard input's report: "
                             f"{reason}")
            hard_hash = oracle.op_hash(hard.outcome, [], hard.text)
            if hard_hash != wl.HARD_QQ_HASH:
                wrong.append(f"hard input's output hash {hard_hash} is not "
                             f"the committed {wl.HARD_QQ_HASH}")
            print(f"hard input finished within {DEADLINE_S} s")
        traced_busy = sum(rec[1] for rec in traced)
        metrics.update({
            "bench.dense_ratio": dense / prefix,
            "bench.failed_ratio": failed / attempted,
            "trace.ops_per_s": len(traced) / traced_busy,
            "trace.overhead_ratio": traced_busy / busy - 1,
            "trace.wall_s": traced_wall,
            "trace.self_s_sum": self_sum,
            "cli.main.hard_input_deadline_exceeded": hard_exceeded,
        })
        print(f"trace: {len(tracer.spans)} spans, overhead "
              f"{traced_busy / busy - 1:+.1%} on the same {len(traced)} ops, "
              f"self times {self_sum:.2f} s of {traced_wall:.2f} s wall")
        tracer.write_spans(os.path.join(OUT, f"spans-{name}.jsonl"))
        units = tracing.per_layer_names() + RUN_LEVEL_UNITS
        out = {k: {"value": metrics[k], "unit": u} for k, u in units}
    else:
        out = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    for problem in wrong:
        print(f"wrong: {problem}")
    for (phase, i), reason in sorted(failures.items())[:20]:
        print(f"failed: {phase} op {i}: {reason}")
    print(json.dumps({"correct": not wrong, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
