"""Statement lines of src/dp1cert that a pytest run never executes.

    python tools/linecov.py [pytest arguments]

runs pytest in this process (default arguments: -q -p no:cacheprovider
tests) under a sys.settrace line collector that follows only frames of
src/dp1cert, then prints, per file, the statement lines that never ran and
a total. A statement line is the first line of an `ast` statement that also
appears in the line table of the compiled module, so docstrings and lines
that compile to no instruction (a bare `try:`) are not counted. Stdlib only;
tracing slows the tests down about three to four times.
"""

import ast
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dp1cert"


def _code_lines(code) -> set:
    """Every line number in the line tables of code and its nested code."""
    out = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            out |= _code_lines(const)
    return out


def statement_lines(path: Path) -> set:
    source = path.read_text()
    tree = ast.parse(source)
    starts = {node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.stmt)}
    return starts & _code_lines(compile(source, str(path), "exec"))


def _ranges(lines) -> str:
    out, run = [], []
    for n in sorted(lines):
        if run and n != run[-1] + 1:
            out.append(run)
            run = []
        run.append(n)
    if run:
        out.append(run)
    return ", ".join(str(r[0]) if len(r) == 1 else f"{r[0]}-{r[-1]}"
                     for r in out)


def main(argv) -> int:
    prefix = str(PACKAGE) + "/"
    hits = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(argv or ["-q", "-p", "no:cacheprovider",
                                    str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        missed = statement_lines(path) - hits[str(path)]
        total += len(missed)
        print(f"{path.relative_to(ROOT)}: {len(missed)} unexecuted"
              + (f": {_ranges(missed)}" if missed else ""))
    print(f"total: {total} unexecuted statement lines")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
