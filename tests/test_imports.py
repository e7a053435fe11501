"""Every name a dp1cert module imports is used in that module (stdlib-only
AST scan; names listed in a module's __all__ count as used), and the
runtime imports nothing outside the standard library."""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "dp1cert"


def unused_imports(tree: ast.Module) -> list:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_scan_flags_an_unused_import():
    tree = ast.parse("import os\nfrom math import gcd, lcm\nlcm(2, 3)\n")
    assert unused_imports(tree) == [(1, "os"), (2, "gcd")]


def test_no_unused_imports_in_src():
    found = {path.name: unused_imports(ast.parse(path.read_text()))
             for path in sorted(SRC.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}


def non_stdlib_imports(tree: ast.Module) -> list:
    """(line, module) of every absolute import outside the standard library
    of the running interpreter; relative imports stay in the package."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module))
    return sorted((line, name) for line, name in found
                  if name.split(".")[0] not in sys.stdlib_module_names)


def test_scan_flags_a_non_stdlib_import():
    tree = ast.parse("import math, sympy\n"
                     "from fractions import Fraction\n"
                     "from .exactalg import QQ\n"
                     "from sympy.polys import Poly\n")
    assert non_stdlib_imports(tree) == [(1, "sympy"), (4, "sympy.polys")]


def test_runtime_is_stdlib_only():
    found = {path.name: non_stdlib_imports(ast.parse(path.read_text()))
             for path in sorted(SRC.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}
