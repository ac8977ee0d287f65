"""No floating point, ever: an AST scan of the package source.

Five rules: no true division (``/`` or ``/=``), no float literal, no
``float(...)`` call, no ``math`` name outside the integer-exact ones (as
``math.<name>`` or through ``from math import``), and no ``**`` or
two-argument ``pow`` with a negative literal exponent.  Four hits are
allowed, and none is a value the engine computes with: ``random_ground``'s
coin flip (changing it would redraw every seeded ground), the CLI's parse of
``--budget-seconds`` (its ``float`` and its ``math.inf`` bound) and the
ledger reader's check of a timing field (``math.isfinite``).
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "stirlingzero"
SOURCES = sorted(PACKAGE.glob("*.py"))

# (file, enclosing function, source of the hit)
ALLOWED = {("config_sums.py", "random_ground", "rng.random() < 0.5"),
           ("cli.py", "_budget_seconds", "float(text)"),
           ("cli.py", "_budget_seconds", "math.inf"),
           ("ledger.py", "_check_record", "math.isfinite")}

# the math functions that take and return integers only
EXACT_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm", "prod"}


def _negative_literal(node):
    return (isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)
            and isinstance(node.operand, ast.Constant))


def float_hits(path):
    """``(file, enclosing function, source)`` of every hit of the five rules in ``path``."""
    name, source = path.name, path.read_text("utf-8")
    hits = []

    def visit(node, parent, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        hit = None
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            hit = node
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            hit = parent  # the expression the literal sits in
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            hit = node
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "math" and node.attr not in EXACT_MATH):
            hit = node
        elif (isinstance(node, ast.ImportFrom) and node.module == "math"
              and any(alias.name not in EXACT_MATH for alias in node.names)):
            hit = node
        elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
              and _negative_literal(node.right)):
            hit = node
        elif (isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Pow)
              and _negative_literal(node.value)):
            hit = node
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "pow" and len(node.args) == 2
              and _negative_literal(node.args[1])):
            hit = node
        if hit is not None:
            hits.append((name, func, ast.get_source_segment(source, hit)))
        for child in ast.iter_child_nodes(node):
            visit(child, node, func)

    visit(ast.parse(source, name), None, None)
    return hits


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_floating_point(path):
    assert [hit for hit in float_hits(path) if hit not in ALLOWED] == []


def test_allowed_hits_are_the_only_ones():
    # an exception whose code is gone must leave the list too
    assert {hit for path in SOURCES for hit in float_hits(path)} == ALLOWED


@pytest.mark.parametrize("snippet, hit", [
    ("x = a / b", "a / b"), ("x /= 2", "x /= 2"), ("x = 0.5", "x = 0.5"),
    ("x = 1e3", "x = 1e3"), ("x = 2j", "x = 2j"), ("x = float(n)", "float(n)"),
    ("x = math.sqrt(n)", "math.sqrt"), ("from math import log", "from math import log"),
    ("x = a ** -1", "a ** -1"), ("a **= -2", "a **= -2"), ("x = pow(a, -1)", "pow(a, -1)")])
def test_each_rule_fires(tmp_path, snippet, hit):
    probe = tmp_path / "probe.py"
    probe.write_text(f"def probe(a, b, n):\n    {snippet}\n", "utf-8")
    assert float_hits(probe) == [("probe.py", "probe", hit)]


@pytest.mark.parametrize("snippet", [
    "x = math.comb(n, 2)", "from math import factorial, lcm", "x = a ** 2",
    "x = pow(a, -1, n)"])
def test_exact_forms_pass(tmp_path, snippet):
    probe = tmp_path / "probe.py"
    probe.write_text(f"def probe(a, b, n):\n    {snippet}\n", "utf-8")
    assert float_hits(probe) == []
