"""The engine's arithmetic stays exact: no floating point anywhere in ``src/tritangle``.

An ``ast`` scan of every module refuses a float (or complex) constant, the names ``float``,
``Fraction`` and ``Decimal`` (as a name, an attribute or an import), an import of the
``fractions`` or ``decimal`` modules, and true division ``/`` (``//`` is integer division).
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "tritangle"
MODULES = sorted(SRC.glob("*.py"))
INEXACT_NAMES = {"float", "Fraction", "Decimal"}
INEXACT_MODULES = {"fractions", "decimal"}


def inexact_nodes(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        where = f"line {getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{where}: constant {node.value!r}")
        elif isinstance(node, ast.Name) and node.id in INEXACT_NAMES:
            found.append(f"{where}: name {node.id}")
        elif isinstance(node, ast.Attribute) and node.attr in INEXACT_NAMES:
            found.append(f"{where}: attribute {node.attr}")
        elif isinstance(node, ast.alias) and (node.name.split(".")[0] in INEXACT_MODULES
                                              or node.name in INEXACT_NAMES):
            found.append(f"{where}: import {node.name}")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] \
                in INEXACT_MODULES:
            found.append(f"{where}: import from {node.module}")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(f"{where}: true division")
    return found


def test_every_engine_module_is_scanned():
    assert {path.stem for path in MODULES} >= {"frac", "tangle", "verdict", "jsonio", "census"}


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_no_floating_point_in_the_engine(path):
    assert inexact_nodes(ast.parse(path.read_text(encoding="utf-8"), str(path))) == []


@pytest.mark.parametrize("source, what", [
    ("x = 0.5", "constant 0.5"),
    ("x = 2j", "constant 2j"),
    ("x = float(y)", "name float"),
    ("x = fractions.Fraction(1, 3)", "attribute Fraction"),
    ("from fractions import Fraction", "import from fractions"),
    ("import decimal", "import decimal"),
    ("x = a / b", "true division"),
    ("x /= 2", "true division"),
])
def test_the_scan_finds_each_inexact_form(source, what):
    found = inexact_nodes(ast.parse(source))
    assert found and found[0].endswith(what)


def test_the_scan_passes_integer_division():
    assert inexact_nodes(ast.parse("x = a // b\ny = a % b\nz = divmod(a, b)")) == []
