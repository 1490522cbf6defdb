"""The digit limit has one owner: ``frac`` words every refusal of an integer with more digits
than ``str`` writes, in the same words on every Python.

An ``ast`` scan of ``src/tritangle`` finds the name ``MAX_STR_DIGITS`` only in ``frac`` and no
``.partition(";")``, the cut that once kept the interpreter's own text; then each of the seven
refusing sites is reached, and its text is compared with the one wording, written out here.
"""

from __future__ import annotations

import ast
import contextlib
import io
import sys
from pathlib import Path

import pytest

from tritangle.cli import main
from tritangle.errors import DocumentError, InvalidTorusParams, SlopeTooLarge
from tritangle.frac import ExtFraction, parse_fraction
from tritangle.jsonio import loads_decomposition, serialize_tangle
from tritangle.tangle import AbstractTau, RationalPresentation, TauDescriptor, TorusParams
from tritangle.verdict import Decomposition, classify

SRC = Path(__file__).resolve().parent.parent / "src" / "tritangle"
MODULES = sorted(SRC.glob("*.py"))
DIGITS = sys.get_int_max_str_digits()
HUGE = 10 ** DIGITS  # the least integer with one digit more than str writes


def limit_nodes(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        where = f"line {getattr(node, 'lineno', '?')}"
        if (isinstance(node, ast.Name) and node.id == "MAX_STR_DIGITS"
                or isinstance(node, ast.Attribute) and node.attr == "MAX_STR_DIGITS"
                or isinstance(node, ast.alias) and node.name == "MAX_STR_DIGITS"):
            found.append(f"{where}: MAX_STR_DIGITS")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "partition" and len(node.args) == 1
              and isinstance(node.args[0], ast.Constant) and node.args[0].value == ";"):
            found.append(f"{where}: partition(';')")
    return found


def scan(path: Path) -> list[str]:
    return limit_nodes(ast.parse(path.read_text(encoding="utf-8"), str(path)))


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_only_frac_knows_the_digit_limit(path):
    found = scan(path)
    if path.name == "frac.py":
        assert "MAX_STR_DIGITS" in {item.partition(": ")[2] for item in found}
        found = [item for item in found if not item.endswith("MAX_STR_DIGITS")]
    assert found == []


@pytest.mark.parametrize("source, what", [
    ("from .frac import MAX_STR_DIGITS", "MAX_STR_DIGITS"),
    ("x = frac.MAX_STR_DIGITS", "MAX_STR_DIGITS"),
    ("x = f'{MAX_STR_DIGITS} digits'", "MAX_STR_DIGITS"),
    ("x = str(exc).partition(';')[0]", "partition(';')"),
])
def test_the_scan_finds_each_form(source, what):
    found = limit_nodes(ast.parse(source))
    assert found and found[0].endswith(what)


def test_the_scan_passes_another_partition():
    assert limit_nodes(ast.parse('head, slash, tail = text.partition("/")')) == []


def raised(kind: type, call, *args) -> str:
    """The text of the ``kind`` that ``call(*args)`` raises: a DocumentError's after its path."""
    with pytest.raises(kind) as info:
        call(*args)
    if kind is DocumentError:
        assert info.value.path == "document"
        return info.value.message
    return str(info.value)


def cli_refusal(*argv: str) -> str:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert main(list(argv)) == 2
    return err.getvalue().removeprefix("error: ").removesuffix("\n")


def abstract_tau(slope: ExtFraction) -> TauDescriptor:
    return TauDescriptor(AbstractTau(atoroidal=True, trivial=False, rational=True, slope=slope))


LONG_LITERAL = ('{"type": "tautau", "special": true, "tangles": [{"kind": "tau", "presentation": '
                '{"rational": {"twists": [1' + "0" * DIGITS + ']}}}, 2]}')


# each site and what it calls the integer it refuses; built when the test runs
SITES = {
    "frac.parse_fraction": ("a numerator or denominator",
                            lambda: raised(ValueError, parse_fraction, "7" * (DIGITS + 1))),
    "jsonio._decode": ("an integer literal",
                       lambda: raised(DocumentError, loads_decomposition, LONG_LITERAL)),
    "tangle.TorusParams": ("torus parameter p",
                           lambda: raised(InvalidTorusParams, TorusParams, HUGE, 1)),
    "tangle._slope_too_large": ("the slope's denominator", lambda: classify(Decomposition(
        "tautau", True, abstract_tau(ExtFraction(1, HUGE)),
        TauDescriptor(RationalPresentation((3, 0))))).violations[0].detail),
    "cli.cmd_cf": ("the twist vector's value", lambda: cli_refusal("cf", *["100"] * 2500)),
    "jsonio._write_slope": ("the slope", lambda: raised(
        SlopeTooLarge, serialize_tangle, abstract_tau(ExtFraction(HUGE + 1, 2)))),
    "jsonio.serialize_tangle": ("a twist entry", lambda: raised(
        SlopeTooLarge, serialize_tangle, TauDescriptor(RationalPresentation((HUGE, 0))))),
}


@pytest.mark.parametrize("site", SITES)
def test_every_over_long_integer_is_refused_in_one_wording(site):
    what, refusal = SITES[site]
    assert refusal() == f"{what} has more than {DIGITS} digits, too many to write as text"

