"""The digit limit has one owner: ``frac`` words every refusal of an integer with more digits
than ``str`` writes, in the same words on every Python.

An ``ast`` scan of ``src/tritangle`` finds the name ``MAX_STR_DIGITS`` only in ``frac`` and no
``.partition(";")``, the cut that once kept the interpreter's own text; then each of the seven
refusing sites is reached, and its text is compared with the one wording, written out here.
A value refused for another reason is written by ``errors.echo``, which needs no limit: each
site that echoes one refuses such an integer in its own words.
"""

from __future__ import annotations

import ast
import contextlib
import io
import sys
from pathlib import Path

import pytest

from tritangle.catalog import catalog_get
from tritangle.census import census_decomposition, run_census
from tritangle.cli import main
from tritangle.errors import BoundsTooLarge, DocumentError, InvalidTorusParams, SlopeTooLarge, \
    UnknownName
from tritangle.frac import ExtFraction, parse_fraction
from tritangle.jsonio import loads_decomposition, parse_decomposition, parse_tangle, \
    serialize_tangle
from tritangle.tangle import AbstractTau, RationalPresentation, TauDescriptor, TorusParams
from tritangle.verdict import INADMISSIBLE, Decomposition, classify

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


HUGE_NAME = "<int too long to write>"
TAU = TauDescriptor(RationalPresentation((3, 0)))


def unknown_kind(kind) -> str:
    verdict = classify(Decomposition(kind, False, TAU, TAU))
    assert verdict.status == INADMISSIBLE
    (violation,) = verdict.violations
    assert violation.rule == "UnknownKind"
    return violation.detail


def document_error(parse, obj) -> str:
    with pytest.raises(DocumentError) as info:
        parse(obj)
    return str(info.value)


# each site that echoes a refused value, and the text it refuses an integer past the digit
# limit with: its own refusal, the one it raises for any value it refuses; built when run
ECHO_SITES = {
    "verdict.classify": (
        f"unknown decomposition kind {HUGE_NAME}", lambda: unknown_kind(HUGE)),
    "jsonio.parse_decomposition.type": (
        f'document.type: expected "tautau", "taurho" or "rhorho", got {HUGE_NAME}',
        lambda: document_error(parse_decomposition, {"type": HUGE, "special": False,
                                                     "tangles": []})),
    "jsonio._fields": (f"document.{HUGE_NAME}: unknown field",
                       lambda: document_error(parse_decomposition, {HUGE: 1})),
    "jsonio.parse_tangle.kind": (
        f'tangle.kind: expected "tau" or "rho", got {HUGE_NAME}',
        lambda: document_error(parse_tangle, {"kind": HUGE, "presentation": {}})),
    "jsonio.parse_tangle.variant": (
        f"tangle.presentation.{HUGE_NAME}: unknown presentation variant",
        lambda: document_error(parse_tangle, {"kind": "tau", "presentation": {HUGE: {}}})),
    "census._layout.run_census": (f"unknown census kind {HUGE_NAME}",
                                  lambda: raised(ValueError, run_census, HUGE, 5)),
    "census._layout.census_decomposition": (
        f"unknown census kind {HUGE_NAME}",
        lambda: raised(ValueError, census_decomposition, HUGE, 3, 3)),
    "census._check_bound.above": (f"census bound {HUGE_NAME} exceeds the cap 99",
                                  lambda: raised(BoundsTooLarge, run_census, "tautau", HUGE)),
    "census._check_bound.below": (f"census bound must be non-negative, got {HUGE_NAME}",
                                  lambda: raised(BoundsTooLarge, run_census, "tautau", -HUGE)),
    "catalog.catalog_get": (f"no catalog entry named {HUGE_NAME}",
                            lambda: raised(UnknownName, catalog_get, HUGE)),
}


@pytest.mark.parametrize("site", ECHO_SITES)
def test_an_over_long_integer_is_echoed_in_the_sites_own_refusal(site):
    message, refusal = ECHO_SITES[site]
    assert refusal() == message
