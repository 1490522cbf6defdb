"""Golden outputs of the CLI's records: the full bytes of ``--json`` and of the text form."""

from __future__ import annotations

import hashlib
import json

import pytest

from tritangle.catalog import catalog_get, catalog_names
from tritangle.cli import main
from tritangle.jsonio import dumps_decomposition

SPECIAL_RHORHO = {"type": "rhorho", "special": True, "tangles": [
    {"kind": "rho", "presentation": {"torus_rho": {"p": 2, "q": 3}}},
    {"kind": "rho", "presentation": {"torus_rho": {"p": 2, "q": 3}}}]}
TOROIDAL = {"type": "taurho", "special": False, "tangles": [
    {"kind": "tau", "presentation": {"rational": {"twists": [3, 0]}}},
    {"kind": "rho", "presentation": {"abstract": {
        "atoroidal": False, "trivial": False, "satellite": True}}}]}
TORUS_SIDE = {"kind": "rho", "presentation": {"torus_rho": {"p": 3, "q": 2}}}
RATIONAL_SIDE = {"kind": "tau", "presentation": {"rational": {"twists": [3, 0]}}}

IRREDUCIBLE = ("irreducible: every 3-decomposable genus-two handlebody-knot is irreducible "
               "(asserted, not checked)")
SPECIAL_RHORHO_VIOLATION = ("SpecialRhoRho (special): a rho-rho decomposition cannot be "
                            "special (the complement would be disconnected)")


def document(tmp_path, name: str) -> str:
    """A path to the document for a catalog entry or one of the documents above."""
    text = {"special_rhorho": json.dumps(SPECIAL_RHORHO), "toroidal": json.dumps(TOROIDAL),
            "torus_side": json.dumps(TORUS_SIDE),
            "rational_side": json.dumps(RATIONAL_SIDE)}.get(name)
    if text is None:
        text = dumps_decomposition(catalog_get(name).decomposition)
    path = tmp_path / f"{name}.json"
    path.write_text(text, encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert captured.err == ""
    return code, captured.out


CLASSIFY_JSON = {
    "4_1": (0, """\
{
  "status": "classified",
  "summary": "3 essential annuli [tautau (ii)]",
  "annulus_count": "3",
  "hyperbolic": false,
  "branch": "tautau (ii)",
  "annuli": [
    "three annuli from good-rectangle pairings"
  ],
  "notes": [
    "atoroidal: both tangle exteriors are atoroidal",
    "special with slopes 1/3 and -1/3 (mixed signs)",
    "%s"
  ],
  "violations": []
}
""" % IRREDUCIBLE),
    "6_9": (0, """\
{
  "status": "classified",
  "summary": "hyperbolic (no essential annuli) [taurho (hyperbolic)]",
  "annulus_count": "0",
  "hyperbolic": true,
  "branch": "taurho (hyperbolic)",
  "annuli": [],
  "notes": [
    "atoroidal: both tangle exteriors are atoroidal",
    "the rho side is not satellite or cable and has no Hopf summand, \
so neither side carries a good annulus",
    "%s",
    "hyperbolic: no essential disks, annuli or tori in the exterior \
(Thurston's criterion with geodesic boundary)"
  ],
  "violations": []
}
""" % IRREDUCIBLE),
    "special_rhorho": (3, """\
{
  "status": "inadmissible",
  "summary": "inadmissible: %s",
  "annulus_count": null,
  "hyperbolic": null,
  "branch": null,
  "annuli": [],
  "notes": [],
  "violations": [
    "%s"
  ]
}
""" % (SPECIAL_RHORHO_VIOLATION, SPECIAL_RHORHO_VIOLATION)),
    "toroidal": (4, """\
{
  "status": "toroidal",
  "summary": "toroidal (annulus counting requires atoroidal sides)",
  "annulus_count": null,
  "hyperbolic": null,
  "branch": null,
  "annuli": [],
  "notes": [
    "annulus counting requires both sides atoroidal"
  ],
  "violations": []
}
"""),
}


@pytest.mark.parametrize("name", sorted(CLASSIFY_JSON))
def test_classify_json_bytes(capsys, tmp_path, name):
    assert run(capsys, "classify", document(tmp_path, name), "--json") == CLASSIFY_JSON[name]


TORUS_PROVENANCE = (
    "torus: declared curve parameters, canonicalized to p > 0",
    "rational: false, a rational loop-tangle has slope +-1/(2k) and torus parameters (k, +-1)",
    "satellite: torus parameters with p >= 2 bound a type I (satellite) annulus",
    "essential: atoroidal, non-trivial and not a Hopf tangle",
)


def test_tangle_json_bytes_of_a_torus_side(capsys, tmp_path):
    provenance = ",\n".join(f'    "{note}"' for note in TORUS_PROVENANCE)
    assert run(capsys, "tangle", document(tmp_path, "torus_side"), "--json") == (0, f"""\
{{
  "kind": "rho",
  "atoroidal": true,
  "trivial": false,
  "essential": true,
  "satellite": true,
  "cable": false,
  "hopf_summand": false,
  "hopf_tangle": false,
  "provenance": [
{provenance}
  ],
  "rational": false,
  "torus": {{
    "p": 3,
    "q": 2
  }},
  "good_rectangles": [
    "rho type I",
    "rho type I*"
  ],
  "good_annulus": "type I (satellite)"
}}
""")


# The text form of the same records: ``key: value`` lines, a list as ``  - item`` lines or
# ``none``, a None value left out.
CLASSIFY_TEXT = {
    "4_1": (0, f"""\
status: classified
summary: 3 essential annuli [tautau (ii)]
annulus_count: 3
hyperbolic: False
branch: tautau (ii)
annuli:
  - three annuli from good-rectangle pairings
notes:
  - atoroidal: both tangle exteriors are atoroidal
  - special with slopes 1/3 and -1/3 (mixed signs)
  - {IRREDUCIBLE}
violations: none
"""),
    "special_rhorho": (3, f"""\
status: inadmissible
summary: inadmissible: {SPECIAL_RHORHO_VIOLATION}
annuli: none
notes: none
violations:
  - {SPECIAL_RHORHO_VIOLATION}
"""),
}


@pytest.mark.parametrize("name", sorted(CLASSIFY_TEXT))
def test_classify_text(capsys, tmp_path, name):
    assert run(capsys, "classify", document(tmp_path, name)) == CLASSIFY_TEXT[name]


def test_tangle_text_of_a_torus_side(capsys, tmp_path):
    # the torus parameters print as one line of JSON, not as a Python dict
    provenance = "".join(f"  - {note}\n" for note in TORUS_PROVENANCE)
    assert run(capsys, "tangle", document(tmp_path, "torus_side")) == (0, f"""\
kind: rho
atoroidal: True
trivial: False
essential: True
satellite: True
cable: False
hopf_summand: False
hopf_tangle: False
provenance:
{provenance}rational: False
torus: {{"p": 3, "q": 2}}
good_rectangles:
  - rho type I
  - rho type I*
good_annulus: type I (satellite)
""")


# The --verify report of the full catalog: each entry's result and expected verdict (an actual
# verdict only where the two differ), then the number of entries checked and of mismatches.
VERIFY_JSON = """\
{
  "4_1": {
    "result": "pass",
    "expected": "3 essential annuli [tautau (ii)]"
  },
  "5_2": {
    "result": "pass",
    "expected": "inf essential annuli [tautau (i)]"
  },
  "5_3": {
    "result": "pass",
    "expected": "hyperbolic [tautau (otherwise)]"
  },
  "6_2": {
    "result": "pass",
    "expected": "hyperbolic [tautau (otherwise)]"
  },
  "6_3": {
    "result": "pass",
    "expected": "hyperbolic [tautau (otherwise)]"
  },
  "6_5": {
    "result": "pass",
    "expected": "hyperbolic [tautau (otherwise)]"
  },
  "6_6": {
    "result": "pass",
    "expected": "hyperbolic [tautau (otherwise)]"
  },
  "6_7": {
    "result": "pass",
    "expected": "hyperbolic [tautau (otherwise)]"
  },
  "6_8": {
    "result": "stored",
    "expected": "hyperbolic"
  },
  "6_9": {
    "result": "pass",
    "expected": "hyperbolic [taurho (hyperbolic)]"
  },
  "7_17": {
    "result": "pass",
    "expected": "hyperbolic [tautau (otherwise)]"
  },
  "7_18": {
    "result": "pass",
    "expected": "hyperbolic [tautau (otherwise)]"
  },
  "7_21": {
    "result": "pass",
    "expected": "hyperbolic [tautau (otherwise)]"
  },
  "7_23": {
    "result": "pass",
    "expected": "hyperbolic [tautau (otherwise)]"
  },
  "7_26": {
    "result": "pass",
    "expected": "hyperbolic [taurho (hyperbolic)]"
  },
  "7_27": {
    "result": "pass",
    "expected": "hyperbolic [tautau (otherwise)]"
  },
  "7_33": {
    "result": "pass",
    "expected": "hyperbolic [tautau (otherwise)]"
  },
  "7_37": {
    "result": "pass",
    "expected": "hyperbolic [taurho (hyperbolic)]"
  },
  "7_57": {
    "result": "pass",
    "expected": "hyperbolic [tautau (otherwise)]"
  },
  "7_58": {
    "result": "pass",
    "expected": "hyperbolic [tautau (otherwise)]"
  },
  "non_3_decomposable": {
    "result": "pass",
    "expected": "NOT_3_DECOMPOSABLE_BY_ANNULUS_TYPES"
  },
  "checked": 20,
  "mismatches": 0
}
"""


def test_catalog_verify_json_bytes(capsys):
    assert run(capsys, "catalog", "--verify", "--json") == (0, VERIFY_JSON)


def test_every_catalog_entry_is_pinned(capsys):
    # each entry's text then its --json record, in table order; any change to an entry's
    # output changes the digest
    text = "".join(run(capsys, "catalog", name, *json_flag)[1]
                   for name in catalog_names() for json_flag in ((), ("--json",)))
    assert len(text) == 23_940
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "548f989b9601d3a05e2f41dc7e3054a61ccc707daf8f0f8257139a7afed37176")


def text_of(record: dict) -> str:
    """The text form of a ``--json`` record: each top-level key gives its own line or lines.

    A list gives ``key:`` and one ``  - item`` line per item (``key: none`` when empty), an
    object one line of JSON, null no line, any other value ``key: value``.
    """
    lines = []
    for key, value in record.items():
        if value == []:
            lines.append(f"{key}: none")
        elif isinstance(value, list):
            lines += [f"{key}:", *(f"  - {item}" for item in value)]
        elif isinstance(value, dict):
            lines.append(f"{key}: {json.dumps(value)}")
        elif value is not None:
            lines.append(f"{key}: {value}")
    return "".join(f"{line}\n" for line in lines)


@pytest.mark.parametrize("argv", [
    ["tangle", "torus_side"], ["tangle", "rational_side"],
    ["classify", "4_1"], ["classify", "6_9"], ["classify", "special_rhorho"],
    ["classify", "toroidal"],
    ["catalog"], ["catalog", "5_2"], ["catalog", "6_8"], ["catalog", "non_3_decomposable"],
    ["catalog", "--verify"], ["catalog", "--verify", "7_"],
], ids=" ".join)
def test_text_is_the_json_record_line_by_line(capsys, tmp_path, argv):
    if argv[0] != "catalog":
        argv = [argv[0], document(tmp_path, argv[1])]
    code, text = run(capsys, *argv)
    json_code, out = run(capsys, *argv, "--json")
    assert code == json_code
    assert text == text_of(json.loads(out))
