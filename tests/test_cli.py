"""Command-line interface: output formats and exit codes."""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import pytest

from tritangle import catalog as catalog_mod
from tritangle.cli import main
from tritangle.jsonio import dumps_decomposition, parse_decomposition
from tritangle.catalog import catalog_get, catalog_names
from tritangle.errors import InfiniteValue

EXIT_OK, EXIT_USAGE, EXIT_INADMISSIBLE, EXIT_TOROIDAL = 0, 2, 3, 4


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# cf / expand

def test_cf_one_third(capsys):
    code, out, _ = run(capsys, "cf", "3", "0")
    assert code == EXIT_OK
    assert out.strip() == "1/3 (slope 1/3)"


def test_cf_zero(capsys):
    code, out, _ = run(capsys, "cf", "0")
    assert code == EXIT_OK
    assert out.strip() == "0 (slope 0)"


def test_cf_hopf_marker(capsys):
    code, out, _ = run(capsys, "cf", "2", "0")
    assert code == EXIT_OK
    assert out.strip() == "1/2 (slope 1/2) [Hopf rho]"


def test_cf_unnormalized_value_and_slope(capsys):
    code, out, _ = run(capsys, "cf", "2", "3")
    assert code == EXIT_OK
    assert out.strip() == "7/2 (slope 1/2) [Hopf rho]"


def test_cf_negative_entries(capsys):
    code, out, _ = run(capsys, "cf", "--", "-3", "0")
    assert code == EXIT_OK
    assert out.strip() == "-1/3 (slope -1/3)"


def test_cf_infinite_input_is_usage_error(capsys):
    code, _, err = run(capsys, "cf", "0", "0")
    assert code == EXIT_USAGE
    assert "infinity" in err


def test_expand_round_trip(capsys):
    code, out, _ = run(capsys, "expand", "7/2")
    assert code == EXIT_OK
    assert out.split() == ["2", "3"]


def test_expand_negative(capsys):
    code, out, _ = run(capsys, "expand", "--", "-3/8")
    assert code == EXIT_OK
    from tritangle import ExtFraction, cf_eval

    assert cf_eval([int(a) for a in out.split()]) == ExtFraction(-3, 8)


def test_expand_rejects_garbage(capsys):
    code, _, err = run(capsys, "expand", "a/b")
    assert code == EXIT_USAGE


def test_expand_rejects_infinity(capsys):
    code, _, err = run(capsys, "expand", "1/0")
    assert code == EXIT_USAGE


@pytest.mark.parametrize("text", ["+7/2", " 7/2", "\u0667/\u0662", "1_0/3"],
                         ids=["plus", "space", "arabic-indic", "underscore"])
def test_expand_reads_only_ascii_digits_and_a_leading_minus(capsys, text):
    # int() reads each of these; a document's slope refuses them in the same words
    code, out, err = run(capsys, "expand", "--", text)
    assert (code, out) == (EXIT_USAGE, "")
    # the reason quotes the argument, so the prefix does not: a document slope reads the same
    assert err == f'error: not a valid fraction: {text!r} is not "p/q" or "p" in ASCII digits\n'


def test_expand_refuses_a_too_long_integer_without_the_interpreter_advice(capsys):
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "expand", "7" * (limit + 1))
    assert (code, out) == (EXIT_USAGE, "")
    # the engine's own words, the same on every Python, in place of the interpreter's
    assert err == (f"error: not a valid fraction: a numerator or denominator has more than "
                   f"{limit} digits, too many to write as text\n")


# ---------------------------------------------------------------------------
# classify

def write_doc(tmp_path, name, doc_text):
    path = tmp_path / name
    path.write_text(doc_text, encoding="utf-8")
    return str(path)


def test_classify_six_nine_document(capsys, tmp_path):
    path = write_doc(tmp_path, "six_nine.json",
                     dumps_decomposition(catalog_get("6_9").decomposition))
    code, out, _ = run(capsys, "classify", path)
    assert code == EXIT_OK
    assert "hyperbolic (no essential annuli) [taurho (hyperbolic)]" in out


def test_classify_four_one_document(capsys, tmp_path):
    path = write_doc(tmp_path, "four_one.json",
                     dumps_decomposition(catalog_get("4_1").decomposition))
    code, out, _ = run(capsys, "classify", path)
    assert code == EXIT_OK
    assert "3 essential annuli [tautau (ii)]" in out


def test_classify_json_output(capsys, tmp_path):
    path = write_doc(tmp_path, "five_two.json",
                     dumps_decomposition(catalog_get("5_2").decomposition))
    code, out, _ = run(capsys, "classify", path, "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["annulus_count"] == "inf"
    assert payload["branch"] == "tautau (i)"


def test_classify_special_rhorho_exit_three(capsys, tmp_path):
    doc = {
        "type": "rhorho", "special": True,
        "tangles": [
            {"kind": "rho", "presentation": {"torus_rho": {"p": 2, "q": 3}}},
            {"kind": "rho", "presentation": {"torus_rho": {"p": 2, "q": 3}}},
        ],
    }
    path = write_doc(tmp_path, "special_rhorho.json", json.dumps(doc))
    code, out, _ = run(capsys, "classify", path)
    assert code == EXIT_INADMISSIBLE
    assert "cannot be special" in out


def test_classify_toroidal_exit_four(capsys, tmp_path):
    doc = {
        "type": "taurho", "special": False,
        "tangles": [
            {"kind": "tau", "presentation": {"rational": {"twists": [3, 0]}}},
            {"kind": "rho", "presentation": {"abstract": {
                "atoroidal": False, "trivial": False, "satellite": True}}},
        ],
    }
    path = write_doc(tmp_path, "toroidal.json", json.dumps(doc))
    code, _, _ = run(capsys, "classify", path)
    assert code == EXIT_TOROIDAL


def test_classify_parse_error_exit_two(capsys, tmp_path):
    path = write_doc(tmp_path, "broken.json", '{"type": "tautau"')
    code, _, err = run(capsys, "classify", path)
    assert code == EXIT_USAGE
    assert "error:" in err


def test_classify_unknown_field_exit_two(capsys, tmp_path):
    doc = {
        "type": "tautau", "special": True, "bogus": 1,
        "tangles": [
            {"kind": "tau", "presentation": {"rational": {"twists": [3, 0]}}},
            {"kind": "tau", "presentation": {"rational": {"twists": [3, 0]}}},
        ],
    }
    path = write_doc(tmp_path, "unknown.json", json.dumps(doc))
    code, _, err = run(capsys, "classify", path)
    assert code == EXIT_USAGE
    assert "bogus" in err


def test_classify_non_boolean_abstract_flag_exit_two(capsys, tmp_path):
    doc = json.dumps({"type": "tautau", "special": False, "tangles": [
        {"kind": "tau", "presentation": {"abstract": {
            "atoroidal": 1, "trivial": False, "rational": True}}},
        {"kind": "tau", "presentation": {"rational": {"twists": [3, 0]}}}]})
    code, out, err = run(capsys, "classify", write_doc(tmp_path, "flag.json", doc))
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: document.tangles[0].presentation.abstract.atoroidal: expected a boolean\n"


def test_classify_non_boolean_special_exit_two(capsys, tmp_path):
    doc = dumps_decomposition(catalog_get("6_9").decomposition)
    path = write_doc(tmp_path, "special.json", doc.replace('"special": false', '"special": 0'))
    code, out, err = run(capsys, "classify", path)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: document.special: expected a boolean\n"


def test_non_utf8_file_exit_two(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"type": "tautau", "note": "caf\xe9"}')
    for command in ("classify", "tangle"):
        code, _, err = run(capsys, command, str(path))
        assert code == EXIT_USAGE
        assert "UTF-8" in err


def test_classify_duplicate_field_exit_two(capsys, tmp_path):
    doc = dumps_decomposition(catalog_get("6_9").decomposition)
    path = write_doc(tmp_path, "dup.json", doc.replace('"special": false', '"special": false, "special": true'))
    code, out, err = run(capsys, "classify", path)
    assert code == EXIT_USAGE
    assert out == ""
    assert "'special'" in err


def test_classify_byte_order_mark_exit_two(capsys, tmp_path):
    path = write_doc(tmp_path, "bom.json",
                     "\ufeff" + dumps_decomposition(catalog_get("6_9").decomposition))
    code, out, err = run(capsys, "classify", path)
    assert code == EXIT_USAGE
    assert out == ""
    assert "Unexpected UTF-8 BOM" in err


def test_classify_into_closed_pipe_exit_two(tmp_path):
    path = write_doc(tmp_path, "six_nine.json",
                     dumps_decomposition(catalog_get("6_9").decomposition))
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe now fails with EPIPE
    try:
        result = subprocess.run(
            [sys.executable, "-m", "tritangle", "classify", "--json", path],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert result.returncode == EXIT_USAGE
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("error:")


def test_census_into_closed_pipe_exit_two():
    # a census into a pipe with no reader, whatever its buffer size: cli.main's closed-pipe branch
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "tritangle", "census", "tautau", "--max-denominator", "99"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert result.returncode == EXIT_USAGE
    assert result.stderr == "error: standard output was closed before all output was written\n"


def test_missing_file_exit_two(capsys, tmp_path):
    for command in ("classify", "tangle"):
        code, _, err = run(capsys, command, str(tmp_path / "absent.json"))
        assert code == EXIT_USAGE
        assert "error:" in err


@pytest.mark.parametrize("argv", [
    ["classify", "a\0b"], ["tangle", "a\0b"], ["census", "tautau", "--out", "a\0b"],
], ids=["classify", "tangle", "census-out"])
def test_a_nul_in_a_path_is_one_error_line_and_exit_two(capsys, argv):
    # open raises ValueError for a NUL, which no file name holds; only an in-process caller
    # passes one, since process argv cannot carry a NUL
    assert run(capsys, *argv) == (EXIT_USAGE, "", "error: 'a\\x00b': embedded null byte\n")


def test_hostile_documents_exit_two(capsys, tmp_path):
    big = write_doc(tmp_path, "big.json", '{"kind": "tau", "presentation": '
                    '{"rational": {"twists": [' + "9" * 5000 + "]}}}")
    deep = write_doc(tmp_path, "deep.json", "[" * 100_000 + "]" * 100_000)
    for command in ("classify", "tangle"):
        for path in (big, deep):
            code, _, err = run(capsys, command, path)
            assert code == EXIT_USAGE
            assert "error:" in err


LONG = "x" * 200_000
RATIONAL_TAU = {"kind": "tau", "presentation": {"rational": {"twists": [3, 0]}}}


def tautau_with(first=RATIONAL_TAU, **fields) -> str:
    return json.dumps({"type": "tautau", "special": False, "tangles": [first, RATIONAL_TAU],
                       **fields})


@pytest.mark.parametrize("doc, line", [
    (tautau_with(type=LONG),
     'document.type: expected "tautau", "taurho" or "rhorho", got <200002 characters>'),
    (tautau_with(type=list(range(40_000))),
     'document.type: expected "tautau", "taurho" or "rhorho", got <268890 characters>'),
    (tautau_with({"kind": LONG, "presentation": {}}),
     'document.tangles[0].kind: expected "tau" or "rho", got <200002 characters>'),
    (tautau_with(**{LONG: 1}), "document.<200000 characters>: unknown field"),
    (tautau_with({"kind": "tau", "presentation": {LONG: {}}}),
     "document.tangles[0].presentation.<200000 characters>: unknown presentation variant"),
    (f'{{"{LONG}": 1, "{LONG}": 1}}',
     "field <200002 characters>: occurs more than once in one object"),
    (tautau_with({"kind": "tau", "presentation": {"abstract": {
        "atoroidal": True, "trivial": False, "rational": True, "slope": "1" + " " * 200_000}}}),
     "document.tangles[0].presentation.abstract.slope: not a valid fraction: "
     '<200003 characters> is not "p/q" or "p" in ASCII digits'),
    # int() would refuse this one too, and its own text cuts the echo only at 200 characters
    (tautau_with({"kind": "tau", "presentation": {"abstract": {
        "atoroidal": True, "trivial": False, "rational": True, "slope": LONG}}}),
     "document.tangles[0].presentation.abstract.slope: not a valid fraction: "
     '<200002 characters> is not "p/q" or "p" in ASCII digits'),
], ids=["type", "type-list", "kind", "field", "variant", "repeated-field", "slope",
        "slope-letters"])
def test_a_long_refused_value_is_written_as_its_length(capsys, tmp_path, doc, line):
    code, out, err = run(capsys, "classify", write_doc(tmp_path, "long.json", doc))
    assert (code, out, err) == (EXIT_USAGE, "", f"error: {line}\n")
    assert len(err.encode("utf-8")) <= 200


@pytest.mark.parametrize("flags", [[], ["--verify"]], ids=["name", "verify-prefix"])
def test_a_long_catalog_name_is_written_as_its_length(capsys, flags):
    code, out, err = run(capsys, "catalog", *flags, "x" * 100_000)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: no catalog entry named <100002 characters>\n"
    assert len(err.encode("utf-8")) <= 200


# ---------------------------------------------------------------------------
# main is the one place a refusal becomes an error line and exit 2

def _refuse(*_):
    raise InfiniteValue("refused by the engine")


@pytest.mark.parametrize("engine, argv", [
    ("tritangle.cli.classify", ["classify", "4_1.json"]),
    ("tritangle.cli.resolve", ["tangle", "tau.json"]),
    ("tritangle.census.run_census", ["census", "tautau"]),
], ids=["classify", "tangle", "census"])
def test_any_refusal_of_a_command_is_one_error_line_and_exit_two(
        capsys, monkeypatch, tmp_path, engine, argv):
    write_doc(tmp_path, "4_1.json", dumps_decomposition(catalog_get("4_1").decomposition))
    write_doc(tmp_path, "tau.json", json.dumps(RATIONAL_TAU))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(engine, _refuse)
    assert run(capsys, *argv) == (EXIT_USAGE, "", "error: refused by the engine\n")


# ---------------------------------------------------------------------------
# values within jsonio's literal limit whose results have too many digits to print

DIGITS = sys.get_int_max_str_digits()
HUGE = int("9" * DIGITS)  # the longest integer literal a document may hold
TOO_LARGE = (f"the slope's denominator has more than {DIGITS} digits, "
             "too many to write as text")


def run_process(*argv):
    result = subprocess.run([sys.executable, "-m", "tritangle", *argv],
                            capture_output=True, text=True, timeout=60)
    assert "Traceback" not in result.stderr
    return result.returncode, result.stdout, result.stderr


def test_cf_value_too_long_to_print_exit_two():
    code, out, err = run_process("cf", *["100"] * 2500)
    assert code == EXIT_USAGE
    assert out == ""
    assert err == (f"error: the twist vector's value has more than {DIGITS} digits, "
                   "too many to write as text\n")


def test_tangle_slope_too_large_exit_two(tmp_path):
    doc = {"kind": "tau", "presentation": {"rational": {"twists": [100] * 2500}}}
    code, out, err = run_process("tangle", write_doc(tmp_path, "long.json", json.dumps(doc)))
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"error: SlopeTooLarge (twists): {TOO_LARGE}\n"


def test_tangle_torus_slope_too_large_exit_two(tmp_path):
    # p has DIGITS digits, so the slope 1/(2p) has one more
    doc = {"kind": "rho", "presentation": {"torus_rho": {"p": HUGE, "q": 1}}}
    code, out, err = run_process("tangle", write_doc(tmp_path, "torus.json", json.dumps(doc)))
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"error: SlopeTooLarge (params): {TOO_LARGE}\n"


def test_classify_slope_too_large_exit_three(tmp_path):
    # the first side's slope is 1/(20 * HUGE)
    doc = {"type": "tautau", "special": True, "tangles": [
        {"kind": "tau", "presentation": {"rational": {"twists": [HUGE, 0] * 20}}},
        {"kind": "tau", "presentation": {"rational": {"twists": [5, 0]}}}]}
    code, out, err = run_process("classify", write_doc(tmp_path, "big.json", json.dumps(doc)))
    assert code == EXIT_INADMISSIBLE
    assert err == ""
    assert f"  - SlopeTooLarge (first, twists): {TOO_LARGE}\n" in out


# ---------------------------------------------------------------------------
# tangle

def test_tangle_profile(capsys, tmp_path):
    doc = {"kind": "rho", "presentation": {"rational": {"twists": [6, 0]}}}
    path = write_doc(tmp_path, "tangle.json", json.dumps(doc))
    code, out, _ = run(capsys, "tangle", path, "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["slope"] == "1/6"
    assert payload["torus"] == {"p": 3, "q": 1}
    assert payload["good_annulus"] == "type I (satellite)"
    assert "rho type I" in payload["good_rectangles"]


def test_tangle_inessential_notes_na(capsys, tmp_path):
    doc = {"kind": "rho", "presentation": {"rational": {"twists": [2, 0]}}}
    path = write_doc(tmp_path, "hopf.json", json.dumps(doc))
    code, out, _ = run(capsys, "tangle", path)
    assert code == EXIT_OK
    assert "hopf_tangle: True" in out
    assert "n/a" in out


ESSENTIAL_NOTE = "essential: atoroidal, non-trivial and not a Hopf tangle"


def test_tangle_essential_note_only_on_essential_abstract_sides(capsys, tmp_path):
    # every kind of presentation, not only abstract flags: the note follows the flag
    for kind, presentation, essential in (
            ("rho", {"abstract": {"atoroidal": True, "trivial": False, "hopf_tangle": True}},
             False),
            ("tau", {"abstract": {"atoroidal": True, "trivial": True, "rational": True}}, False),
            ("rho", {"abstract": {"atoroidal": True, "trivial": False}}, True),
            ("rho", {"rational": {"twists": [2, 1, 2, 0]}}, True),  # slope 3/8
            ("rho", {"rational": {"twists": [0]}}, False),  # slope 0, trivial
            ("rho", {"rational": {"twists": [2, 0]}}, False),  # slope 1/2, the Hopf tangle
            ("rho", {"torus_rho": {"p": 3, "q": 2}}, True)):
        doc = {"kind": kind, "presentation": presentation}
        path = write_doc(tmp_path, "side.json", json.dumps(doc))
        code, out, _ = run(capsys, "tangle", path)
        assert code == EXIT_OK
        assert f"essential: {essential}\n" in out
        assert (ESSENTIAL_NOTE in out) is essential
        code, out, _ = run(capsys, "tangle", path, "--json")
        provenance = json.loads(out)["provenance"]
        assert (ESSENTIAL_NOTE in provenance) is essential
        if essential:  # a derived-flag note comes after every source note
            assert provenance[-1] == ESSENTIAL_NOTE
        if presentation == {"rational": {"twists": [0]}}:
            assert "trivial: slope is 0 modulo Z" in provenance


def test_tangle_unit_fraction_side_without_slope_has_no_rectangles(capsys, tmp_path):
    doc = {"kind": "tau", "presentation": {"abstract": {
        "atoroidal": True, "trivial": False, "rational": True, "unit_fraction_slope": True}}}
    code, out, err = run(capsys, "tangle", write_doc(tmp_path, "unit.json", json.dumps(doc)))
    assert (code, err) == (EXIT_OK, "")
    # the profile's fields in ResolvedTangle's order, then the rectangles and the annulus
    assert out == (
        "kind: tau\natoroidal: True\ntrivial: False\nessential: True\nsatellite: False\n"
        "cable: False\nhopf_summand: False\nhopf_tangle: False\nprovenance:\n"
        "  - flags: abstract descriptor taken at face value\n"
        "  - essential: atoroidal, non-trivial and not a Hopf tangle\n"
        "rational: True\nunit_fraction_slope: True\n"
        "good_rectangles: n/a (a concrete slope is required to classify tau rectangles)\n"
        "good_annulus: none\n")


def test_tangle_tau_side_with_torus_parameters_exit_two(capsys, tmp_path):
    side = {"kind": "tau", "presentation": {"torus_rho": {"p": 2, "q": 3}}}
    code, out, err = run(capsys, "tangle", write_doc(tmp_path, "side.json", json.dumps(side)))
    assert (code, out, err) == (EXIT_USAGE, "", (
        "error: tangle.presentation.torus_rho: torus parameters only present rho-tangles\n"))


def test_abstract_tau_infinite_slope(capsys, tmp_path):
    side = {"kind": "tau", "presentation": {"abstract": {
        "atoroidal": True, "trivial": False, "rational": True, "slope": "1/0"}}}
    doc = {"type": "tautau", "special": True, "tangles": [
        side, {"kind": "tau", "presentation": {"rational": {"twists": [3, 0]}}}]}
    detail = "infinite slope does not present a rational 3-tangle"
    code, out, _ = run(capsys, "classify", write_doc(tmp_path, "dec.json", json.dumps(doc)))
    assert code == EXIT_INADMISSIBLE
    assert f"violations:\n  - InfiniteSlope (first, slope): {detail}\n" in out
    code, out, err = run(capsys, "tangle", write_doc(tmp_path, "side.json", json.dumps(side)))
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: InfiniteSlope (slope): {detail}\n"


def test_tangle_infinite_twist_vector_too_long_to_write_is_counted(capsys, tmp_path):
    # a vector is written out only when that takes at most 80 characters
    side = {"kind": "tau", "presentation": {"rational": {"twists": [0] * 100_000}}}
    code, out, err = run(capsys, "tangle", write_doc(tmp_path, "side.json", json.dumps(side)))
    assert (code, out) == (EXIT_USAGE, "")
    assert err == ("error: InfiniteSlope (twists): "
                   "twist vector of 100000 entries evaluates to infinity\n")


# ---------------------------------------------------------------------------
# catalog

# one line per entry, each a line of JSON, then the two counts
VERIFY_TEXT = """\
4_1: {"result": "pass", "expected": "3 essential annuli [tautau (ii)]"}
5_2: {"result": "pass", "expected": "inf essential annuli [tautau (i)]"}
5_3: {"result": "pass", "expected": "hyperbolic [tautau (otherwise)]"}
6_2: {"result": "pass", "expected": "hyperbolic [tautau (otherwise)]"}
6_3: {"result": "pass", "expected": "hyperbolic [tautau (otherwise)]"}
6_5: {"result": "pass", "expected": "hyperbolic [tautau (otherwise)]"}
6_6: {"result": "pass", "expected": "hyperbolic [tautau (otherwise)]"}
6_7: {"result": "pass", "expected": "hyperbolic [tautau (otherwise)]"}
6_8: {"result": "stored", "expected": "hyperbolic"}
6_9: {"result": "pass", "expected": "hyperbolic [taurho (hyperbolic)]"}
7_17: {"result": "pass", "expected": "hyperbolic [tautau (otherwise)]"}
7_18: {"result": "pass", "expected": "hyperbolic [tautau (otherwise)]"}
7_21: {"result": "pass", "expected": "hyperbolic [tautau (otherwise)]"}
7_23: {"result": "pass", "expected": "hyperbolic [tautau (otherwise)]"}
7_26: {"result": "pass", "expected": "hyperbolic [taurho (hyperbolic)]"}
7_27: {"result": "pass", "expected": "hyperbolic [tautau (otherwise)]"}
7_33: {"result": "pass", "expected": "hyperbolic [tautau (otherwise)]"}
7_37: {"result": "pass", "expected": "hyperbolic [taurho (hyperbolic)]"}
7_57: {"result": "pass", "expected": "hyperbolic [tautau (otherwise)]"}
7_58: {"result": "pass", "expected": "hyperbolic [tautau (otherwise)]"}
non_3_decomposable: {"result": "pass", "expected": "NOT_3_DECOMPOSABLE_BY_ANNULUS_TYPES"}
checked: 20
mismatches: 0
"""


def test_catalog_verify_all_match(capsys):
    code, out, _ = run(capsys, "catalog", "--verify")
    assert code == EXIT_OK
    assert out == VERIFY_TEXT


def test_catalog_single_entry(capsys):
    code, out, _ = run(capsys, "catalog", "5_2")
    assert code == EXIT_OK
    assert "inf essential annuli" in out


def test_catalog_unknown_name_exit_two(capsys):
    code, _, err = run(capsys, "catalog", "bogus")
    assert code == EXIT_USAGE


def test_catalog_empty_name_exit_two(capsys):
    # an empty name is a name that no entry has, not the absent argument that lists the table
    assert run(capsys, "catalog", "") == (EXIT_USAGE, "", "error: no catalog entry named ''\n")


def test_catalog_verify_empty_prefix_verifies_every_entry(capsys):
    # every name starts with the empty prefix
    assert run(capsys, "catalog", "--verify", "") == (EXIT_OK, VERIFY_TEXT, "")


def test_catalog_lists_every_entry(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert [line.partition(": ")[0] for line in lines] == list(catalog_names())
    assert len(lines) == 21
    assert [line for line in lines if line.endswith("obstruction profile")] == [
        "non_3_decomposable: obstruction profile"]
    assert "5_2: inf essential annuli [tautau (i)]" in lines


def test_catalog_verify_prefix_filter(capsys):
    code, out, _ = run(capsys, "catalog", "--verify", "7_")
    assert code == EXIT_OK
    assert out.count(': {"result": "pass", ') == 10
    assert out == "".join(line for line in VERIFY_TEXT.splitlines(keepends=True)
                          if line.startswith("7_")) + "checked: 10\nmismatches: 0\n"
    code, out, err = run(capsys, "catalog", "--verify", "zz")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: no catalog entry named 'zz'\n"


def test_catalog_verify_mismatch_exit_one(capsys, monkeypatch):
    # 5_2 paired with 4_1's expected verdict: the classifier disagrees
    wrong = catalog_get("5_2")._replace(expected=catalog_get("4_1").expected)
    monkeypatch.setattr(catalog_mod, "catalog_entries", lambda: (wrong, catalog_get("6_8")))
    code, out, _ = run(capsys, "catalog", "--verify")
    assert code == 1
    assert out == (
        '5_2: {"result": "FAIL", "expected": "3 essential annuli [tautau (ii)]", '
        '"actual": "infinitely many essential annuli [tautau (i)]"}\n'
        '6_8: {"result": "stored", "expected": "hyperbolic"}\n'
        "checked: 1\n"
        "mismatches: 1\n")
    code, out, _ = run(capsys, "catalog", "--verify", "--json")
    assert code == 1
    assert out == """\
{
  "5_2": {
    "result": "FAIL",
    "expected": "3 essential annuli [tautau (ii)]",
    "actual": "infinitely many essential annuli [tautau (i)]"
  },
  "6_8": {
    "result": "stored",
    "expected": "hyperbolic"
  },
  "checked": 1,
  "mismatches": 1
}
"""


def test_catalog_entry_json_export_parses(capsys):
    # every entry's --json output is one JSON object whose decomposition reads back as the entry's
    for entry in catalog_mod.catalog_entries():
        code, out, err = run(capsys, "catalog", entry.name, "--json")
        assert (code, err) == (EXIT_OK, "")
        record = json.loads(out)
        assert record == {
            "name": entry.name, "provenance": entry.provenance, "source": entry.source,
            "expected": str(entry.expected) if entry.expected else None,
            "expected obstructions": [o.name for o in entry.expected_obstructions] or None,
            "decomposition": record["decomposition"]}
        if entry.name in ("6_8", "non_3_decomposable"):
            assert record["decomposition"] is None and entry.decomposition is None
        else:
            assert parse_decomposition(record["decomposition"]) == entry.decomposition


def test_catalog_entry_json_export_is_indented(capsys):
    for entry in catalog_mod.catalog_entries():
        code, out, _ = run(capsys, "catalog", entry.name, "--json")
        assert code == EXIT_OK
        record = json.loads(out)
        assert list(record) == ["name", "provenance", "source", "expected",
                                "expected obstructions", "decomposition"]
        assert out == json.dumps(record, indent=2) + "\n"


def test_catalog_list_json_is_the_record(capsys):
    code, out, err = run(capsys, "catalog", "--json")
    assert (code, err) == (EXIT_OK, "")
    record = json.loads(out)
    assert record == {entry.name: str(entry.expected) if entry.expected else "obstruction profile"
                      for entry in catalog_mod.catalog_entries()}
    assert out == json.dumps(record, indent=2) + "\n"


@pytest.mark.parametrize("prefix", ["", "7_", "6_8"])
def test_catalog_verify_json_is_the_record(capsys, prefix):
    # the report as one JSON object: each entry's result and expected verdict, then the counts
    code, out, err = run(capsys, "catalog", "--verify", *([prefix] if prefix else []), "--json")
    assert (code, err) == (EXIT_OK, "")
    record = json.loads(out)
    report = catalog_mod.catalog_verify(
        [e for e in catalog_mod.catalog_entries() if e.name.startswith(prefix)])
    result = {None: "stored", True: "pass", False: "FAIL"}
    assert record == {**{row.name: {"result": result[row.passed], "expected": row.expected}
                         for row in report.rows},
                      "checked": report.checked, "mismatches": 0}
    assert out == json.dumps(record, indent=2) + "\n"


# ---------------------------------------------------------------------------
# census

def test_census_deterministic(capsys):
    code1, out1, _ = run(capsys, "census", "tautau", "--max-denominator", "7")
    code2, out2, _ = run(capsys, "census", "tautau", "--max-denominator", "7")
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    assert out1.splitlines()[0] == "m,n,branch,count"


def test_census_empty_range_header_only(capsys):
    code, out, _ = run(capsys, "census", "tautau", "--max-denominator", "1")
    assert code == EXIT_OK
    assert out == "m,n,branch,count\n"


def test_census_bounds_too_large_exit_two(capsys):
    code, _, err = run(capsys, "census", "tautau", "--max-denominator", "100")
    assert code == EXIT_USAGE
    assert "cap" in err


def test_census_negative_bound_exit_two(capsys):
    code, out, err = run(capsys, "census", "rhorho", "--max-denominator", "-1")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: census bound must be non-negative, got -1\n"


def _usage_error(capsys, *argv) -> str:
    # argparse's refusal: exit 2 and a usage text whose last line names the fault
    with pytest.raises(SystemExit) as exit_:
        main(list(argv))
    assert exit_.value.code == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    return err.splitlines()[-1]


INT_ARGUMENTS = pytest.mark.parametrize("argv, name", [
    (["cf", "--", "1"], "TWIST"), (["census", "tautau", "--max-denominator"], "--max-denominator"),
], ids=["cf", "census"])


@INT_ARGUMENTS
@pytest.mark.parametrize("value", ["x", "1.5", "", "a\nb", "\u0663x", "x" * 78],
                         ids=["letter", "float", "empty", "newline", "arabic-digit", "repr-80"])
def test_a_refused_integer_argument_reads_as_argparse_writes_it(capsys, argv, name, value):
    prog = f"tritangle {argv[0]}"
    assert _usage_error(capsys, *argv, value) == \
        f"{prog}: error: argument {name}: invalid int value: {value!r}"


@INT_ARGUMENTS
@pytest.mark.parametrize("value, length", [("x" * 79, 81), ("9" * 5000, 5002),
                                           ("9" * 300 + "x", 303)],
                         ids=["repr-81", "past-digit-limit", "trailing-letter"])
def test_a_long_refused_integer_argument_is_written_as_its_length(capsys, argv, name, value,
                                                                   length):
    line = _usage_error(capsys, *argv, value)
    assert line == f"tritangle {argv[0]}: error: argument {name}: invalid int value: " \
                   f"<{length} characters>"


LONG_ARGUMENT = "9" * 5000
# twelve arguments of 79 characters and their spaces: 959 characters of a 1,000-character list
TWELVE = ["x" * 79] * 12


@pytest.mark.parametrize("argv, line", [
    (["census", "tautau", LONG_ARGUMENT],
     "tritangle: error: unrecognized arguments: <5000 characters>"),
    (["expand", "1/2", LONG_ARGUMENT],
     "tritangle: error: unrecognized arguments: <5000 characters>"),
    (["catalog", "4_1", LONG_ARGUMENT],
     "tritangle: error: unrecognized arguments: <5000 characters>"),
    (["cf", "--" + LONG_ARGUMENT], "tritangle: error: unrecognized arguments: <5002 characters>"),
    (["census", "tautau", "--max-denominator=" + LONG_ARGUMENT],
     "tritangle census: error: argument --max-denominator: invalid int value: <5002 characters>"),
    (["census", "tautau", *["x" * 79] * 1500],
     "tritangle: error: unrecognized arguments: <1500 arguments>"),
    (["census", "tautau", *TWELVE, "y" * 40],
     "tritangle: error: unrecognized arguments: " + " ".join([*TWELVE, "y" * 40])),
    (["census", "tautau", *TWELVE, "y" * 41],
     "tritangle: error: unrecognized arguments: <13 arguments>"),
], ids=["census", "expand", "catalog", "cf-option", "census-bound-after-equals",
        "many-arguments", "list-at-the-bound", "list-past-the-bound"])
def test_a_long_argument_argparse_refuses_is_written_as_its_length(capsys, argv, line):
    assert _usage_error(capsys, *argv) == line


@pytest.mark.parametrize("argv, prog", [
    (["census", LONG_ARGUMENT], "tritangle census"), ([LONG_ARGUMENT], "tritangle"),
    (["classify", "--json=" + LONG_ARGUMENT, "x"], "tritangle classify"),
    pytest.param(["-h" + LONG_ARGUMENT], "tritangle", marks=pytest.mark.skipif(
        sys.version_info >= (3, 13), reason="Python 3.13 prints the help for -h and any text")),
], ids=["census-kind", "subcommand", "classify-option-value", "help-attached-value"])
def test_a_long_argument_argparse_words_by_version_is_written_as_its_length(capsys, argv,
                                                                             prog):
    # invalid choice and ignored explicit argument read differently between Python versions
    line = _usage_error(capsys, *argv)
    assert line.startswith(f"{prog}: error: argument ")
    assert "<5002 characters>" in line
    assert len(line.encode("utf-8")) <= 200


def test_a_refused_argument_holding_a_newline_is_one_error_line(capsys):
    # argparse echoes an unrecognized argument raw: its newline must not forge a second line
    with pytest.raises(SystemExit) as exit_:
        main(["census", "tautau", "x\nerror: forged"])
    assert exit_.value.code == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert [line for line in err.splitlines() if "error" in line] == \
        ["tritangle: error: 'unrecognized arguments: x\\nerror: forged'"]


TOO_MANY_OPTIONS = "tritangle: error: more than 100 option arguments"


@pytest.mark.parametrize("argv", [
    ["classify", *["--json"] * 6000, "doc.json"],
    ["census", "tautau", *["--max-denominator=3"] * 6000],
    ["classify", *["--json"] * 101, "doc.json"],
], ids=["classify-6000", "census-6000", "classify-101"])
def test_an_argv_of_many_options_is_refused_before_argparse_walks_it(capsys, monkeypatch, argv):
    # argparse's walk of repeated options costs time quadratic in their number: 6,000 took
    # about a second before they were counted first
    def walk(*args):
        raise AssertionError("argparse walked the argv")

    monkeypatch.setattr(argparse.ArgumentParser, "_parse_known_args", walk)
    assert _usage_error(capsys, *argv) == TOO_MANY_OPTIONS


def test_an_argv_at_the_option_bound_is_walked_by_argparse(capsys, tmp_path):
    missing = str(tmp_path / "doc.json")
    assert run(capsys, "classify", *["--json"] * 100, missing) == (
        EXIT_USAGE, "", f"error: {missing}: No such file or directory\n")


@pytest.mark.parametrize("argv, line", [
    # negative numbers and "-" are not options, nor is anything after "--"
    (["classify", *["-"] * 150],
     "tritangle: error: unrecognized arguments: " + " ".join(["-"] * 149)),
    (["cf", "--", *["--json"] * 6000], "tritangle cf: error: argument TWIST: invalid int value: "
                                         "'--json'"),
], ids=["dashes", "after-double-dash"])
def test_what_is_not_an_option_is_not_counted(capsys, argv, line):
    assert _usage_error(capsys, *argv) == line


def test_cf_of_many_negative_twists_evaluates(capsys):
    code, out, err = run(capsys, "cf", *["-1"] * 6000)
    assert (code, err) == (EXIT_OK, "")
    assert run(capsys, "cf", "--", *["-1"] * 6000) == (EXIT_OK, out, "")


@pytest.mark.parametrize("bound, line", [
    ("9" * 300, "census bound <300 characters> exceeds the cap 99"),
    ("-" + "9" * 300, "census bound must be non-negative, got <301 characters>"),
], ids=["past-the-cap", "negative"])
def test_a_long_census_bound_is_written_as_its_length(capsys, bound, line):
    assert run(capsys, "census", "tautau", "--max-denominator", bound) == \
        (EXIT_USAGE, "", f"error: {line}\n")

def test_census_refuses_a_kind_and_offers_the_decomposition_kinds(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["census", "sigma"])
    assert exit_.value.code == EXIT_USAGE
    err = capsys.readouterr().err  # argparse's wording differs between Python versions
    assert "invalid choice: 'sigma'" in err
    assert all(kind in err for kind in ("tautau", "taurho", "rhorho"))


def test_census_out_file(capsys, tmp_path):
    target = tmp_path / "census.csv"
    code, out, _ = run(capsys, "census", "taurho", "--max-denominator", "5",
                       "--out", str(target))
    assert code == EXIT_OK
    assert out == ""
    lines = target.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "m,n,branch,count"
    assert "3,2,taurho (i),inf" in lines


def test_census_out_unwritable_exit_two(capsys, tmp_path):
    target = tmp_path / "missing" / "census.csv"
    code, out, err = run(capsys, "census", "tautau", "--out", str(target))
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith(f"error: {target}:")
    assert not target.parent.exists()


def test_census_out_empty_name_exit_two(capsys):
    # an empty file name is refused by open, not taken as no --out
    assert run(capsys, "census", "tautau", "--out", "") == (
        EXIT_USAGE, "", "error: : No such file or directory\n")


@pytest.mark.parametrize("argv", [["classify"], ["tangle"], ["census", "tautau", "--out"]],
                         ids=["classify", "tangle", "census-out"])
def test_a_refused_path_that_could_name_a_file_is_written_whole(capsys, tmp_path, argv):
    # longer than the 80 characters a refused value keeps, well inside PATH_MAX
    target = str(tmp_path / ("d" * 100) / "doc.json")
    assert run(capsys, *argv, target) == (
        EXIT_USAGE, "", f"error: {target}: No such file or directory\n")


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "tritangle", "cf", "3", "0"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stdout.strip() == "1/3 (slope 1/3)"
    result = subprocess.run(
        [sys.executable, "-m", "tritangle", "catalog", "--verify"],
        capture_output=True, text=True)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == VERIFY_TEXT
