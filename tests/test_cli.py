"""Command-line interface: output formats and exit codes."""

from __future__ import annotations

import json
import os
import subprocess
import sys

from tritangle.cli import main
from tritangle.jsonio import dumps_decomposition, serialize_decomposition
from tritangle.catalog import catalog_get

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


def test_missing_file_exit_two(capsys, tmp_path):
    for command in ("classify", "tangle"):
        code, _, err = run(capsys, command, str(tmp_path / "absent.json"))
        assert code == EXIT_USAGE
        assert "error:" in err


def test_hostile_documents_exit_two(capsys, tmp_path):
    big = write_doc(tmp_path, "big.json", '{"kind": "tau", "presentation": '
                    '{"rational": {"twists": [' + "9" * 5000 + "]}}}")
    deep = write_doc(tmp_path, "deep.json", "[" * 100_000 + "]" * 100_000)
    for command in ("classify", "tangle"):
        for path in (big, deep):
            code, _, err = run(capsys, command, path)
            assert code == EXIT_USAGE
            assert "error:" in err


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


# ---------------------------------------------------------------------------
# catalog

def test_catalog_verify_all_match(capsys):
    code, out, _ = run(capsys, "catalog", "--verify")
    assert code == EXIT_OK
    assert "0 mismatches" in out
    assert "all entries match" in out


def test_catalog_single_entry(capsys):
    code, out, _ = run(capsys, "catalog", "5_2")
    assert code == EXIT_OK
    assert "inf essential annuli" in out


def test_catalog_unknown_name_exit_two(capsys):
    code, _, err = run(capsys, "catalog", "bogus")
    assert code == EXIT_USAGE


def test_catalog_entry_json_export_parses(capsys):
    code, out, _ = run(capsys, "catalog", "6_9", "--json")
    assert code == EXIT_OK
    from tritangle import loads_decomposition

    start = out.index("{")
    assert loads_decomposition(out[start:]).kind == "taurho"


def test_catalog_entry_json_export_is_indented(capsys):
    code, out, _ = run(capsys, "catalog", "6_9", "--json")
    assert code == EXIT_OK
    expected = json.dumps(serialize_decomposition(catalog_get("6_9").decomposition), indent=2)
    assert out[out.index("\n{") + 1:] == expected + "\n"


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


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "tritangle", "cf", "3", "0"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stdout.strip() == "1/3 (slope 1/3)"
