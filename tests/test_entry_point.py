"""The ``tritangle`` executable end to end: each test runs it as a separate process.

The command is ``$TRITANGLE_EXE`` when that variable is set (it must then resolve to an
executable, such as an installed ``tritangle``), else ``python -m tritangle``.  Each test
pins an exit code and an exact text.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest

CLOSED_PIPE = "error: standard output was closed before all output was written\n"


@pytest.fixture(scope="module")
def tritangle() -> list[str]:
    exe = os.environ.get("TRITANGLE_EXE")
    if exe is None:
        return [sys.executable, "-m", "tritangle"]
    path = shutil.which(exe)
    if path is None:
        pytest.fail(f"TRITANGLE_EXE={exe!r} does not resolve to an executable")
    return [path]


def run(tritangle, *argv) -> tuple[int, str, str]:
    done = subprocess.run([*tritangle, *argv], capture_output=True, text=True, timeout=120)
    assert "Traceback" not in done.stderr
    return done.returncode, done.stdout, done.stderr


def write(tmp_path, name: str, document) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(document), encoding="utf-8")
    return str(path)


def test_catalog_verify_record_checks_twenty_entries_without_a_mismatch(tritangle):
    code, out, _ = run(tritangle, "catalog", "--verify", "--json")
    record = json.loads(out)
    assert (code, record["checked"], record["mismatches"]) == (0, 20, 0)


def test_catalog_entry_record_is_json(tritangle):
    code, out, _ = run(tritangle, "catalog", "4_1", "--json")
    assert code == 0
    json.loads(out)


def test_a_catalog_decomposition_classifies_through_the_documents_path(tritangle, tmp_path):
    code, out, _ = run(tritangle, "catalog", "6_9", "--json")
    assert code == 0
    path = write(tmp_path, "doc.json", json.loads(out)["decomposition"])
    code, out, _ = run(tritangle, "classify", path, "--json")
    assert code == 0
    json.loads(out)


def test_census_at_the_cap_carries_the_pinned_digest(tritangle):
    # the three tables at bound 99, concatenated: the digest tests/test_census.py pins
    text = ""
    for kind in ("tautau", "taurho", "rhorho"):
        code, out, _ = run(tritangle, "census", kind, "--max-denominator", "99")
        assert code == 0
        text += out
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "765ee63bfc37726661f4493aeab132800f6a05d6283415ec2a55da5eefcf159d")


def test_census_to_a_reader_that_stops_after_the_header(tritangle):
    # exit 0 if the pipe took every row, else exit 2 and the closed-pipe line, never a
    # traceback, whatever the pipe's size
    with subprocess.Popen([*tritangle, "census", "tautau", "--max-denominator", "99"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as process:
        try:
            header = process.stdout.readline()
            process.stdout.close()
            err = process.stderr.read()
            code = process.wait(timeout=120)
        finally:
            process.kill()
    assert header == "m,n,branch,count\n"
    assert (code, err) in ((0, ""), (2, CLOSED_PIPE))


def run_with_fd_1_closed(tritangle, *argv) -> tuple[int, str]:
    # the child starts with no descriptor 1, so Python gives it no standard output
    done = subprocess.run([*tritangle, *argv], stderr=subprocess.PIPE, text=True,
                          preexec_fn=lambda: os.close(1), timeout=120)
    return done.returncode, done.stderr


@pytest.mark.skipif(os.name != "posix", reason="closes a descriptor before exec")
def test_output_to_a_closed_descriptor_is_one_error_line_and_exit_two(tritangle):
    assert run_with_fd_1_closed(tritangle, "cf", "3", "0") == (
        2, "error: standard output: Bad file descriptor\n")


@pytest.mark.skipif(os.name != "posix", reason="closes a descriptor before exec")
def test_census_to_a_file_needs_no_standard_output(tritangle, tmp_path):
    path = tmp_path / "census.csv"
    assert run_with_fd_1_closed(tritangle, "census", "tautau", "--max-denominator", "3",
                                "--out", str(path)) == (0, "")
    assert path.read_text(encoding="utf-8") == (
        "m,n,branch,count\n-3,-3,tautau (i),inf\n-3,3,tautau (ii),3\n"
        "3,-3,tautau (ii),3\n3,3,tautau (i),inf\n")


def close_fd_2():
    os.close(2)  # Python then gives the child no standard error


def make_fd_2_read_only():
    os.dup2(os.open(os.devnull, os.O_RDONLY), 2)  # a standard error that refuses every write


@pytest.mark.skipif(os.name != "posix", reason="changes a descriptor before exec")
@pytest.mark.parametrize("preexec", [close_fd_2, make_fd_2_read_only], ids=["closed", "read-only"])
def test_a_refusal_without_standard_error_writes_nothing_and_exits_two(tritangle, preexec):
    done = subprocess.run([*tritangle, "expand", "x"], stdout=subprocess.PIPE, text=True,
                          preexec_fn=preexec, timeout=120)
    assert (done.returncode, done.stdout) == (2, "")


@pytest.mark.skipif(shutil.which("bash") is None, reason="needs bash")
def test_a_refusal_with_standard_error_closed_by_the_shell_exits_two(tritangle):
    done = subprocess.run(["bash", "-c", '"$@" 2>&-', "bash", *tritangle, "expand", "x"],
                          stdout=subprocess.PIPE, text=True, timeout=120)
    assert (done.returncode, done.stdout) == (2, "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    ["cf", "3", "0"], ["census", "tautau"], ["catalog", "--verify", "--json"],
], ids=["cf", "census", "catalog"])
def test_a_full_standard_output_is_one_error_line_and_exit_two(tritangle, argv):
    with open("/dev/full", "w") as full:
        done = subprocess.run([*tritangle, *argv], stdout=full, stderr=subprocess.PIPE,
                              text=True, timeout=120)
    assert (done.returncode, done.stderr) == (
        2, "error: standard output: No space left on device\n")


def test_abstract_flag_of_another_type_is_refused_with_its_path(tritangle, tmp_path):
    path = write(tmp_path, "flag.json", {"type": "tautau", "special": False, "tangles": [
        {"kind": "tau", "presentation": {"abstract": {
            "atoroidal": 1, "trivial": False, "rational": True}}},
        {"kind": "tau", "presentation": {"rational": {"twists": [3, 0]}}}]})
    assert run(tritangle, "classify", path) == (2, "", (
        "error: document.tangles[0].presentation.abstract.atoroidal: expected a boolean\n"))


def test_special_tautau_without_a_slope_is_inadmissible(tritangle, tmp_path):
    path = write(tmp_path, "slope.json", {"type": "tautau", "special": True, "tangles": [
        {"kind": "tau", "presentation": {"rational": {"twists": [3, 0]}}},
        {"kind": "tau", "presentation": {"abstract": {
            "atoroidal": True, "trivial": False, "rational": True}}}]})
    code, out, _ = run(tritangle, "classify", path, "--json")
    assert (code, json.loads(out)["violations"]) == (3, [
        "UndeterminedSlope (second): a special tau-tau decomposition needs concrete "
        "unit-fraction slopes (or a definite refutation) to choose a count branch"])


def test_expand_quotes_its_argument_once(tritangle):
    assert run(tritangle, "expand", "--", "+7/2") == (2, "", (
        "error: not a valid fraction: '+7/2' is not \"p/q\" or \"p\" in ASCII digits\n"))


def test_torus_arc_whose_slope_is_too_long_to_write_is_refused(tritangle, tmp_path):
    # p has 4,300 digits and 2p has 4,301, so the examiner refuses the slope 1/(2p) it builds
    path = write(tmp_path, "torus.json", {
        "kind": "rho", "presentation": {"torus_rho": {"p": 5 * 10 ** 4299, "q": 1}}})
    assert run(tritangle, "tangle", path) == (2, "", (
        "error: SlopeTooLarge (params): the slope's denominator has more than 4300 digits, "
        "too many to write as text\n"))


@pytest.mark.parametrize("argv", [
    ["classify", "x" * 100_000], ["tangle", "x" * 100_000],
    ["census", "tautau", "--out", "x" * 100_000],
], ids=["classify", "tangle", "census-out"])
def test_a_long_refused_path_is_written_as_its_length(tritangle, argv):
    # a Linux argument holds up to 131,072 bytes, so the path reaches the program whole
    code, out, err = run(tritangle, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: <100000 characters>: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert len(err.encode("utf-8")) <= 200


def test_a_refused_path_with_a_newline_is_one_error_line(tritangle, tmp_path):
    path = str(tmp_path / "a\nerror: b")  # no such file
    assert run(tritangle, "classify", path) == (
        2, "", f"error: {path!r}: No such file or directory\n")
