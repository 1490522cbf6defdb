"""The scripts under scripts/, run as the processes a user starts, and the one refusal
boundary they share with ``tritangle``: an ``ast`` scan finds a write to standard error only
in ``tritangle.cli``."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tritangle import census_csv, run_census

ROOT = Path(__file__).resolve().parent.parent
CLOSED_PIPE = "error: standard output was closed before all output was written\n"


def run_script(name: str, *args: str, stdout=subprocess.PIPE,
               cwd=None) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          stdout=stdout, stderr=subprocess.PIPE, text=True, env=env,
                          cwd=cwd, timeout=120)


def test_run_census_writes_the_three_tables(tmp_path):
    result = run_script("run_census.py", "--max-denominator", "25", "--out-dir", str(tmp_path))
    assert result.returncode == 0, result.stderr
    for kind in ("tautau", "taurho", "rhorho"):
        written = (tmp_path / f"census_{kind}.csv").read_text(encoding="utf-8")
        assert written == census_csv(run_census(kind, 25)), kind


def test_run_census_past_the_cap_exits_two_before_creating_the_directory(tmp_path):
    out_dir = tmp_path / "census"
    result = run_script("run_census.py", "--max-denominator", "100", "--out-dir", str(out_dir))
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert result.stderr == "error: census bound 100 exceeds the cap 99\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("where, reason", [
    ("file", "File exists"), ("file/census", "Not a directory"),
    ("dir", "Is a directory"),  # census_tautau.csv is a directory: the write fails
], ids=["out-dir-is-a-file", "out-dir-under-a-file", "table-is-a-directory"])
def test_run_census_refuses_an_out_dir_it_cannot_write_in_one_line(tmp_path, where, reason):
    (tmp_path / "file").write_text("", encoding="utf-8")
    (tmp_path / "dir" / "census_tautau.csv").mkdir(parents=True)
    out_dir = tmp_path / where
    result = run_script("run_census.py", "--max-denominator", "3", "--out-dir", str(out_dir))
    path = out_dir / "census_tautau.csv" if where == "dir" else out_dir
    assert (result.returncode, result.stdout, result.stderr) == \
        (2, "", f"error: {path}: {reason}\n")


def test_run_census_refuses_an_empty_out_dir_as_census_refuses_an_empty_out(tmp_path):
    # Path("") is ".": taken as a name, the empty text would fill the working directory
    result = run_script("run_census.py", "--max-denominator", "3", "--out-dir", "", cwd=tmp_path)
    assert (result.returncode, result.stdout, result.stderr) == \
        (2, "", "error: : No such file or directory\n")
    assert list(tmp_path.iterdir()) == []


def test_run_census_into_a_closed_reader_is_one_error_line_and_exit_two(tmp_path):
    read, write = os.pipe()
    os.close(read)  # before the script starts, so its first write fails
    try:
        result = run_script("run_census.py", "--max-denominator", "3",
                            "--out-dir", str(tmp_path), stdout=write)
    finally:
        os.close(write)
    assert (result.returncode, result.stderr) == (2, CLOSED_PIPE)


@pytest.mark.parametrize("bound, refusal", [
    (["9" * 5000], "argument --max-denominator: invalid int value: <5002 characters>\n"),
    (["9" * 300], "error: census bound <300 characters> exceeds the cap 99\n"),
    (["3", "9" * 5000], "run_census.py: error: unrecognized arguments: <5000 characters>\n"),
], ids=["past-the-digit-limit", "past-the-cap", "unrecognized-after-the-bound"])
def test_run_census_echoes_a_long_bound_within_bounds(tmp_path, bound, refusal):
    out_dir = tmp_path / "census"
    result = run_script("run_census.py", "--max-denominator", *bound, "--out-dir", str(out_dir))
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.endswith(refusal)
    assert len(result.stderr.encode("utf-8")) <= 250
    assert not out_dir.exists()


def test_run_census_refuses_an_argument_holding_a_newline_in_one_error_line(tmp_path):
    result = run_script("run_census.py", "--max-denominator", "3", "x\nerror: forged",
                        cwd=tmp_path)
    assert (result.returncode, result.stdout) == (2, "")
    assert [line for line in result.stderr.splitlines() if "error" in line] == \
        ["run_census.py: error: 'unrecognized arguments: x\\nerror: forged'"]
    assert list(tmp_path.iterdir()) == []


def stderr_writes(tree: ast.AST) -> list[str]:
    """Each use of standard error in ``tree``: ``sys.stderr`` (as ``print``'s ``file``, a
    ``write``'s target or a value passed on), ``sys.__stderr__`` or an import of either."""
    found = []
    for node in ast.walk(tree):
        where = f"line {getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Attribute) and node.attr in ("stderr", "__stderr__"):
            found.append(f"{where}: {node.attr}")
        elif isinstance(node, ast.alias) and node.name in ("stderr", "__stderr__"):
            found.append(f"{where}: import {node.name}")
    return found


SOURCES = sorted([*(ROOT / "src" / "tritangle").glob("*.py"), *(ROOT / "scripts").glob("*.py")])


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_only_cli_writes_to_standard_error(path):
    found = stderr_writes(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    if path == ROOT / "src" / "tritangle" / "cli.py":
        assert found, "cli writes each refusal to standard error"
    else:
        assert found == []


@pytest.mark.parametrize("source", [
    'print(f"error: {exc}", file=sys.stderr)', "sys.stderr.write(text)",
    "from sys import stderr", "sys.__stderr__.write(text)",
])
def test_the_stderr_scan_finds_each_form(source):
    assert stderr_writes(ast.parse(source))


def test_reproduce_tables_reports_no_mismatch():
    result = run_script("reproduce_tables.py")
    assert result.returncode == 0, result.stderr
    assert result.stdout.endswith("\nchecked: 20\nmismatches: 0\n")
    assert result.stdout.count("\n") == 23  # 21 entries, then the two counts


def test_capture_prints_the_pinned_digests():
    # the same on every supported Python; a change that alters an output on purpose updates
    # the digest of its part here and names the change
    result = run_script("capture.py")
    assert result.returncode == 0, result.stderr
    assert result.stdout == (
        "documents: 5cd534b99a35c133767228f98bf7a8188c309e29e67865e2b6094fefff3efe43\n"
        "census: 765ee63bfc37726661f4493aeab132800f6a05d6283415ec2a55da5eefcf159d\n"
        "catalog: 438bcadad748dc69d45d6206557c0425d3877706d9c7e26d4c5a7cba3576bf00\n")


def test_stages_prints_each_stage_of_the_documents_path():
    # under -S, as the script is meant to run; its values are timings, so only the keys are pinned
    result = subprocess.run([sys.executable, "-S", str(ROOT / "scripts" / "stages.py")],
                            capture_output=True, text=True, timeout=120)
    assert (result.returncode, result.stderr) == (0, "")
    assert [line.split(": ")[0] for line in result.stdout.splitlines()] == \
        ["decode", "loads_decomposition", "classify", "dumps_decomposition"]
