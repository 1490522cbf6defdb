"""Generative argv at the command-line boundary: ``cli.main`` run in process.

Each example is a subcommand, or an option or a value in its place, and up to four drawn
arguments: subcommand names, options, ``--``, ``-h``, ``option=value`` forms, digit and
letter runs on either side of the 80 characters a refused value keeps, control and
non-ASCII characters, and paths to a directory, a missing file and a file that is not
UTF-8; in half the examples, one short argument follows them many times.  Whatever argv
holds, ``main`` returns or exits with one of the CLI's exit codes; a usage refusal writes
only argparse's usage text and one error line; and no line on standard error is longer
than a refused path that could name a file (``_PATH_MAX``) plus the words around it.
"""

from __future__ import annotations

import contextlib
import io
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tritangle.cli import _PATH_MAX, main

SUBCOMMANDS = ["cf", "expand", "tangle", "classify", "catalog", "census"]
OPTIONS = ["--json", "--verify", "--max-denominator", "--max", "--out", "--help", "-h"]
RUNS = [char * n for char in "9x" for n in (79, 81, 300, 5000)]
VALUES = RUNS + ["", "0", "3", "-3", "1/2", "4_1", "tautau", "rhorho", "\n", "x\nerror: forged",
                 "\r", "a\rb", "\x00", "a\x00b", "é", "٣", "日本",
                 # relative to the temporary directory each example runs in
                 "directory", "missing/doc.json", "latin1.json"]
ARGUMENT = st.one_of(
    st.sampled_from(SUBCOMMANDS + OPTIONS + ["--"] + VALUES),
    st.builds("{}={}".format, st.sampled_from(OPTIONS), st.sampled_from(VALUES)),
    st.sampled_from(VALUES).map("-h".__add__))
# a subcommand in four examples of five, else an option or a value in its place
FIRST = st.sampled_from(SUBCOMMANDS * 4 + ["-h", "--help", "--", "9" * 5000, "x" * 81, "é"])
# in half the examples, many short arguments: one subcommand name or value given up to 2,500
# times, far past the unrecognized-argument list that a refusal writes whole (an option given
# that often would cost argparse time quadratic in the count)
MANY = st.one_of(st.just([]), st.builds(
    lambda arg, n: [arg] * n, st.sampled_from([v for v in SUBCOMMANDS + VALUES if len(v) < 20]),
    st.integers(2, 2500)))
ARGV = st.builds(lambda first, rest, many: [first, *rest, *many], FIRST,
                 st.lists(ARGUMENT, max_size=4), MANY)

# argparse's usage text (first line and indented continuations) and each form of error line
USAGE_LINE = re.compile(r"usage: | |error: |tritangle(?: \w+)?: error: ")


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv")
    (root / "directory").mkdir()
    (root / "latin1.json").write_bytes(b'{"type": "caf\xe9"}')
    # census --out writes any drawn name it can, so each example runs inside this directory
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(root)
        yield root


@settings(max_examples=2000, deadline=None, derandomize=True)
@given(argv=ARGV)
def test_any_argv_ends_in_an_exit_code_and_bounded_lines(scratch, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exit_:  # argparse's refusal, or its help
            code = exit_.code
    assert code in (0, 1, 2, 3, 4)
    lines = err.getvalue().splitlines()
    if code == 2:
        assert lines and all(USAGE_LINE.match(line) for line in lines), lines
    assert all(len(line) <= _PATH_MAX + 200 for line in lines), max(map(len, lines))
