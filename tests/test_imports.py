"""Import discipline: the classify path loads only the modules it uses.

``import tritangle`` resolves its public names on first use, and the CLI
imports the catalog, census and rectangle modules only in the subcommands
that use them, so a process that classifies one document never imports
them, and ``json`` and ``tritangle.jsonio`` only in the subcommands that
read or write JSON.  No module of the package imports ``dataclasses`` (and
with it ``inspect``), ``typing`` or ``collections.abc``.
"""

from __future__ import annotations

import argparse
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from tritangle import catalog_get, cli, dumps_decomposition

SRC = Path(__file__).resolve().parent.parent / "src"

# every name ``from tritangle import ...`` offered when the package imported its modules eagerly
PUBLIC_NAMES = (
    "AnnulusType", "good_annulus",
    "CatalogEntry", "CatalogReport", "catalog_entries", "catalog_get", "catalog_names",
    "catalog_verify",
    "CensusRow", "census_csv", "census_decomposition", "run_census",
    "BoundsTooLarge", "DocumentError", "InconsistentFlags", "InfiniteSlope", "InfiniteValue",
    "InvalidTorusParams", "MutualExclusivityViolation", "NotApplicable", "SlopeTooLarge",
    "TritangleError", "UnknownName", "ZeroOverZero",
    "ExtFraction", "TwistVector", "cf_eval", "cf_expand", "mod_z_equal",
    "palindrome_numerators", "parse_fraction", "slope_normalize",
    "dumps_decomposition", "loads_decomposition", "loads_tangle", "parse_decomposition",
    "parse_tangle", "serialize_decomposition", "serialize_tangle",
    "RectangleType", "boundary_arc_count", "rect_types_rho", "rect_types_tau",
    "AbstractRho", "AbstractTau", "RationalPresentation", "ResolvedTangle", "RhoDescriptor",
    "TauDescriptor", "TorusParams", "TorusRhoPresentation", "Violation", "mirror_descriptor",
    "resolve", "resolve_rho", "resolve_tau", "twist_rho", "validate_descriptor",
    "AnnulusCount", "AnnulusProfile", "Decomposition", "Obstruction", "Verdict", "classify",
    "classify_rhorho", "classify_tautau", "classify_taurho", "mirror_decomposition",
    "obstruction_check",
)

# Runs in a fresh isolated interpreter (-I ignores PYTHONPATH, so it puts SRC on the path).
PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tritangle, tritangle.cli
document = tritangle.loads_decomposition(sys.argv[2])
verdict = tritangle.classify(document)
out = {"summary": verdict.summary(), "document": tritangle.dumps_decomposition(document),
       "loaded": [m for m in ("dataclasses", "inspect", "tritangle.catalog", "tritangle.census",
                              "tritangle.rect") if m in sys.modules]}
names = json.loads(sys.argv[3])
out["unresolved"] = [name for name in names if not hasattr(tritangle, name)]
out["undirected"] = sorted(set(names) - set(dir(tritangle)))
try:
    tritangle.no_such_name
    out["unknown"] = "resolved"
except AttributeError as exc:
    out["unknown"] = str(exc)
print(json.dumps(out))
"""


def test_classify_path_imports_no_catalog_and_no_dataclasses():
    text = dumps_decomposition(catalog_get("4_1").decomposition)
    done = subprocess.run(
        [sys.executable, "-I", "-c", PROBE, str(SRC), text, json.dumps(PUBLIC_NAMES)],
        capture_output=True, text=True, timeout=60, check=True)
    out = json.loads(done.stdout)
    assert out["summary"] == "3 essential annuli [tautau (ii)]"
    assert out["document"] == text
    assert out["loaded"] == []
    assert out["unresolved"] == []
    assert out["undirected"] == []
    assert out["unknown"] == "module 'tritangle' has no attribute 'no_such_name'"


def test_star_import_and_module_names():
    namespace: dict = {}
    exec("from tritangle import *", namespace)
    assert set(PUBLIC_NAMES) <= set(namespace)
    import tritangle

    # a module reached as an attribute of the package, as the eager imports bound them
    assert tritangle.verdict.classify is tritangle.classify
    assert tritangle.__version__ == "0.1.0"


def test_no_module_imports_dataclasses():
    # every module but __main__, which runs the command when imported
    modules = sorted(f"tritangle.{path.stem}" for path in (SRC / "tritangle").glob("*.py")
                     if path.stem != "__main__")
    probe = ("import importlib, sys\n"
             "sys.path.insert(0, sys.argv[1])\n"
             "for name in sys.argv[2:]:\n"
             "    importlib.import_module(name)\n"
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n")
    done = subprocess.run([sys.executable, "-I", "-c", probe, str(SRC), *modules],
                          capture_output=True, text=True, timeout=60, check=True)
    assert "tritangle.catalog" in modules
    assert done.stdout == "[]\n"


def test_cli_imports_no_pathlib():
    # -S as well as -I: a site hook may load pathlib before the package is imported
    probe = ("import sys\n"
             "sys.path.insert(0, sys.argv[1])\n"
             "import tritangle.cli\n"
             "print('pathlib' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-I", "-S", "-c", probe, str(SRC)],
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout == "False\n"


def test_cf_expand_and_census_load_no_json():
    # json and jsonio are imported by the commands that read or write JSON; -S as well as -I,
    # since a site hook may load json first
    probe = ("import sys\n"
             "sys.path.insert(0, sys.argv[1])\n"
             "from tritangle.cli import main\n"
             "codes = [main(['cf', '3', '0']), main(['expand', '7/2']),\n"
             "         main(['census', 'tautau', '--max-denominator', '3'])]\n"
             "print(codes, sorted({'json', 'tritangle.jsonio'} & set(sys.modules)))\n")
    done = subprocess.run([sys.executable, "-I", "-S", "-c", probe, str(SRC)],
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.splitlines() == [
        "1/3 (slope 1/3)", "2 3", "m,n,branch,count", "-3,-3,tautau (i),inf",
        "-3,3,tautau (ii),3", "3,-3,tautau (ii),3", "3,3,tautau (i),inf", "[0, 0, 0] []"]


def test_cf_loads_no_shutil():
    # the parser reads the terminal width itself: HelpFormatter, given none, imports shutil (and
    # with it bz2, lzma, zlib and fnmatch) to read it; -S as well as -I, since a site hook may
    # load shutil first
    probe = ("import sys\n"
             "sys.path.insert(0, sys.argv[1])\n"
             "from tritangle.cli import main\n"
             "print(main(['cf', '3', '0']), 'shutil' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-I", "-S", "-c", probe, str(SRC)],
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.splitlines() == ["1/3 (slope 1/3)", "0 False"]


def _help_texts() -> list[str]:
    parser = cli.build_parser()
    subparsers = parser._subparsers._group_actions[0].choices.values()
    return [p.format_usage() + p.format_help() for p in (parser, *subparsers)]


@pytest.mark.parametrize("columns", [None, "", "-5", "0", "1", "37", "200", " 90 ", "abc"])
def test_the_parser_reads_the_width_shutil_reads(monkeypatch, columns):
    # at each COLUMNS, every usage and help text is the one HelpFormatter's own width gives
    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)
    texts = _help_texts()
    monkeypatch.setattr(cli.Parser, "_get_formatter", argparse.ArgumentParser._get_formatter)
    assert _help_texts() == texts


def _help_on_a_terminal(columns: str | None) -> str:
    # tritangle --help with its standard output on a pseudo-terminal 100 columns wide
    termios = pytest.importorskip("termios")
    fcntl = pytest.importorskip("fcntl")
    pytest.importorskip("pty")  # os.openpty exists where pty does
    env = {key: value for key, value in os.environ.items() if key != "COLUMNS"}
    env["PYTHONPATH"] = str(SRC)
    if columns is not None:
        env["COLUMNS"] = columns
    master, slave = os.openpty()
    fcntl.ioctl(slave, termios.TIOCSWINSZ, struct.pack("HHHH", 24, 100, 0, 0))
    with os.fdopen(master, "rb", buffering=0) as terminal:
        try:
            child = subprocess.Popen([sys.executable, "-m", "tritangle", "--help"], stdout=slave,
                                     stdin=subprocess.DEVNULL, env=env)
        finally:
            os.close(slave)
        chunks = []
        while True:  # read while the child writes, so a full terminal buffer cannot block it
            try:
                chunk = terminal.read(4096)
            except OSError:  # EIO: the child has closed the terminal's last open end
                break
            if not chunk:
                break
            chunks.append(chunk)
        assert child.wait(timeout=60) == 0
    return b"".join(chunks).decode().replace("\r\n", "\n")  # the terminal writes \n as \r\n


@pytest.mark.parametrize("columns", [None, "0"])
def test_the_parser_reads_the_terminal_width(monkeypatch, columns):
    # with COLUMNS unset or 0, the width is the terminal's on standard output, as shutil reads it
    monkeypatch.setattr(cli.Parser, "_get_formatter", argparse.ArgumentParser._get_formatter)
    monkeypatch.setenv("COLUMNS", "80")
    narrow = cli.build_parser().format_help()
    monkeypatch.setenv("COLUMNS", "100")
    expected = cli.build_parser().format_help()
    assert expected != narrow  # the help wraps differently at 100 columns than at 80
    assert _help_on_a_terminal(columns) == expected


def test_no_module_imports_typing():
    # every module but __main__; -S as well as -I, since a site hook may load either first;
    # collections.abc is what an annotation alone would otherwise import
    modules = sorted(f"tritangle.{path.stem}" for path in (SRC / "tritangle").glob("*.py")
                     if path.stem != "__main__")
    probe = ("import importlib, sys\n"
             "sys.path.insert(0, sys.argv[1])\n"
             "for name in sys.argv[2:]:\n"
             "    importlib.import_module(name)\n"
             "print(sorted({'typing', 'collections.abc'} & set(sys.modules)))\n")
    done = subprocess.run([sys.executable, "-I", "-S", "-c", probe, str(SRC), *modules],
                          capture_output=True, text=True, timeout=60, check=True)
    assert "tritangle.catalog" in modules
    assert done.stdout == "[]\n"
