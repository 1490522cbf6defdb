"""Import discipline: the classify path loads only the modules it uses.

``import tritangle`` resolves its public names on first use, and the CLI
imports the catalog, census and rectangle modules only in the subcommands
that use them, so a process that classifies one document never imports
them.  No module of the package imports ``dataclasses`` (and with it
``inspect``) or ``typing``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from tritangle import catalog_get, dumps_decomposition

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


def test_no_module_imports_typing():
    # every module but __main__; -S as well as -I, since a site hook may load typing first
    modules = sorted(f"tritangle.{path.stem}" for path in (SRC / "tritangle").glob("*.py")
                     if path.stem != "__main__")
    probe = ("import importlib, sys\n"
             "sys.path.insert(0, sys.argv[1])\n"
             "for name in sys.argv[2:]:\n"
             "    importlib.import_module(name)\n"
             "print('typing' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-I", "-S", "-c", probe, str(SRC), *modules],
                          capture_output=True, text=True, timeout=60, check=True)
    assert "tritangle.catalog" in modules
    assert done.stdout == "False\n"
