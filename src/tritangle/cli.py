"""Command-line surface: calculators, classification, catalog and census.

``tangle``, ``classify`` and every ``catalog`` form each build one record from the value they
report and print it with ``_emit``: one JSON document with ``--json``, else ``key: value`` lines.

A command refuses by raising ``TritangleError``; ``run``, the boundary of ``main`` and of
``scripts/run_census.py``, alone writes that or an ``OSError`` as one ``error:`` line, exit 2
(or the exit code alone, when standard error is closed or refuses the write).

Exit codes: 0 success/classified, 1 a ``catalog --verify`` mismatch, 2 usage, input or output
error (a file that cannot be written; a standard output closed early or from the start, or full),
3 inadmissible decomposition, 4 toroidal decomposition.
"""

from __future__ import annotations

import argparse
import os
import sys

# catalog, census and rect are imported by the subcommands that use them, so that cf and
# classify start without building the catalog; json and jsonio likewise, so that cf, expand
# and census start without them
from .errors import DocumentError, NotApplicable, TritangleError, echo
from .frac import cf_eval, cf_expand, parse_fraction, slope_normalize, too_long_to_print, \
    too_many_digits
from .tangle import HOPF_SLOPE, KIND_TAU, resolve
from .verdict import CLASSIFIED, INADMISSIBLE, KINDS, TOROIDAL, classify, good_annulus

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INADMISSIBLE = 3
EXIT_TOROIDAL = 4

# Linux's PATH_MAX: a refused path that could name a file is written whole, and only a longer
# one, which open refuses as too long, is written as its length
_PATH_MAX = 4096

# the longest list of unrecognized arguments a refusal writes, each argument bounded; a longer
# one, which only an argv of many arguments makes, is written as their number
_LIST_MAX = 1000
_UNRECOGNIZED = "unrecognized arguments: "
# the most option arguments (each "-" and more but a negative number, before any "--") an argv
# may hold: argparse's walk of repeated options costs time quadratic in their number
_OPTIONS_MAX = 100


class Parser(argparse.ArgumentParser):
    """An ArgumentParser that refuses in one line, each argument and list it echoes bounded."""

    def parse_known_args(self, args=None, namespace=None):
        self.arg_strings = sys.argv[1:] if args is None else list(args)
        before = [*self.arg_strings, "--"]  # the arguments before the first "--"
        if sum(arg.startswith("-") and arg != "-" and not self._negative_number_matcher.match(arg)
               for arg in before[:before.index("--")]) > _OPTIONS_MAX:
            self.error(f"more than {_OPTIONS_MAX} option arguments")
        namespace, self.extras = super().parse_known_args(self.arg_strings, namespace)
        return namespace, self.extras

    def error(self, message: str):
        # argparse echoes an argument raw or as its repr, and alone also an option's value after
        # "=" or a value attached to a single-dash flag; the longest goes first, so that no
        # shorter one is bounded inside it, and each text once, however often it is given; a
        # message still not printable is written as its repr
        parts = (p for arg in self.arg_strings for p in (arg, arg.partition("=")[2], arg[2:]))
        for text in sorted(dict.fromkeys(parts), key=len, reverse=True):
            if len(repr(text)) > 80:
                message = message.replace(repr(text), echo(text, repr)).replace(text, echo(text))
        if message.startswith(_UNRECOGNIZED) and len(message) - len(_UNRECOGNIZED) > _LIST_MAX:
            message = f"{_UNRECOGNIZED}<{len(self.extras)} arguments>"
        super().error(message if message.isprintable() else repr(message))

    def _get_formatter(self):
        # HelpFormatter's default width, shutil.get_terminal_size().columns - 2, read as shutil
        # reads it but without importing shutil, which loads bz2, lzma, zlib and fnmatch
        try:
            columns = int(os.environ.get("COLUMNS", 0))
        except ValueError:
            columns = 0
        if columns <= 0:
            try:
                columns = os.get_terminal_size(sys.__stdout__.fileno()).columns
            except (AttributeError, ValueError, OSError):  # no stdout, or not a terminal
                columns = 0
        return self.formatter_class(prog=self.prog, width=(columns or 80) - 2)


def cmd_cf(args) -> int:
    value = cf_eval(args.twists)
    if value.is_infinite:
        raise TritangleError("twist vector evaluates to infinity; "
                             "it does not present a rational 3-tangle")
    if too_long_to_print(value.num) or too_long_to_print(value.den):
        raise TritangleError(too_many_digits("the twist vector's value"))
    slope = slope_normalize(value)
    marker = " [Hopf rho]" if slope == HOPF_SLOPE else ""
    print(f"{value} (slope {slope}){marker}")
    return EXIT_OK


def cmd_expand(args) -> int:
    try:
        fraction = parse_fraction(args.fraction)
    except (ValueError, TritangleError) as exc:
        raise TritangleError(f"not a valid fraction: {exc}") from None
    print(" ".join(str(a) for a in cf_expand(fraction)))
    return EXIT_OK


def _read(path: str) -> str:
    """The text of a document file; an unreadable or non-UTF-8 file is a DocumentError."""
    try:
        with open(path, encoding="utf-8") as file:
            return file.read()
    except OSError as exc:
        reason = exc.strerror or str(exc)
    except UnicodeDecodeError as exc:
        reason = f"not UTF-8 text ({exc.reason} at byte {exc.start})"
    except ValueError as exc:  # open refuses a NUL in the path, which no file name holds
        reason = str(exc)
    raise DocumentError(echo(path, limit=_PATH_MAX), reason)


def _emit(record: dict, as_json: bool):
    """Print one record: as indented JSON, or as ``key: value`` lines.

    In text a list or tuple prints as ``  - item`` lines (``none`` when empty), a dict as one
    line of JSON, None not at all, and any other value as its ``str``, as JSON prints it too.
    """
    import json
    if as_json:
        print(json.dumps(record, indent=2, default=str))
        return
    for key, value in record.items():
        if value in ([], ()):
            value = "none"
        if isinstance(value, (list, tuple)):
            print(f"{key}:", *(f"  - {item}" for item in value), sep="\n")
        elif isinstance(value, dict):
            print(f"{key}: {json.dumps(value)}")
        elif value is not None:
            print(f"{key}: {value}")


def cmd_tangle(args) -> int:
    from .jsonio import loads_tangle
    from .rect import rect_types_rho, rect_types_tau
    t = resolve(loads_tangle(_read(args.file)))
    # the profile's fields in field order, which is printing order, each None left out
    record = {key: value for key, value in t._asdict().items() if value is not None}
    if t.torus is not None:  # the str of TorusParams is its repr
        record["torus"] = {"p": t.torus.p, "q": t.torus.q}
    try:
        rect = rect_types_tau(t) if t.kind == KIND_TAU else rect_types_rho(t)
        record["good_rectangles"] = sorted(r.value for r in rect)
    except NotApplicable as exc:
        record["good_rectangles"] = f"n/a ({exc})"
    try:
        annulus = good_annulus(t)
        record["good_annulus"] = annulus.value if annulus else "none"
    except NotApplicable as exc:
        record["good_annulus"] = f"n/a ({exc})"
    _emit(record, args.json)
    return EXIT_OK


def cmd_classify(args) -> int:
    from .jsonio import loads_decomposition
    v = classify(loads_decomposition(_read(args.file)))
    # the verdict's fields overwrite status in place, so summary stays right after it
    _emit({"status": v.status, "summary": v.summary()} | v._asdict(), args.json)
    return {CLASSIFIED: EXIT_OK, INADMISSIBLE: EXIT_INADMISSIBLE,
            TOROIDAL: EXIT_TOROIDAL}[v.status]


def cmd_catalog(args) -> int:
    from . import catalog as catalog_mod
    from .jsonio import serialize_decomposition
    if args.verify:
        # the entries under a prefix; every entry under none or the empty one
        entries = [e for e in catalog_mod.catalog_entries() if e.name.startswith(args.name or "")]
        if not entries:
            catalog_mod.catalog_get(args.name)  # refuses the prefix in the lookup's words
        report = catalog_mod.catalog_verify(entries)
        result = {None: "stored", True: "pass", False: "FAIL"}
        # one entry per row, its actual verdict only where it differs from the expected one
        record = {row.name: {"result": result[row.passed], "expected": row.expected}
                  | ({"actual": row.actual} if row.passed is False else {}) for row in report.rows}
        _emit(record | {"checked": report.checked, "mismatches": report.mismatches}, args.json)
        return EXIT_OK if report.ok else 1
    if args.name is not None:  # an empty name is a name, refused by the lookup
        entry = catalog_mod.catalog_get(args.name)
        document = entry.decomposition and serialize_decomposition(entry.decomposition)
        _emit({"name": entry.name, "provenance": entry.provenance, "source": entry.source,
               "expected": entry.expected and str(entry.expected),
               # None, not [], so that an entry without obstructions prints no line
               "expected obstructions": [o.name for o in entry.expected_obstructions] or None,
               "decomposition": document}, args.json)
        return EXIT_OK
    _emit({entry.name: str(entry.expected) if entry.expected else "obstruction profile"
           for entry in catalog_mod.catalog_entries()}, args.json)
    return EXIT_OK


def write_file(path, text: str):
    """Write ``text`` to ``path``, byte for byte on every platform; an ``OSError`` names it."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as file:
            file.write(text)
    except OSError as exc:  # a write error carries no filename, so it is named here
        raise OSError(exc.errno, exc.strerror, path) from None
    except ValueError as exc:  # open refuses a NUL in the path, which no file name holds
        raise OSError(None, str(exc), path) from None


def cmd_census(args) -> int:
    from .census import census_csv, run_census
    text = census_csv(run_census(args.type, args.max_denominator))
    if args.out is None:
        sys.stdout.write(text)
    else:  # an empty name is refused by open, not taken as no option
        write_file(args.out, text)
    return EXIT_OK


def build_parser() -> Parser:
    parser = Parser(
        prog="tritangle",
        description="Exact classifier for 3-decompositions of genus-two "
                    "handlebody-knots: slopes, good rectangles and annuli, "
                    "essential-annulus counts and hyperbolicity verdicts.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cf = sub.add_parser("cf", help="evaluate a twist vector and its slope")
    p_cf.add_argument("twists", type=int, nargs="*", metavar="TWIST",
                      help="twist entries (use -- before negative entries)")
    p_cf.set_defaults(func=cmd_cf)

    p_expand = sub.add_parser("expand", help="expand a fraction into a twist vector")
    p_expand.add_argument("fraction", metavar="P/Q",
                          help='fraction such as 7/2 (use -- before a negative one)')
    p_expand.set_defaults(func=cmd_expand)

    p_tangle = sub.add_parser("tangle", help="resolve a single tangle JSON document")
    p_tangle.add_argument("file", help="path to a tangle JSON document")
    p_tangle.add_argument("--json", action="store_true", help="machine-readable output")
    p_tangle.set_defaults(func=cmd_tangle)

    p_classify = sub.add_parser("classify", help="classify a decomposition JSON document")
    p_classify.add_argument("file", help="path to a decomposition JSON document")
    p_classify.add_argument("--json", action="store_true", help="machine-readable output")
    p_classify.set_defaults(func=cmd_classify)

    p_catalog = sub.add_parser("catalog", help="show or verify the built-in table")
    p_catalog.add_argument("name", nargs="?", help="entry name, e.g. 6_9; with --verify, a prefix")
    p_catalog.add_argument("--verify", action="store_true",
                           help="re-derive every entry and report mismatches")
    p_catalog.add_argument("--json", action="store_true", help="machine-readable output")
    p_catalog.set_defaults(func=cmd_catalog)

    p_census = sub.add_parser("census", help="enumerate the counting rules as CSV")
    p_census.add_argument("type", choices=KINDS)
    p_census.add_argument("--max-denominator", type=int, default=25, metavar="N",
                          help="range bound (default 25, hard cap 99)")
    p_census.add_argument("--out", metavar="FILE", help="write CSV here instead of stdout")
    p_census.set_defaults(func=cmd_census)
    return parser


def run(args) -> int:
    """``args.func(args)``'s exit code, or a refusal written as one ``error:`` line and exit 2."""
    if sys.stdout is None:  # descriptor 1 was closed: a read-only stand-in fails every write
        sys.stdout = open(os.open(os.devnull, os.O_RDONLY), "w", encoding="utf-8")
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe or a full device shows here, not at interpreter exit
        return code
    except TritangleError as exc:
        message = str(exc)
    except OSError as exc:
        if exc.filename is not None:  # a file that could not be made, opened or written
            message = f"{echo(exc.filename, limit=_PATH_MAX)}: {exc.strerror}"
        else:  # standard output, which has no filename
            # as in the Python docs' SIGPIPE note: the flush at exit must not raise again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            message = ("standard output was closed before all output was written"
                       if isinstance(exc, BrokenPipeError) else f"standard output: {exc.strerror}")
    try:
        if sys.stderr is not None:  # None when descriptor 2 was closed: the line goes nowhere
            print(f"error: {message}", file=sys.stderr)
    except OSError:  # a descriptor 2 that refuses writes: the exit code alone reports
        pass
    return EXIT_USAGE


def main(argv: list[str] | None = None) -> int:
    return run(build_parser().parse_args(argv))
