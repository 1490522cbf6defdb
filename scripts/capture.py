#!/usr/bin/env python3
"""Print one sha256 per part of the engine's output, to show that a change keeps it byte for byte.

Parts, one line each (``<part>: <sha256>``):

- ``documents``: the 8,000 documents of the benchmark's ``documents`` workload, seeds 201 and
  777, batches 0-3; each one's ``DocumentError`` text, or else its ``dumps_decomposition`` text
  and the ``repr`` of its verdict;
- ``census``: the three census tables at the cap (bound 99), concatenated;
- ``catalog``: every ``tritangle catalog`` form (the list, each NAME and ``--verify``, each with
  and without ``--json``): its arguments, exit code and standard output.

The engine is imported from this checkout's ``src`` and the documents come from its
``benchmarks`` generators, so the script needs only the standard library and runs under any
supported Python, also with ``-S``::

    python -S scripts/capture.py

A change that alters an output on purpose updates the digests that ``tests/test_scripts.py``
pins and names the change.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import generators  # noqa: E402
import workloads  # noqa: E402
from tritangle import catalog, census, cli, jsonio, verdict  # noqa: E402
from tritangle.errors import DocumentError  # noqa: E402

SEEDS = (201, 777)
BATCHES = range(4)


def document_records():
    documents = workloads.catalog_documents(workloads.Engine())
    for seed in SEEDS:
        for index in BATCHES:
            for case in generators.documents_batch(seed, index, documents):
                try:
                    d = jsonio.loads_decomposition(case.text)
                except DocumentError as exc:
                    yield f"{exc}\n"
                else:
                    yield f"{jsonio.dumps_decomposition(d)}\n{verdict.classify(d)!r}\n"


def census_records():
    # the text whose digest tests/test_census.py pins
    for kind in verdict.KINDS:
        yield census.census_csv(census.run_census(kind, census.HARD_CAP))


def catalog_records():
    names = [entry.name for entry in catalog.catalog_entries()]
    for form in ([], *([name] for name in names), ["--verify"]):
        for json_flag in ([], ["--json"]):
            args = ["catalog", *form, *json_flag]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(args)
            yield f"{' '.join(args)}\n{code}\n{out.getvalue()}"


PARTS = {"documents": document_records, "census": census_records, "catalog": catalog_records}


def main() -> int:
    for part, records in PARTS.items():
        text = "".join(records())
        print(f"{part}: {hashlib.sha256(text.encode('utf-8', 'backslashreplace')).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
