#!/usr/bin/env python3
"""Run the dispatch censuses for all three decomposition kinds.

Writes one CSV per kind into the given directory (default: current) and
prints the branch tallies.  It refuses through ``tritangle.cli``, as
``tritangle census`` does, with one ``error:`` line and exit code 2: a bound
past the census cap (before the directory is created), a directory or file
that cannot be made or written (an empty name too, as ``tritangle census --out ''``
refuses it), and a standard output that cannot be written.
"""

from __future__ import annotations

import collections
import errno
import os
from pathlib import Path

from tritangle import census_csv, run_census
from tritangle.cli import KINDS, Parser, run, write_file


def write_tables(args) -> int:
    tables = {kind: run_census(kind, args.max_denominator) for kind in KINDS}
    if not args.out_dir:  # Path("") is the working directory; an empty name names none
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), args.out_dir)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for kind, rows in tables.items():
        target = out_dir / f"census_{kind}.csv"
        write_file(target, census_csv(rows))
        tally = collections.Counter(row.branch for row in rows)
        summary = ", ".join(f"{branch}: {n}" for branch, n in sorted(tally.items()))
        print(f"{kind}: {len(rows)} rows -> {target} ({summary})")
    return 0


if __name__ == "__main__":
    parser = Parser(description=__doc__)
    parser.add_argument("--max-denominator", type=int, default=25)
    parser.add_argument("--out-dir", default=".")
    parser.set_defaults(func=write_tables)
    raise SystemExit(run(parser.parse_args()))
