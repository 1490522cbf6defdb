#!/usr/bin/env python3
"""Run the dispatch censuses for all three decomposition kinds.

Writes one CSV per kind into the given directory (default: current) and
prints the branch tallies.  A bound past the census cap is refused with
exit code 2 before the directory is created, and so is a directory or file
that cannot be made or written, as one ``error:`` line.
"""

from __future__ import annotations

import argparse
import collections
import sys
from pathlib import Path

from tritangle import BoundsTooLarge, census_csv, run_census
from tritangle.errors import echo
from tritangle.verdict import KINDS


def refuse(path: str, exc: OSError) -> int:
    # as `tritangle census --out` refuses: one line naming the path and the reason, exit 2
    print(f"error: {echo(path, 4096)}: {exc.strerror or exc}", file=sys.stderr)
    return 2


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-denominator", type=int, default=25)
    parser.add_argument("--out-dir", default=".")
    args = parser.parse_args()
    try:
        tables = {kind: run_census(kind, args.max_denominator) for kind in KINDS}
    except BoundsTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return refuse(args.out_dir, exc)
    for kind, rows in tables.items():
        target = out_dir / f"census_{kind}.csv"
        try:
            target.write_text(census_csv(rows), encoding="utf-8", newline="")
        except OSError as exc:
            return refuse(str(target), exc)
        tally = collections.Counter(row.branch for row in rows)
        summary = ", ".join(f"{branch}: {n}" for branch, n in sorted(tally.items()))
        print(f"{kind}: {len(rows)} rows -> {target} ({summary})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
