#!/usr/bin/env python3
"""Re-derive the hyperbolicity table from the built-in catalog.

Prints one row per handlebody-knot of one ``catalog_verify`` report: the
expected verdict next to what the classifier derived (or the obstructions
found, or the note that a stored fact is not re-derived), then the
verification summary.  Exits nonzero on any mismatch.
"""

from __future__ import annotations

import sys

from tritangle import catalog_verify


def main() -> int:
    report = catalog_verify()
    print(f"{'name':<20} {'expected':<34} derived")
    print("-" * 78)
    for row in report.rows:
        print(f"{row.name:<20} {row.expected:<34} {row.actual}")
    print("-" * 78)
    print(f"{report.checked} entries checked, {report.mismatches} mismatches")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
