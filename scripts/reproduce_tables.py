#!/usr/bin/env python3
"""Re-derive the hyperbolicity table from the built-in catalog.

Prints the report of ``tritangle catalog --verify``: one row per
handlebody-knot, its expected verdict and whether the classifier re-derived
it (or the note that a stored fact is not re-derived), then the verification
summary.  Exits 1 on any mismatch.
"""

from __future__ import annotations

import sys

from tritangle.cli import main

if __name__ == "__main__":
    sys.exit(main(["catalog", "--verify"]))
