#!/usr/bin/env python3
"""Re-derive the hyperbolicity table from the built-in catalog.

Prints the report of ``tritangle catalog --verify``: one line per
handlebody-knot, its result (``pass``, ``FAIL`` with the derived verdict, or
``stored`` for a fact that is not re-derived) and expected verdict as a line
of JSON, then ``checked`` and ``mismatches``.  Exits 1 on any mismatch.
"""

from __future__ import annotations

import sys

from tritangle.cli import main

if __name__ == "__main__":
    sys.exit(main(["catalog", "--verify"]))
