"""Independent reference evaluators used to cross-check the engine.

Two deliberately different implementations of the twist-vector value:

* ``cf_eval_recursive``: the defining recursion x_m + 1/[x_1..x_{m-1}]
  over ``fractions.Fraction`` with ``None`` as the projective infinity;
* ``continuant_pair``: the three-term continuant recurrence, which yields
  the (numerator, denominator) pair of the value without any division.

Neither shares code with ``tritangle.frac``.  ``tritangle.frac.cf_eval``
runs the same continuant recurrence as ``continuant_pair``, so the two
can share a mistake in it; ``cf_eval_recursive`` is the independent
reference.
"""

from __future__ import annotations

from fractions import Fraction


def cf_eval_recursive(entries) -> Fraction | None:
    """Right-fold evaluation per the definition; None encodes infinity."""
    entries = list(entries)
    if not entries:
        return Fraction(0)
    if len(entries) == 1:
        return Fraction(entries[0])
    inner = cf_eval_recursive(entries[:-1])
    if inner is None:  # x + 1/inf = x
        return Fraction(entries[-1])
    if inner == 0:  # x + 1/0 = inf
        return None
    return Fraction(entries[-1]) + Fraction(1) / inner


def continuant(entries) -> int:
    """K(x_1, ..., x_n) via K_i = x_i * K_{i-1} + K_{i-2}."""
    prev, cur = 0, 1
    for x in entries:
        prev, cur = cur, x * cur + prev
    return cur


def continuant_pair(entries) -> tuple[int, int]:
    """(numerator, denominator) of the twist-vector value, unreduced but
    automatically coprime; denominator 0 encodes infinity."""
    entries = list(entries)
    if not entries:  # the empty vector denotes 0, not the empty continued fraction
        return 0, 1
    num = continuant(entries)
    den = continuant(entries[:-1])
    if den < 0:
        num, den = -num, -den
    if den == 0:
        num = 1
    return num, den
