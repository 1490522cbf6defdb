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

``outcomes`` states the counting rules over the facts of a decomposition's
two sides (``Side``): the twelve branches, the toroidal outcome and the
inadmissible ones, each under its own full condition.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple


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


# ---------------------------------------------------------------------------
# Counting rules over side facts
#
# The outcome of a 3-decomposition, stated from the facts of its two sides
# as the paper gives them, with each outcome's condition written out in full
# so that a test can check that exactly one holds.  An outcome is
# ("classified", branch, count), ("toroidal",) or ("inadmissible", rules),
# where rules is a frozenset of (rule name, position) pairs.

TAU, RHO = "tau", "rho"
NOT_RATIONAL = "not rational"
NOT_UNIT = "rational, not a unit fraction"
UNIT_UNKNOWN = "unit fraction, slope not given"
SATELLITE, CABLE, HOPF_SUMMAND = "satellite", "cable", "hopf_summand"

SIDE_KINDS = {"tautau": (TAU, TAU), "taurho": (TAU, RHO), "rhorho": (RHO, RHO)}


class Side(NamedTuple):
    """The facts about one tangle side that the counting rules read."""

    kind: str
    atoroidal: bool = True
    trivial: bool = False
    slope: object = NOT_UNIT     # tau: NOT_RATIONAL, NOT_UNIT, UNIT_UNKNOWN or m of slope 1/m
    hopf: bool = False           # rho: the Hopf tangle (slope 1/2)
    annulus: str | None = None   # rho: SATELLITE, CABLE or HOPF_SUMMAND flag
    torus_p: int | None = None   # rho: torus parameter p; a torus side is satellite


def mirror_side(s: Side) -> Side:
    """The mirror image negates the tau slope and keeps the torus parameter p."""
    return s._replace(slope=-s.slope) if isinstance(s.slope, int) else s


def side_conflicts(s: Side) -> list[str]:
    """Names of the rules a side's facts break taken together."""
    out = []
    if s.kind == TAU:
        # the trivial tangle is rational of slope 0, never a unit fraction
        if s.trivial and s.slope != NOT_UNIT:
            out.append("TrivialFlagConflict")
        return out
    has_annulus = s.annulus is not None or s.torus_p is not None
    if s.hopf and (s.trivial or has_annulus):
        out.append("HopfTangleConflict")
    if s.trivial and (s.hopf or has_annulus):
        out.append("TrivialFlagConflict")
    return out


def _essential(s: Side) -> bool:
    return not s.trivial and not s.hopf


def _good_annulus(s: Side) -> bool:
    return s.annulus is not None or s.torus_p is not None


def _unit(s: Side) -> bool:
    return isinstance(s.slope, int)


def _third(s: Side) -> bool:
    return _unit(s) and abs(s.slope) == 3


def outcomes(kind: str, special: bool, a: Side, b: Side) -> list[tuple]:
    """Every outcome whose condition holds; a partition yields exactly one."""
    sides = (("first", a), ("second", b))
    flaws = [("KindMismatch", pos) for (pos, s), k in zip(sides, SIDE_KINDS[kind])
             if s.kind != k]
    if kind == "rhorho" and special:
        flaws.append(("SpecialRhoRho", "special"))
    flaws += [(rule, pos) for pos, s in sides for rule in side_conflicts(s)]
    sound = not flaws
    essential = sound and _essential(a) and _essential(b)
    counted = essential and a.atoroidal and b.atoroidal
    tt, tr, rr = counted and kind == "tautau", counted and kind == "taurho", \
        counted and kind == "rhorho"
    m, n = a.slope, b.slope  # the tau slopes 1/m, 1/n where known
    units = _unit(a) and _unit(b)
    refuted = a.slope in (NOT_RATIONAL, NOT_UNIT) or b.slope in (NOT_RATIONAL, NOT_UNIT)
    annulus = _good_annulus(b)
    p = b.torus_p
    found = [
        (not sound, ("inadmissible", frozenset(flaws))),
        (sound and not essential, ("inadmissible", frozenset(
            ("InessentialTangle", pos) for pos, s in sides if not _essential(s)))),
        (essential and not (a.atoroidal and b.atoroidal), ("toroidal",)),
        # tau-tau: special with unit-fraction slopes 1/m, 1/n
        (tt and special and units and _third(a) and _third(b) and m == n,
         ("classified", "tautau (i)", "inf")),
        (tt and special and units and _third(a) and _third(b) and m == -n,
         ("classified", "tautau (ii)", "3")),
        (tt and special and units and not (_third(a) and _third(b)),
         ("classified", "tautau (iii)", "1")),
        (tt and (not special or refuted), ("classified", "tautau (otherwise)", "0")),
        (tt and special and not refuted and UNIT_UNKNOWN in (m, n),
         ("inadmissible", frozenset(("UndeterminedSlope", pos) for pos, s in sides
                                    if s.slope == UNIT_UNKNOWN))),
        # tau-rho: the rho side's good annulus, then the tau slope 1/m and torus p
        (tr and not annulus, ("classified", "taurho (hyperbolic)", "0")),
        (tr and annulus and special and p == 2 and _third(a),
         ("classified", "taurho (i)", "inf")),
        (tr and annulus and special and p is not None and p != 2 and _third(a),
         ("classified", "taurho (ii)", "4")),
        (tr and annulus and special and p is not None and p != 2 and _unit(a)
         and not _third(a), ("classified", "taurho (iii)", "2")),
        (tr and annulus and (not special or p is None or m in (NOT_RATIONAL, NOT_UNIT)
                             or (p == 2 and _unit(a) and not _third(a))),
         ("classified", "taurho (iv)", "1")),
        (tr and annulus and special and p is not None and m == UNIT_UNKNOWN,
         ("inadmissible", frozenset({("UndeterminedSlope", "first")}))),
        # rho-rho: one annulus per side that carries a good annulus
        (rr and _good_annulus(a) and _good_annulus(b), ("classified", "rhorho (i)", "2")),
        (rr and _good_annulus(a) != _good_annulus(b), ("classified", "rhorho (ii)", "1")),
        (rr and not _good_annulus(a) and not _good_annulus(b),
         ("classified", "rhorho (otherwise)", "0")),
    ]
    return [outcome for holds, outcome in found if holds]
