"""Exhaustive instantiation of the counting rules over small parameter ranges.

Three censuses, one per decomposition kind:

* tautau: special decompositions with unit-fraction slopes 1/m, 1/n over
  all odd m, n with 3 <= |m|, |n| <= bound;
* taurho: special decompositions with tau slope 1/m (odd m >= 3) against
  a (p, 1)-torus rho side, 2 <= p <= bound;
* rhorho: sides indexed 0 (a plain rational rho of slope 3/8, no good
  annulus) or p >= 2 (a (p, 1)-torus rho, satellite).

Each distinct side of a table is built, examined and reduced to its side
facts once (``verdict.side_facts``).  A row is the kind's pair rule applied
to two sides' facts: its clause's branch and count text, rendered once per
clause and table, with no Verdict built.  Rows come out sorted by (m, n), as
the sides are enumerated in ascending order: the CSV output is deterministic.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain, repeat

from .errors import BoundsTooLarge, echo
from .tangle import RationalPresentation, RhoDescriptor, TauDescriptor, TorusParams, \
    TorusRhoPresentation, examine
from .verdict import KINDS, RHORHO, RULES, TAURHO, TAUTAU, Decomposition, side_facts

HARD_CAP = 99  # keeps the enumeration instant and far from any practical limit

# a rho side with no good annulus: rational of slope 3/8
_PLAIN_RHO_TWISTS = (2, 1, 2, 0)

_LINE = "%d,%d,%s,%s"  # a row's CSV line; a table fills in all of its lines in one C call


# m, n: int; branch, count: str
class CensusRow(namedtuple("CensusRow", "m n branch count")):
    """One census row: the side indices (m, n), the clause's branch and its count's text."""

    __slots__ = ()

    def csv(self) -> str:
        return _LINE % self


def _check_bound(bound: int):
    if bound > HARD_CAP:
        raise BoundsTooLarge(f"census bound {echo(bound)} exceeds the cap {HARD_CAP}")
    if bound < 0:
        raise BoundsTooLarge(f"census bound must be non-negative, got {echo(bound)}")


def _tau_of_slope(m: int) -> TauDescriptor:
    # twist vector (m, 0) evaluates to 1/m
    return TauDescriptor(RationalPresentation((m, 0)))


def _rho_side(index: int) -> RhoDescriptor:
    if index == 0:
        return RhoDescriptor(RationalPresentation(_PLAIN_RHO_TWISTS))
    return RhoDescriptor(TorusRhoPresentation(TorusParams(index, 1)))


def _odd_denominators(bound: int) -> list[int]:
    return sorted([m for k in range(3, bound + 1, 2) for m in (k, -k)])


# A position of a census table: the function that makes its sides, and its side indices
# up to a bound
_SIGNED_TAU = (_tau_of_slope, _odd_denominators)
_RHO = (_rho_side, lambda bound: [0, *range(2, bound + 1)])

#: Each census kind's specialness, then its two positions.
_LAYOUT = {TAUTAU: (True, _SIGNED_TAU, _SIGNED_TAU),
           TAURHO: (True, (_tau_of_slope, lambda bound: range(3, bound + 1, 2)),
                    (_rho_side, lambda bound: range(2, bound + 1))),
           RHORHO: (False, _RHO, _RHO)}


def _layout(kind: str) -> tuple:
    if kind not in KINDS:
        raise ValueError(f"unknown census kind {echo(kind, repr)}")
    return _LAYOUT[kind]


def census_decomposition(kind: str, m: int, n: int) -> Decomposition:
    """The decomposition behind census row (m, n) of the given kind."""
    special, (first, _), (second, _) = _layout(kind)
    return Decomposition(kind, special, first(m), second(n))


def _facts(position, bound: int) -> dict:
    """Each side index of a position mapped to its facts: each side is examined once per table.

    Every census side is essential, atoroidal and of its position's kind, so none is gated."""
    build, indices = position
    return {index: side_facts(examine(build(index))[0]) for index in indices(bound)}


def run_census(kind: str, bound: int) -> list[CensusRow]:
    """Every decomposition in the configured range: its clause's branch and count, sorted rows."""
    _check_bound(bound)
    special, first, second = _layout(kind)
    firsts = _facts(first, bound)
    seconds = firsts if second is first else _facts(second, bound)
    rule = RULES[kind][1]
    texts = {}  # id of each clause met -> its (branch, count text), rendered once per table
    rows = []
    for m, a in firsts.items():
        line = []  # each second side's (branch, count text), in the order of seconds
        for b in seconds.values():
            clause = rule(a, b, special)
            text = texts.get(id(clause))
            if text is None:
                text = texts[id(clause)] = (clause.branch, str(clause.count))
            line.append(text)
        # trusted fields, so the rows are built in C, not by the generated __new__: zip reuses
        # its (m, n, branch, count) tuple once tuple.__new__ has copied it, one allocation a row
        rows += map(tuple.__new__, repeat(CensusRow), zip(repeat(m), seconds, *zip(*line)))
    return rows


def census_csv(rows: list[CensusRow]) -> str:  # or any other iterable of rows
    fields = tuple(chain.from_iterable(rows))  # every row's four fields, in one flat tuple
    return "m,n,branch,count\n" + (_LINE + "\n") * (len(fields) // 4) % fields
