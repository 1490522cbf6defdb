"""Exhaustive instantiation of the counting rules over small parameter ranges.

Three censuses, one per decomposition kind:

* tautau: special decompositions with unit-fraction slopes 1/m, 1/n over
  all odd m, n with 3 <= |m|, |n| <= bound;
* taurho: special decompositions with tau slope 1/m (odd m >= 3) against
  a (p, 1)-torus rho side, 2 <= p <= bound;
* rhorho: sides indexed 0 (a plain rational rho of slope 3/8, no good
  annulus) or p >= 2 (a (p, 1)-torus rho, satellite).

Each distinct side of a table is built, examined, gated and reduced to its
side facts once (``verdict.side_facts``).  A row is the kind's pair rule applied
to two sides' facts: its clause's branch and its count, with no Verdict built
and no text rendered.  Rows come out sorted by (m, n) because the sides are
enumerated in ascending order, so the CSV output is byte-identical across runs.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .errors import BoundsTooLarge
from .tangle import KIND_RHO, KIND_TAU, RationalPresentation, RhoDescriptor, TauDescriptor, \
    TorusParams, TorusRhoPresentation, examine, require
from .verdict import RHORHO, RULES, TAURHO, TAUTAU, Decomposition, side_facts

HARD_CAP = 99  # keeps the enumeration instant and far from any practical limit

# a rho side with no good annulus: rational of slope 3/8
_PLAIN_RHO_TWISTS = (2, 1, 2, 0)


class CensusRow(NamedTuple):
    m: int
    n: int
    branch: str
    count: str

    def csv(self) -> str:
        return f"{self.m},{self.n},{self.branch},{self.count}"


def _check_bound(bound: int):
    if bound > HARD_CAP:
        raise BoundsTooLarge(f"census bound {bound} exceeds the cap {HARD_CAP}")
    if bound < 0:
        raise BoundsTooLarge(f"census bound must be non-negative, got {bound}")


def _tau_of_slope(m: int) -> TauDescriptor:
    # twist vector (m, 0) evaluates to 1/m
    return TauDescriptor(RationalPresentation((m, 0)))


def _rho_side(index: int) -> RhoDescriptor:
    if index == 0:
        return RhoDescriptor(RationalPresentation(_PLAIN_RHO_TWISTS))
    return RhoDescriptor(TorusRhoPresentation(TorusParams(index, 1)))


#: Each census kind's specialness and the side builder of each position.
_LAYOUT = {TAUTAU: (True, _tau_of_slope, _tau_of_slope), TAURHO: (True, _tau_of_slope, _rho_side),
           RHORHO: (False, _rho_side, _rho_side)}


def census_decomposition(kind: str, m: int, n: int) -> Decomposition:
    """The decomposition behind census row (m, n) of the given kind."""
    if kind not in (TAUTAU, TAURHO, RHORHO):  # not a lookup: a kind may be unhashable
        raise ValueError(f"unknown census kind {kind!r}")
    special, first, second = _LAYOUT[kind]
    return Decomposition(kind, special, first(m), second(n))


def _odd_denominators(bound: int) -> list[int]:
    magnitudes = range(3, bound + 1, 2)
    return sorted([m for k in magnitudes for m in (k, -k)])


def _facts(build, indices: Iterable[int], kind: str) -> dict:
    """Each side index mapped to its facts: the side is examined and gated once per table."""
    out = {}
    for index in indices:
        profile = examine(build(index))[0]
        require(profile, "a census table", kind)
        out[index] = side_facts(profile)
    return out


def run_census(kind: str, bound: int) -> list[CensusRow]:
    """Every decomposition in the configured range: its clause's branch and count, sorted rows."""
    _check_bound(bound)
    if kind == TAUTAU:
        firsts = seconds = _facts(_tau_of_slope, _odd_denominators(bound), KIND_TAU)
    elif kind == TAURHO:
        firsts = _facts(_tau_of_slope, range(3, bound + 1, 2), KIND_TAU)
        seconds = _facts(_rho_side, range(2, bound + 1), KIND_RHO)
    elif kind == RHORHO:
        firsts = seconds = _facts(_rho_side, [0, *range(2, bound + 1)], KIND_RHO)
    else:
        raise ValueError(f"unknown census kind {kind!r}")
    rule, special = RULES[kind][1], _LAYOUT[kind][0]
    rows = []
    for m, a in firsts.items():
        for n, b in seconds.items():
            clause, count, _ = rule(a, b, special)
            rows.append(CensusRow(m, n, clause.branch, str(count)))
    return rows


def census_csv(rows: Iterable[CensusRow]) -> str:
    return "\n".join(["m,n,branch,count"] + [row.csv() for row in rows]) + "\n"
