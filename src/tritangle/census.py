"""Exhaustive instantiation of the counting rules over small parameter ranges.

Three censuses, one per decomposition kind:

* tautau: special decompositions with unit-fraction slopes 1/m, 1/n over
  all odd m, n with 3 <= |m|, |n| <= bound;
* taurho: special decompositions with tau slope 1/m (odd m >= 3) against
  a (p, 1)-torus rho side, 2 <= p <= bound;
* rhorho: sides indexed 0 (a plain rational rho of slope 3/8, no good
  annulus) or p >= 2 (a (p, 1)-torus rho, satellite).

Each distinct side of a table is built and examined once.  Census sides are
valid by construction, so each row hands the two profiles straight to its
kind's classifier.  Rows come out sorted by (m, n) because the sides are
enumerated in ascending order, so the CSV output is byte-identical across runs.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .errors import BoundsTooLarge
from .tangle import RationalPresentation, RhoDescriptor, TauDescriptor, TorusParams, \
    TorusRhoPresentation, examine
from .verdict import Decomposition, RHORHO, TAURHO, TAUTAU, Verdict, classify_rhorho, \
    classify_taurho, classify_tautau

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


def _row(m: int, n: int, verdict: Verdict) -> CensusRow:
    return CensusRow(m=m, n=n, branch=verdict.branch, count=str(verdict.annulus_count))


def census_decomposition(kind: str, m: int, n: int) -> Decomposition:
    """The decomposition behind census row (m, n) of the given kind."""
    if kind == TAUTAU:
        return Decomposition(kind=TAUTAU, special=True,
                             first=_tau_of_slope(m), second=_tau_of_slope(n))
    if kind == TAURHO:
        return Decomposition(kind=TAURHO, special=True,
                             first=_tau_of_slope(m), second=_rho_side(n))
    if kind == RHORHO:
        return Decomposition(kind=RHORHO, special=False,
                             first=_rho_side(m), second=_rho_side(n))
    raise ValueError(f"unknown census kind {kind!r}")


def _odd_denominators(bound: int) -> list[int]:
    magnitudes = range(3, bound + 1, 2)
    return sorted([m for k in magnitudes for m in (k, -k)])


def _examined(build, indices: Iterable[int]) -> dict:
    """Each side index mapped to the profile ``examine`` derives for its side."""
    return {index: examine(build(index))[0] for index in indices}


def run_census(kind: str, bound: int) -> list[CensusRow]:
    """Classify every decomposition in the configured range, sorted rows."""
    _check_bound(bound)
    if kind == TAUTAU:
        sides = _examined(_tau_of_slope, _odd_denominators(bound))
        return [_row(m, n, classify_tautau(a, b, True))
                for m, a in sides.items() for n, b in sides.items()]
    if kind == TAURHO:
        taus = _examined(_tau_of_slope, range(3, bound + 1, 2))
        rhos = _examined(_rho_side, range(2, bound + 1))
        return [_row(m, n, classify_taurho(t, r, True))
                for m, t in taus.items() for n, r in rhos.items()]
    if kind == RHORHO:
        sides = _examined(_rho_side, [0, *range(2, bound + 1)])
        return [_row(m, n, classify_rhorho(a, b))
                for m, a in sides.items() for n, b in sides.items()]
    raise ValueError(f"unknown census kind {kind!r}")


def census_csv(rows: Iterable[CensusRow]) -> str:
    return "\n".join(["m,n,branch,count"] + [row.csv() for row in rows]) + "\n"
