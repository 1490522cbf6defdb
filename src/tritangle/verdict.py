"""Decomposition validation and the essential-annulus count dispatcher.

``classify`` examines each tangle side of a 3-decomposition once, checks its
structure and dispatches to the kind-specific classifiers.  These share one
gate: it checks the side kinds and essentiality, returns the toroidal verdict
when a side is not atoroidal, and only then applies the kind's counting rule:

* tau-tau: infinitely many annuli iff special with both slopes +-1/3 of
  the same sign; three for mixed-sign 1/3, -1/3; one for any other pair
  of unit-fraction slopes; otherwise hyperbolic.
* tau-rho: hyperbolic unless the rho side is satellite, cable or carries
  a Hopf summand; then infinitely many / four / two / one according to
  specialness, the tau slope and the torus parameter p.
* rho-rho: two / one / zero annuli by the number of flagged sides; a
  special rho-rho decomposition is impossible (the complement would be
  disconnected) and is rejected as inadmissible.

Branch labels like ``"tautau (ii)"`` name the dispatch clauses above and
are stored verbatim in the Verdict so golden tests pin the reasoning, not
just the number.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .annuli import UNIQUENESS_NOTE, good_annulus
from .tangle import (
    KIND_RHO,
    KIND_TAU,
    Descriptor,
    ResolvedTangle,
    Violation,
    examine,
    mirror_descriptor,
)

TAUTAU = "tautau"
TAURHO = "taurho"
RHORHO = "rhorho"

CLASSIFIED = "classified"
INADMISSIBLE = "inadmissible"
TOROIDAL = "toroidal"

BRANCH_TAUTAU_INFINITE = "tautau (i)"
BRANCH_TAUTAU_THREE = "tautau (ii)"
BRANCH_TAUTAU_ONE = "tautau (iii)"
BRANCH_TAUTAU_HYPERBOLIC = "tautau (otherwise)"
BRANCH_TAURHO_HYPERBOLIC = "taurho (hyperbolic)"
BRANCH_TAURHO_INFINITE = "taurho (i)"
BRANCH_TAURHO_FOUR = "taurho (ii)"
BRANCH_TAURHO_TWO = "taurho (iii)"
BRANCH_TAURHO_ONE = "taurho (iv)"
BRANCH_RHORHO_TWO = "rhorho (i)"
BRANCH_RHORHO_ONE = "rhorho (ii)"
BRANCH_RHORHO_HYPERBOLIC = "rhorho (otherwise)"

IRREDUCIBILITY_NOTE = ("irreducible: every 3-decomposable genus-two "
                       "handlebody-knot is irreducible (asserted, not checked)")
HYPERBOLICITY_NOTE = ("hyperbolic: no essential disks, annuli or tori in the "
                      "exterior (Thurston's criterion with geodesic boundary)")


class Decomposition(NamedTuple):
    """A 3-decomposition: kind, specialness and the two tangle sides."""

    kind: str
    special: bool
    first: Descriptor
    second: Descriptor


def mirror_decomposition(d: Decomposition) -> Decomposition:
    return Decomposition(
        kind=d.kind, special=d.special,
        first=mirror_descriptor(d.first), second=mirror_descriptor(d.second))


@dataclass(frozen=True)
class AnnulusCount:
    """Zero, a finite positive number, or infinitely many (value None)."""

    value: int | None

    def __post_init__(self):
        if self.value is not None and self.value < 0:
            raise ValueError("annulus count cannot be negative")

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    def __str__(self) -> str:
        return "inf" if self.value is None else str(self.value)


ZERO_ANNULI = AnnulusCount(0)
ONE_ANNULUS = AnnulusCount(1)
TWO_ANNULI = AnnulusCount(2)
THREE_ANNULI = AnnulusCount(3)
FOUR_ANNULI = AnnulusCount(4)
INFINITELY_MANY = AnnulusCount(None)


class Verdict(NamedTuple):
    """Classifier output for one decomposition."""

    status: str
    annulus_count: AnnulusCount | None = None
    hyperbolic: bool | None = None
    branch: str | None = None
    annuli: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()
    violations: tuple[Violation, ...] = ()

    def summary(self) -> str:
        if self.status == CLASSIFIED:
            if self.hyperbolic:
                return f"hyperbolic (no essential annuli) [{self.branch}]"
            n = "infinitely many" if self.annulus_count.is_infinite else str(self.annulus_count)
            return f"{n} essential annuli [{self.branch}]"
        if self.status == TOROIDAL:
            return "toroidal (annulus counting requires atoroidal sides)"
        return "inadmissible: " + "; ".join(str(v) for v in self.violations)


ATOROIDAL_NOTE = "atoroidal: both tangle exteriors are atoroidal"


def _classified(count: AnnulusCount, branch: str, annuli: tuple[str, ...],
                note: str) -> Verdict:
    hyperbolic = count.is_zero
    notes = (ATOROIDAL_NOTE, note, IRREDUCIBILITY_NOTE)
    if hyperbolic:
        notes = notes + (HYPERBOLICITY_NOTE,)
    return Verdict(status=CLASSIFIED, annulus_count=count, hyperbolic=hyperbolic,
                   branch=branch, annuli=annuli, notes=notes)


def _inadmissible(violations: list[Violation]) -> Verdict:
    return Verdict(status=INADMISSIBLE, violations=tuple(violations))


# ---------------------------------------------------------------------------
# Unit-fraction slope bookkeeping

class _Unit(Enum):
    NO = "no"            # definitely not rational with a unit-fraction slope
    UNKNOWN = "unknown"  # no concrete slope to read the unit fraction from


def _unit_denominator(t: ResolvedTangle) -> int | _Unit:
    """Signed m with slope 1/m, or a _Unit tag describing why there is none."""
    if t.rational is False or t.unit_fraction_slope is False:
        return _Unit.NO
    if t.slope is None:
        return _Unit.UNKNOWN
    if abs(t.slope.num) != 1:
        return _Unit.NO
    return t.slope.den if t.slope.num > 0 else -t.slope.den


# ---------------------------------------------------------------------------
# Counting rules, one per kind, each reached through the gate below

def _tautau(a: ResolvedTangle, b: ResolvedTangle, special: bool) -> Verdict:
    if not special:
        return _classified(
            ZERO_ANNULI, BRANCH_TAUTAU_HYPERBOLIC, (),
            "not special: the decomposing sphere cuts no essential annulus "
            "into rectangles, and tau exteriors carry no good annulus")
    m, n = _unit_denominator(a), _unit_denominator(b)
    if m is _Unit.NO or n is _Unit.NO:
        return _classified(
            ZERO_ANNULI, BRANCH_TAUTAU_HYPERBOLIC, (),
            "a side is not rational with a unit-fraction slope, "
            "so its exterior admits no good rectangle")
    undetermined = [p for p, u in (("first", m), ("second", n)) if isinstance(u, _Unit)]
    if undetermined:
        return _inadmissible([Violation(
            "UndeterminedSlope", tuple(undetermined),
            "a special tau-tau decomposition needs concrete unit-fraction "
            "slopes (or a definite refutation) to choose a count branch")])
    if abs(m) == 3 and abs(n) == 3:
        if m == n:
            return _classified(
                INFINITELY_MANY, BRANCH_TAUTAU_INFINITE,
                ("infinite family from Dehn-twisted rectangle pairings",),
                f"special with slopes 1/{m} and 1/{n} (equal, +-1/3)")
        return _classified(
            THREE_ANNULI, BRANCH_TAUTAU_THREE,
            ("three annuli from good-rectangle pairings",),
            "special with slopes 1/3 and -1/3 (mixed signs)")
    return _classified(
        ONE_ANNULUS, BRANCH_TAUTAU_ONE,
        ("annulus from a type I / type I rectangle pairing",),
        f"special with unit-fraction slopes 1/{m}, 1/{n}, "
        "at least one denominator differs from +-3")


def _taurho(t: ResolvedTangle, r: ResolvedTangle, special: bool) -> Verdict:
    annulus = good_annulus(r)
    if annulus is None:
        return _classified(
            ZERO_ANNULI, BRANCH_TAURHO_HYPERBOLIC, (),
            "the rho side is not satellite or cable and has no Hopf "
            "summand, so neither side carries a good annulus")
    annulus_desc = f"good annulus of {annulus.value}"
    m = _unit_denominator(t) if special and r.torus is not None else _Unit.NO
    if m is _Unit.NO:
        return _classified(
            ONE_ANNULUS, BRANCH_TAURHO_ONE, (annulus_desc,),
            "the good annulus is the only essential annulus; " + UNIQUENESS_NOTE)
    if isinstance(m, _Unit):
        return _inadmissible([Violation(
            "UndeterminedSlope", ("first",),
            "a special tau-rho decomposition over a torus rho side needs a "
            "concrete tau slope (or a definite refutation) to choose a count branch")])
    p = r.torus.p
    if abs(m) == 3:
        if p == 2:
            return _classified(
                INFINITELY_MANY, BRANCH_TAURHO_INFINITE,
                (annulus_desc, "infinite family from Dehn-twisted rectangle pairings"),
                f"special, tau slope 1/{m}, torus parameter p = 2")
        return _classified(
            FOUR_ANNULI, BRANCH_TAURHO_FOUR,
            (annulus_desc, "annuli from Moebius-band pairings of type I/II rectangles"),
            f"special, tau slope 1/{m}, torus parameter p = {p} != 2")
    if p != 2:
        return _classified(
            TWO_ANNULI, BRANCH_TAURHO_TWO,
            (annulus_desc, "frontier of the Moebius band from a type I / type I "
                           "rectangle pairing"),
            f"special, tau slope 1/{m} with denominator != +-3, "
            f"torus parameter p = {p} != 2")
    return _classified(
        ONE_ANNULUS, BRANCH_TAURHO_ONE, (annulus_desc,),
        f"special, tau slope 1/{m} with denominator != +-3 and torus "
        "parameter p = 2 fall to the residual one-annulus clause")


def _rhorho(a: ResolvedTangle, b: ResolvedTangle, special: bool) -> Verdict:
    """``special`` is unread: a special rho-rho decomposition is inadmissible."""
    annuli = []
    for position, side in (("first", a), ("second", b)):
        found = good_annulus(side)
        if found is not None:
            annuli.append(f"{position} side: good annulus of {found.value}")
    if len(annuli) == 2:
        return _classified(TWO_ANNULI, BRANCH_RHORHO_TWO, tuple(annuli),
                           "both sides carry a good annulus")
    if len(annuli) == 1:
        return _classified(ONE_ANNULUS, BRANCH_RHORHO_ONE, tuple(annuli),
                           "exactly one side carries a good annulus")
    return _classified(
        ZERO_ANNULI, BRANCH_RHORHO_HYPERBOLIC, (),
        "neither side is satellite or cable or has a Hopf summand")


#: Each decomposition kind's side kinds and counting rule.
_RULES = {TAUTAU: ((KIND_TAU, KIND_TAU), _tautau), TAURHO: ((KIND_TAU, KIND_RHO), _taurho),
          RHORHO: ((KIND_RHO, KIND_RHO), _rhorho)}


def _count(kind: str, a: ResolvedTangle, b: ResolvedTangle, special: bool) -> Verdict:
    """The gate of every count: side kinds and essentiality, atoroidality, the kind's rule."""
    (first_kind, second_kind), rule = _RULES[kind]
    if a.kind != first_kind or b.kind != second_kind or not (a.essential and b.essential):
        bad = []
        for position, tangle, expected_kind in (("first", a, first_kind),
                                                ("second", b, second_kind)):
            if tangle.kind != expected_kind:
                bad.append(Violation(
                    "KindMismatch", (position,),
                    f"expected a {expected_kind}-tangle, got {tangle.kind}"))
            if not tangle.essential:
                reason = ("the Hopf tangle is non-trivial but inessential"
                          if tangle.hopf_tangle else "a trivial tangle is inessential")
                bad.append(Violation(
                    "InessentialTangle", (position,),
                    f"{reason}; an essential 3-decomposition requires both sides essential"))
        return _inadmissible(bad)
    if not (a.atoroidal and b.atoroidal):
        return Verdict(status=TOROIDAL, notes=("annulus counting requires both sides atoroidal",))
    return rule(a, b, special)


def classify_tautau(a: ResolvedTangle, b: ResolvedTangle, special: bool) -> Verdict:
    return _count(TAUTAU, a, b, special)


def classify_taurho(t: ResolvedTangle, r: ResolvedTangle, special: bool) -> Verdict:
    return _count(TAURHO, t, r, special)


def classify_rhorho(a: ResolvedTangle, b: ResolvedTangle) -> Verdict:
    return _count(RHORHO, a, b, False)


# ---------------------------------------------------------------------------
# Entry point

def _structural_violations(d: Decomposition) -> list[Violation]:
    if d.kind not in (TAUTAU, TAURHO, RHORHO):  # not a lookup: a kind may be unhashable
        return [Violation("UnknownKind", ("kind",), f"unknown decomposition kind {d.kind!r}")]
    expected = _RULES[d.kind][0]
    out = []
    for position, descriptor, kind in (("first", d.first, expected[0]),
                                       ("second", d.second, expected[1])):
        if descriptor.kind != kind:
            out.append(Violation(
                "KindMismatch", (position,),
                f"a {d.kind} decomposition needs a {kind}-tangle in {position} position"))
    if d.kind == RHORHO and d.special:
        out.append(Violation(
            "SpecialRhoRho", ("special",),
            "a rho-rho decomposition cannot be special (the complement "
            "would be disconnected)"))
    return out


def classify(d: Decomposition) -> Verdict:
    """Examine, check and dispatch a decomposition to its verdict.

    All failures are reported inside the Verdict (status inadmissible with
    a violation list), never raised past this boundary.
    """
    (a, first), (b, second) = examine(d.first), examine(d.second)
    violations = _structural_violations(d)
    for position, found in (("first", first), ("second", second)):
        violations += [Violation(v.rule, (position,) + v.fields, v.detail) for v in found]
    if violations:
        return _inadmissible(violations)
    if d.kind == TAUTAU:
        return classify_tautau(a, b, d.special)
    if d.kind == TAURHO:
        return classify_taurho(a, b, d.special)
    return classify_rhorho(a, b)


# ---------------------------------------------------------------------------
# Obstructions to 3-decomposability

class Obstruction(Enum):
    NOT_3_DECOMPOSABLE_BY_ANNULUS_TYPES = "not 3-decomposable: two non-separating " \
        "essential annuli, not both of type 2"
    NOT_3_DECOMPOSABLE_BY_INFINITE_FAMILY = "not 3-decomposable: infinitely many " \
        "essential annuli outside the twist family L"


@dataclass(frozen=True)
class AnnulusProfile:
    """Externally supplied facts about the essential annuli of a knot exterior."""

    nonseparating_count: int
    nonseparating_all_type2: bool
    infinitely_many: bool
    in_family_L: bool
    atoroidal: bool

    def __post_init__(self):
        if not 0 <= self.nonseparating_count <= 2:
            raise ValueError(
                "an atoroidal genus-two exterior has at most two "
                "non-separating essential annuli")


def obstruction_check(profile: AnnulusProfile) -> list[Obstruction]:
    """Obstructions to 3-decomposability triggered by an annulus profile.

    Both rules presuppose atoroidality: a 3-decomposable atoroidal knot with
    two non-separating essential annuli has both of type 2, and one with
    infinitely many essential annuli lies in the twist family L.
    """
    out = []
    if profile.atoroidal and profile.nonseparating_count == 2 \
            and not profile.nonseparating_all_type2:
        out.append(Obstruction.NOT_3_DECOMPOSABLE_BY_ANNULUS_TYPES)
    if profile.atoroidal and profile.infinitely_many and not profile.in_family_L:
        out.append(Obstruction.NOT_3_DECOMPOSABLE_BY_INFINITE_FAMILY)
    return out
