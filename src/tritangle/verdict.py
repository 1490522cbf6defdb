"""Decomposition validation and the essential-annulus count.

``classify`` examines each side of a 3-decomposition once, checks its structure
and hands both profiles to the kind's classifier: one gate (side kinds and
essentiality, else inadmissible; atoroidality, else the toroidal verdict), then
``side_facts`` per side, then the kind's pure pair rule from (facts, facts,
special) to (clause, inputs):

* tau-tau: infinitely many annuli iff special with both slopes +-1/3 of
  the same sign; three for mixed-sign 1/3, -1/3; one for any other pair
  of unit-fraction slopes; otherwise hyperbolic.
* tau-rho: hyperbolic unless the rho side is satellite, cable or carries
  a Hopf summand; then infinitely many / four / two / one according to
  specialness, the tau slope and the torus parameter p.
* rho-rho: two / one / zero annuli by the number of flagged sides; a
  special rho-rho decomposition is impossible (the complement would be
  disconnected) and is rejected as inadmissible.

A renderer fills in the clause's texts from the renderer table, which holds every
branch label (like ``"tautau (ii)"``, stored verbatim in the Verdict so golden tests
pin the reasoning, not just the number), count, annulus text and note.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .annuli import UNIQUENESS_NOTE, AnnulusType, good_annulus
from .tangle import (
    KIND_RHO,
    KIND_TAU,
    Descriptor,
    ResolvedTangle,
    Violation,
    examine,
    mirror_descriptor,
)
from .value import Value

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
    return d._replace(first=mirror_descriptor(d.first), second=mirror_descriptor(d.second))


class AnnulusCount(Value):
    """Zero, a finite positive number, or infinitely many (value None)."""

    __slots__ = ("value",)

    def __init__(self, value: int | None):
        if value is not None and value < 0:
            raise ValueError("annulus count cannot be negative")
        self._set(value)

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


def _inadmissible(violations: list[Violation]) -> Verdict:
    return Verdict(status=INADMISSIBLE, violations=tuple(violations))


# ---------------------------------------------------------------------------
# Side facts: what the pair rules read of one side, derived once per side

# Why a tau side has no unit denominator: plain strings, not an Enum, whose member
# lookup costs about 0.1 us a time on Python 3.11, several times a census row.
NO_UNIT = "no"             # definitely not rational with a unit-fraction slope
UNKNOWN_UNIT = "unknown"   # no concrete slope to read the unit fraction from


class SideFacts(NamedTuple):
    """What the pair rules read of one side."""

    unit: int | str | None        # a tau side's signed m of slope 1/m, or why there is none
    annulus: AnnulusType | None   # a rho side's good annulus
    p: int | None                 # a rho side's torus parameter, None without a torus


def side_facts(t: ResolvedTangle) -> SideFacts:
    """The facts of a side that passed the gate (fits its kind, essential and atoroidal), so
    ``require`` never fires here and a two-flag profile raises only once the gate let it in."""
    if t.kind == KIND_RHO:
        return SideFacts(None, good_annulus(t), t.torus.p if t.torus is not None else None)
    if t.rational is False or t.unit_fraction_slope is False:
        return SideFacts(NO_UNIT, None, None)
    if t.slope is None:
        return SideFacts(UNKNOWN_UNIT, None, None)
    if abs(t.slope.num) != 1:
        return SideFacts(NO_UNIT, None, None)
    return SideFacts(t.slope.den if t.slope.num > 0 else -t.slope.den, None, None)


# ---------------------------------------------------------------------------
# The renderer table: every text a count writes, one row per clause

class Clause(NamedTuple):
    """A count clause's branch label, count and texts: ``str.format`` templates over the rule's
    inputs.  An ``UndeterminedSlope`` refusal has no branch and no count; its note is the detail."""

    branch: str | None
    count: AnnulusCount | None
    annuli: tuple[str, ...]
    note: str


_GOOD_ANNULUS = "good annulus of {annulus.value}"
_TWISTED_FAMILY = "infinite family from Dehn-twisted rectangle pairings"

_TAUTAU_NOT_SPECIAL = Clause(BRANCH_TAUTAU_HYPERBOLIC, ZERO_ANNULI, (), (
    "not special: the decomposing sphere cuts no essential annulus into rectangles, "
    "and tau exteriors carry no good annulus"))
_TAUTAU_NO_UNIT = Clause(BRANCH_TAUTAU_HYPERBOLIC, ZERO_ANNULI, (), (
    "a side is not rational with a unit-fraction slope, so its exterior admits no good rectangle"))
_TAUTAU_UNDETERMINED = Clause(None, None, (), (
    "a special tau-tau decomposition needs concrete unit-fraction slopes "
    "(or a definite refutation) to choose a count branch"))
_TAUTAU_INFINITE = Clause(BRANCH_TAUTAU_INFINITE, INFINITELY_MANY, (_TWISTED_FAMILY,),
                          "special with slopes 1/{m} and 1/{n} (equal, +-1/3)")
_TAUTAU_THREE = Clause(BRANCH_TAUTAU_THREE, THREE_ANNULI,
                       ("three annuli from good-rectangle pairings",),
                       "special with slopes 1/3 and -1/3 (mixed signs)")
_TAUTAU_ONE = Clause(BRANCH_TAUTAU_ONE, ONE_ANNULUS,
                     ("annulus from a type I / type I rectangle pairing",), (
    "special with unit-fraction slopes 1/{m}, 1/{n}, at least one denominator differs from +-3"))
_TAURHO_HYPERBOLIC = Clause(BRANCH_TAURHO_HYPERBOLIC, ZERO_ANNULI, (), (
    "the rho side is not satellite or cable and has no Hopf summand, "
    "so neither side carries a good annulus"))
_TAURHO_ONLY = Clause(BRANCH_TAURHO_ONE, ONE_ANNULUS, (_GOOD_ANNULUS,),
                      "the good annulus is the only essential annulus; " + UNIQUENESS_NOTE)
_TAURHO_UNDETERMINED = Clause(None, None, (), (
    "a special tau-rho decomposition over a torus rho side needs a concrete tau slope "
    "(or a definite refutation) to choose a count branch"))
_TAURHO_INFINITE = Clause(BRANCH_TAURHO_INFINITE, INFINITELY_MANY,
                          (_GOOD_ANNULUS, _TWISTED_FAMILY),
                          "special, tau slope 1/{m}, torus parameter p = 2")
_TAURHO_FOUR = Clause(BRANCH_TAURHO_FOUR, FOUR_ANNULI, (
    _GOOD_ANNULUS, "annuli from Moebius-band pairings of type I/II rectangles"),
    "special, tau slope 1/{m}, torus parameter p = {p} != 2")
_TAURHO_TWO = Clause(BRANCH_TAURHO_TWO, TWO_ANNULI, (
    _GOOD_ANNULUS, "frontier of the Moebius band from a type I / type I rectangle pairing"),
    "special, tau slope 1/{m} with denominator != +-3, torus parameter p = {p} != 2")
_TAURHO_RESIDUAL = Clause(BRANCH_TAURHO_ONE, ONE_ANNULUS, (_GOOD_ANNULUS,), (
    "special, tau slope 1/{m} with denominator != +-3 and torus parameter p = 2 "
    "fall to the residual one-annulus clause"))
_RHORHO_TWO = Clause(BRANCH_RHORHO_TWO, TWO_ANNULI,
                     ("first side: good annulus of {first.value}",
                      "second side: good annulus of {second.value}"),
                     "both sides carry a good annulus")
_RHORHO_ONE = Clause(BRANCH_RHORHO_ONE, ONE_ANNULUS,
                     ("{side} side: good annulus of {annulus.value}",),
                     "exactly one side carries a good annulus")
_RHORHO_HYPERBOLIC = Clause(BRANCH_RHORHO_HYPERBOLIC, ZERO_ANNULI, (),
                            "neither side is satellite or cable or has a Hopf summand")


def _render(clause: Clause, inputs: dict) -> Verdict:
    """The verdict of a clause, its texts filled in from the rule's inputs."""
    if clause.branch is None:
        return _inadmissible([Violation("UndeterminedSlope", inputs["sides"], clause.note)])
    hyperbolic = clause.count.is_zero
    notes = (ATOROIDAL_NOTE, clause.note.format_map(inputs), IRREDUCIBILITY_NOTE)
    if hyperbolic:
        notes += (HYPERBOLICITY_NOTE,)
    return Verdict(CLASSIFIED, clause.count, hyperbolic, clause.branch,
                   tuple([text.format_map(inputs) for text in clause.annuli]), notes)


# ---------------------------------------------------------------------------
# Pair rules, one per kind: (facts, facts, special) -> (clause, inputs)

def _tautau(a: SideFacts, b: SideFacts, special: bool) -> tuple:
    if not special:
        return _TAUTAU_NOT_SPECIAL, {}
    m, n = a.unit, b.unit
    if m is NO_UNIT or n is NO_UNIT:
        return _TAUTAU_NO_UNIT, {}
    if m is UNKNOWN_UNIT or n is UNKNOWN_UNIT:
        return _TAUTAU_UNDETERMINED, {"sides": tuple(
            p for p, u in (("first", m), ("second", n)) if u is UNKNOWN_UNIT)}
    inputs = {"m": m, "n": n}
    if abs(m) == 3 and abs(n) == 3:
        return (_TAUTAU_INFINITE if m == n else _TAUTAU_THREE), inputs
    return _TAUTAU_ONE, inputs


def _taurho(t: SideFacts, r: SideFacts, special: bool) -> tuple:
    if r.annulus is None:
        return _TAURHO_HYPERBOLIC, {}
    m = t.unit if special and r.p is not None else NO_UNIT
    if m is NO_UNIT:
        return _TAURHO_ONLY, {"annulus": r.annulus}
    if m is UNKNOWN_UNIT:
        return _TAURHO_UNDETERMINED, {"sides": ("first",)}
    inputs = {"annulus": r.annulus, "m": m, "p": r.p}
    if abs(m) == 3:
        return (_TAURHO_INFINITE if r.p == 2 else _TAURHO_FOUR), inputs
    return (_TAURHO_TWO if r.p != 2 else _TAURHO_RESIDUAL), inputs


def _rhorho(a: SideFacts, b: SideFacts, special: bool) -> tuple:
    """``special`` is unread: a special rho-rho decomposition is inadmissible."""
    if a.annulus is not None and b.annulus is not None:
        return _RHORHO_TWO, {"first": a.annulus, "second": b.annulus}
    if a.annulus is not None:
        return _RHORHO_ONE, {"side": "first", "annulus": a.annulus}
    if b.annulus is not None:
        return _RHORHO_ONE, {"side": "second", "annulus": b.annulus}
    return _RHORHO_HYPERBOLIC, {}


#: Each decomposition kind's side kinds and pair rule.
RULES = {TAUTAU: ((KIND_TAU, KIND_TAU), _tautau), TAURHO: ((KIND_TAU, KIND_RHO), _taurho),
         RHORHO: ((KIND_RHO, KIND_RHO), _rhorho)}

#: The decomposition kinds, in the order above: a tuple, so that ``kind in KINDS`` refuses an
#: unhashable kind where a lookup in ``RULES`` would raise TypeError.
KINDS = tuple(RULES)


def _kind_mismatch(kind: str, position: str, side, expected: str) -> list[Violation]:
    """A side's KindMismatch violation, if it is no ``expected``-tangle (descriptor or profile)."""
    if side.kind == expected:
        return []
    return [Violation("KindMismatch", (position,),
                      f"a {kind} decomposition needs a {expected}-tangle in {position} position")]


def _count(kind: str, a: ResolvedTangle, b: ResolvedTangle, special: bool) -> Verdict:
    """The four steps of every count: the gate, each side's facts, the pair rule, the renderer."""
    (first_kind, second_kind), rule = RULES[kind]
    if a.kind != first_kind or b.kind != second_kind or not (a.essential and b.essential):
        bad = []
        for position, tangle, expected_kind in (("first", a, first_kind),
                                                ("second", b, second_kind)):
            bad += _kind_mismatch(kind, position, tangle, expected_kind)
            if not tangle.essential:
                reason = ("the Hopf tangle is non-trivial but inessential"
                          if tangle.hopf_tangle else "a trivial tangle is inessential")
                bad.append(Violation(
                    "InessentialTangle", (position,),
                    f"{reason}; an essential 3-decomposition requires both sides essential"))
        return _inadmissible(bad)
    if not (a.atoroidal and b.atoroidal):
        return Verdict(status=TOROIDAL, notes=("annulus counting requires both sides atoroidal",))
    return _render(*rule(side_facts(a), side_facts(b), special))


def classify_tautau(a: ResolvedTangle, b: ResolvedTangle, special: bool) -> Verdict:
    return _count(TAUTAU, a, b, special)


def classify_taurho(t: ResolvedTangle, r: ResolvedTangle, special: bool) -> Verdict:
    return _count(TAURHO, t, r, special)


def classify_rhorho(a: ResolvedTangle, b: ResolvedTangle) -> Verdict:
    return _count(RHORHO, a, b, False)


# ---------------------------------------------------------------------------
# Entry point

def _structural_violations(d: Decomposition) -> list[Violation]:
    if d.kind not in KINDS:
        return [Violation("UnknownKind", ("kind",), f"unknown decomposition kind {d.kind!r}")]
    first, second = RULES[d.kind][0]
    out = []
    if d.first.kind != first or d.second.kind != second:  # the happy path builds no tuples
        out = (_kind_mismatch(d.kind, "first", d.first, first)
               + _kind_mismatch(d.kind, "second", d.second, second))
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
    if first or second:  # each side's violations, their fields prefixed with its position
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


class AnnulusProfile(Value):
    """Externally supplied facts about the essential annuli of a knot exterior."""

    __slots__ = ("nonseparating_count", "nonseparating_all_type2", "infinitely_many",
                 "in_family_L", "atoroidal")

    def __init__(self, nonseparating_count: int, nonseparating_all_type2: bool,
                 infinitely_many: bool, in_family_L: bool, atoroidal: bool):
        if not 0 <= nonseparating_count <= 2:
            raise ValueError(
                "an atoroidal genus-two exterior has at most two "
                "non-separating essential annuli")
        self._set(nonseparating_count, nonseparating_all_type2, infinitely_many, in_family_L,
                  atoroidal)


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
