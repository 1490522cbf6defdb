"""Decomposition validation and the essential-annulus count.

``classify`` examines each side of a 3-decomposition once, checks its structure
and hands both profiles to the kind's classifier: one gate (side kinds and
essentiality, else inadmissible; atoroidality, else the toroidal verdict), then
``side_facts`` per side, then the kind's pure pair rule from (facts, facts,
special) to a Clause:

* tau-tau: infinitely many annuli iff special with both slopes +-1/3 of
  the same sign; three for mixed-sign 1/3, -1/3; one for any other pair
  of unit-fraction slopes; otherwise hyperbolic.
* tau-rho: hyperbolic unless the rho side is satellite, cable or carries
  a Hopf summand; then infinitely many / four / two / one according to
  specialness, the tau slope and the torus parameter p.
* rho-rho: two / one / zero annuli by the number of flagged sides; a
  special rho-rho decomposition is impossible (the complement would be
  disconnected) and is rejected as inadmissible.

A rho side's good annulus is one of its facts: ``side_facts`` decides the satellite / cable /
Hopf-summand trichotomy, and ``good_annulus`` is its gated view, ``require`` first.

A renderer fills in the clause's texts from both sides' facts.  The renderer table
holds every branch label (like ``"tautau (ii)"``, stored verbatim in the Verdict so
golden tests pin the reasoning, not just the number), count, annulus text and note.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum

from .annuli import UNIQUENESS_NOTE, AnnulusType
from .errors import MutualExclusivityViolation, echo
from .tangle import (
    KIND_RHO,
    KIND_TAU,
    Descriptor,
    ResolvedTangle,
    Violation,
    examine,
    mirror_descriptor,
    require,
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


# kind: str; special: bool; first, second: Descriptor
Decomposition = namedtuple("Decomposition", "kind special first second")
Decomposition.__doc__ = "A 3-decomposition: kind, specialness and the two tangle sides."


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


# status: str; annulus_count: AnnulusCount | None; hyperbolic: bool | None; branch: str | None;
# annuli, notes: tuple[str, ...]; violations: tuple[Violation, ...]
class Verdict(namedtuple(
        "Verdict", "status annulus_count hyperbolic branch annuli notes violations",
        defaults=(None, None, None, (), (), ()))):
    """Classifier output for one decomposition."""

    __slots__ = ()

    def summary(self) -> str:
        if self.status == CLASSIFIED:
            if self.hyperbolic:
                return f"hyperbolic (no essential annuli) [{self.branch}]"
            n = self.annulus_count.value  # read once: a property or __str__ is one more frame
            return f"{'infinitely many' if n is None else n} essential annuli [{self.branch}]"
        if self.status == TOROIDAL:
            return "toroidal (annulus counting requires atoroidal sides)"
        return "inadmissible: " + "; ".join(str(v) for v in self.violations)


ATOROIDAL_NOTE = "atoroidal: both tangle exteriors are atoroidal"


def _inadmissible(violations: list[Violation]) -> Verdict:
    # every field in order, so the record is built in C, not by the generated __new__
    return tuple.__new__(Verdict, (INADMISSIBLE, None, None, None, (), (), tuple(violations)))


#: The one toroidal verdict, shared by every call as the ``_FIXED`` verdicts are.
_TOROIDAL = Verdict(status=TOROIDAL, notes=("annulus counting requires both sides atoroidal",))


# ---------------------------------------------------------------------------
# Side facts: what the pair rules read of one side, derived once per side

# Why a tau side has no unit denominator: plain strings, not an Enum, whose member
# lookup costs about 0.1 us a time on Python 3.11, several times a census row.
NO_UNIT = "no"             # definitely not rational with a unit-fraction slope
UNKNOWN_UNIT = "unknown"   # no concrete slope to read the unit fraction from


SideFacts = namedtuple("SideFacts", (
    "unit",      # int | str | None: a tau side's signed m of slope 1/m, or why there is none
    "annulus",   # AnnulusType | None: a rho side's good annulus
    "p",         # int | None: a rho side's torus parameter, None without a torus
))
SideFacts.__doc__ = "What the pair rules read of one side."
# the facts of every tau side without a unit slope, shared by each call that reads them
_NO_UNIT, _UNKNOWN_UNIT = SideFacts(NO_UNIT, None, None), SideFacts(UNKNOWN_UNIT, None, None)


def side_facts(t: ResolvedTangle) -> SideFacts:
    """The facts of a side that passed the gate (fits its kind, essential and atoroidal); a rho
    side with two of the satellite / cable / Hopf-summand flags raises once the gate let it in."""
    # every field is computed here, so each record is built in C, not by the generated __new__
    if t.kind == KIND_RHO:
        if (t.satellite and (t.cable or t.hopf_summand)) or (t.cable and t.hopf_summand):
            raise MutualExclusivityViolation(
                "satellite, cable and hopf_summand are mutually exclusive")
        annulus = (AnnulusType.TYPE_I_SATELLITE if t.satellite
                   else AnnulusType.TYPE_II_CABLE if t.cable
                   else AnnulusType.HOPF_TYPE if t.hopf_summand else None)
        return tuple.__new__(SideFacts, (None, annulus,
                                         t.torus.p if t.torus is not None else None))
    if (t.rational is False or t.unit_fraction_slope is False
            or t.slope is not None and abs(t.slope.num) != 1):
        return _NO_UNIT
    if t.slope is None:  # no slope given, and none ruled out
        return _UNKNOWN_UNIT
    return tuple.__new__(SideFacts, (t.slope.den if t.slope.num > 0 else -t.slope.den, None, None))


def good_annulus(t: ResolvedTangle) -> AnnulusType | None:
    """The type of the good annulus in the tangle exterior, if any (None for a tau side)."""
    require(t, "good-annulus classification")
    return side_facts(t).annulus


# ---------------------------------------------------------------------------
# The renderer table: every text a count writes, one row per clause

# branch: str | None; count: AnnulusCount | None; annuli: tuple[str, ...]; note: str
Clause = namedtuple("Clause", "branch count annuli note")
Clause.__doc__ = """A count clause's branch label, count and texts: ``str.format`` templates
over the sides' facts.  An ``UndeterminedSlope`` refusal has no branch and no count; its note is
the detail."""


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
#: The rho-rho clause by the number of sides that carry a good annulus.
_RHORHO_BY_ANNULI = (_RHORHO_HYPERBOLIC, _RHORHO_ONE, _RHORHO_TWO)


def _render(clause: Clause, a: SideFacts, b: SideFacts) -> Verdict:
    """The verdict of a clause, its texts filled in from the two sides' facts."""
    if id(clause) in _FIXED:  # a clause whose texts read no field
        return _FIXED[id(clause)]
    if clause.branch is None:  # its fields: the positions with no slope to read a unit from
        sides = tuple([p for p, f in (("first", a), ("second", b)) if f.unit is UNKNOWN_UNIT])
        return _inadmissible([Violation("UndeterminedSlope", sides, clause.note)])
    key = (clause.annuli, a.annulus, b.annulus)  # the templates and all that they read
    annuli = _ANNULI.get(key)
    if annuli is None:  # side and annulus: a tau-rho's rho side, or a rho-rho's first with one
        fields = {"first": a.annulus, "second": b.annulus,
                  "side": "first" if a.annulus else "second", "annulus": a.annulus or b.annulus}
        annuli = _ANNULI[key] = tuple([text.format_map(fields) for text in clause.annuli])
    hyperbolic = clause.count.value == 0
    notes = (ATOROIDAL_NOTE, clause.note.format_map({"m": a.unit, "n": b.unit, "p": b.p}),
             IRREDUCIBILITY_NOTE)
    if hyperbolic:
        notes += (HYPERBOLICITY_NOTE,)
    # every field in order, so the record is built in C, not by the generated __new__
    return tuple.__new__(Verdict, (CLASSIFIED, clause.count, hyperbolic, clause.branch, annuli,
                                   notes, ()))


#: A clause's annulus texts by their templates and both sides' good annuli: at most 4 x 4 a
#: clause, each formatted on first use.
_ANNULI: dict = {}
#: The verdict of each clause whose texts read no field, by its id, rendered once: a Verdict is
#: an immutable tuple, so every decomposition that meets the clause may share it.
_FIXED: dict = {}  # bound before it is filled: _render reads it
_FIXED.update({id(c): _render(c, SideFacts(None, None, None), SideFacts(None, None, None))
               for c in list(globals().values()) if type(c) is Clause and c.branch is not None
               and not set("{}") & set(c.note + "".join(c.annuli))})


# ---------------------------------------------------------------------------
# Pair rules, one per kind: (facts, facts, special) -> Clause, a pure decision that builds
# nothing; ``_render`` fills the clause's texts from both sides' facts

def _tautau(a: SideFacts, b: SideFacts, special: bool) -> Clause:
    if not special:
        return _TAUTAU_NOT_SPECIAL
    m, n = a.unit, b.unit
    if m is NO_UNIT or n is NO_UNIT:
        return _TAUTAU_NO_UNIT
    if m is UNKNOWN_UNIT or n is UNKNOWN_UNIT:
        return _TAUTAU_UNDETERMINED
    if abs(m) == 3 and abs(n) == 3:
        return _TAUTAU_INFINITE if m == n else _TAUTAU_THREE
    return _TAUTAU_ONE


def _taurho(t: SideFacts, r: SideFacts, special: bool) -> Clause:
    if r.annulus is None:
        return _TAURHO_HYPERBOLIC
    m = t.unit if special and r.p is not None else NO_UNIT
    if m is NO_UNIT:
        return _TAURHO_ONLY
    if m is UNKNOWN_UNIT:
        return _TAURHO_UNDETERMINED
    if abs(m) == 3:
        return _TAURHO_INFINITE if r.p == 2 else _TAURHO_FOUR
    return _TAURHO_TWO if r.p != 2 else _TAURHO_RESIDUAL


def _rhorho(a: SideFacts, b: SideFacts, special: bool) -> Clause:
    """``special`` is unread: a special rho-rho decomposition is inadmissible."""
    return _RHORHO_BY_ANNULI[(a.annulus is not None) + (b.annulus is not None)]


#: Each decomposition kind's side kinds and pair rule.
RULES = {TAUTAU: ((KIND_TAU, KIND_TAU), _tautau), TAURHO: ((KIND_TAU, KIND_RHO), _taurho),
         RHORHO: ((KIND_RHO, KIND_RHO), _rhorho)}

#: The decomposition kinds, in the order above: a tuple, so that ``kind in KINDS`` refuses an
#: unhashable kind where a lookup in ``RULES`` would raise TypeError.
KINDS = tuple(RULES)


def _kind_mismatch(kind: str, position: str, got: str, expected: str) -> list[Violation]:
    """A side's KindMismatch violation, if its tangle kind ``got`` is not ``expected``."""
    if got == expected:
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
            bad += _kind_mismatch(kind, position, tangle.kind, expected_kind)
            if not tangle.essential:
                reason = ("the Hopf tangle is non-trivial but inessential"
                          if tangle.hopf_tangle else "a trivial tangle is inessential")
                bad.append(Violation(
                    "InessentialTangle", (position,),
                    f"{reason}; an essential 3-decomposition requires both sides essential"))
        return _inadmissible(bad)
    if not (a.atoroidal and b.atoroidal):
        return _TOROIDAL
    a, b = side_facts(a), side_facts(b)
    return _render(rule(a, b, special), a, b)


def classify_tautau(a: ResolvedTangle, b: ResolvedTangle, special: bool) -> Verdict:
    return _count(TAUTAU, a, b, special)


def classify_taurho(t: ResolvedTangle, r: ResolvedTangle, special: bool) -> Verdict:
    return _count(TAURHO, t, r, special)


def classify_rhorho(a: ResolvedTangle, b: ResolvedTangle) -> Verdict:
    return _count(RHORHO, a, b, False)


# ---------------------------------------------------------------------------
# Entry point

#: A side's tangle kind by its exact type; a side of any other type is not a descriptor.
_SIDE_KINDS = {descriptor: descriptor.kind for descriptor in Descriptor.__args__}


def classify(d: Decomposition) -> Verdict:
    """Examine, check and dispatch a decomposition to its verdict.

    Whatever a Decomposition holds, every failure is reported inside the Verdict (status
    inadmissible with a violation list), never raised past this boundary.
    """
    known = d.kind in KINDS
    first, second = RULES[d.kind][0] if known else (None, None)
    violations = [] if known else [Violation("UnknownKind", ("kind",),
                                             f"unknown decomposition kind {echo(d.kind, repr)}")]
    # one lookup per side: its tangle kind, or None for a side that is not a descriptor, which
    # is refused here and never examined; an unknown kind expects no side kind to compare
    a_kind, b_kind = _SIDE_KINDS.get(type(d.first)), _SIDE_KINDS.get(type(d.second))
    if not known or a_kind != first or b_kind != second:
        for position, side, got, expected in (("first", d.first, a_kind, first),
                                              ("second", d.second, b_kind, second)):
            if got is None:
                violations.append(Violation("NotADescriptor", (position,), (
                    f"the {position} side must be a TauDescriptor or RhoDescriptor, "
                    f"got {echo(type(side).__name__)}")))
            elif known:
                violations += _kind_mismatch(d.kind, position, got, expected)
    if type(d.special) is not bool:  # jsonio's rule: 0 or "no" must not be read as a flag
        violations.append(Violation("SpecialNotBoolean", ("special",), "special must be a bool, "
                                    f"got {echo(type(d.special).__name__)}"))
    elif d.kind == RHORHO and d.special:
        violations.append(Violation("SpecialRhoRho", ("special",), "a rho-rho decomposition "
                                    "cannot be special (the complement would be disconnected)"))
    a, a_found = examine(d.first) if a_kind else (None, ())
    b, b_found = examine(d.second) if b_kind else (None, ())
    if a_found or b_found:  # each side's violations, their fields prefixed with its position
        for position, found in (("first", a_found), ("second", b_found)):
            violations += [Violation(v.rule, (position,) + v.fields, v.detail) for v in found]
    if violations:
        return _inadmissible(violations)
    if d.kind == RHORHO:
        return classify_rhorho(a, b)
    return (classify_tautau if d.kind == TAUTAU else classify_taurho)(a, b, d.special)


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
