"""Tangle descriptors and derivation of their semantic profile.

A 3-decomposition splits a genus-two handlebody-knot into two 3-tangles:
a tau-tangle (a cone on three boundary points) or a rho-tangle (an arc
plus a loop with a whisker).  A tangle side is described either by a
rational twist presentation, by torus curve parameters (rho only), or by
abstract geometric flags taken at face value after validation.  Descriptors and
presentations are immutable values (``value.Value``) that check their fields' types
and values when built, ``mirror_descriptor``'s ``_replace`` copies included.

``examine`` makes one pass over a descriptor and only dispatches: one examiner per
presentation type owns that type's checks and builds the profile only when no invariant
is broken.  A rational side's twist vector is evaluated once.  A slope whose denominator
has more digits than ``str`` writes is refused too (``SlopeTooLarge``), whether evaluated
from twists, a torus arc's +-1/(2p) or declared.
The profile (a ResolvedTangle) carries the slope, triviality, essentiality,
torus parameters and the satellite / cable / Hopf-summand trichotomy, each
derived field with a provenance note naming the rule that produced it.  One
constructor builds every profile: it derives essentiality and the satellite
flag, and lists their notes after the presentation's own source notes.
``validate_descriptor`` and ``resolve`` are views of that pass: the
violations, or the profile with the violations raised as exceptions.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import (
    InconsistentFlags,
    InfiniteSlope,
    InvalidTorusParams,
    MutualExclusivityViolation,
    NotApplicable,
    SlopeTooLarge,
)
from .frac import ExtFraction, TwistVector, cf_eval, slope_normalize, too_long_to_print, \
    too_many_digits
from .value import Value

KIND_TAU = "tau"
KIND_RHO = "rho"

HOPF_SLOPE = ExtFraction(1, 2)


_INT_ONLY = frozenset({int})  # holds the types of a sequence's entries iff each is a plain int


def _type_error(owner: str, name: str, expected: str, value) -> TypeError:
    error = TypeError(f"{owner}.{name} must be {expected}, got {type(value).__name__}")
    error.field = name  # a caller such as jsonio reports the refused value at its own path
    return error


class TorusParams(Value):
    """Curve parameters (p, q) of a torus rho-tangle.

    Canonical form of the equivalence (p, q) ~ (-p, -q): p > 0 always.
    p == 1 is rejected; that case collapses to the Hopf slope 1/2 and must
    be presented through the rational path.
    """

    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int):
        for name, value in (("p", p), ("q", q)):
            if type(value) is not int:  # the one integer rule: no bool, no int subclass
                raise _type_error("TorusParams", name, "an int", value)
            if too_long_to_print(value):  # the notes and documents write p and q as text
                raise InvalidTorusParams(too_many_digits(f"torus parameter {name}"))
        if abs(p) < 2:
            raise InvalidTorusParams(f"torus parameter p must be >= 2, got ({p}, {q})")
        if math.gcd(p, q) != 1:
            raise InvalidTorusParams(f"torus parameters must be coprime, got ({p}, {q})")
        self._set(abs(p), q if p > 0 else -q)

    def mirrored(self) -> "TorusParams":
        return TorusParams(self.p, -self.q)


def twist_rho(t: TorusParams, r: int) -> TorusParams:
    """Apply r Dehn twists along the twisting disk: (p, q) -> (p, q + r*p).

    gcd(p, q + r*p) == gcd(p, q), so the result is valid unless q + r*p has
    too many digits to write; it is re-canonicalized by construction.
    """
    return TorusParams(t.p, t.q + r * t.p)


# ---------------------------------------------------------------------------
# Descriptors


class RationalPresentation(Value):
    """A rational tangle given by its twist vector."""

    __slots__ = ("twists",)

    def __init__(self, twists: TwistVector):
        twists = tuple(twists)
        if not _INT_ONLY.issuperset(map(type, twists)):  # one C-level scan of the entries
            i, entry = next((i, a) for i, a in enumerate(twists) if type(a) is not int)
            raise _type_error("RationalPresentation", f"twists[{i}]", "an int", entry)
        self._setters[0](self, twists)


def _set_typed(record, values: tuple):
    """Store ``values`` in ``record``; the first one ``_types`` refuse raises, naming them."""
    for name, value, types, store in zip(record.__slots__, values, record._types, record._setters):
        if not isinstance(value, types):
            expected = " | ".join([t.__name__ for t in types]).replace("NoneType", "None")
            raise _type_error(type(record).__name__, name, expected, value)
        store(record, value)


class TorusRhoPresentation(Value):
    """A rho-tangle given by torus curve parameters."""

    __slots__ = ("params",)
    _types = ((TorusParams,),)

    def __init__(self, params: TorusParams):
        _set_typed(self, (params,))


class AbstractTau(Value):
    """Face-value flags for a tau-tangle the engine cannot compute from."""

    __slots__ = ("atoroidal", "trivial", "rational", "slope", "unit_fraction_slope")
    _types = ((bool,), (bool,), (bool,), (ExtFraction, type(None)), (bool, type(None)))

    def __init__(self, atoroidal: bool, trivial: bool, rational: bool,
                 slope: ExtFraction | None = None, unit_fraction_slope: bool | None = None):
        _set_typed(self, (atoroidal, trivial, rational, slope, unit_fraction_slope))


class AbstractRho(Value):
    """Face-value flags for a rho-tangle."""

    __slots__ = ("atoroidal", "trivial", "hopf_tangle", "satellite", "cable", "hopf_summand",
                 "torus")
    _types = ((bool,),) * 6 + ((TorusParams, type(None)),)

    def __init__(self, atoroidal: bool, trivial: bool, hopf_tangle: bool = False,
                 satellite: bool = False, cable: bool = False, hopf_summand: bool = False,
                 torus: TorusParams | None = None):
        _set_typed(self, (atoroidal, trivial, hopf_tangle, satellite, cable, hopf_summand, torus))


class TauDescriptor(Value):
    __slots__ = ("presentation",)
    kind = KIND_TAU  # a class attribute, not a field

    def __init__(self, presentation: RationalPresentation | AbstractTau):
        if not isinstance(presentation, (RationalPresentation, AbstractTau)):
            raise TypeError(f"{type(presentation).__name__} does not present a tau-tangle")
        self._setters[0](self, presentation)  # no _set loop: the hot path


class RhoDescriptor(Value):
    __slots__ = ("presentation",)
    kind = KIND_RHO

    def __init__(self, presentation: RationalPresentation | TorusRhoPresentation | AbstractRho):
        if not isinstance(presentation, (RationalPresentation, TorusRhoPresentation,
                                         AbstractRho)):
            raise TypeError(f"{type(presentation).__name__} does not present a rho-tangle")
        self._setters[0](self, presentation)  # no _set loop: the hot path


Descriptor = TauDescriptor | RhoDescriptor


class Violation(Value):
    """One broken descriptor invariant: the rule name plus the fields at fault."""

    __slots__ = ("rule", "fields", "detail")

    def __init__(self, rule: str, fields: tuple[str, ...], detail: str):
        self._set(rule, fields, detail)

    def __str__(self) -> str:
        return f"{self.rule} ({', '.join(self.fields)}): {self.detail}"


# kind: str; atoroidal, trivial, essential, satellite, cable, hopf_summand, hopf_tangle: bool;
# provenance: tuple[str, ...]; rational, unit_fraction_slope: bool | None;
# slope: ExtFraction | None; torus: TorusParams | None
ResolvedTangle = namedtuple("ResolvedTangle", (
    "kind atoroidal trivial essential satellite cable hopf_summand hopf_tangle provenance "
    "rational slope unit_fraction_slope torus"),
    defaults=(False, False, False, False, (), None, None, None, None))
ResolvedTangle.__doc__ = ("Derived semantic profile of one side, its fields in "
                          "``tritangle tangle``'s order.")


# ---------------------------------------------------------------------------
# Validation

def _slope_too_large(field_name: str) -> Violation:
    return Violation("SlopeTooLarge", (field_name,), too_many_digits("the slope's denominator"))


#: The one mapping from broken invariants to the exception ``resolve`` raises: the first
#: violation's rule names it; any other rule raises InconsistentFlags over all violations.
_RAISES = {"MutualExclusivity": MutualExclusivityViolation, "InfiniteSlope": InfiniteSlope,
           "SlopeTooLarge": SlopeTooLarge}


def _raise_violations(violations: list[Violation]):
    first = violations[0]
    if first.rule in _RAISES:
        raise _RAISES[first.rule](str(first))
    raise InconsistentFlags("; ".join(map(str, violations)))


# ---------------------------------------------------------------------------
# Resolution

ESSENTIAL_NOTE = "essential: atoroidal, non-trivial and not a Hopf tangle"
SATELLITE_NOTE = "satellite: torus parameters with p >= 2 bound a type I (satellite) annulus"


def _torus_from_slope(slope: ExtFraction) -> TorusParams | None:
    # slope +-1/(2k) with k >= 2 presents a (k, +-1)-torus arc
    if abs(slope.num) == 1 and slope.den % 2 == 0 and slope.den >= 4:
        return TorusParams(slope.den // 2, 1 if slope.num > 0 else -1)
    return None


def _profile(kind: str, notes: list[str], atoroidal: bool = True, trivial: bool = False,
             hopf_tangle: bool = False, torus: TorusParams | None = None,
             satellite: bool = False, cable: bool = False, hopf_summand: bool = False,
             rational: bool | None = None, slope: ExtFraction | None = None,
             unit_fraction_slope: bool | None = None) -> ResolvedTangle:
    """The one constructor of a profile from a presentation's facts and source ``notes``.

    Essentiality and the satellite flag are derived here and nowhere else; their notes
    go after the source notes, so every profile lists its derived-flag notes last.
    """
    essential = not trivial and not hopf_tangle
    if torus is not None and not satellite:
        notes.append(SATELLITE_NOTE)
        satellite = True
    if atoroidal and essential:
        notes.append(ESSENTIAL_NOTE)
    # every field in order, so the record is built in C, not by the generated __new__
    return tuple.__new__(ResolvedTangle, (
        kind, atoroidal, trivial, essential, satellite, cable, hopf_summand, hopf_tangle,
        tuple(notes), rational, slope, unit_fraction_slope, torus))


_RATIONAL_NOTES = ("slope: twist-vector value normalized to (-1/2, 1/2]",
                   "atoroidal: rational tangles are atoroidal")


def _rational(kind: str, twists: TwistVector) -> tuple[ResolvedTangle | None, list[Violation]]:
    """A twist vector, evaluated once: its profile, or None, and its broken invariant."""
    value = cf_eval(twists)
    if value.den == 0:  # infinite; the fields are read directly on this hot path
        # written out only if its text is at most 80 characters, which 27 entries or one entry
        # of 80 digits (which str may refuse) already exceed
        text = len(twists) < 27 and max(map(abs, twists)) < 10 ** 80 and str(list(twists))
        vector = text if text and len(text) <= 80 else f"of {len(twists)} entries"
        return None, [Violation(
            "InfiniteSlope", ("twists",), f"twist vector {vector} evaluates to infinity")]
    if too_long_to_print(value.den):
        return None, [_slope_too_large("twists")]
    slope = slope_normalize(value)
    trivial = slope.num == 0
    hopf = kind == KIND_RHO and slope.num == 1 and slope.den == 2  # slope == HOPF_SLOPE
    torus = _torus_from_slope(slope) if kind == KIND_RHO else None
    notes = list(_RATIONAL_NOTES)
    if trivial:
        notes.append("trivial: slope is 0 modulo Z")
    if hopf:
        notes.append("hopf_tangle: slope 1/2 is the Hopf tangle, "
                     "non-trivial but inessential")
    if torus is not None:
        notes.append(
            f"torus: slope {slope} = +-1/(2k) presents a ({torus.p}, {torus.q})-torus arc")
    elif kind == KIND_RHO:
        notes.append("satellite/cable/hopf_summand: absent for rational "
                     "slopes other than +-1/(2k); a rational presentation "
                     "keeps the loop unknotted, so never cable")
    # positional, in _profile's order: keywords are slower on this hot path
    return _profile(kind, notes, True, trivial, hopf, torus, False, False, False, True, slope,
                    abs(slope.num) == 1), []


def _torus(t: TorusParams) -> tuple[ResolvedTangle | None, list[Violation]]:
    # TorusParams validates itself at construction: only the slope +-1/(2p) can be refused
    notes = ["torus: declared curve parameters, canonicalized to p > 0"]
    if abs(t.q) != 1:
        notes.append("rational: false, a rational loop-tangle has slope +-1/(2k) "
                     "and torus parameters (k, +-1)")
        return _profile(KIND_RHO, notes, torus=t, rational=False), []
    slope = ExtFraction(t.q, 2 * t.p)
    if too_long_to_print(slope.den):
        return None, [_slope_too_large("params")]
    notes.append(f"slope: a (k, +-1)-torus arc has slope +-1/(2k) = {slope}")
    return _profile(KIND_RHO, notes, torus=t, rational=True, slope=slope,
                    unit_fraction_slope=True), []


def _abstract_tau(a: AbstractTau) -> tuple[ResolvedTangle | None, list[Violation]]:
    """One pass over abstract tau flags: their profile, or None, and their broken invariants."""
    out: list[Violation] = []
    slope, unit = None, a.unit_fraction_slope
    if not a.rational and (a.slope is not None or a.unit_fraction_slope is not None):
        out.append(Violation(
            "NonRationalSlopeData", ("rational", "slope", "unit_fraction_slope"),
            "slope data requires rational = true"))
    if a.slope is not None:
        if a.slope.is_infinite:
            out.append(Violation(
                "InfiniteSlope", ("slope",),
                "infinite slope does not present a rational 3-tangle"))
        elif too_long_to_print(a.slope.den):
            out.append(_slope_too_large("slope"))
        else:
            slope = slope_normalize(a.slope)
            unit = abs(slope.num) == 1
            if a.unit_fraction_slope is not None and a.unit_fraction_slope != unit:
                out.append(Violation(
                    "SlopeFlagMismatch", ("slope", "unit_fraction_slope"),
                    f"slope {slope} has |numerator| {'==' if unit else '!='} 1"))
            if a.trivial != slope.is_zero:
                out.append(Violation(
                    "TrivialFlagConflict", ("trivial", "slope"),
                    f"trivial must hold exactly for slope 0, slope is {slope}"))
    elif a.trivial and a.unit_fraction_slope:
        out.append(Violation(
            "TrivialFlagConflict", ("trivial", "unit_fraction_slope"),
            "a trivial tangle has slope 0, never a unit fraction"))
    if a.trivial and not a.rational:
        out.append(Violation(
            "TrivialFlagConflict", ("trivial", "rational"),
            "the trivial tangle is rational (slope 0)"))
    if out:
        return None, out
    return _profile(KIND_TAU, ["flags: abstract descriptor taken at face value"],
                    atoroidal=a.atoroidal, trivial=a.trivial, rational=a.rational, slope=slope,
                    unit_fraction_slope=unit if a.rational else False), []


def _abstract_rho(a: AbstractRho) -> tuple[ResolvedTangle | None, list[Violation]]:
    """One pass over abstract rho flags: their profile, or None, and their broken invariants."""
    out: list[Violation] = []
    satellite = a.satellite or a.torus is not None  # torus with p >= 2 is satellite
    flags = [name for name, on in (
        ("satellite", satellite), ("cable", a.cable), ("hopf_summand", a.hopf_summand)) if on]
    if len(flags) > 1:
        out.append(Violation(
            "MutualExclusivity", tuple(flags),
            "satellite, cable and hopf_summand are mutually exclusive"))
    if a.hopf_tangle:
        bad = tuple(f for f in ("trivial",) if a.trivial) + tuple(flags)
        if bad:
            out.append(Violation(
                "HopfTangleConflict", ("hopf_tangle",) + bad,
                "the Hopf tangle is non-trivial, not satellite or cable, "
                "and has no Hopf summand"))
    if a.trivial and (flags or a.hopf_tangle):  # a torus is in flags as satellite
        out.append(Violation(
            "TrivialFlagConflict", ("trivial",) + tuple(flags),
            "a trivial tangle carries none of the annulus-producing flags"))
    if out:
        return None, out
    return _profile(KIND_RHO, ["flags: abstract descriptor taken at face value"],
                    atoroidal=a.atoroidal, trivial=a.trivial, hopf_tangle=a.hopf_tangle,
                    torus=a.torus, satellite=a.satellite, cable=a.cable,
                    hopf_summand=a.hopf_summand), []


def examine(d: Descriptor) -> tuple[ResolvedTangle | None, list[Violation]]:
    """One pass over a descriptor: its profile, or None, and its broken invariants.

    The profile is None exactly when the violation list is non-empty.
    """
    p = d.presentation
    if isinstance(p, RationalPresentation):
        return _rational(d.kind, p.twists)
    if isinstance(p, TorusRhoPresentation):
        return _torus(p.params)
    if isinstance(p, AbstractTau):
        return _abstract_tau(p)
    return _abstract_rho(p)


def validate_descriptor(d: Descriptor) -> list[Violation]:
    """Collect every broken invariant of a descriptor; empty list iff valid."""
    return examine(d)[1]


def resolve(d: Descriptor) -> ResolvedTangle:
    """Derive the semantic profile of a descriptor, raising on a broken invariant."""
    resolved, violations = examine(d)
    if violations:
        _raise_violations(violations)
    return resolved


# The descriptor's kind already selects the rules; these names are kept for callers.
resolve_tau = resolve_rho = resolve


def require(t: ResolvedTangle, what: str, kind: str | None = None):
    """Raise NotApplicable unless ``t`` is atoroidal, essential and (if given) of ``kind``."""
    if kind is not None and t.kind != kind:
        raise NotApplicable(f"expected a {kind}-tangle, got {t.kind}")
    if not t.atoroidal:
        raise NotApplicable(f"{what} presupposes an atoroidal tangle")
    if not t.essential:
        raise NotApplicable(f"{what} presupposes an essential tangle")


# ---------------------------------------------------------------------------
# Mirror image

def mirror_descriptor(d: Descriptor) -> Descriptor:
    """Mirror image: negate twists and slopes, map torus (p, q) to (p, -q)."""
    p = d.presentation
    if isinstance(p, RationalPresentation):
        mirrored = RationalPresentation(tuple(-a for a in p.twists))
    elif isinstance(p, TorusRhoPresentation):
        mirrored = TorusRhoPresentation(p.params.mirrored())
    elif isinstance(p, AbstractTau):
        mirrored = p._replace(slope=-p.slope if p.slope is not None else None)
    else:
        mirrored = p._replace(torus=p.torus.mirrored() if p.torus is not None else None)
    return type(d)(mirrored)
