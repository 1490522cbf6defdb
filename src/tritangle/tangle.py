"""Tangle descriptors and derivation of their semantic profile.

A 3-decomposition splits a genus-two handlebody-knot into two 3-tangles:
a tau-tangle (a cone on three boundary points) or a rho-tangle (an arc
plus a loop with a whisker).  A tangle side is described either by a
rational twist presentation, by torus curve parameters (rho only), or by
abstract geometric flags taken at face value after validation.  Descriptors and
presentations are immutable values (``value.Value``) that check their fields' types
and values when built, ``mirror_descriptor``'s ``_replace`` copies included.

``examine`` makes one pass over a descriptor.  A rational side's twist
vector is evaluated once and its profile is built from that value; an
abstract side's flags are checked and profiled in the same pass, the
profile built only when no invariant is broken.  A slope whose denominator
has more digits than ``str`` writes is refused too (``SlopeTooLarge``).
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
import operator
import typing

from .errors import (
    InconsistentFlags,
    InfiniteSlope,
    InvalidTorusParams,
    MutualExclusivityViolation,
    NotApplicable,
    SlopeTooLarge,
)
from .frac import MAX_STR_DIGITS, ExtFraction, TwistVector, cf_eval, slope_normalize, \
    too_long_to_print
from .value import Value

KIND_TAU = "tau"
KIND_RHO = "rho"

HOPF_SLOPE = ExtFraction(1, 2)


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
            if not isinstance(value, int) or isinstance(value, bool):
                raise _type_error("TorusParams", name, "an int", value)
            if too_long_to_print(value):  # the notes and documents write p and q as text
                raise InvalidTorusParams(f"torus parameter {name} has more than "
                                         f"{MAX_STR_DIGITS} digits, too many to write as text")
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
        if bool in map(type, twists):  # operator.index(True) is 1
            raise TypeError("a twist entry must be an integer, not a bool")
        # operator.index, not int: int(3.9) would quietly present the twist 3
        object.__setattr__(self, "twists", tuple(map(operator.index, twists)))


def _trusted_rational(twists: TwistVector) -> RationalPresentation:
    """Trusted: a tuple of plain ints, unchecked (as ``frac._canonical``)."""
    p = object.__new__(RationalPresentation)
    object.__setattr__(p, "twists", twists)
    return p


class TorusRhoPresentation(Value):
    """A rho-tangle given by torus curve parameters."""

    __slots__ = ("params",)

    def __init__(self, params: TorusParams):
        object.__setattr__(self, "params", params)


def _set_flags(flags, values: tuple):
    """Store ``values`` in ``flags``; a TypeError's ``field`` is the first one ``_types`` refuse."""
    for name, value, allowed in zip(flags.__slots__, values, flags._types):
        if not isinstance(value, allowed):
            text = " | ".join(t.__name__ for t in allowed).replace("NoneType", "None")
            raise _type_error(type(flags).__name__, name, text, value)
        object.__setattr__(flags, name, value)


class AbstractTau(Value):
    """Face-value flags for a tau-tangle the engine cannot compute from."""

    __slots__ = ("atoroidal", "trivial", "rational", "slope", "unit_fraction_slope")
    _types = ((bool,), (bool,), (bool,), (ExtFraction, type(None)), (bool, type(None)))

    def __init__(self, atoroidal: bool, trivial: bool, rational: bool,
                 slope: ExtFraction | None = None, unit_fraction_slope: bool | None = None):
        _set_flags(self, (atoroidal, trivial, rational, slope, unit_fraction_slope))


class AbstractRho(Value):
    """Face-value flags for a rho-tangle."""

    __slots__ = ("atoroidal", "trivial", "hopf_tangle", "satellite", "cable", "hopf_summand",
                 "torus")
    _types = ((bool,),) * 6 + ((TorusParams, type(None)),)

    def __init__(self, atoroidal: bool, trivial: bool, hopf_tangle: bool = False,
                 satellite: bool = False, cable: bool = False, hopf_summand: bool = False,
                 torus: TorusParams | None = None):
        _set_flags(self, (atoroidal, trivial, hopf_tangle, satellite, cable, hopf_summand, torus))


class TauDescriptor(Value):
    __slots__ = ("presentation",)
    kind = KIND_TAU  # a class attribute, not a field

    def __init__(self, presentation: RationalPresentation | AbstractTau):
        if not isinstance(presentation, (RationalPresentation, AbstractTau)):
            raise TypeError(f"{type(presentation).__name__} does not present a tau-tangle")
        object.__setattr__(self, "presentation", presentation)  # no _set loop: the hot path


class RhoDescriptor(Value):
    __slots__ = ("presentation",)
    kind = KIND_RHO

    def __init__(self, presentation: RationalPresentation | TorusRhoPresentation | AbstractRho):
        if not isinstance(presentation, (RationalPresentation, TorusRhoPresentation,
                                         AbstractRho)):
            raise TypeError(f"{type(presentation).__name__} does not present a rho-tangle")
        object.__setattr__(self, "presentation", presentation)  # no _set loop: the hot path


Descriptor = TauDescriptor | RhoDescriptor


class Violation(Value):
    """One broken descriptor invariant: the rule name plus the fields at fault."""

    __slots__ = ("rule", "fields", "detail")

    def __init__(self, rule: str, fields: tuple[str, ...], detail: str):
        self._set(rule, fields, detail)

    def __str__(self) -> str:
        return f"{self.rule} ({', '.join(self.fields)}): {self.detail}"


class ResolvedTangle(typing.NamedTuple):
    """Derived semantic profile of one side, its fields in ``tritangle tangle``'s order."""

    kind: str
    atoroidal: bool
    trivial: bool
    essential: bool
    satellite: bool = False
    cable: bool = False
    hopf_summand: bool = False
    hopf_tangle: bool = False
    provenance: tuple[str, ...] = ()
    rational: bool | None = None
    slope: ExtFraction | None = None
    unit_fraction_slope: bool | None = None
    torus: TorusParams | None = None


# ---------------------------------------------------------------------------
# Validation

def _slope_too_large(field_name: str) -> Violation:
    return Violation(
        "SlopeTooLarge", (field_name,),
        f"the slope's denominator has more than {MAX_STR_DIGITS} digits, "
        "too many to write as text")


def _raise_violations(violations: list[Violation]):
    """The one mapping from broken invariants to the exception ``resolve`` raises."""
    first = violations[0]
    if first.rule == "MutualExclusivity":
        raise MutualExclusivityViolation(str(first))
    if first.rule == "InfiniteSlope":
        raise InfiniteSlope(str(first))
    if first.rule == "SlopeTooLarge":
        raise SlopeTooLarge(str(first))
    raise InconsistentFlags("; ".join(str(v) for v in violations))


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
    return ResolvedTangle(  # positional, in field order: keywords are slower on this hot path
        kind, atoroidal, trivial, essential, satellite, cable, hopf_summand, hopf_tangle,
        tuple(notes), rational, slope, unit_fraction_slope, torus)


_RATIONAL_NOTES = ("slope: twist-vector value normalized to (-1/2, 1/2]",
                   "atoroidal: rational tangles are atoroidal")


def _rational_profile(kind: str, value: ExtFraction) -> ResolvedTangle:
    slope = slope_normalize(value)
    trivial = slope.is_zero
    hopf = kind == KIND_RHO and slope == HOPF_SLOPE
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
    # positional, in parameter order (atoroidal ... unit_fraction_slope): keywords cost more here
    return _profile(kind, notes, True, trivial, hopf, torus, False, False, False, True, slope,
                    abs(slope.num) == 1)


def _torus_profile(t: TorusParams) -> ResolvedTangle:
    notes = ["torus: declared curve parameters, canonicalized to p > 0"]
    if abs(t.q) != 1:
        notes.append("rational: false, a rational loop-tangle has slope +-1/(2k) "
                     "and torus parameters (k, +-1)")
        return _profile(KIND_RHO, notes, torus=t, rational=False)
    slope = ExtFraction(t.q, 2 * t.p)
    notes.append(f"slope: a (k, +-1)-torus arc has slope +-1/(2k) = {slope}")
    return _profile(KIND_RHO, notes, torus=t, rational=True, slope=slope,
                    unit_fraction_slope=True)


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
    if a.trivial and (flags or a.hopf_tangle or a.torus is not None):
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
        value = cf_eval(p.twists)
        if value.is_infinite:
            # an entry too long for str is counted, not written
            vector = f"of {len(p.twists)} entries" if any(map(too_long_to_print, p.twists)) \
                else list(p.twists)
            return None, [Violation(
                "InfiniteSlope", ("twists",), f"twist vector {vector} evaluates to infinity")]
        if too_long_to_print(value.den):
            return None, [_slope_too_large("twists")]
        return _rational_profile(d.kind, value), []
    if isinstance(p, TorusRhoPresentation):
        t = p.params  # TorusParams validates itself at construction
        if abs(t.q) == 1 and too_long_to_print(2 * t.p):  # the slope +-1/(2p)
            return None, [_slope_too_large("params")]
        return _torus_profile(t), []
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
