"""Good-rectangle taxonomy and boundary-arc intersection counts.

A good rectangle in a tangle exterior meets the decomposing pair of pants
and the frontier of the tangle in two essential arcs each.  For tau-tangles
the taxonomy is: type I (slope +-1/k, k odd, k >= 3) and type II (slope +-1/3).
For rho-tangles: types I and I* exist exactly for torus arcs, and type II
additionally when the canonical torus parameter p equals 2.

The intersection counts certifying existence are computed on the canonical
(Euclidean) presentation of the tangle, which makes them invariants of the
tangle rather than of the particular twist vector handed in; a rectangle of
type TauI / TauII / RhoII exists iff its count equals 2 / 3 / 4.
"""

from __future__ import annotations

from collections.abc import Sequence
from enum import Enum

from .errors import InfiniteValue, NotApplicable
from .frac import cf_eval, cf_expand, slope_normalize
from .tangle import KIND_RHO, KIND_TAU, ResolvedTangle, require
from .verdict import NO_UNIT, UNKNOWN_UNIT, side_facts


class RectangleType(Enum):
    TAU_I = "tau type I"
    TAU_II = "tau type II"
    RHO_I = "rho type I"
    RHO_I_STAR = "rho type I*"
    RHO_II = "rho type II"


def rect_types_tau(t: ResolvedTangle) -> frozenset[RectangleType]:
    """Good rectangle types admitted by a tau-tangle exterior."""
    require(t, "rectangle taxonomy", KIND_TAU)
    m = side_facts(t).unit  # the signed m of a slope 1/m
    if m is UNKNOWN_UNIT:  # a unit-fraction slope declared with no value: type I needs its parity
        raise NotApplicable("a concrete slope is required to classify tau rectangles")
    if m is NO_UNIT or m % 2 == 0 or abs(m) < 3:
        return frozenset()
    return frozenset({RectangleType.TAU_I, RectangleType.TAU_II} if abs(m) == 3
                     else {RectangleType.TAU_I})


def rect_types_rho(t: ResolvedTangle) -> frozenset[RectangleType]:
    """Good rectangle types admitted by a rho-tangle exterior."""
    require(t, "rectangle taxonomy", KIND_RHO)
    if t.torus is None:
        return frozenset()
    out = {RectangleType.RHO_I, RectangleType.RHO_I_STAR}
    if t.torus.p == 2:
        out.add(RectangleType.RHO_II)
    return frozenset(out)


def boundary_arc_count(tv: Sequence[int], which: RectangleType) -> int:
    """Intersection count of the candidate rectangle with the decomposition disk.

    The tangle presented by ``tv`` is first re-presented canonically
    (Euclidean expansion of its value), then:

    * TAU_I: twice the denominator of the reversed twist prefix;
    * TAU_II and RHO_II: the denominator of the slope.

    The count is exposed even when the existence threshold (2 / 3 / 4)
    fails, as a diagnostic.
    """
    value = cf_eval(tuple(tv))
    if value.is_infinite:
        raise InfiniteValue("the presented tangle has infinite value")
    slope = slope_normalize(value)  # the canonical longitude pins the slope
    if which in (RectangleType.TAU_II, RectangleType.RHO_II):
        return slope.den
    if which is RectangleType.TAU_I:
        if slope.is_zero:
            raise InfiniteValue("the twist prefix of a slope-0 tangle is infinite")
        prefix = cf_expand(slope.reciprocal())
        # always finite: |1/slope| >= 2, so the expansion's integer part is at least 2 in size
        # and every other entry is at least 1
        reversed_value = cf_eval(tuple(reversed(prefix)))
        return 2 * reversed_value.den
    raise NotApplicable(f"no intersection-count formula for {which.value}")
