"""The counting rules over the whole side-fact space, against an independent oracle.

Every tau side (not rational; rational, not a unit fraction; unit fraction
with no slope given; slope 1/m for m in +-2, +-3, +-5, +-7) and every rho
side (Hopf; torus p = 2 and p = 3; a satellite, cable or Hopf-summand
flag; none) is taken as abstract flags crossed with atoroidal and trivial,
next to concrete presentations of some of the same facts.  Each pair of
sides is crossed with the decomposition kind and specialness, and each
decomposition is checked together with its mirror image.
"""

from __future__ import annotations

import itertools
import time

from oracles import (
    CABLE,
    HOPF_SUMMAND,
    NOT_RATIONAL,
    NOT_UNIT,
    RHO,
    SATELLITE,
    SIDE_KINDS,
    TAU,
    UNIT_UNKNOWN,
    Side,
    mirror_side,
    outcomes,
)
from tritangle import (
    AbstractRho,
    AbstractTau,
    Decomposition,
    ExtFraction,
    RationalPresentation,
    RhoDescriptor,
    TauDescriptor,
    TorusParams,
    TorusRhoPresentation,
    classify,
    mirror_descriptor,
)
from tritangle import verdict

TAU_SLOPES = (NOT_RATIONAL, NOT_UNIT, UNIT_UNKNOWN, 2, -2, 3, -3, 5, -5, 7, -7)
RHO_SHAPES = ("hopf", 2, 3, SATELLITE, CABLE, HOPF_SUMMAND, None)
POSITIONS = ("first", "second", "special")


def _abstract_tau(slope, atoroidal, trivial):
    facts = Side(TAU, atoroidal, trivial, slope=slope)
    if slope == NOT_RATIONAL:
        flags = AbstractTau(atoroidal, trivial, rational=False)
    elif isinstance(slope, int):
        flags = AbstractTau(atoroidal, trivial, rational=True, slope=ExtFraction(1, slope))
    else:
        flags = AbstractTau(atoroidal, trivial, rational=True,
                            unit_fraction_slope=slope == UNIT_UNKNOWN)
    return TauDescriptor(flags), facts


def _abstract_rho(shape, atoroidal, trivial):
    if shape == "hopf":
        return (RhoDescriptor(AbstractRho(atoroidal, trivial, hopf_tangle=True)),
                Side(RHO, atoroidal, trivial, hopf=True))
    if isinstance(shape, int):
        return (RhoDescriptor(AbstractRho(atoroidal, trivial, torus=TorusParams(shape, 1))),
                Side(RHO, atoroidal, trivial, torus_p=shape))
    flags = {shape: True} if shape else {}
    return (RhoDescriptor(AbstractRho(atoroidal, trivial, **flags)),
            Side(RHO, atoroidal, trivial, annulus=shape))


def _rational(kind, twists):
    presentation = RationalPresentation(twists)
    return TauDescriptor(presentation) if kind == TAU else RhoDescriptor(presentation)


TRUTH = (True, False)
TAU_SIDES = [_abstract_tau(s, a, t) for s in TAU_SLOPES for a in TRUTH for t in TRUTH] + [
    (_rational(TAU, (3, 0)), Side(TAU, slope=3)),
    (_rational(TAU, (-5, 0)), Side(TAU, slope=-5)),
    (_rational(TAU, (2, 2, 0)), Side(TAU, slope=NOT_UNIT)),            # slope 2/5
    (_rational(TAU, (0,)), Side(TAU, trivial=True, slope=NOT_UNIT)),   # slope 0
]
RHO_SIDES = [_abstract_rho(s, a, t) for s in RHO_SHAPES for a in TRUTH for t in TRUTH] + [
    (_rational(RHO, (2, 1, 2, 0)), Side(RHO)),                          # slope 3/8
    (_rational(RHO, (2, 0)), Side(RHO, hopf=True)),                     # slope 1/2
    (_rational(RHO, (4, 0)), Side(RHO, torus_p=2)),                     # slope 1/4
    (RhoDescriptor(TorusRhoPresentation(TorusParams(3, 2))), Side(RHO, torus_p=3)),
]
# each side next to its mirror image, as descriptor and as facts
SIDES = {kind: [(d, s, mirror_descriptor(d), mirror_side(s)) for d, s in sides]
         for kind, sides in ((TAU, TAU_SIDES), (RHO, RHO_SIDES))}


def _cases():
    """(decomposition, first facts, second facts), each next to its mirror image."""
    for kind, (k1, k2) in SIDE_KINDS.items():
        for (d1, s1, e1, t1), (d2, s2, e2, t2) in itertools.product(SIDES[k1], SIDES[k2]):
            for special in TRUTH:
                yield Decomposition(kind, special, d1, d2), s1, s2
                yield Decomposition(kind, special, e1, e2), t1, t2
    # a side of the wrong kind in either position, on a sample of both kinds
    sample = SIDES[TAU][::6] + SIDES[RHO][::6]
    for kind, (k1, k2) in SIDE_KINDS.items():
        for (d1, s1, e1, t1), (d2, s2, e2, t2) in itertools.product(sample, sample):
            if (s1.kind, s2.kind) != (k1, k2):
                yield Decomposition(kind, True, d1, d2), s1, s2
                yield Decomposition(kind, True, e1, e2), t1, t2


def _outcome(v):
    if v.status == verdict.CLASSIFIED:
        return ("classified", v.branch, str(v.annulus_count))
    if v.status == verdict.TOROIDAL:
        return ("toroidal",)
    return ("inadmissible", frozenset(
        (x.rule, f) for x in v.violations for f in x.fields if f in POSITIONS))


def test_every_fact_combination_has_exactly_one_outcome_and_classify_gives_it():
    start = time.perf_counter()
    seen, checked = set(), 0
    for d, a, b in _cases():
        expected = outcomes(d.kind, d.special, a, b)
        assert len(expected) == 1, (d, a, b, expected)
        got = _outcome(classify(d))
        assert got == expected[0], (d, a, b)
        seen.add(got[:2] if got[0] == "classified" else got[:1])
        checked += 1
    elapsed = time.perf_counter() - start
    branches = {getattr(verdict, name) for name in dir(verdict) if name.startswith("BRANCH_")}
    assert len(branches) == 12
    assert {("classified", b) for b in branches} <= seen
    assert {s[0] for s in seen} == {verdict.CLASSIFIED, verdict.INADMISSIBLE, verdict.TOROIDAL}
    print(f"\n{checked} decompositions and mirrors, exactly one outcome each ({elapsed:.3f}s)")

