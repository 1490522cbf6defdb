"""Golden verdicts: every count clause's full Verdict, texts written out literally.

One case per clause of the counting rules (the twelve branches, plus the second
note of ``tautau (otherwise)`` and of ``taurho (iv)``), the two ``UndeterminedSlope``
refusals and the toroidal verdict, plus the cases whose texts the renderer reads off
a side without a slope.  Each is checked through ``classify`` and through the kind's
classifier called directly on the resolved sides.
"""

from __future__ import annotations

import pytest

from tritangle import (
    AbstractRho,
    AbstractTau,
    AnnulusCount,
    Decomposition,
    RationalPresentation,
    RhoDescriptor,
    TauDescriptor,
    TorusParams,
    TorusRhoPresentation,
    Verdict,
    classify,
    classify_rhorho,
    classify_taurho,
    classify_tautau,
    resolve,
)
from tritangle.tangle import Violation

ATOROIDAL = "atoroidal: both tangle exteriors are atoroidal"
IRREDUCIBLE = ("irreducible: every 3-decomposable genus-two handlebody-knot is irreducible "
               "(asserted, not checked)")
HYPERBOLIC = ("hyperbolic: no essential disks, annuli or tori in the exterior "
              "(Thurston's criterion with geodesic boundary)")


def tau(m):
    return TauDescriptor(RationalPresentation((m, 0)))  # slope 1/m


def torus(p, q):
    return RhoDescriptor(TorusRhoPresentation(TorusParams(p, q)))


PLAIN_RHO = RhoDescriptor(RationalPresentation((2, 1, 1, 1, -1)))  # slope -3/8, no good annulus
CABLE = RhoDescriptor(AbstractRho(atoroidal=True, trivial=False, cable=True))
HOPF_SUMMAND = RhoDescriptor(AbstractRho(atoroidal=True, trivial=False, hopf_summand=True))
TWO_FIFTHS = TauDescriptor(RationalPresentation((2, 2, 0)))  # slope 2/5, not a unit fraction
NO_SLOPE = TauDescriptor(AbstractTau(atoroidal=True, trivial=False, rational=True))
UNIT_NO_SLOPE = TauDescriptor(AbstractTau(
    atoroidal=True, trivial=False, rational=True, unit_fraction_slope=True))
TOROIDAL_SATELLITE = RhoDescriptor(AbstractRho(atoroidal=False, trivial=False, satellite=True))


def classified(count, branch, annuli, note):
    hyperbolic = count == 0
    notes = (ATOROIDAL, note, IRREDUCIBLE) + ((HYPERBOLIC,) if hyperbolic else ())
    return Verdict("classified", AnnulusCount(count), hyperbolic, branch, annuli, notes)


def undetermined(fields, detail):
    return Verdict("inadmissible", violations=(Violation("UndeterminedSlope", fields, detail),))


CASES = {
    "tautau (i)": (
        Decomposition("tautau", True, tau(3), tau(3)),
        classified(None, "tautau (i)",
                   ("infinite family from Dehn-twisted rectangle pairings",),
                   "special with slopes 1/3 and 1/3 (equal, +-1/3)")),
    "tautau (ii)": (
        Decomposition("tautau", True, tau(3), tau(-3)),
        classified(3, "tautau (ii)", ("three annuli from good-rectangle pairings",),
                   "special with slopes 1/3 and -1/3 (mixed signs)")),
    "tautau (iii)": (
        Decomposition("tautau", True, tau(5), tau(-7)),
        classified(1, "tautau (iii)", ("annulus from a type I / type I rectangle pairing",),
                   "special with unit-fraction slopes 1/5, 1/-7, "
                   "at least one denominator differs from +-3")),
    "tautau (otherwise), not special": (
        Decomposition("tautau", False, tau(3), tau(3)),
        classified(0, "tautau (otherwise)", (),
                   "not special: the decomposing sphere cuts no essential annulus into "
                   "rectangles, and tau exteriors carry no good annulus")),
    "tautau (otherwise), no unit fraction": (
        Decomposition("tautau", True, TWO_FIFTHS, tau(3)),
        classified(0, "tautau (otherwise)", (),
                   "a side is not rational with a unit-fraction slope, "
                   "so its exterior admits no good rectangle")),
    "taurho (hyperbolic)": (
        Decomposition("taurho", True, tau(3), PLAIN_RHO),
        classified(0, "taurho (hyperbolic)", (),
                   "the rho side is not satellite or cable and has no Hopf summand, "
                   "so neither side carries a good annulus")),
    "taurho (i)": (
        Decomposition("taurho", True, tau(-3), torus(2, 3)),
        classified(None, "taurho (i)",
                   ("good annulus of type I (satellite)",
                    "infinite family from Dehn-twisted rectangle pairings"),
                   "special, tau slope 1/-3, torus parameter p = 2")),
    "taurho (ii)": (
        Decomposition("taurho", True, tau(3), torus(5, 2)),
        classified(4, "taurho (ii)",
                   ("good annulus of type I (satellite)",
                    "annuli from Moebius-band pairings of type I/II rectangles"),
                   "special, tau slope 1/3, torus parameter p = 5 != 2")),
    "taurho (iii)": (
        Decomposition("taurho", True, tau(-5), torus(3, 2)),
        classified(2, "taurho (iii)",
                   ("good annulus of type I (satellite)",
                    "frontier of the Moebius band from a type I / type I rectangle pairing"),
                   "special, tau slope 1/-5 with denominator != +-3, "
                   "torus parameter p = 3 != 2")),
    "taurho (iv), the only annulus": (
        Decomposition("taurho", False, tau(3), CABLE),
        classified(1, "taurho (iv)", ("good annulus of type II (cable)",),
                   "the good annulus is the only essential annulus; "
                   "the good annulus is unique up to isotopy in the tangle exterior")),
    "taurho (iv), residual": (
        Decomposition("taurho", True, tau(7), torus(2, 3)),
        classified(1, "taurho (iv)", ("good annulus of type I (satellite)",),
                   "special, tau slope 1/7 with denominator != +-3 and torus parameter "
                   "p = 2 fall to the residual one-annulus clause")),
    "rhorho (i)": (
        Decomposition("rhorho", False, torus(2, 3), HOPF_SUMMAND),
        classified(2, "rhorho (i)",
                   ("first side: good annulus of type I (satellite)",
                    "second side: good annulus of Hopf type"),
                   "both sides carry a good annulus")),
    "rhorho (ii), first side": (
        Decomposition("rhorho", False, torus(3, 2), PLAIN_RHO),
        classified(1, "rhorho (ii)", ("first side: good annulus of type I (satellite)",),
                   "exactly one side carries a good annulus")),
    "rhorho (ii), second side": (
        Decomposition("rhorho", False, PLAIN_RHO, CABLE),
        classified(1, "rhorho (ii)", ("second side: good annulus of type II (cable)",),
                   "exactly one side carries a good annulus")),
    "rhorho (otherwise)": (
        Decomposition("rhorho", False, PLAIN_RHO, PLAIN_RHO),
        classified(0, "rhorho (otherwise)", (),
                   "neither side is satellite or cable or has a Hopf summand")),
    "tautau, undetermined slopes": (
        Decomposition("tautau", True, NO_SLOPE, UNIT_NO_SLOPE),
        undetermined(("first", "second"),
                     "a special tau-tau decomposition needs concrete unit-fraction slopes "
                     "(or a definite refutation) to choose a count branch")),
    "tautau, second slope undetermined": (
        Decomposition("tautau", True, tau(5), NO_SLOPE),
        undetermined(("second",),
                     "a special tau-tau decomposition needs concrete unit-fraction slopes "
                     "(or a definite refutation) to choose a count branch")),
    "tautau (otherwise), no unit fraction before an undetermined slope": (
        # a side that is no unit fraction refutes the count before a missing slope is asked for
        Decomposition("tautau", True, NO_SLOPE, TWO_FIFTHS),
        classified(0, "tautau (otherwise)", (),
                   "a side is not rational with a unit-fraction slope, "
                   "so its exterior admits no good rectangle")),
    "taurho (iv), the only annulus, no slope": (
        Decomposition("taurho", False, NO_SLOPE, torus(2, 3)),
        classified(1, "taurho (iv)", ("good annulus of type I (satellite)",),
                   "the good annulus is the only essential annulus; "
                   "the good annulus is unique up to isotopy in the tangle exterior")),
    "taurho, undetermined slope": (
        Decomposition("taurho", True, NO_SLOPE, torus(2, 3)),
        undetermined(("first",),
                     "a special tau-rho decomposition over a torus rho side needs a "
                     "concrete tau slope (or a definite refutation) to choose a count branch")),
    "toroidal": (
        Decomposition("taurho", False, tau(3), TOROIDAL_SATELLITE),
        Verdict("toroidal", notes=("annulus counting requires both sides atoroidal",))),
}


@pytest.mark.parametrize("decomposition, expected", CASES.values(), ids=CASES.keys())
def test_verdict_text(decomposition, expected):
    assert classify(decomposition) == expected
    a, b = resolve(decomposition.first), resolve(decomposition.second)
    if decomposition.kind == "tautau":
        direct = classify_tautau(a, b, decomposition.special)
    elif decomposition.kind == "taurho":
        direct = classify_taurho(a, b, decomposition.special)
    else:
        direct = classify_rhorho(a, b)
    assert direct == expected


def test_every_branch_has_a_golden_case():
    branches = {verdict.branch for _, verdict in CASES.values()} - {None}
    assert len(branches) == 12
