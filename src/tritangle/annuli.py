"""Good-annulus classification in rho-tangle exteriors.

An atoroidal essential rho-tangle exterior contains at most one good
annulus up to isotopy, and its type follows the satellite / cable /
Hopf-summand trichotomy.  Tau-tangle exteriors never carry one.
"""

from __future__ import annotations

from enum import Enum

from .errors import MutualExclusivityViolation
from .tangle import KIND_TAU, ResolvedTangle, require


class AnnulusType(Enum):
    TYPE_I_SATELLITE = "type I (satellite)"
    TYPE_II_CABLE = "type II (cable)"
    HOPF_TYPE = "Hopf type"


#: Every other good annulus in the same exterior is isotopic to the one found.
UNIQUENESS_NOTE = "the good annulus is unique up to isotopy in the tangle exterior"


def good_annulus(t: ResolvedTangle) -> AnnulusType | None:
    """The type of the good annulus in the tangle exterior, if any."""
    require(t, "good-annulus classification")
    if t.kind == KIND_TAU:
        return None
    if (t.satellite and (t.cable or t.hopf_summand)) or (t.cable and t.hopf_summand):
        raise MutualExclusivityViolation(
            "satellite, cable and hopf_summand are mutually exclusive")
    if t.satellite:
        return AnnulusType.TYPE_I_SATELLITE
    if t.cable:
        return AnnulusType.TYPE_II_CABLE
    return AnnulusType.HOPF_TYPE if t.hopf_summand else None
