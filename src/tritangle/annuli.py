"""The vocabulary of good annuli in rho-tangle exteriors.

An atoroidal essential rho-tangle exterior contains at most one good
annulus up to isotopy, and its type follows the satellite / cable /
Hopf-summand trichotomy, which ``verdict.side_facts`` decides.  Tau-tangle
exteriors never carry one.
"""

from __future__ import annotations

from enum import Enum


class AnnulusType(Enum):
    TYPE_I_SATELLITE = "type I (satellite)"
    TYPE_II_CABLE = "type II (cable)"
    HOPF_TYPE = "Hopf type"


#: Every other good annulus in the same exterior is isotopic to the one found.
UNIQUENESS_NOTE = "the good annulus is unique up to isotopy in the tangle exterior"
