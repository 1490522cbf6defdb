"""Good-annulus trichotomy in rho-tangle exteriors: ``good_annulus``, the gated view of a
side's facts."""

from __future__ import annotations

import pytest

from tritangle import (
    AbstractRho,
    AnnulusType,
    MutualExclusivityViolation,
    NotApplicable,
    RationalPresentation,
    ResolvedTangle,
    RhoDescriptor,
    TauDescriptor,
    TorusParams,
    TorusRhoPresentation,
    good_annulus,
    resolve_rho,
    resolve_tau,
)
from tritangle.verdict import side_facts


def annulus_of(t):
    # a profile that passes the gate: the annulus its side facts hold
    found = good_annulus(t)
    assert found is side_facts(t).annulus
    return found


def test_satellite_gives_type_one():
    t = resolve_rho(RhoDescriptor(TorusRhoPresentation(TorusParams(3, 2))))
    assert annulus_of(t) is AnnulusType.TYPE_I_SATELLITE


def test_cable_gives_type_two():
    t = resolve_rho(RhoDescriptor(AbstractRho(atoroidal=True, trivial=False, cable=True)))
    assert annulus_of(t) is AnnulusType.TYPE_II_CABLE


def test_hopf_summand_gives_hopf_type():
    t = resolve_rho(RhoDescriptor(AbstractRho(
        atoroidal=True, trivial=False, hopf_summand=True)))
    assert annulus_of(t) is AnnulusType.HOPF_TYPE


def test_plain_rational_rho_has_none():
    t = resolve_rho(RhoDescriptor(RationalPresentation((2, 1, 1, 1, -1))))  # slope -3/8
    assert annulus_of(t) is None


def test_tau_never_has_one():
    t = resolve_tau(TauDescriptor(RationalPresentation((3, 0))))
    assert annulus_of(t) is None


def test_every_unit_even_slope_is_satellite_type_one():
    for k in range(2, 21):
        t = resolve_rho(RhoDescriptor(RationalPresentation((2 * k, 0))))  # slope 1/(2k)
        assert annulus_of(t) is AnnulusType.TYPE_I_SATELLITE


def test_inessential_input_rejected():
    hopf = resolve_rho(RhoDescriptor(RationalPresentation((2, 0))))  # slope 1/2
    with pytest.raises(NotApplicable):
        good_annulus(hopf)


def test_toroidal_input_rejected():
    t = resolve_rho(RhoDescriptor(AbstractRho(atoroidal=False, trivial=False, cable=True)))
    with pytest.raises(NotApplicable):
        good_annulus(t)


def test_multiple_flags_defense_in_depth():
    # resolve_* refuses to build this, so construct the profile directly
    bogus = ResolvedTangle(
        kind="rho", atoroidal=True, trivial=False, essential=True,
        satellite=True, cable=True)
    with pytest.raises(MutualExclusivityViolation):
        good_annulus(bogus)
