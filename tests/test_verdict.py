"""Decomposition validation and the annulus-count dispatcher."""

from __future__ import annotations

import itertools
import sys

import pytest

from tritangle import (
    AbstractRho,
    AbstractTau,
    AnnulusCount,
    AnnulusProfile,
    CensusRow,
    Decomposition,
    DocumentError,
    InfiniteSlope,
    Obstruction,
    RationalPresentation,
    RhoDescriptor,
    TauDescriptor,
    TorusParams,
    TorusRhoPresentation,
    Verdict,
    census_decomposition,
    cf_expand,
    classify,
    classify_taurho,
    classify_tautau,
    mirror_decomposition,
    obstruction_check,
    parse_decomposition,
    resolve_rho,
    resolve_tau,
    run_census,
    validate_descriptor,
)
from tritangle import verdict
from tritangle.frac import ExtFraction
from tritangle.verdict import (
    BRANCH_RHORHO_HYPERBOLIC,
    BRANCH_RHORHO_ONE,
    BRANCH_RHORHO_TWO,
    BRANCH_TAURHO_FOUR,
    BRANCH_TAURHO_HYPERBOLIC,
    BRANCH_TAURHO_INFINITE,
    BRANCH_TAURHO_ONE,
    BRANCH_TAURHO_TWO,
    BRANCH_TAUTAU_HYPERBOLIC,
    BRANCH_TAUTAU_INFINITE,
    BRANCH_TAUTAU_ONE,
    BRANCH_TAUTAU_THREE,
    CLASSIFIED,
    INADMISSIBLE,
    INFINITELY_MANY,
    TOROIDAL,
    ZERO_ANNULI,
)


def tau_slope(m):
    return TauDescriptor(RationalPresentation((m, 0)))  # slope 1/m


def rho_plain():
    return RhoDescriptor(RationalPresentation((2, 1, 1, 1, -1)))  # slope -3/8


def rho_torus(p, q):
    return RhoDescriptor(TorusRhoPresentation(TorusParams(p, q)))


def tautau(special, m, n):
    return Decomposition(kind="tautau", special=special,
                         first=tau_slope(m), second=tau_slope(n))


def taurho(special, first, second):
    return Decomposition(kind="taurho", special=special, first=first, second=second)


def rhorho(first, second, special=False):
    return Decomposition(kind="rhorho", special=special, first=first, second=second)


# ---------------------------------------------------------------------------
# tau-tau dispatch

def test_tautau_special_same_sign_third_infinite():
    v = classify(tautau(True, 3, 3))
    assert (v.status, v.annulus_count, v.branch) == \
        (CLASSIFIED, INFINITELY_MANY, BRANCH_TAUTAU_INFINITE)
    assert v.hyperbolic is False


def test_tautau_special_both_negative_third_infinite():
    v = classify(tautau(True, -3, -3))
    assert v.branch == BRANCH_TAUTAU_INFINITE


def test_tautau_special_mixed_signs_three():
    v = classify(tautau(True, 3, -3))
    assert (v.annulus_count, v.branch) == (AnnulusCount(3), BRANCH_TAUTAU_THREE)


def test_tautau_special_off_third_one():
    v = classify(tautau(True, 5, 3))
    assert (v.annulus_count, v.branch) == (AnnulusCount(1), BRANCH_TAUTAU_ONE)


def test_tautau_not_special_hyperbolic():
    v = classify(tautau(False, 3, 3))
    assert (v.annulus_count, v.hyperbolic, v.branch) == \
        (ZERO_ANNULI, True, BRANCH_TAUTAU_HYPERBOLIC)


def test_tautau_special_non_unit_side_hyperbolic():
    d = Decomposition(
        kind="tautau", special=True,
        first=TauDescriptor(AbstractTau(
            atoroidal=True, trivial=False, rational=True, unit_fraction_slope=False)),
        second=tau_slope(3))
    v = classify(d)
    assert v.hyperbolic is True
    assert v.branch == BRANCH_TAUTAU_HYPERBOLIC


def test_tautau_special_non_unit_rational_slope_hyperbolic():
    d = Decomposition(
        kind="tautau", special=True,
        first=TauDescriptor(RationalPresentation(cf_expand(ExtFraction(2, 5)))),
        second=tau_slope(3))
    assert classify(d).hyperbolic is True


def test_tautau_special_undetermined_unit_status_inadmissible():
    d = Decomposition(
        kind="tautau", special=True,
        first=TauDescriptor(AbstractTau(atoroidal=True, trivial=False, rational=True)),
        second=tau_slope(3))
    v = classify(d)
    assert v.status == INADMISSIBLE
    assert any(x.rule == "UndeterminedSlope" for x in v.violations)


def test_tautau_special_unit_flag_without_slope_inadmissible():
    d = Decomposition(
        kind="tautau", special=True,
        first=TauDescriptor(AbstractTau(
            atoroidal=True, trivial=False, rational=True, unit_fraction_slope=True)),
        second=tau_slope(3))
    assert classify(d).status == INADMISSIBLE


# ---------------------------------------------------------------------------
# tau-rho dispatch

def test_taurho_plain_rho_hyperbolic():
    v = classify(taurho(False, tau_slope(3), rho_plain()))
    assert (v.hyperbolic, v.branch) == (True, BRANCH_TAURHO_HYPERBOLIC)


def test_taurho_slope_minus_three_tenths_hyperbolic():
    rho = RhoDescriptor(RationalPresentation((3, 2, 1, -1)))  # slope -3/10
    v = classify(taurho(False, tau_slope(3), rho))
    assert v.hyperbolic is True


def test_taurho_special_third_p_two_infinite():
    v = classify(taurho(True, tau_slope(3), rho_torus(2, 3)))
    assert (v.annulus_count, v.branch) == (INFINITELY_MANY, BRANCH_TAURHO_INFINITE)


def test_taurho_special_third_p_three_four():
    v = classify(taurho(True, tau_slope(3), rho_torus(3, 2)))
    assert (v.annulus_count, v.branch) == (AnnulusCount(4), BRANCH_TAURHO_FOUR)


def test_taurho_special_fifth_p_three_two():
    v = classify(taurho(True, tau_slope(5), rho_torus(3, 2)))
    assert (v.annulus_count, v.branch) == (AnnulusCount(2), BRANCH_TAURHO_TWO)


def test_taurho_special_fifth_p_two_one():
    # the residual clause: p = 2 with tau denominator != +-3
    v = classify(taurho(True, tau_slope(5), rho_torus(2, 3)))
    assert (v.annulus_count, v.branch) == (AnnulusCount(1), BRANCH_TAURHO_ONE)


def test_taurho_not_special_satellite_one():
    v = classify(taurho(False, tau_slope(3), rho_torus(2, 3)))
    assert (v.annulus_count, v.branch) == (AnnulusCount(1), BRANCH_TAURHO_ONE)


def test_taurho_special_cable_without_torus_one():
    rho = RhoDescriptor(AbstractRho(atoroidal=True, trivial=False, cable=True))
    v = classify(taurho(True, tau_slope(3), rho))
    assert (v.annulus_count, v.branch) == (AnnulusCount(1), BRANCH_TAURHO_ONE)


def test_taurho_annuli_name_the_good_annulus():
    v = classify(taurho(False, tau_slope(3), rho_torus(2, 3)))
    assert any("type I (satellite)" in a for a in v.annuli)


# ---------------------------------------------------------------------------
# rho-rho dispatch

def test_rhorho_both_flagged_two():
    v = classify(rhorho(rho_torus(2, 3), rho_torus(5, 2)))
    assert (v.annulus_count, v.branch) == (AnnulusCount(2), BRANCH_RHORHO_TWO)


def test_rhorho_one_flagged_one():
    rho_cable = RhoDescriptor(AbstractRho(atoroidal=True, trivial=False, cable=True))
    v = classify(rhorho(rho_cable, rho_plain()))
    assert (v.annulus_count, v.branch) == (AnnulusCount(1), BRANCH_RHORHO_ONE)


def test_rhorho_none_flagged_hyperbolic():
    v = classify(rhorho(rho_plain(), rho_plain()))
    assert (v.hyperbolic, v.branch) == (True, BRANCH_RHORHO_HYPERBOLIC)


def test_rhorho_special_inadmissible():
    v = classify(rhorho(rho_plain(), rho_plain(), special=True))
    assert v.status == INADMISSIBLE
    assert any(x.rule == "SpecialRhoRho" for x in v.violations)


# ---------------------------------------------------------------------------
# classify gates

def test_infinite_slope_side_inadmissible():
    v = classify(tautau(True, 3, 0))  # (0, 0) evaluates to infinity
    assert v.status == INADMISSIBLE
    assert any(x.rule == "InfiniteSlope" for x in v.violations)


def test_trivial_tau_side_inadmissible():
    d = Decomposition(kind="tautau", special=False,
                      first=TauDescriptor(RationalPresentation((0,))),
                      second=tau_slope(3))
    v = classify(d)
    assert v.status == INADMISSIBLE
    assert any(x.rule == "InessentialTangle" for x in v.violations)


def test_hopf_rho_side_inadmissible():
    d = taurho(False, tau_slope(3), RhoDescriptor(RationalPresentation((2, 0))))
    v = classify(d)
    assert v.status == INADMISSIBLE
    assert any("Hopf" in x.detail for x in v.violations)


def test_toroidal_side_gives_toroidal_verdict():
    rho = RhoDescriptor(AbstractRho(atoroidal=False, trivial=False, satellite=True))
    v = classify(taurho(False, tau_slope(3), rho))
    assert v.status == TOROIDAL
    assert v.annulus_count is None and v.hyperbolic is None


def test_kind_mismatch_inadmissible():
    d = Decomposition(kind="tautau", special=False,
                      first=tau_slope(3), second=rho_plain())
    v = classify(d)
    assert v.status == INADMISSIBLE
    assert any(x.rule == "KindMismatch" for x in v.violations)


def test_direct_classifier_kind_mismatch_names_the_position():
    tau, rho = resolve_tau(tau_slope(3)), resolve_rho(rho_plain())
    v = classify_tautau(tau, rho, True)
    assert v.status == INADMISSIBLE
    assert [str(x) for x in v.violations] == [
        "KindMismatch (second): a tautau decomposition needs a tau-tangle in second position"]
    # the same text as classify's structural check on the descriptors
    d = Decomposition(kind="tautau", special=True, first=tau_slope(3), second=rho_plain())
    assert classify(d).violations == v.violations


def test_invalid_descriptor_reported_not_raised():
    d = taurho(False, tau_slope(3), RhoDescriptor(AbstractRho(
        atoroidal=True, trivial=False, satellite=True, cable=True)))
    v = classify(d)
    assert v.status == INADMISSIBLE
    assert any(x.rule == "MutualExclusivity" for x in v.violations)


def test_slope_too_large_to_print_reported_not_raised():
    huge = 10 ** sys.get_int_max_str_digits()  # one digit more than str writes
    for first in (TauDescriptor(RationalPresentation((huge, 0))),  # slope 1/huge
                  TauDescriptor(AbstractTau(True, False, True, ExtFraction(1, huge)))):
        v = classify(Decomposition(kind="tautau", special=True, first=first,
                                   second=tau_slope(5)))
        assert v.status == INADMISSIBLE
        assert [(x.rule, x.fields[0]) for x in v.violations] == [("SlopeTooLarge", "first")]
    # a denominator of exactly the limit's digits still prints
    assert classify(tautau(True, huge - 1, 5)).branch == BRANCH_TAUTAU_ONE


def test_infinite_twist_vector_with_an_entry_too_long_to_print_reported_not_raised():
    huge = 10 ** sys.get_int_max_str_digits()  # one digit more than str writes
    side = TauDescriptor(RationalPresentation((0, huge)))  # evaluates to infinity
    detail = "twist vector of 2 entries evaluates to infinity"
    v = classify(Decomposition(kind="tautau", special=True, first=side, second=tau_slope(3)))
    assert v.status == INADMISSIBLE
    assert [(x.rule, x.fields, x.detail) for x in v.violations] == [
        ("InfiniteSlope", ("first", "twists"), detail)]
    assert [str(x) for x in validate_descriptor(side)] == [f"InfiniteSlope (twists): {detail}"]
    with pytest.raises(InfiniteSlope, match="of 2 entries"):
        resolve_tau(side)
    # a vector whose entries all print is still written out
    assert classify(tautau(True, 3, 0)).violations[0].detail == \
        "twist vector [0, 0] evaluates to infinity"


def test_torus_slope_past_the_limit_reported_not_raised():
    # p has exactly the limit's digits, so the slope 1/(2p) of a (p, 1) torus arc has one more
    p = 10 ** sys.get_int_max_str_digits() // 2 + 1
    v = classify(taurho(False, tau_slope(3), rho_torus(p, 1)))
    assert v.status == INADMISSIBLE
    assert [(x.rule, x.fields) for x in v.violations] == [("SlopeTooLarge", ("second", "params"))]


def test_torus_parameter_of_the_limits_digits_classifies():
    # the taurho notes write p; a p with exactly the limit's digits still prints
    p = 10 ** (sys.get_int_max_str_digits() - 1) + 1
    for rho in (RhoDescriptor(TorusRhoPresentation(TorusParams(p, 3))),
                RhoDescriptor(AbstractRho(True, False, torus=TorusParams(p, 3)))):
        v = classify(taurho(True, tau_slope(5), rho))
        assert v.branch == BRANCH_TAURHO_TWO
        assert any(note.endswith(f"torus parameter p = {p} != 2") for note in v.notes)


def test_classify_is_pure():
    d = tautau(True, 3, -3)
    assert classify(d) == classify(d)


def test_direct_classifier_precondition_violation():
    a = resolve_tau(tau_slope(3))
    hopf = resolve_rho(RhoDescriptor(RationalPresentation((2, 0))))
    v = classify_taurho(a, hopf, special=False)
    assert v.status == INADMISSIBLE


def test_two_flag_profile_raises_only_past_the_gate():
    # resolve refuses to build this side; a hand-built one raises when a count reads it
    from tritangle import MutualExclusivityViolation, ResolvedTangle, classify_rhorho

    two_flags = ResolvedTangle(kind="rho", atoroidal=True, trivial=False, essential=True,
                               satellite=True, cable=True)
    plain, tau = resolve_rho(rho_plain()), resolve_tau(tau_slope(3))
    hopf = resolve_rho(RhoDescriptor(RationalPresentation((2, 0))))
    toroidal = resolve_rho(RhoDescriptor(AbstractRho(atoroidal=False, trivial=False)))
    with pytest.raises(MutualExclusivityViolation):
        classify_taurho(tau, two_flags, special=True)
    with pytest.raises(MutualExclusivityViolation):
        classify_rhorho(plain, two_flags)
    assert classify_rhorho(hopf, two_flags).status == INADMISSIBLE
    assert classify_rhorho(two_flags, toroidal).status == TOROIDAL
    assert classify_taurho(resolve_tau(TauDescriptor(RationalPresentation((0,)))),
                           two_flags, special=True).status == INADMISSIBLE


def test_tau_slope_readers_agree_on_a_rational_non_unit_slope():
    # a hand-built side that leaves unit_fraction_slope open: both readers go by the slope 2/5
    from tritangle import ResolvedTangle, rect_types_tau

    x = ResolvedTangle(kind="tau", atoroidal=True, trivial=False, essential=True, rational=True,
                       slope=ExtFraction(2, 5), unit_fraction_slope=None)
    v = classify_tautau(x, resolve_tau(tau_slope(3)), True)
    assert (v.status, v.branch, v.annulus_count) == (CLASSIFIED, BRANCH_TAUTAU_HYPERBOLIC,
                                                     ZERO_ANNULI)
    assert ("a side is not rational with a unit-fraction slope, so its exterior admits no good "
            "rectangle") in v.notes
    assert rect_types_tau(x) == frozenset()


def test_annulus_count_refuses_a_negative_value():
    with pytest.raises(ValueError, match="cannot be negative"):
        AnnulusCount(-1)


def test_classify_evaluates_each_rational_side_once(monkeypatch):
    import tritangle.tangle

    calls = []
    evaluate = tritangle.tangle.cf_eval

    def counted(entries):
        calls.append(tuple(entries))
        return evaluate(entries)

    monkeypatch.setattr(tritangle.tangle, "cf_eval", counted)
    classify(taurho(True, tau_slope(3), rho_plain()))
    assert calls == [(3, 0), (2, 1, 1, 1, -1)]
    calls.clear()
    classify(taurho(True, tau_slope(3), rho_torus(2, 3)))
    assert calls == [(3, 0)]


def test_hyperbolic_iff_zero_everywhere():
    for m, n in itertools.product((-5, -3, 3, 5), repeat=2):
        for special in (False, True):
            v = classify(tautau(special, m, n))
            assert v.status == CLASSIFIED
            assert v.hyperbolic == v.annulus_count.is_zero


def test_infinite_counts_only_from_infinite_branches():
    from tritangle import run_census
    from tritangle.verdict import BRANCH_TAURHO_INFINITE, BRANCH_TAUTAU_INFINITE

    for kind, bound in (("tautau", 9), ("taurho", 6), ("rhorho", 4)):
        for row in run_census(kind, bound):
            if row.count == "inf":
                assert row.branch in (BRANCH_TAUTAU_INFINITE, BRANCH_TAURHO_INFINITE)


def test_classify_never_raises():
    # errors are reported inside the Verdict, never thrown past the boundary
    import itertools as it

    presentations = [
        TauDescriptor(RationalPresentation((3, 0))),
        TauDescriptor(RationalPresentation((0,))),
        TauDescriptor(RationalPresentation((0, 0))),
        TauDescriptor(AbstractTau(atoroidal=False, trivial=False, rational=False)),
        TauDescriptor(AbstractTau(atoroidal=True, trivial=True, rational=True)),
        TauDescriptor(AbstractTau(
            atoroidal=True, trivial=False, rational=False,
            slope=ExtFraction(1, 3))),  # inconsistent
        RhoDescriptor(RationalPresentation((2, 0))),
        RhoDescriptor(RationalPresentation((4, 0))),
        RhoDescriptor(TorusRhoPresentation(TorusParams(2, 3))),
        RhoDescriptor(AbstractRho(
            atoroidal=True, trivial=False, satellite=True, cable=True)),
        RhoDescriptor(AbstractRho(atoroidal=False, trivial=True)),
    ]
    kinds = ("tautau", "taurho", "rhorho", "nonsense")
    for kind, special, first, second in it.product(
            kinds, (False, True), presentations, presentations):
        verdict = classify(Decomposition(
            kind=kind, special=special, first=first, second=second))
        assert verdict.status in (CLASSIFIED, INADMISSIBLE, TOROIDAL)
        if verdict.status == CLASSIFIED:
            assert verdict.hyperbolic == verdict.annulus_count.is_zero


def test_unhashable_kind_reported_not_raised():
    v = classify(Decomposition(["tautau"], True, tau_slope(3), tau_slope(3)))
    assert v.status == INADMISSIBLE
    assert [x.rule for x in v.violations] == ["UnknownKind"]


@pytest.mark.parametrize("kind", ["sigma", "TAUTAU", ["tautau"], {"tautau": 1}],
                         ids=["unknown", "upper-case", "list", "dict"])
def test_every_reader_of_the_kind_set_refuses_an_unknown_kind_in_its_own_words(kind):
    v = classify(Decomposition(kind, True, tau_slope(3), tau_slope(3)))
    assert [str(x) for x in v.violations] == [
        f"UnknownKind (kind): unknown decomposition kind {kind!r}"]
    for census_call in (lambda: run_census(kind, 5), lambda: census_decomposition(kind, 3, 3)):
        with pytest.raises(ValueError) as err:
            census_call()
        assert str(err.value) == f"unknown census kind {kind!r}"
    document = {"type": kind, "special": True, "tangles": [
        {"kind": "tau", "presentation": {"rational": {"twists": [3, 0]}}}] * 2}
    with pytest.raises(DocumentError) as err:
        parse_decomposition(document)
    assert str(err.value) == \
        f'document.type: expected "tautau", "taurho" or "rhorho", got {kind!r}'


def test_each_clause_states_its_count():
    # a count is stated once, in its clause: the pair rules return (clause, inputs)
    clauses = [c for c in vars(verdict).values() if type(c) is verdict.Clause]
    assert len(clauses) == 16
    counts = {}
    for clause in clauses:
        if clause.branch is None:  # an UndeterminedSlope refusal
            assert clause.count is None
        else:
            assert type(clause.count) is AnnulusCount
            counts.setdefault(clause.branch, set()).add(clause.count)
    assert sum(clause.branch is None for clause in clauses) == 2
    assert all(len(shared) == 1 for shared in counts.values())
    assert counts[BRANCH_TAURHO_ONE] == {AnnulusCount(1)}
    assert counts[BRANCH_TAUTAU_HYPERBOLIC] == {ZERO_ANNULI}


# ---------------------------------------------------------------------------
# Record semantics

@pytest.mark.parametrize("make, field", [
    (lambda: Decomposition("tautau", True, tau_slope(3), tau_slope(-3)), "kind"),
    (lambda: classify(tautau(True, 3, -3)), "status"),
    (lambda: CensusRow(3, 3, "tautau (i)", "inf"), "count"),
], ids=["Decomposition", "Verdict", "CensusRow"])
def test_records_are_immutable_hashable_values(make, field):
    record, twin = make(), make()
    assert record is not twin
    assert record == twin
    assert hash(record) == hash(twin)
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(twin, field))


def test_decomposition_positional_fields():
    first, second = tau_slope(3), rho_torus(2, 3)
    d = Decomposition("taurho", True, first, second)
    assert (d.kind, d.special, d.first, d.second) == ("taurho", True, first, second)
    assert d == taurho(True, first, second)


def test_record_repr_text():
    assert repr(CensusRow(3, 3, "tautau (i)", "inf")) == \
        "CensusRow(m=3, n=3, branch='tautau (i)', count='inf')"
    assert repr(Verdict(TOROIDAL, notes=("a note",))) == (
        "Verdict(status='toroidal', annulus_count=None, hyperbolic=None, branch=None, "
        "annuli=(), notes=('a note',), violations=())")


# ---------------------------------------------------------------------------
# Mirror invariance

def test_mirror_invariance_spot_checks():
    cases = [
        tautau(True, 3, 3), tautau(True, 3, -3), tautau(True, 5, 3),
        tautau(False, 3, 3),
        taurho(True, tau_slope(3), rho_torus(2, 3)),
        taurho(True, tau_slope(5), rho_torus(3, 2)),
        taurho(False, tau_slope(3), rho_plain()),
        rhorho(rho_torus(2, 3), rho_plain()),
    ]
    for d in cases:
        v, w = classify(d), classify(mirror_decomposition(d))
        assert (v.status, v.annulus_count, v.branch) == (w.status, w.annulus_count, w.branch)


# ---------------------------------------------------------------------------
# Obstructions

def test_obstruction_two_nonseparating_not_type_two():
    profile = AnnulusProfile(
        nonseparating_count=2, nonseparating_all_type2=False,
        infinitely_many=False, in_family_L=False, atoroidal=True)
    assert obstruction_check(profile) == [Obstruction.NOT_3_DECOMPOSABLE_BY_ANNULUS_TYPES]


def test_obstruction_infinite_family_member_clean():
    profile = AnnulusProfile(
        nonseparating_count=0, nonseparating_all_type2=True,
        infinitely_many=True, in_family_L=True, atoroidal=True)
    assert obstruction_check(profile) == []


def test_obstruction_infinite_not_in_family():
    profile = AnnulusProfile(
        nonseparating_count=0, nonseparating_all_type2=True,
        infinitely_many=True, in_family_L=False, atoroidal=True)
    assert obstruction_check(profile) == [Obstruction.NOT_3_DECOMPOSABLE_BY_INFINITE_FAMILY]


def test_obstruction_nothing_triggered():
    profile = AnnulusProfile(
        nonseparating_count=0, nonseparating_all_type2=True,
        infinitely_many=False, in_family_L=False, atoroidal=True)
    assert obstruction_check(profile) == []


def test_obstruction_requires_atoroidality():
    profile = AnnulusProfile(
        nonseparating_count=2, nonseparating_all_type2=False,
        infinitely_many=True, in_family_L=False, atoroidal=False)
    assert obstruction_check(profile) == []


def test_profile_bounds_nonseparating_count():
    with pytest.raises(ValueError):
        AnnulusProfile(nonseparating_count=3, nonseparating_all_type2=False,
                       infinitely_many=False, in_family_L=False, atoroidal=True)
