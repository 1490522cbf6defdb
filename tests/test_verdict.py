"""Decomposition validation and the annulus-count dispatcher."""

from __future__ import annotations

import importlib
import itertools
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    Violation,
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
from tritangle.annuli import AnnulusType
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
# Shared verdicts

def _immutable(value) -> bool:
    """Whether ``value`` holds only tuples, str, bool, None and AnnulusCount values."""
    if isinstance(value, tuple):
        return all(map(_immutable, value))
    if type(value) is AnnulusCount:
        return value.value is None or type(value.value) is int
    return type(value) in (str, bool, type(None))


def test_each_verdict_classify_takes_from_a_table_is_shared_and_immutable():
    # the verdict of each clause whose texts read no field (verdict._FIXED) and the toroidal
    # verdict are built once: every call returns the same object, so none may hold a value that
    # one caller could change under another
    tau_no_unit = TauDescriptor(RationalPresentation((2, 1, 1, 1, -1)))  # slope -3/8
    rho_toroidal = RhoDescriptor(AbstractRho(atoroidal=False, trivial=False))
    decompositions = (tautau(False, 3, 3), tautau(True, 3, -3),
                      Decomposition("tautau", True, tau_slope(3), tau_no_unit),
                      taurho(True, tau_slope(3), rho_plain()), rhorho(rho_plain(), rho_plain()),
                      rhorho(rho_plain(), rho_toroidal))
    shared = [classify(d) for d in decompositions]
    assert {id(v) for v in shared} == \
        {id(v) for v in verdict._FIXED.values()} | {id(verdict._TOROIDAL)}
    assert shared[-1].status == TOROIDAL
    for d, v in zip(decompositions, shared):
        assert classify(d) is v
        assert _immutable(v), v


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


@pytest.mark.parametrize("kind, shown", [
    ("sigma", "'sigma'"), ("TAUTAU", "'TAUTAU'"), (["tautau"], "['tautau']"),
    ({"tautau": 1}, "{'tautau': 1}"),
    # a kind is written whole up to 80 characters, else as its repr's length
    ("x" * 200_000, "<200002 characters>"),
], ids=["unknown", "upper-case", "list", "dict", "long"])
def test_every_reader_of_the_kind_set_refuses_an_unknown_kind_in_its_own_words(kind, shown):
    v = classify(Decomposition(kind, True, tau_slope(3), tau_slope(3)))
    assert [str(x) for x in v.violations] == [
        f"UnknownKind (kind): unknown decomposition kind {shown}"]
    for census_call in (lambda: run_census(kind, 5), lambda: census_decomposition(kind, 3, 3)):
        with pytest.raises(ValueError) as err:
            census_call()
        assert str(err.value) == f"unknown census kind {shown}"
    document = {"type": kind, "special": True, "tangles": [
        {"kind": "tau", "presentation": {"rational": {"twists": [3, 0]}}}] * 2}
    with pytest.raises(DocumentError) as err:
        parse_decomposition(document)
    assert str(err.value) == \
        f'document.type: expected "tautau", "taurho" or "rhorho", got {shown}'


# ---------------------------------------------------------------------------
# A decomposition built in Python: jsonio's checks do not guard it

class SubTau(TauDescriptor):
    """A subclass: its presentation is a tau-tangle's, but it is not exactly a descriptor."""


def not_a_descriptor(position, got):
    return (f"NotADescriptor ({position}): the {position} side must be a TauDescriptor or "
            f"RhoDescriptor, got {got}")


@pytest.mark.parametrize("changes, shown", [
    # each was classified, or raised AttributeError, before classify checked the field
    ({"special": "no"}, "SpecialNotBoolean (special): special must be a bool, got str"),
    ({"special": 0}, "SpecialNotBoolean (special): special must be a bool, got int"),
    ({"first": None}, not_a_descriptor("first", "NoneType")),
    ({"second": resolve_tau(tau_slope(-3))}, not_a_descriptor("second", "ResolvedTangle")),
    ({"first": SubTau(RationalPresentation((3, 0)))}, not_a_descriptor("first", "SubTau")),
    # SpecialRhoRho fires only for special is True
    ({"kind": "rhorho", "special": 1, "first": rho_plain(), "second": rho_plain()},
     "SpecialNotBoolean (special): special must be a bool, got int"),
], ids=["special-str", "special-zero", "first-none", "second-profile", "first-subclass",
        "rhorho-special-one"])
def test_a_python_built_decomposition_is_refused_not_forged_or_raised(changes, shown):
    four_one = tautau(True, 3, -3)  # three annuli, tautau (ii)
    v = classify(four_one._replace(**changes))
    assert (v.status, [str(x) for x in v.violations]) == (INADMISSIBLE, [shown])


_CONFLICTING_RHO = RhoDescriptor(AbstractRho(atoroidal=True, trivial=False, satellite=True,
                                             cable=True))
_EXCLUSIVE = ("MutualExclusivity", "satellite, cable and hopf_summand are mutually exclusive")


@pytest.mark.parametrize("d, expected", [
    (Decomposition("sigma", 0, "side", TauDescriptor(RationalPresentation((0, 0)))), [
        ("UnknownKind", ("kind",), "unknown decomposition kind 'sigma'"),
        ("NotADescriptor", ("first",),
         "the first side must be a TauDescriptor or RhoDescriptor, got str"),
        ("SpecialNotBoolean", ("special",), "special must be a bool, got int"),
        ("InfiniteSlope", ("second", "twists"), "twist vector [0, 0] evaluates to infinity")]),
    (Decomposition("tautau", True, tau_slope(3), _CONFLICTING_RHO), [
        ("KindMismatch", ("second",),
         "a tautau decomposition needs a tau-tangle in second position"),
        (_EXCLUSIVE[0], ("second", "satellite", "cable"), _EXCLUSIVE[1])]),
    (Decomposition("tautau", 1, _CONFLICTING_RHO, object()), [
        ("KindMismatch", ("first",),
         "a tautau decomposition needs a tau-tangle in first position"),
        ("NotADescriptor", ("second",),
         "the second side must be a TauDescriptor or RhoDescriptor, got object"),
        ("SpecialNotBoolean", ("special",), "special must be a bool, got int"),
        (_EXCLUSIVE[0], ("first", "satellite", "cable"), _EXCLUSIVE[1])]),
], ids=["unknown-kind", "tautau-conflicting-rho", "kind-side-special-and-flags"])
def test_several_violations_come_in_one_order(d, expected):
    # the kind, each side's descriptor and kind, special, then each examined side's own
    v = classify(d)
    assert v.status == INADMISSIBLE
    assert list(v.violations) == [Violation(*fields) for fields in expected]


_SIDES = (tau_slope(3), tau_slope(-3), tau_slope(5), rho_plain(), rho_torus(2, 3),
          rho_torus(2, 1), TauDescriptor(RationalPresentation((0, 0))),
          TauDescriptor(AbstractTau(atoroidal=False, trivial=False, rational=True)),
          RhoDescriptor(AbstractRho(atoroidal=True, trivial=False, satellite=True, cable=True)))
# values of other types, among them a side's profile, presentation and kind, and a subclass
_OTHERS = (None, 0, 1, -1, 10 ** 5000, 0.0, float("nan"), "", "no", "tau", "rho", "\n", "x" * 200,
           b"", [], ["tautau"], {}, {"tautau": 1}, (), object(), resolve_tau(tau_slope(3)),
           RationalPresentation((3, 0)), TorusParams(2, 3), SubTau(RationalPresentation((3, 0))))
_DESCRIPTORS = (TauDescriptor, RhoDescriptor)


def _any_or(*likely):
    """A field: one of ``likely`` about half the time, else a value of another type."""
    return st.sampled_from(likely * (len(_OTHERS) // len(likely)) + _OTHERS)


@settings(max_examples=3000, deadline=None, derandomize=True)
@given(_any_or(*verdict.KINDS), _any_or(False, True), _any_or(*_SIDES), _any_or(*_SIDES))
def test_classify_returns_a_verdict_whatever_a_decomposition_holds(kind, special, first, second):
    v = classify(Decomposition(kind, special, first, second))
    assert type(v) is Verdict and v.status in (CLASSIFIED, INADMISSIBLE, TOROIDAL)
    # a non-boolean special and a side that is not a descriptor each are their own violation
    assert ("SpecialNotBoolean" in [x.rule for x in v.violations]) == (type(special) is not bool)
    for position, side in (("first", first), ("second", second)):
        refused = any(x.rule == "NotADescriptor" and x.fields == (position,) for x in v.violations)
        assert refused == (type(side) not in _DESCRIPTORS)
    if type(special) is not bool or type(first) not in _DESCRIPTORS \
            or type(second) not in _DESCRIPTORS:
        assert v.status == INADMISSIBLE
        assert all(type(x) is Violation for x in v.violations)


def test_each_clause_states_its_count():
    # a count is stated once, in its clause: the pair rules return the clause alone
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


#: Side facts of every kind of unit, good annulus and torus parameter the pair rules read.
SIDE_FACTS = [verdict.SideFacts(unit, annulus, p)
              for unit in (verdict.NO_UNIT, verdict.UNKNOWN_UNIT, 3, -3, 5, -5)
              for annulus in (None, *AnnulusType) for p in (None, 2, 5)]


@pytest.mark.parametrize("kind", verdict.KINDS)
def test_each_pair_rule_is_a_pure_decision(kind):
    # a rule builds nothing: on any side facts it returns one of the module's clauses, and the
    # very same object again on a second call
    clauses = [c for c in vars(verdict).values() if type(c) is verdict.Clause]
    rule = verdict.RULES[kind][1]
    for a, b, special in itertools.product(SIDE_FACTS, SIDE_FACTS, (False, True)):
        clause = rule(a, b, special)
        assert any(clause is c for c in clauses)
        assert rule(a, b, special) is clause


def reference_verdict(clause: verdict.Clause, a: verdict.SideFacts,
                      b: verdict.SideFacts) -> Verdict:
    """A clause's verdict built from its templates alone: every text formatted on each call."""
    if clause.branch is None:
        sides = tuple(p for p, f in (("first", a), ("second", b)) if f.unit == verdict.UNKNOWN_UNIT)
        return Verdict(INADMISSIBLE, violations=(
            Violation("UndeterminedSlope", sides, clause.note),))
    fields = {"m": a.unit, "n": b.unit, "p": b.p, "first": a.annulus, "second": b.annulus,
              "side": "first" if a.annulus is not None else "second",
              "annulus": b.annulus if a.annulus is None else a.annulus}
    hyperbolic = clause.count == ZERO_ANNULI
    notes = [verdict.ATOROIDAL_NOTE, str.format_map(clause.note, fields),
             verdict.IRREDUCIBILITY_NOTE] + [verdict.HYPERBOLICITY_NOTE] * hyperbolic
    return Verdict(CLASSIFIED, clause.count, hyperbolic, clause.branch,
                   tuple(str.format_map(text, fields) for text in clause.annuli), tuple(notes))


def test_the_renderer_equals_its_templates():
    # each clause the pair rules return renders as its templates formatted from both sides'
    # facts; a clause whose texts read no field renders as one verdict, shared by every call
    met, shared = set(), set()
    for kind in verdict.KINDS:
        rule = verdict.RULES[kind][1]
        for a, b, special in itertools.product(SIDE_FACTS, SIDE_FACTS, (False, True)):
            clause = rule(a, b, special)
            rendered = verdict._render(clause, a, b)
            assert type(rendered) is Verdict
            assert rendered == reference_verdict(clause, a, b), (clause, a, b)
            met.add(id(clause))
            if verdict._render(clause, b, a) is rendered:
                shared.add(clause.branch)
    assert len(met) == 16
    # five clauses: tautau (otherwise) has two, not special and no unit
    assert shared == {BRANCH_TAUTAU_HYPERBOLIC, BRANCH_TAUTAU_THREE, BRANCH_TAURHO_HYPERBOLIC,
                      BRANCH_RHORHO_HYPERBOLIC}


def test_the_count_path_runs_the_gate_once(monkeypatch):
    # _count's gate is the only one a counted side passes, and census sides pass it by
    # construction: no module's ``require`` runs on the classify or census path
    from tritangle import catalog_entries, tangle
    for name in ("catalog", "census", "cli", "rect"):  # every module that may bind require
        importlib.import_module(f"tritangle.{name}")
    require, calls = tangle.require, []

    def counted(*args):
        calls.append(args)
        return require(*args)

    patched = [(name, key) for name, module in list(sys.modules.items())
               if name.startswith("tritangle") for key, value in vars(module).items()
               if value is require]
    for name, key in patched:
        monkeypatch.setattr(sys.modules[name], key, counted)
    assert ("tritangle.rect", "require") in patched
    for entry in catalog_entries():
        if entry.decomposition is not None:
            for d in (entry.decomposition, mirror_decomposition(entry.decomposition)):
                assert classify(d).status == CLASSIFIED
    for kind in verdict.KINDS:
        run_census(kind, 99)
    assert calls == []


# ---------------------------------------------------------------------------
# Record semantics

@pytest.mark.parametrize("make, field", [
    (lambda: Decomposition("tautau", True, tau_slope(3), tau_slope(-3)), "kind"),
    # slopes 1/3 and 1/5: a note that reads m and n, so each call builds its own verdict (a
    # clause whose texts read no field returns one shared verdict)
    (lambda: classify(tautau(True, 3, 5)), "status"),
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
