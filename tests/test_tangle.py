"""Descriptor resolution, torus parameters and the twist action."""

from __future__ import annotations

import copy
import enum
import pickle
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tritangle import (
    AbstractRho,
    AbstractTau,
    AnnulusCount,
    AnnulusProfile,
    ExtFraction,
    InconsistentFlags,
    InfiniteSlope,
    InvalidTorusParams,
    MutualExclusivityViolation,
    RationalPresentation,
    RhoDescriptor,
    SlopeTooLarge,
    TauDescriptor,
    TorusParams,
    TorusRhoPresentation,
    TritangleError,
    Violation,
    cf_eval,
    mirror_descriptor,
    mod_z_equal,
    resolve,
    resolve_rho,
    resolve_tau,
    slope_normalize,
    twist_rho,
    validate_descriptor,
)

twist_vectors = st.lists(st.integers(-9, 9), max_size=8)


def rational_tau(*twists):
    return TauDescriptor(RationalPresentation(twists))


def rational_rho(*twists):
    return RhoDescriptor(RationalPresentation(twists))


# ---------------------------------------------------------------------------
# TorusParams

def test_torus_canonical_sign():
    assert TorusParams(-3, -2) == TorusParams(3, 2)
    assert TorusParams(-3, 2) == TorusParams(3, -2)


def test_torus_canonical_fixpoint():
    t = TorusParams(-5, 3)
    assert TorusParams(t.p, t.q) == t


@pytest.mark.parametrize("p,q", [(1, 1), (0, 1), (1, -1), (-1, 4)])
def test_torus_rejects_p_below_two(p, q):
    with pytest.raises(InvalidTorusParams):
        TorusParams(p, q)


def test_torus_rejects_non_coprime():
    with pytest.raises(InvalidTorusParams):
        TorusParams(4, 2)


def test_torus_rejects_parameters_too_long_to_print():
    huge = 10 ** sys.get_int_max_str_digits()  # one digit more than str writes
    for p, q in ((huge + 1, 3), (-huge - 1, 3), (3, huge + 1), (2, -huge - 1)):
        with pytest.raises(InvalidTorusParams, match="too many to write as text"):
            TorusParams(p, q)
    with pytest.raises(InvalidTorusParams, match="too many to write as text"):
        twist_rho(TorusParams(3, 1), huge)
    assert TorusParams(huge - 1, 2).p == huge - 1  # exactly the limit's digits still prints


# ---------------------------------------------------------------------------
# Dehn twist action

def test_twist_base_case():
    for r in range(-4, 5):
        assert twist_rho(TorusParams(2, 1), r) == TorusParams(2, 2 * r + 1)


def test_twist_identity():
    assert twist_rho(TorusParams(3, 2), 0) == TorusParams(3, 2)


def test_twist_general_parameters():
    assert twist_rho(TorusParams(3, 2), 2) == TorusParams(3, 8)


@given(st.integers(2, 40), st.integers(-40, 40), st.integers(-10, 10), st.integers(-10, 10))
def test_twist_group_action(p, q, a, b):
    try:
        t = TorusParams(p, q)
    except InvalidTorusParams:
        return
    assert twist_rho(twist_rho(t, a), b) == twist_rho(t, a + b)


# ---------------------------------------------------------------------------
# resolve_tau

def test_tau_rational_one_third():
    t = resolve_tau(rational_tau(3, 0))
    assert t.slope == ExtFraction(1, 3)
    assert t.essential and t.atoroidal and not t.trivial
    assert t.unit_fraction_slope is True


def test_tau_rational_trivial():
    t = resolve_tau(rational_tau(0))
    assert t.slope == ExtFraction(0, 1)
    assert t.trivial and not t.essential


def test_tau_abstract_non_unit_is_essential():
    t = resolve_tau(TauDescriptor(AbstractTau(
        atoroidal=True, trivial=False, rational=True, unit_fraction_slope=False)))
    assert t.essential
    assert t.slope is None
    assert t.unit_fraction_slope is False


def test_tau_rational_infinite_slope_rejected():
    with pytest.raises(InfiniteSlope):
        resolve_tau(rational_tau(0, 0))


def test_tau_abstract_slope_flag_mismatch():
    with pytest.raises(InconsistentFlags):
        resolve_tau(TauDescriptor(AbstractTau(
            atoroidal=True, trivial=False, rational=True,
            slope=ExtFraction(2, 5), unit_fraction_slope=True)))


def test_tau_abstract_slope_without_rationality():
    with pytest.raises(InconsistentFlags):
        resolve_tau(TauDescriptor(AbstractTau(
            atoroidal=True, trivial=False, rational=False, slope=ExtFraction(1, 3))))


def test_tau_abstract_slope_normalized_and_unit_derived():
    t = resolve_tau(TauDescriptor(AbstractTau(
        atoroidal=True, trivial=False, rational=True, slope=ExtFraction(5, 2))))
    assert t.slope == ExtFraction(1, 2)
    assert t.unit_fraction_slope is True


# ---------------------------------------------------------------------------
# resolve_rho

def test_rho_rational_plain_minus_three_eighths():
    t = resolve_rho(rational_rho(2, 1, 1, 1, -1))
    assert t.slope == ExtFraction(-3, 8)
    assert t.torus is None
    assert not (t.satellite or t.cable or t.hopf_summand)
    assert t.essential


def test_rho_rational_one_sixth_is_torus_satellite():
    t = resolve_rho(rational_rho(6, 0))
    assert t.slope == ExtFraction(1, 6)
    assert t.torus == TorusParams(3, 1)
    assert t.satellite and not t.cable and not t.hopf_summand


def test_rho_rational_negative_unit_even_slope_mirrors_torus():
    t = resolve_rho(rational_rho(-6, 0))
    assert t.slope == ExtFraction(-1, 6)
    assert t.torus == TorusParams(3, -1)


def test_rho_rational_hopf():
    t = resolve_rho(rational_rho(2, 0))
    assert t.hopf_tangle
    assert not t.essential
    assert t.torus is None


def test_rho_abstract_mutual_exclusivity():
    with pytest.raises(MutualExclusivityViolation):
        resolve_rho(RhoDescriptor(AbstractRho(
            atoroidal=True, trivial=False, satellite=True, cable=True)))


def test_rho_abstract_torus_with_cable_conflicts():
    # torus parameters imply satellite, which excludes cable
    with pytest.raises(MutualExclusivityViolation):
        resolve_rho(RhoDescriptor(AbstractRho(
            atoroidal=True, trivial=False, cable=True, torus=TorusParams(3, 2))))


def test_rho_abstract_hopf_tangle_excludes_flags():
    with pytest.raises(InconsistentFlags):
        resolve_rho(RhoDescriptor(AbstractRho(
            atoroidal=True, trivial=False, hopf_tangle=True, satellite=True)))


def test_rho_torus_presentation():
    t = resolve_rho(RhoDescriptor(TorusRhoPresentation(TorusParams(3, 2))))
    assert t.torus == TorusParams(3, 2)
    assert t.satellite and t.atoroidal and t.essential
    assert t.rational is False
    assert t.slope is None


def test_rho_torus_presentation_q_one_has_slope():
    t = resolve_rho(RhoDescriptor(TorusRhoPresentation(TorusParams(2, 1))))
    assert t.rational is True
    assert t.slope == ExtFraction(1, 4)


def test_rho_abstract_cable_only():
    t = resolve_rho(RhoDescriptor(AbstractRho(
        atoroidal=True, trivial=False, cable=True)))
    assert t.cable and not t.satellite and not t.hopf_summand
    assert t.essential


def test_tau_descriptor_rejects_rho_presentation():
    with pytest.raises(TypeError) as err:
        TauDescriptor(TorusRhoPresentation(TorusParams(2, 3)))
    assert str(err.value) == "TorusRhoPresentation does not present a tau-tangle"
    with pytest.raises(TypeError, match="AbstractRho"):
        TauDescriptor(AbstractRho(atoroidal=True, trivial=False))


def test_rho_descriptor_rejects_tau_presentation():
    with pytest.raises(TypeError) as err:
        RhoDescriptor(AbstractTau(atoroidal=True, trivial=False, rational=True))
    assert str(err.value) == "AbstractTau does not present a rho-tangle"


class _Twist(enum.IntEnum):
    THREE = 3


@pytest.mark.parametrize("twists, i, got", [
    ((3, True), 1, "bool"), ((1.5,), 0, "float"), ((_Twist.THREE,), 0, "_Twist"),
], ids=["bool", "float", "int-enum"])
def test_a_twist_entry_is_a_plain_int(twists, i, got):
    # a bool or an int subclass is not an integer: one rule, type(entry) is int
    with pytest.raises(TypeError) as err:
        RationalPresentation(twists)
    assert str(err.value) == f"RationalPresentation.twists[{i}] must be an int, got {got}"
    assert err.value.field == f"twists[{i}]"  # jsonio names the entry by this field


@pytest.mark.parametrize("entry", [3.9, 3.0, "3", True])
def test_rational_presentation_refuses_non_integer_twists(entry):
    # truncating 3.9 to 3 would present slope 1/3 and forge a tautau (i) verdict
    with pytest.raises(TypeError):
        RationalPresentation((entry, 0))
    assert RationalPresentation((3, 0)).twists == (3, 0)


def test_abstract_flags_and_torus_params_refuse_wrong_types():
    # AbstractRho(atoroidal=1, ...) was classified, then serialized to a document jsonio refuses
    for build, field in (
            (lambda: AbstractRho(atoroidal=1, trivial=0, satellite=1), "AbstractRho.atoroidal"),
            (lambda: AbstractRho(True, False, cable=None), "AbstractRho.cable"),
            (lambda: AbstractRho(True, False, torus=(2, 3)), "AbstractRho.torus"),
            (lambda: AbstractTau(True, False, 1), "AbstractTau.rational"),
            (lambda: AbstractTau(True, False, True, slope="1/3"), "AbstractTau.slope"),
            (lambda: AbstractTau(True, False, True, unit_fraction_slope=1),
             "AbstractTau.unit_fraction_slope"),
            (lambda: TorusParams(3, True), "TorusParams.q"),
            (lambda: TorusParams(3.0, 1), "TorusParams.p"),
            (lambda: TorusParams(1, "x"), "TorusParams.q"),
            # an int subclass is not an integer
            (lambda: TorusParams(_Twist.THREE, 2), "TorusParams.p"),
            # a tuple held here made classify raise AttributeError on reading params.q
            (lambda: TorusRhoPresentation((2, 3)), "TorusRhoPresentation.params")):
        with pytest.raises(TypeError, match=field) as err:
            build()
        assert err.value.field == field.split(".")[1]  # jsonio names the value by this field
    # None stays allowed where the annotation allows it
    assert AbstractTau(True, False, True, None, None).slope is None
    assert AbstractRho(True, False, torus=TorusParams(2, 3)).torus == TorusParams(2, 3)


def test_each_flag_type_text_names_the_types_it_allows():
    # a refusal words the types its class's _types allow
    with pytest.raises(TypeError) as err:
        AbstractTau(True, False, True, slope="1/3")
    assert str(err.value) == "AbstractTau.slope must be ExtFraction | None, got str"
    with pytest.raises(TypeError) as err:
        AbstractRho(True, False, torus=(2, 3))
    assert str(err.value) == "AbstractRho.torus must be TorusParams | None, got tuple"
    with pytest.raises(TypeError) as err:
        TorusRhoPresentation((2, 3))
    assert str(err.value) == "TorusRhoPresentation.params must be TorusParams, got tuple"


# ---------------------------------------------------------------------------
# Immutable values

VALUES = (
    lambda: ExtFraction(6, -4),
    lambda: TorusParams(-3, 2),
    lambda: RationalPresentation([3, 0]),
    lambda: TorusRhoPresentation(TorusParams(2, 3)),
    lambda: AbstractTau(True, False, True, ExtFraction(1, 3)),
    lambda: AbstractRho(True, False, torus=TorusParams(2, 1)),
    lambda: TauDescriptor(RationalPresentation((3, 0))),
    lambda: RhoDescriptor(AbstractRho(True, False, cable=True)),
    lambda: Violation("InfiniteSlope", ("twists",), "twist vector [0, 0] evaluates to infinity"),
    lambda: AnnulusCount(None),
    lambda: AnnulusProfile(2, False, True, False, True),
)


@pytest.mark.parametrize("build", VALUES, ids=lambda build: type(build()).__name__)
def test_values_are_immutable_and_equal_by_fields(build):
    value, twin = build(), build()
    assert value is not twin and value == twin and hash(value) == hash(twin)
    assert not value != twin
    name = type(value).__slots__[0]
    with pytest.raises(AttributeError):
        setattr(value, name, getattr(value, name))
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert copy.copy(value) == value and pickle.loads(pickle.dumps(value)) == value
    assert value._replace() == value
    assert value != (getattr(value, name),) and value != object()


def test_descriptor_kinds_differ_on_the_same_presentation():
    presentation = RationalPresentation((3, 0))
    assert TauDescriptor(presentation) != RhoDescriptor(presentation)
    assert repr(TauDescriptor(presentation)) == \
        "TauDescriptor(presentation=RationalPresentation(twists=(3, 0)))"
    assert repr(ExtFraction(6, -4)) == "ExtFraction(num=-3, den=2)"
    assert repr(AbstractRho(True, False)) == (
        "AbstractRho(atoroidal=True, trivial=False, hopf_tangle=False, satellite=False, "
        "cable=False, hopf_summand=False, torus=None)")


def test_mirror_and_replace_of_an_abstract_side_check_its_flags():
    side = TauDescriptor(AbstractTau(True, False, True, ExtFraction(1, 3)))
    assert mirror_descriptor(side) == TauDescriptor(AbstractTau(True, False, True,
                                                                ExtFraction(-1, 3)))
    rho = RhoDescriptor(AbstractRho(True, False, torus=TorusParams(3, 2)))
    assert mirror_descriptor(rho).presentation.torus == TorusParams(3, -2)
    with pytest.raises(TypeError, match="AbstractTau.rational"):
        side.presentation._replace(rational=1)
    with pytest.raises(TypeError, match="AbstractRho.torus"):
        rho.presentation._replace(torus=(3, -2))
    with pytest.raises(TypeError):
        rho.presentation._replace(no_such_flag=True)
    with pytest.raises(InvalidTorusParams):
        TorusParams(3, 2)._replace(q=3)


# ---------------------------------------------------------------------------
# validate_descriptor

def test_resolve_raises_slope_too_large_by_name():
    side = TauDescriptor(RationalPresentation((100,) * 2500))
    with pytest.raises(SlopeTooLarge, match="SlopeTooLarge \\(twists\\)") as caught:
        resolve(side)
    assert not isinstance(caught.value, InconsistentFlags)


DIGITS = sys.get_int_max_str_digits()


def abstract_tau(**flags):
    return TauDescriptor(AbstractTau(atoroidal=True, trivial=False, rational=True, **flags))


# each rule that names its own exception, on each presentation that can break it; the
# descriptors are built when the test runs, not when it is collected
FIRST_VIOLATIONS = {
    "rational-tau-infinite": (lambda: rational_tau(0, 0), InfiniteSlope,
                              "InfiniteSlope (twists): twist vector [0, 0] evaluates to infinity"),
    "rational-rho-infinite": (lambda: rational_rho(0, 0), InfiniteSlope,
                              "InfiniteSlope (twists): twist vector [0, 0] evaluates to infinity"),
    "rational-tau-too-long": (lambda: rational_tau(*(100,) * 2500), SlopeTooLarge,
                              "SlopeTooLarge (twists): the slope's denominator has more than "
                              f"{DIGITS} digits, too many to write as text"),
    "rational-rho-too-long": (lambda: rational_rho(*(100,) * 2500), SlopeTooLarge,
                              "SlopeTooLarge (twists): the slope's denominator has more than "
                              f"{DIGITS} digits, too many to write as text"),
    "torus-too-long": (lambda: RhoDescriptor(TorusRhoPresentation(
                           TorusParams(10 ** DIGITS // 2, 1))), SlopeTooLarge,
                       "SlopeTooLarge (params): the slope's denominator has more than "
                       f"{DIGITS} digits, too many to write as text"),
    "abstract-tau-infinite": (lambda: abstract_tau(slope=ExtFraction(1, 0)), InfiniteSlope,
                              "InfiniteSlope (slope): infinite slope does not present a "
                              "rational 3-tangle"),
    "abstract-tau-too-long": (lambda: abstract_tau(slope=ExtFraction(1, 10 ** DIGITS)),
                              SlopeTooLarge,
                              "SlopeTooLarge (slope): the slope's denominator has more than "
                              f"{DIGITS} digits, too many to write as text"),
    "abstract-rho-two-flags": (lambda: RhoDescriptor(AbstractRho(
                                   atoroidal=True, trivial=False, satellite=True, cable=True)),
                               MutualExclusivityViolation,
                               "MutualExclusivity (satellite, cable): satellite, cable and "
                               "hopf_summand are mutually exclusive"),
    "abstract-tau-two-conflicts": (lambda: TauDescriptor(AbstractTau(
                                       atoroidal=True, trivial=True, rational=True,
                                       slope=ExtFraction(2, 5), unit_fraction_slope=True)),
                                   InconsistentFlags,
                                   "SlopeFlagMismatch (slope, unit_fraction_slope): slope 2/5 "
                                   "has |numerator| != 1; TrivialFlagConflict (trivial, slope): "
                                   "trivial must hold exactly for slope 0, slope is 2/5"),
}


@pytest.mark.parametrize("build,error,text", FIRST_VIOLATIONS.values(), ids=FIRST_VIOLATIONS)
def test_resolve_raises_the_exception_of_the_first_violation(build, error, text):
    side = build()
    with pytest.raises(TritangleError) as caught:
        resolve(side)
    assert type(caught.value) is error
    assert str(caught.value) == text == "; ".join(map(str, validate_descriptor(side)))


@pytest.mark.parametrize("twists,vector", [
    ((0,) * 26, str([0] * 26)),  # 78 characters
    ((0, 10 ** 74), f"[0, {10 ** 74}]"),  # 80 characters
    ((0, 10 ** 75), "of 2 entries"),  # 81 characters
    ((0,) * 24 + (1, -1, 0), "of 27 entries"),  # 82 characters
    ((0, 10 ** DIGITS), "of 2 entries"),  # an entry str refuses
])
def test_infinite_twist_vector_written_out_only_within_80_characters(twists, vector):
    assert [str(v) for v in validate_descriptor(rational_tau(*twists))] == [
        f"InfiniteSlope (twists): twist vector {vector} evaluates to infinity"]


@pytest.mark.parametrize("q", [1, -1])
def test_torus_arc_slope_at_the_digit_limit(q):
    at_limit = (10 ** DIGITS - 2) // 2  # 2p = 10**DIGITS - 2 has exactly DIGITS digits
    t = resolve(RhoDescriptor(TorusRhoPresentation(TorusParams(at_limit, q))))
    assert t.slope == ExtFraction(q, 2 * at_limit)
    assert t.unit_fraction_slope and t.satellite
    past_limit = 10 ** DIGITS // 2  # 2p = 10**DIGITS, one digit more; p itself still prints
    side = RhoDescriptor(TorusRhoPresentation(TorusParams(past_limit, q)))
    assert [(v.rule, v.fields) for v in validate_descriptor(side)] == [
        ("SlopeTooLarge", ("params",))]
    with pytest.raises(SlopeTooLarge, match="^SlopeTooLarge \\(params\\): "):
        resolve(side)


@pytest.mark.parametrize("p", [*range(2, 51), 10 ** (DIGITS - 2) + 1])  # the last: 4,299 digits
@pytest.mark.parametrize("q", [1, -1])
def test_trusted_torus_values_equal_the_public_ones(p, q):
    # a torus side's slope and the torus of a rational side of slope +-1/(2k) are stored without
    # their constructors' checks: each equals, hashes and shows like the checked value
    slope = resolve(RhoDescriptor(TorusRhoPresentation(TorusParams(p, q)))).slope
    torus = resolve(rational_rho(2 * p * q, 0)).torus  # (2pq, 0) evaluates to q/(2p)
    for trusted, public in ((slope, ExtFraction(q, 2 * p)), (torus, TorusParams(p, q))):
        assert type(trusted) is type(public)
        assert (trusted, hash(trusted), repr(trusted)) == (public, hash(public), repr(public))


def test_validate_clean_rational():
    assert validate_descriptor(rational_tau(2, 3, 0)) == []


def test_validate_names_mutual_exclusivity():
    violations = validate_descriptor(RhoDescriptor(AbstractRho(
        atoroidal=True, trivial=False, satellite=True, hopf_summand=True)))
    assert [v.rule for v in violations] == ["MutualExclusivity"]


def test_validate_names_slope_flag_mismatch():
    violations = validate_descriptor(TauDescriptor(AbstractTau(
        atoroidal=True, trivial=False, rational=True,
        slope=ExtFraction(2, 5), unit_fraction_slope=True)))
    assert [v.rule for v in violations] == ["SlopeFlagMismatch"]


def test_validate_infinite_twist_vector():
    violations = validate_descriptor(rational_tau(0, 0))
    assert [v.rule for v in violations] == ["InfiniteSlope"]


# ---------------------------------------------------------------------------
# Properties

@given(twist_vectors)
def test_hopf_iff_slope_half_mod_z(tv):
    value = cf_eval(tv)
    if value.is_infinite:
        return
    resolved = resolve_rho(rational_rho(*tv))
    assert resolved.hopf_tangle == mod_z_equal(value, ExtFraction(1, 2))


@given(twist_vectors)
def test_resolution_deterministic(tv):
    value = cf_eval(tv)
    if value.is_infinite:
        return
    assert resolve_rho(rational_rho(*tv)) == resolve_rho(rational_rho(*tv))


@given(twist_vectors)
def test_mirror_descriptor_negates_slope(tv):
    if cf_eval(tv).is_infinite:
        return
    original = resolve_tau(rational_tau(*tv))
    mirrored = resolve_tau(mirror_descriptor(rational_tau(*tv)))
    assert mirrored.slope == slope_normalize(-original.slope)


@given(twist_vectors)
def test_provenance_present_on_derived_fields(tv):
    if cf_eval(tv).is_infinite:
        return
    resolved = resolve_rho(rational_rho(*tv))
    assert resolved.provenance
    assert any(note.startswith("slope:") for note in resolved.provenance)


@given(twist_vectors)
def test_rho_torus_derived_iff_unit_even_slope(tv):
    value = cf_eval(tv)
    if value.is_infinite:
        return
    resolved = resolve_rho(rational_rho(*tv))
    s = resolved.slope
    expected = abs(s.num) == 1 and s.den % 2 == 0 and s.den >= 4
    assert (resolved.torus is not None) == expected
    assert resolved.satellite == expected
    if resolved.torus is not None:
        assert resolved.torus.p == s.den // 2
        assert resolved.torus.q == (1 if s.num > 0 else -1)
