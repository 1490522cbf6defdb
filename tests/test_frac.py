"""Exact fraction arithmetic and the twist-vector calculus."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tritangle import (
    ExtFraction,
    InfiniteSlope,
    InfiniteValue,
    ZeroOverZero,
    cf_eval,
    cf_expand,
    mod_z_equal,
    palindrome_numerators,
    parse_fraction,
    slope_normalize,
)

from oracles import cf_eval_recursive, continuant_pair

twist_vectors = st.lists(st.integers(-9, 9), max_size=8)


def frozen(f: ExtFraction) -> tuple[int, int]:
    return f.num, f.den


# ---------------------------------------------------------------------------
# Construction

def test_construction_reduces():
    assert frozen(ExtFraction(2, 4)) == (1, 2)


def test_construction_sign_normalizes():
    assert frozen(ExtFraction(3, -9)) == (-1, 3)


def test_construction_infinity_canonical():
    assert frozen(ExtFraction(5, 0)) == (1, 0)
    assert frozen(ExtFraction(-5, 0)) == (1, 0)


def test_zero_over_zero_rejected():
    with pytest.raises(ZeroOverZero):
        ExtFraction(0, 0)


@given(st.integers(-1000, 1000), st.integers(-1000, 1000))
def test_construction_always_canonical(p, q):
    if p == 0 and q == 0:
        return
    assert ExtFraction(p, q).is_canonical()


def test_is_canonical_audits_each_invariant():
    from tritangle.frac import _canonical  # the trusted constructor, which checks nothing

    assert _canonical(1, 2).is_canonical() and _canonical(1, 0).is_canonical()
    for num, den in ((1, -2), (5, 0), (2, 4)):
        assert not _canonical(num, den).is_canonical()


# ---------------------------------------------------------------------------
# Evaluation

def test_eval_single_zero():
    assert frozen(cf_eval([0])) == (0, 1)


def test_eval_hopf_anchor():
    assert frozen(cf_eval([2, 0])) == (1, 2)


def test_eval_type_two_anchor():
    assert frozen(cf_eval([3, 0])) == (1, 3)


def test_eval_two_entries():
    # 3 + 1/2
    assert frozen(cf_eval([2, 3])) == (7, 2)


def test_eval_empty_is_zero():
    assert frozen(cf_eval([])) == (0, 1)


def test_eval_reads_any_iterable_once():
    # no len(): an iterator's emptiness shows only after the loop
    assert frozen(cf_eval(iter(()))) == (0, 1)
    assert frozen(cf_eval(a for a in (3, 0))) == (1, 3)
    assert cf_eval(a for a in (0, 0)).is_infinite


def test_eval_projective_intermediates():
    assert cf_eval([0, 0]).is_infinite
    assert frozen(cf_eval([0, 0, 1])) == (1, 1)
    assert frozen(cf_eval([0, 5])) == (1, 0)


@given(twist_vectors)
def test_eval_matches_recursive_oracle(tv):
    value = cf_eval(tv)
    expected = cf_eval_recursive(tv)
    if expected is None:
        assert value.is_infinite
    else:
        assert Fraction(value.num, value.den) == expected


@given(twist_vectors)
def test_eval_matches_continuant_oracle(tv):
    assert frozen(cf_eval(tv)) == continuant_pair(tv)


def test_eval_oracle_equivalence_bulk():
    rng = random.Random(20240811)
    for _ in range(10_000):
        tv = [rng.randint(-9, 9) for _ in range(rng.randint(0, 8))]
        value = cf_eval(tv)
        expected = cf_eval_recursive(tv)
        if expected is None:
            assert value.is_infinite
        else:
            assert Fraction(value.num, value.den) == expected
        assert frozen(value) == continuant_pair(tv)


def test_eval_long_vectors_match_recursive_oracle():
    # lengths of the long_twists benchmark workload, including zero entries
    # so that projective infinities occur mid-vector
    rng = random.Random(20261017)
    for _ in range(200):
        tv = [rng.randint(-9, 9) for _ in range(rng.randint(16, 256))]
        value = cf_eval(tv)
        expected = cf_eval_recursive(tv)
        if expected is None:
            assert value.is_infinite
        else:
            assert Fraction(value.num, value.den) == expected


@given(twist_vectors)
def test_eval_mirror_negates(tv):
    assert cf_eval([-a for a in tv]) == -cf_eval(tv)


# ---------------------------------------------------------------------------
# Expansion

def test_expand_zero():
    assert cf_expand(ExtFraction(0, 1)) == (0,)


def test_expand_one_half_round_trips():
    tv = cf_expand(ExtFraction(1, 2))
    assert cf_eval(tv) == ExtFraction(1, 2)


def test_expand_seven_halves_round_trips():
    assert cf_eval(cf_expand(ExtFraction(7, 2))) == ExtFraction(7, 2)


def test_expand_rejects_infinity():
    with pytest.raises(InfiniteSlope):
        cf_expand(ExtFraction(1, 0))


@given(st.integers(-9999, 9999), st.integers(1, 9999))
def test_expand_round_trip_and_canonical_digits(p, q):
    f = ExtFraction(p, q)
    tv = cf_expand(f)
    assert cf_eval(tv) == f
    # every entry except the final (outermost) one is nonzero
    assert all(a != 0 for a in tv[:-1])


@given(twist_vectors)
def test_eval_expand_fixpoint(tv):
    value = cf_eval(tv)
    if value.is_infinite:
        return
    assert cf_eval(cf_expand(value)) == value


# ---------------------------------------------------------------------------
# Slope normalization and mod-Z comparison

def test_normalize_subtracts_integers():
    assert frozen(slope_normalize(ExtFraction(5, 2))) == (1, 2)


def test_normalize_half_open_boundary():
    assert frozen(slope_normalize(ExtFraction(-1, 2))) == (1, 2)


def test_normalize_already_canonical():
    assert frozen(slope_normalize(ExtFraction(-3, 8))) == (-3, 8)


def test_normalize_rejects_infinity():
    with pytest.raises(InfiniteSlope):
        slope_normalize(ExtFraction(1, 0))


@given(st.integers(-9999, 9999), st.integers(1, 999))
def test_normalize_idempotent_in_range_and_congruent(p, q):
    f = ExtFraction(p, q)
    s = slope_normalize(f)
    assert slope_normalize(s) == s
    assert -s.den < 2 * s.num <= s.den  # -1/2 < s <= 1/2
    assert mod_z_equal(f, s)


def test_mod_z_examples():
    assert mod_z_equal(ExtFraction(5, 2), ExtFraction(1, 2))
    assert not mod_z_equal(ExtFraction(1, 3), ExtFraction(-1, 3))
    assert mod_z_equal(ExtFraction(-3, 8), ExtFraction(5, 8))


def test_mod_z_rejects_infinity():
    with pytest.raises(InfiniteSlope):
        mod_z_equal(ExtFraction(1, 0), ExtFraction(1, 2))


# ---------------------------------------------------------------------------
# Palindrome numerators

def test_palindrome_two_entries():
    # [2,3] = 7/2 and [3,2] = 7/3
    assert palindrome_numerators([2, 3]) == (7, 7)


def test_palindrome_singleton():
    assert palindrome_numerators([5]) == (5, 5)


def test_palindrome_rejects_infinite_order():
    with pytest.raises(InfiniteValue):
        palindrome_numerators([0, 0])


@given(twist_vectors)
def test_palindrome_equal_components(tv):
    forward = cf_eval(tv)
    backward = cf_eval(list(reversed(tv)))
    if forward.is_infinite or backward.is_infinite:
        return
    a, b = palindrome_numerators(tv)
    assert a == b
    # cross-check against the continuant oracle on both orders
    assert a == abs(continuant_pair(tv)[0])
    assert b == abs(continuant_pair(list(reversed(tv)))[0])


# ---------------------------------------------------------------------------
# Parsing and formatting

def test_parse_fraction_forms():
    assert parse_fraction("7/2") == ExtFraction(7, 2)
    assert parse_fraction("-3/8") == ExtFraction(-3, 8)
    assert parse_fraction("5") == ExtFraction(5, 1)


def test_str_forms():
    assert str(ExtFraction(7, 2)) == "7/2"
    assert str(ExtFraction(0, 1)) == "0"
    assert str(ExtFraction(5, 1)) == "5"
    assert str(ExtFraction(1, 0)) == "inf"


@settings(max_examples=200)
@given(twist_vectors)
def test_all_produced_fractions_canonical(tv):
    value = cf_eval(tv)
    assert value.is_canonical()
    if not value.is_infinite:
        assert slope_normalize(value).is_canonical()
        assert cf_eval(cf_expand(value)).is_canonical()


@settings(max_examples=50)
@given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=64))
def test_desk_scale_vectors_stay_exact(tv):
    # entries up to 10^3 and length up to 64 must evaluate exactly
    value = cf_eval(tv)
    expected = cf_eval_recursive(tv)
    if expected is None:
        assert value.is_infinite
    else:
        assert Fraction(value.num, value.den) == expected
        assert cf_eval(cf_expand(value)) == value


@pytest.mark.parametrize("text", [" 7/2", "7/2 ", "+7/2", "1_0/3", "\u0667/\u0662", "1/-3"])
def test_parse_fraction_reads_only_ascii_digits_and_a_leading_minus(text):
    # int() reads each part of every one of these
    with pytest.raises(ValueError, match=r'is not "p/q" or "p" in ASCII digits'):
        parse_fraction(text)
