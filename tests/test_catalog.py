"""Golden reproduction of the built-in handlebody-knot table."""

from __future__ import annotations

import pytest

from tritangle import (
    AnnulusCount,
    Decomposition,
    RationalPresentation,
    RhoDescriptor,
    TauDescriptor,
    UnknownName,
    catalog_entries,
    catalog_get,
    catalog_names,
    catalog_verify,
    classify,
)
from tritangle.catalog import DERIVED, OBSTRUCTION, STORED
from tritangle.verdict import INFINITELY_MANY

HYPERBOLIC_NAMES = (
    "5_3", "6_2", "6_3", "6_5", "6_6", "6_7", "6_9",
    "7_17", "7_18", "7_21", "7_23", "7_26", "7_27", "7_33", "7_37", "7_57", "7_58",
)


def test_names_cover_the_table():
    names = set(catalog_names())
    assert set(HYPERBOLIC_NAMES) <= names
    assert {"4_1", "5_2", "6_8", "non_3_decomposable"} <= names


def test_no_name_is_a_count_of_the_verify_report():
    # the report's record puts its counts beside the entry names, under these two keys
    assert not {"checked", "mismatches"} & set(catalog_names())


def test_get_six_nine():
    entry = catalog_get("6_9")
    assert entry.provenance == DERIVED
    assert entry.decomposition.kind == "taurho"
    assert entry.expected.hyperbolic is True


def test_get_four_one():
    entry = catalog_get("4_1")
    assert entry.decomposition.kind == "tautau"
    assert entry.decomposition.special is True
    assert entry.expected.annulus_count == AnnulusCount(3)


def test_get_five_two():
    entry = catalog_get("5_2")
    assert entry.expected.annulus_count == INFINITELY_MANY


def test_get_six_eight_is_stored_fact():
    entry = catalog_get("6_8")
    assert entry.provenance == STORED
    assert entry.decomposition is None
    assert entry.expected.hyperbolic is True


def test_get_obstruction_entry():
    entry = catalog_get("non_3_decomposable")
    assert entry.provenance == OBSTRUCTION
    assert entry.profile is not None


def test_get_unknown_name():
    with pytest.raises(UnknownName):
        catalog_get("bogus")


def test_verify_no_mismatches():
    report = catalog_verify()
    assert report.mismatches == 0
    assert report.ok
    # every entry except the stored fact is actually checked
    assert report.checked == len(catalog_entries()) - 1


def test_verify_expected_verdict_values():
    for name in HYPERBOLIC_NAMES:
        entry = catalog_get(name)
        assert entry.expected.hyperbolic is True, name
        verdict = classify(entry.decomposition)
        assert verdict.hyperbolic is True, name
    assert classify(catalog_get("4_1").decomposition).annulus_count == AnnulusCount(3)
    assert classify(catalog_get("5_2").decomposition).annulus_count.is_infinite


def test_verify_detects_fault_injection():
    # corrupt 5_2's first slope from 1/3 to 1/5 and expect exactly one mismatch
    entries = []
    for entry in catalog_entries():
        if entry.name == "5_2":
            corrupted = entry._replace(
                decomposition=Decomposition(
                    kind="tautau", special=True,
                    first=TauDescriptor(RationalPresentation((5, 0))),
                    second=entry.decomposition.second))
            entries.append(corrupted)
        else:
            entries.append(entry)
    report = catalog_verify(entries)
    assert report.mismatches == 1
    bad = [row for row in report.rows if row.passed is False]
    assert bad[0].name == "5_2"


def test_verify_seven_crossing_subset():
    entries = [e for e in catalog_entries() if e.name.startswith("7_")]
    assert len(entries) == 10
    report = catalog_verify(entries)
    assert report.ok
    assert report.checked == 10
    for entry in entries:
        assert entry.expected.hyperbolic is True


def test_branch_recorded_for_every_derived_entry():
    for entry in catalog_entries():
        if entry.provenance == DERIVED:
            assert entry.expected.branch


def test_rho_twist_vectors_have_the_documented_slopes():
    from tritangle import ExtFraction, cf_eval, slope_normalize

    six_nine = catalog_get("6_9").decomposition.second.presentation
    assert slope_normalize(cf_eval(six_nine.twists)) == ExtFraction(-3, 8)
    seven_26 = catalog_get("7_26").decomposition.second.presentation
    assert slope_normalize(cf_eval(seven_26.twists)) == ExtFraction(-3, 10)
    seven_37 = catalog_get("7_37").decomposition.second.presentation
    assert slope_normalize(cf_eval(seven_37.twists)) == ExtFraction(-3, 8)


def test_verify_classifies_each_distinct_decomposition_once(monkeypatch):
    import tritangle.catalog

    calls = []

    def counted(decomposition):
        calls.append(decomposition)
        return classify(decomposition)

    monkeypatch.setattr(tritangle.catalog, "classify", counted)
    assert catalog_verify().ok
    assert len(calls) == 6
    assert len(set(calls)) == 6


def test_a_corrupted_decomposition_fails_alone_beside_an_entry_that_shared_it():
    # 6_9 and 7_37 share one decomposition; give 6_9 a Hopf tangle (slope 1/2) as its rho side
    entries = [entry._replace(decomposition=entry.decomposition._replace(
                   second=RhoDescriptor(RationalPresentation((2, 0)))))
               if entry.name == "6_9" else entry for entry in catalog_entries()]
    report = catalog_verify(entries)
    assert [row.name for row in report.rows if row.passed is False] == ["6_9"]
    assert {row.name: row.passed for row in report.rows}["7_37"] is True
    assert report.checked == 20


def test_verify_reports_entries_in_the_order_given():
    forward = catalog_verify().rows
    assert catalog_verify(list(reversed(catalog_entries()))).rows == forward[::-1]
