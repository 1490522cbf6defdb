"""Records the hot paths build in C (``tuple.__new__``) keep their class's exact shape.

``jsonio.parse_decomposition`` (``Decomposition``), ``tangle._profile`` (``ResolvedTangle``),
``verdict.side_facts`` (``SideFacts``), ``verdict._render`` (``Verdict``) and ``run_census``
(``CensusRow``) build their records without the generated ``__new__``, which would refuse a
dropped or added field.  Every record met over the catalog decompositions, their mirrors,
2,000 seeded generated documents and the census tables is checked here: exactly its class,
one value per field, equal to the record its class's constructor builds from its fields,
and each field of a pinned type.  Each of the ten record classes keeps its fields and
defaults, and its instances have no ``__dict__``, so none takes a new attribute.
"""

from __future__ import annotations

import json
import math
import random

import pytest

from tritangle import (
    AnnulusCount,
    CensusRow,
    Decomposition,
    ExtFraction,
    ResolvedTangle,
    RhoDescriptor,
    TauDescriptor,
    TorusParams,
    Verdict,
    catalog_entries,
    census,
    classify,
    dumps_decomposition,
    loads_decomposition,
    mirror_decomposition,
    run_census,
    verdict,
)
from tritangle.annuli import AnnulusType
from tritangle.catalog import CatalogEntry, CatalogReport, ExpectedVerdict, ReportRow, \
    catalog_get, catalog_verify
from tritangle.tangle import Violation
from tritangle.verdict import Clause, SideFacts

NONE = type(None)


def one_of(*types):
    return lambda value: type(value) in types


def tuple_of(cls):
    return lambda value: type(value) is tuple and all(type(item) is cls for item in value)


SIDE = one_of(TauDescriptor, RhoDescriptor)
FLAG = one_of(bool)
MAYBE_FLAG = one_of(bool, NONE)

#: Each record class and the type rule of each of its fields, in field order.
FIELD_TYPES = {
    Decomposition: {"kind": one_of(str), "special": FLAG, "first": SIDE, "second": SIDE},
    ResolvedTangle: {
        "kind": one_of(str), "atoroidal": FLAG, "trivial": FLAG, "essential": FLAG,
        "satellite": FLAG, "cable": FLAG, "hopf_summand": FLAG, "hopf_tangle": FLAG,
        "provenance": tuple_of(str), "rational": MAYBE_FLAG, "slope": one_of(ExtFraction, NONE),
        "unit_fraction_slope": MAYBE_FLAG, "torus": one_of(TorusParams, NONE)},
    SideFacts: {"unit": one_of(int, str, NONE), "annulus": one_of(AnnulusType, NONE),
                "p": one_of(int, NONE)},
    Verdict: {"status": one_of(str), "annulus_count": one_of(AnnulusCount, NONE),
              "hyperbolic": MAYBE_FLAG, "branch": one_of(str, NONE), "annuli": tuple_of(str),
              "notes": tuple_of(str), "violations": tuple_of(Violation)},
    CensusRow: {"m": one_of(int), "n": one_of(int), "branch": one_of(str),
                "count": one_of(str)},
}


def assert_record_shape(record):
    cls = type(record)
    assert cls in FIELD_TYPES, f"{cls.__name__} is not a record class built here"
    assert tuple(FIELD_TYPES[cls]) == cls._fields
    assert len(record) == len(cls._fields), record
    assert record == cls(**record._asdict())
    for name, rule in FIELD_TYPES[cls].items():
        assert rule(getattr(record, name)), (cls.__name__, name, getattr(record, name))
    if cls is Verdict and record.status == verdict.CLASSIFIED:
        assert type(record.hyperbolic) is bool
        assert type(record.annulus_count) is AnnulusCount


# ---------------------------------------------------------------------------
# Seeded documents: every presentation, both specialnesses, each kind's side kinds and
# sometimes the wrong ones, biased to the slopes and torus parameters the branches read


def _tau(rng: random.Random) -> dict:
    if rng.random() < 0.75:
        if rng.random() < 0.6:  # twist vector (m, 0) evaluates to 1/m
            twists = [rng.choice((3, -3, 3, -3, 5, -5, 7, -9, 1, 2)), 0]
        else:
            twists = [rng.randint(-6, 6) for _ in range(rng.randint(0, 4))]
        return {"kind": "tau", "presentation": {"rational": {"twists": twists}}}
    flags = {"atoroidal": rng.random() < 0.9, "trivial": rng.random() < 0.1,
             "rational": rng.random() < 0.7}
    if flags["rational"] and rng.random() < 0.6:
        flags["slope"] = rng.choice(("1/3", "-1/3", "1/5", "-1/7", "2/7", "0", "1/0"))
    if rng.random() < 0.3:
        flags["unit_fraction_slope"] = rng.random() < 0.5
    return {"kind": "tau", "presentation": {"abstract": flags}}


def _rho(rng: random.Random) -> dict:
    roll = rng.random()
    if roll < 0.35:  # (2k, 0) evaluates to 1/(2k): a torus arc for k >= 2, Hopf for k = 1
        twists = ([rng.choice((2, 4, -4, 6, 8)), 0] if rng.random() < 0.7
                  else [rng.randint(-6, 6) for _ in range(rng.randint(0, 4))])
        return {"kind": "rho", "presentation": {"rational": {"twists": twists}}}
    if roll < 0.7:
        p = rng.randint(2, 6)
        q = rng.choice([q for q in range(-7, 8) if math.gcd(p, q) == 1])
        return {"kind": "rho", "presentation": {"torus_rho": {"p": p, "q": q}}}
    flags = {"atoroidal": rng.random() < 0.9, "trivial": rng.random() < 0.1}
    extra = rng.choice(("satellite", "cable", "hopf_summand", "hopf_tangle", "torus", None))
    if extra == "torus":
        flags["torus"] = {"p": rng.randint(2, 5), "q": rng.choice((1, -1))}
    elif extra is not None:
        flags[extra] = True
    return {"kind": "rho", "presentation": {"abstract": flags}}


_SIDES = {"tautau": (_tau, _tau), "taurho": (_tau, _rho), "rhorho": (_rho, _rho)}


def generated_documents(seed: int, count: int) -> list[str]:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        kind = rng.choice(tuple(_SIDES))
        first, second = _SIDES[kind]
        if rng.random() < 0.05:  # the wrong side kinds: inadmissible
            first, second = second, first
        special = rng.random() < (0.1 if kind == "rhorho" else 0.7)
        out.append(json.dumps({"type": kind, "special": special,
                               "tangles": [first(rng), second(rng)]}))
    return out


@pytest.fixture
def recorded(monkeypatch):
    """Every record ``examine`` and ``side_facts`` return on the classify and census paths."""
    records = []

    def recording(function, record):
        def recorded_call(argument):
            result = function(argument)
            records.append(record(result))
            return result
        return recorded_call

    for module in (verdict, census):
        monkeypatch.setattr(module, "side_facts", recording(module.side_facts, lambda r: r))
        # examine returns (profile or None, violations)
        monkeypatch.setattr(module, "examine", recording(module.examine, lambda r: r[0]))
    return records


def test_records_of_the_classify_and_census_paths_keep_their_shape(recorded):
    decompositions = [d for entry in catalog_entries() if entry.decomposition is not None
                      for d in (entry.decomposition, mirror_decomposition(entry.decomposition))]
    # each catalog decomposition and mirror also as the parser builds it from its document
    texts = [dumps_decomposition(d) for d in decompositions] + generated_documents(2517, 2000)
    decompositions += [loads_decomposition(text) for text in texts]
    verdicts = [classify(d) for d in decompositions]
    rows = [row for kind in verdict.KINDS for row in run_census(kind, 9)]
    records = decompositions + verdicts + rows + [r for r in recorded if r is not None]
    for record in records:
        assert_record_shape(record)
    # every class was met, and the documents reached every branch and status
    assert {type(record) for record in records} == set(FIELD_TYPES)
    assert {v.status for v in verdicts} == {verdict.CLASSIFIED, verdict.INADMISSIBLE,
                                            verdict.TOROIDAL}
    branches = {v.branch for v in verdicts} - {None}
    assert len(branches) == 12, sorted(branches)


def test_each_verdict_built_at_import_keeps_its_shape():
    # the one verdict of each clause whose texts read no field, shared by every call
    built = list(verdict._FIXED.values())
    assert len(built) == 5
    for record in built:
        assert_record_shape(record)


def test_a_record_with_a_field_dropped_or_added_is_refused():
    good = classify(catalog_entries()[0].decomposition)
    assert_record_shape(good)
    for bad in (tuple.__new__(Verdict, tuple(good)[:-1]),
                tuple.__new__(Verdict, tuple(good) + ((),)),
                tuple.__new__(Verdict, tuple(good)[:2] + (1,) + tuple(good)[3:])):
        with pytest.raises(AssertionError):
            assert_record_shape(bad)


# ---------------------------------------------------------------------------
# Every record class: its fields and defaults, and instances that take no new attribute

#: Each record class's fields in order, then its defaults by field.
RECORDS = {
    ResolvedTangle: (("kind", "atoroidal", "trivial", "essential", "satellite", "cable",
                      "hopf_summand", "hopf_tangle", "provenance", "rational", "slope",
                      "unit_fraction_slope", "torus"),
                     {"satellite": False, "cable": False, "hopf_summand": False,
                      "hopf_tangle": False, "provenance": (), "rational": None, "slope": None,
                      "unit_fraction_slope": None, "torus": None}),
    Decomposition: (("kind", "special", "first", "second"), {}),
    Verdict: (("status", "annulus_count", "hyperbolic", "branch", "annuli", "notes",
               "violations"),
              {"annulus_count": None, "hyperbolic": None, "branch": None, "annuli": (),
               "notes": (), "violations": ()}),
    SideFacts: (("unit", "annulus", "p"), {}),
    Clause: (("branch", "count", "annuli", "note"), {}),
    CensusRow: (("m", "n", "branch", "count"), {}),
    ExpectedVerdict: (("annulus_count", "branch"), {}),
    CatalogEntry: (("name", "source", "decomposition", "expected", "profile",
                    "expected_obstructions"),
                   {"decomposition": None, "expected": None, "profile": None,
                    "expected_obstructions": ()}),
    ReportRow: (("name", "passed", "expected", "actual"), {}),
    CatalogReport: (("rows",), {}),
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_class_keeps_its_fields_and_defaults(cls):
    fields, defaults = RECORDS[cls]
    assert cls._fields == fields
    assert cls._field_defaults == defaults


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_has_no_instance_dict_and_takes_no_new_attribute(cls):
    record = cls(*[None] * len(cls._fields))
    assert cls.__dictoffset__ == 0
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        record.no_such_field = 1
    with pytest.raises(AttributeError):
        setattr(record, cls._fields[0], 1)


def test_catalog_record_reprs():
    entry = catalog_get("6_8")
    assert repr(entry) == (
        "CatalogEntry(name='6_8', source='hyperbolic by an involution argument; no "
        "3-decomposition data', decomposition=None, expected=ExpectedVerdict("
        "annulus_count=AnnulusCount(value=0), branch=None), profile=None, "
        "expected_obstructions=())")
    report = catalog_verify([entry, catalog_get("4_1")])
    row = ("ReportRow(name='4_1', passed=True, expected='3 essential annuli [tautau (ii)]', "
           "actual='3 essential annuli [tautau (ii)]')")
    assert repr(report.rows[1]) == row
    assert repr(report) == (
        "CatalogReport(rows=(ReportRow(name='6_8', passed=None, expected='hyperbolic', "
        "actual='stored fact (not re-derived)'), " + row + "))")
