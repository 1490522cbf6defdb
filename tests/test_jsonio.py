"""Strict JSON parsing and round-trip stability of decomposition documents."""

from __future__ import annotations

import enum
import json
import math
import sys
import time

import pytest

from tritangle import (
    AbstractRho,
    AbstractTau,
    Decomposition,
    DocumentError,
    ExtFraction,
    RationalPresentation,
    RhoDescriptor,
    SlopeTooLarge,
    TauDescriptor,
    TorusParams,
    TorusRhoPresentation,
    catalog_entries,
    catalog_get,
    classify,
    dumps_decomposition,
    loads_decomposition,
    loads_tangle,
    mirror_decomposition,
    mirror_descriptor,
    parse_decomposition,
    parse_tangle,
    serialize_decomposition,
    serialize_tangle,
)
from tritangle.frac import MAX_STR_DIGITS

GOOD_DOC = {
    "type": "taurho",
    "special": True,
    "tangles": [
        {"kind": "tau", "presentation": {"rational": {"twists": [3, 0]}}},
        {"kind": "rho", "presentation": {"torus_rho": {"p": 2, "q": 3}}},
    ],
}


def test_parse_good_document():
    d = parse_decomposition(GOOD_DOC)
    assert d.kind == "taurho" and d.special
    assert isinstance(d.first, TauDescriptor)
    assert isinstance(d.first.presentation, RationalPresentation)
    assert d.first.presentation.twists == (3, 0)
    assert isinstance(d.second.presentation, TorusRhoPresentation)
    assert d.second.presentation.params == TorusParams(2, 3)


def test_parse_abstract_tau_with_slope_string():
    doc = {"kind": "tau", "presentation": {"abstract": {
        "atoroidal": True, "trivial": False, "rational": True, "slope": "-3/8",
        "unit_fraction_slope": False}}}
    d = parse_tangle(doc)
    assert d.presentation.slope == ExtFraction(-3, 8)


def test_parse_abstract_rho_with_torus():
    doc = {"kind": "rho", "presentation": {"abstract": {
        "atoroidal": True, "trivial": False, "torus": {"p": -3, "q": -2}}}}
    d = parse_tangle(doc)
    assert d.presentation.torus == TorusParams(3, 2)  # canonicalized


def test_unknown_top_level_field_rejected():
    doc = dict(GOOD_DOC, extra=1)
    with pytest.raises(DocumentError) as err:
        parse_decomposition(doc)
    assert "extra" in str(err.value)


def test_unknown_flag_rejected_with_path():
    doc = {"kind": "rho", "presentation": {"abstract": {
        "atoroidal": True, "trivial": False, "satelite": True}}}
    with pytest.raises(DocumentError) as err:
        parse_tangle(doc, "tangles[1]")
    assert "satelite" in str(err.value)
    assert "tangles[1]" in str(err.value)


@pytest.mark.parametrize("name", ["x\ny", "x\u2028y"], ids=["newline", "line-separator"])
@pytest.mark.parametrize("where, error", [
    ("field", "document.{!r}: unknown field"),
    ("variant", "document.tangles[0].presentation.{!r}: unknown presentation variant"),
], ids=["field", "variant"])
def test_a_refused_name_with_a_line_break_is_one_error_line(tmp_path, capsys, name, where,
                                                           error):
    from tritangle.cli import main
    doc = json.loads(json.dumps(GOOD_DOC))
    if where == "field":
        doc[name] = 1
    else:
        doc["tangles"][0]["presentation"] = {name: {}}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["classify", str(path)]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {error.format(name)}\n")
    assert len(err.splitlines()) == 1  # str.splitlines also breaks at U+2028


def test_boolean_strictness():
    doc = {"kind": "tau", "presentation": {"abstract": {
        "atoroidal": 1, "trivial": False, "rational": True}}}
    with pytest.raises(DocumentError):
        parse_tangle(doc)


# the smallest valid abstract body of each kind
_ABSTRACT_BODY = {AbstractTau: ("tau", {"atoroidal": True, "trivial": False, "rational": True}),
                  AbstractRho: ("rho", {"atoroidal": True, "trivial": False})}


def _abstract(cls, **flags) -> dict:
    kind, body = _ABSTRACT_BODY[cls]
    return {"kind": kind, "presentation": {"abstract": body | flags}}


def test_null_unit_fraction_slope_is_refused_although_the_class_reads_it_as_unstated():
    assert AbstractTau(True, False, True, unit_fraction_slope=None).unit_fraction_slope is None
    text = json.dumps(_abstract(AbstractTau, unit_fraction_slope=None))
    assert '"unit_fraction_slope": null' in text
    with pytest.raises(DocumentError) as err:
        loads_tangle(text)
    assert str(err.value) == \
        "tangle.presentation.abstract.unit_fraction_slope: expected a boolean"


@pytest.mark.parametrize("cls, name", [
    (cls, name) for cls in (AbstractTau, AbstractRho)
    for name, allowed in zip(cls.__slots__, cls._types) if bool in allowed])
@pytest.mark.parametrize("value", ["1", '"true"', "null"])
def test_each_boolean_flag_of_another_type_is_refused_at_its_own_path(cls, name, value):
    text = json.dumps(_abstract(cls, **{name: False})).replace(
        f'"{name}": false', f'"{name}": {value}')
    with pytest.raises(DocumentError) as err:
        loads_tangle(text)
    assert str(err.value) == f"tangle.presentation.abstract.{name}: expected a boolean"


@pytest.mark.parametrize("cls, flags, error", [
    # slope and torus are read first, then the class checks the flags' types
    (AbstractTau, {"atoroidal": 1, "slope": "x/2"},
     """slope: not a valid fraction: 'x/2' is not "p/q" or "p" in ASCII digits"""),
    (AbstractTau, {"trivial": "no", "slope": 3}, 'slope: expected a "p/q" string'),
    (AbstractRho, {"cable": 1, "torus": {"p": 1, "q": 1}},
     "torus: torus parameter p must be >= 2, got (1, 1)"),
    (AbstractRho, {"atoroidal": None, "torus": {"p": "2", "q": 3}},
     "torus.p: expected an integer"),
    # the class names the first flag in its field order, whatever the body's order
    (AbstractTau, {"rational": 0, "atoroidal": "yes"}, "atoroidal: expected a boolean"),
    # null is refused after the class has checked the flags' types
    (AbstractTau, {"atoroidal": 1, "unit_fraction_slope": None}, "atoroidal: expected a boolean"),
    (AbstractTau, {"slope": "0/0", "unit_fraction_slope": None},
     "slope: not a valid fraction: 0/0 is not a projective rational"),
], ids=["bool-and-slope-text", "bool-and-slope-type", "bool-and-torus-value",
        "null-bool-and-torus-type", "field-order", "bool-and-null", "slope-and-null"])
def test_a_body_with_several_faults_reports_codecs_then_class_then_null(cls, flags, error):
    with pytest.raises(DocumentError) as err:
        parse_tangle(_abstract(cls, **flags))
    assert str(err.value) == f"tangle.presentation.abstract.{error}"


@pytest.mark.parametrize("presentation, path, message", [
    ({"torus_rho": {"p": True, "q": 3}}, "torus_rho.p", "expected an integer"),
    ({"torus_rho": {"p": "2", "q": 3}}, "torus_rho.p", "expected an integer"),
    ({"rational": {"twists": {}}}, "rational.twists", "expected a list of integers"),
])
def test_torus_parameters_and_twists_must_have_their_json_types(presentation, path, message):
    with pytest.raises(DocumentError) as err:
        parse_tangle({"kind": "rho", "presentation": presentation})
    assert str(err.value) == f"tangle.presentation.{path}: {message}"


@pytest.mark.parametrize("slope, message", [
    (3, 'expected a "p/q" string'),
    ("0/0", "not a valid fraction: 0/0 is not a projective rational"),
    ("x/2", """not a valid fraction: 'x/2' is not "p/q" or "p" in ASCII digits"""),
    # int() reads each of these, a slope holds only ASCII digits, one "/" and a leading "-"
    *((text, f'not a valid fraction: {text!r} is not "p/q" or "p" in ASCII digits')
      for text in ("\u0661/\u0663", "1_0/3", " 1/3 ", "+1/3", "1/-3", "\uff11")),
])
def test_abstract_slope_must_be_a_fraction_string(slope, message):
    doc = {"kind": "tau", "presentation": {"abstract": {
        "atoroidal": True, "trivial": False, "rational": True, "slope": slope}}}
    with pytest.raises(DocumentError) as err:
        parse_tangle(doc)
    assert str(err.value) == f"tangle.presentation.abstract.slope: {message}"


@pytest.mark.parametrize("text, slope", [
    ("6/9", ExtFraction(2, 3)), ("-4/6", ExtFraction(-2, 3)), ("5", ExtFraction(5)),
    ("007/3", ExtFraction(7, 3)), ("1/0", ExtFraction(1, 0)),
])
def test_unreduced_and_integer_slopes_are_read(text, slope):
    doc = {"kind": "tau", "presentation": {"abstract": {
        "atoroidal": True, "trivial": False, "rational": True, "slope": text}}}
    assert parse_tangle(doc).presentation.slope == slope


def test_twists_must_be_integers():
    doc = {"kind": "tau", "presentation": {"rational": {"twists": [3, 0.5]}}}
    with pytest.raises(DocumentError):
        parse_tangle(doc)


@pytest.mark.parametrize("twists, bad", [("[3, 0.5]", 1), ("[true]", 0), ('[1, 2, "x"]', 2)])
def test_bad_twist_entry_is_named_by_its_index(twists, bad):
    text = '{"kind": "tau", "presentation": {"rational": {"twists": %s}}}' % twists
    with pytest.raises(DocumentError) as err:
        loads_tangle(text)
    assert err.value.path == f"tangle.presentation.rational.twists[{bad}]"


@pytest.mark.parametrize("text, key", [
    # the last value would forge a satellite rho side
    ('{"type": "taurho", "special": false, "tangles": ['
     '{"kind": "tau", "presentation": {"rational": {"twists": [3, 0]}}}, '
     '{"kind": "rho", "presentation": {"abstract": {"atoroidal": true, "trivial": false, '
     '"satellite": false, "satellite": true}}}]}', "satellite"),
    # a repeated variant would pass the one-variant check
    ('{"type": "tautau", "special": true, "tangles": ['
     '{"kind": "tau", "presentation": {"rational": {"twists": [3, 0]}, '
     '"rational": {"twists": [5, 0]}}}, '
     '{"kind": "tau", "presentation": {"rational": {"twists": [3, 0]}}}]}',
     "rational"),
], ids=["flag", "variant"])
def test_duplicate_field_rejected(text, key):
    with pytest.raises(DocumentError) as err:
        loads_decomposition(text)
    assert repr(key) in str(err.value)
    assert "more than once" in str(err.value)


def test_duplicate_field_rejected_on_every_call_through_the_shared_decoder():
    good = json.dumps(GOOD_DOC)
    dup = good.replace('"special": true', '"special": false, "special": true')
    for _ in range(2):
        assert loads_decomposition(good) == parse_decomposition(GOOD_DOC)
        with pytest.raises(DocumentError, match="'special'"):
            loads_decomposition(dup)


_DOC_TEXT = json.dumps({"type": "tautau", "special": True, "tangles": [
    {"kind": "tau", "presentation": {"rational": {"twists": [3, 0]}}},
    {"kind": "tau", "presentation": {"rational": {"twists": [-3, 0]}}}]})
_TANGLE_TEXT = json.dumps(GOOD_DOC["tangles"][0])


# A text whose value starts at index 0 and ends at its end is decoded by the C scanner alone;
# any other is decoded by JSONDecoder.decode, which accepts whitespace around the value and
# refuses in its own words, with the positions these pin.
@pytest.mark.parametrize("load, text, value", [
    (loads_decomposition, _DOC_TEXT, "document"), (loads_tangle, _TANGLE_TEXT, "tangle")],
    ids=["document", "tangle"])
@pytest.mark.parametrize("case, expected", [
    ("  {}", None), ("{}  ", None), ("{}\n", None),
    ("{} {}", "line 1, column {column}: Extra data"),
    ("", "line 1, column 1: Expecting value"),
    (" \t\n", "line 2, column 1: Expecting value"),
    ("\ufeff", "line 1, column 1: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
    ("3", "{value}: expected an object, got int"),
    ("}{}", "line 1, column 1: Expecting value"),
], ids=["leading-spaces", "trailing-spaces", "trailing-newline", "extra-data", "empty",
        "whitespace-only", "lone-bom", "bare-scalar", "fault-at-column-1"])
def test_the_scanner_first_decode_reads_as_decode(load, text, value, case, expected):
    text = case.replace("{}", text, 1)
    if expected is None:
        assert load(text) == load(text.strip())
        return
    with pytest.raises(DocumentError) as err:
        load(text)
    # "Extra data" is at the column after the value and the space that follows it
    assert str(err.value) == expected.format(column=len(text) - 1, value=value)


def test_byte_order_mark_rejected():
    for load, doc in ((loads_decomposition, GOOD_DOC), (loads_tangle, GOOD_DOC["tangles"][0])):
        with pytest.raises(DocumentError, match="Unexpected UTF-8 BOM") as err:
            load("\ufeff" + json.dumps(doc))
        assert err.value.path == "line 1, column 1"


def test_torus_rho_under_tau_kind_rejected():
    doc = {"kind": "tau", "presentation": {"torus_rho": {"p": 2, "q": 3}}}
    with pytest.raises(DocumentError):
        parse_tangle(doc)


def test_exactly_one_presentation_required():
    doc = {"kind": "tau", "presentation": {
        "rational": {"twists": [3, 0]},
        "abstract": {"atoroidal": True, "trivial": False, "rational": True}}}
    with pytest.raises(DocumentError):
        parse_tangle(doc)


def test_invalid_torus_parameters_rejected_at_parse():
    doc = {"kind": "rho", "presentation": {"torus_rho": {"p": 1, "q": 1}}}
    with pytest.raises(DocumentError):
        parse_tangle(doc)


def test_tangles_must_be_a_pair():
    doc = dict(GOOD_DOC, tangles=GOOD_DOC["tangles"][:1])
    with pytest.raises(DocumentError):
        parse_decomposition(doc)


def test_json_syntax_error_carries_position():
    with pytest.raises(DocumentError) as err:
        loads_decomposition('{"type": "tautau",}')
    assert "line" in str(err.value)


def test_integer_past_digit_limit_is_a_document_error():
    # json.loads raises a plain ValueError past the int-string digit limit
    big = "7" * 4400
    doc = json.dumps(GOOD_DOC).replace("[3, 0]", f"[{big}, 0]")
    with pytest.raises(DocumentError):
        loads_decomposition(doc)
    with pytest.raises(DocumentError):
        loads_tangle(f'{{"kind": "tau", "presentation": {{"rational": {{"twists": [{big}]}}}}}}')


def test_integer_digit_limit_edge():
    limit = sys.get_int_max_str_digits()
    doc = '{"kind": "tau", "presentation": {"rational": {"twists": [%s, 0]}}}'
    assert loads_tangle(doc % ("7" * limit)).presentation.twists[0] == int("7" * limit)
    with pytest.raises(DocumentError) as err:
        loads_tangle(doc % ("7" * (limit + 1)))
    assert err.value.path == "tangle"


def test_nesting_within_and_past_the_recursion_limit():
    shallow = sys.getrecursionlimit() // 4
    deep = sys.getrecursionlimit() + 1
    with pytest.raises(DocumentError) as err:
        loads_tangle("[" * shallow + "]" * shallow)
    assert "expected an object" in str(err.value)  # decoded, then refused by the schema
    with pytest.raises(DocumentError) as err:
        loads_tangle("[" * deep + "]" * deep)
    assert "nested too deeply" in str(err.value)


def test_decoder_refuses_a_very_deep_document_before_the_nesting_scan(monkeypatch):
    # decoding comes first, so a hostile document far past the recursion limit ends in the
    # decoder's RecursionError and never pays for the bracket scan
    from tritangle import jsonio

    def no_scan(text, path):
        raise AssertionError("the nesting scan ran")

    monkeypatch.setattr(jsonio, "_refuse_deep_nesting", no_scan)
    with pytest.raises(DocumentError, match="^tangle: arrays or objects nested too deeply$"):
        loads_tangle("[" * 100_000 + "]" * 100_000)


def test_nesting_bound_is_fixed_and_skips_string_literals():
    from tritangle.jsonio import MAX_DEPTH

    at_bound = "[" * MAX_DEPTH + "]" * MAX_DEPTH
    with pytest.raises(DocumentError, match="expected an object"):
        loads_tangle(at_bound)
    too_deep = ("[" + at_bound + "]", "[ " * (MAX_DEPTH + 1), '{"a": ' * (MAX_DEPTH + 1) + "1",
                '{"a": 1, "a": 2, "b": ' + at_bound + "}",  # before any other error
                # also where a repeated field's first value, which the decoder drops, is deep
                '{"kind": ' + at_bound + ', "kind": "tau", "presentation": '
                '{"rational": {"twists": [3]}}}')
    for text in too_deep:
        with pytest.raises(DocumentError, match="^tangle: arrays or objects nested too deeply$"):
            loads_tangle(text)
    # brackets in a string literal do not nest, also after an escaped quote
    in_string = '{"kind": "\\"' + "[" * (MAX_DEPTH + 1) + '"}'
    with pytest.raises(DocumentError, match="presentation: required field is missing"):
        loads_tangle(in_string)


def test_nesting_scan_takes_an_unterminated_string_to_the_end():
    from tritangle.jsonio import MAX_DEPTH

    # past the bracket count, an unterminated string of escaped quotes, also one ending in a
    # lone backslash: a scan that retried a string match at each escaped quote would be
    # quadratic, about 10 s here against a few ms
    shallow = "[]" * (MAX_DEPTH + 1)
    for tail in ("", "\\"):
        start = time.perf_counter()
        with pytest.raises(DocumentError, match="^line 1, column 3: Extra data$"):
            loads_tangle(shallow + '"' + '\\"' * 20_000 + tail)
        assert time.perf_counter() - start < 1.0
    # the brackets of an unterminated string do not nest
    with pytest.raises(DocumentError, match="Unterminated string"):
        loads_tangle('"' + "[" * (MAX_DEPTH + 1))


def test_nesting_scan_measures_depth_across_a_wide_document():
    from tritangle.jsonio import MAX_DEPTH

    # far more brackets than MAX_DEPTH, some inside strings, but never more than 2 deep
    shallow = ", ".join(["[]", '"[[{"'] * 2_500)
    with pytest.raises(DocumentError, match="^tangle: expected an object, got list$"):
        loads_tangle("[" + shallow + "]")
    # one nest of MAX_DEPTH + 1 after the shallow part
    nest = "[" * MAX_DEPTH + "]" * MAX_DEPTH
    with pytest.raises(DocumentError, match="^tangle: arrays or objects nested too deeply$"):
        loads_tangle("[" + shallow + ", " + nest + "]")


def test_deep_nesting_is_a_document_error():
    deep = "[" * 100_000 + "]" * 100_000
    with pytest.raises(DocumentError):
        loads_decomposition('{"type": "tautau", "special": true, "tangles": ' + deep + "}")
    with pytest.raises(DocumentError):
        loads_tangle(deep)


# ---------------------------------------------------------------------------
# The parser's fast path (exact dicts and lists of plain ints) against its slow path

class _Object(dict):
    """A dict subclass: parsed as a dict, through the field-by-field checks."""


class _List(list):
    pass


class _Twist(enum.IntEnum):
    THREE = 3


def _as_subclasses(value):
    """``value`` with every dict an ``_Object`` and every list a list subclass."""
    if isinstance(value, dict):
        return _Object({key: _as_subclasses(item) for key, item in value.items()})
    if isinstance(value, list):
        return _List(map(_as_subclasses, value))
    return value


@pytest.mark.parametrize("twists", [[], [0], [3, 0], [-2, 1, 1, 1, -1], [10 ** 40, -7, 0]])
def test_parsed_rational_side_is_the_checked_presentation(twists):
    parsed = parse_tangle({"kind": "rho", "presentation": {"rational": {"twists": twists}}})
    built = RationalPresentation(tuple(twists))
    assert parsed.presentation == built
    assert hash(parsed.presentation) == hash(built)
    assert repr(parsed.presentation) == repr(built)
    assert type(parsed.presentation.twists) is tuple


def test_document_of_subclasses_parses_as_the_plain_document():
    abstract = dict(GOOD_DOC, tangles=[
        {"kind": "tau", "presentation": {"abstract": {
            "atoroidal": True, "trivial": False, "rational": True, "slope": "1/3"}}},
        {"kind": "rho", "presentation": {"abstract": {
            "atoroidal": True, "trivial": False, "torus": {"p": 3, "q": 2}}}}])
    for doc in (GOOD_DOC, abstract):
        assert parse_decomposition(_as_subclasses(doc)) == parse_decomposition(doc)


def _with_first(tangle: dict) -> dict:
    return dict(GOOD_DOC, tangles=[tangle, GOOD_DOC["tangles"][1]])


def _rational(twists, **extra) -> dict:
    return {"kind": "tau", "presentation": {"rational": {"twists": twists, **extra}}}


_TWISTS = "document.tangles[0].presentation.rational.twists"


@pytest.mark.parametrize("doc, error", [
    (_Object(GOOD_DOC, extra=1), "document.extra: unknown field"),
    (_Object(type="tautau", tangles=[]), "document.special: required field is missing"),
    (_with_first(_rational([1, _Twist.THREE, 0])), f"{_TWISTS}[1]: expected an integer"),
    (_with_first(_rational([1, 2, True])), f"{_TWISTS}[2]: expected an integer"),
    (_with_first(_rational([2.0])), f"{_TWISTS}[0]: expected an integer"),
    (_with_first(_rational([3, 0], sign=1)),
     "document.tangles[0].presentation.rational.sign: unknown field"),
    (_with_first({"kind": "tau", "presentation": {"rational": {}}}),
     f"{_TWISTS}: required field is missing"),
    (_with_first({"presentation": {"rational": {"twists": [3, 0]}}}),
     "document.tangles[0].kind: required field is missing"),
    (_with_first({"kind": "tau", "presentation": [3, 0]}),
     "document.tangles[0].presentation: expected an object, got list"),
    ({**GOOD_DOC, 1: 2}, "document.1: unknown field"),
    (_with_first({"kind": "tau", "presentation": {7: {}}}),
     "document.tangles[0].presentation.7: unknown presentation variant"),
], ids=["dict-subclass", "missing-in-subclass", "int-enum", "bool", "float", "extra-key",
        "missing-twists", "missing-kind", "non-object-presentation", "int-field-name",
        "int-variant-name"])
def test_fault_off_the_fast_path_keeps_its_path_and_message(doc, error):
    with pytest.raises(DocumentError) as err:
        parse_decomposition(doc)
    assert str(err.value) == error


def test_round_trip_document():
    d = parse_decomposition(GOOD_DOC)
    assert parse_decomposition(serialize_decomposition(d)) == d


@pytest.mark.parametrize("special", ["1", '"true"', "null"])
def test_special_must_be_a_boolean(special):
    text = json.dumps(GOOD_DOC).replace('"special": true', f'"special": {special}')
    with pytest.raises(DocumentError) as err:
        loads_decomposition(text)
    assert str(err.value) == "document.special: expected a boolean"


def _torus_side(variant: str, body: dict) -> dict:
    if variant == "torus_rho":
        return {"kind": "rho", "presentation": {"torus_rho": body}}
    return {"kind": "rho", "presentation": {"abstract": {
        "atoroidal": True, "trivial": False, "satellite": True, "torus": body}}}


@pytest.mark.parametrize("variant, path", [("torus_rho", "torus_rho"),
                                           ("abstract", "abstract.torus")])
@pytest.mark.parametrize("body, bad", [
    ({"p": 2, "q": "3"}, "q"), ({"p": 2, "q": True}, "q"), ({"p": 2, "q": 3.0}, "q"),
    # p is named before q
    ({"p": "2", "q": True}, "p"), ({"p": 2.0, "q": "3"}, "p"),
    # types are checked before values: p = 1 alone would be an invalid parameter
    ({"p": 1, "q": "x"}, "q"),
    # an int subclass is not an integer, so p is named before the bad q
    ({"p": _Twist.THREE, "q": "x"}, "p"),
], ids=["q-string", "q-bool", "q-float", "both-p-string", "both-p-float", "p-invalid-q-string",
        "p-int-enum"])
def test_torus_parameter_that_is_not_an_integer_is_named(variant, path, body, bad):
    with pytest.raises(DocumentError) as err:
        parse_tangle(_torus_side(variant, body))
    assert str(err.value) == f"tangle.presentation.{path}.{bad}: expected an integer"


def test_round_trip_all_presentations():
    d = Decomposition(
        kind="taurho", special=False,
        first=TauDescriptor(AbstractTau(
            atoroidal=True, trivial=False, rational=True,
            slope=ExtFraction(-3, 8), unit_fraction_slope=False)),
        second=RhoDescriptor(AbstractRho(
            atoroidal=True, trivial=False, cable=True)))
    assert parse_decomposition(serialize_decomposition(d)) == d


def test_round_trip_full_catalog_export():
    for entry in catalog_entries():
        if entry.decomposition is None:
            continue
        round_tripped = parse_decomposition(serialize_decomposition(entry.decomposition))
        assert round_tripped == entry.decomposition, entry.name
        # classification is unaffected by the round trip
        assert classify(round_tripped) == classify(entry.decomposition)


def test_dumps_is_valid_json():
    d = parse_decomposition(GOOD_DOC)
    assert json.loads(dumps_decomposition(d)) == serialize_decomposition(d)


def test_dumps_writes_one_line_for_catalog_and_mirrors():
    for entry in catalog_entries():
        if entry.decomposition is None:
            continue
        for d in (entry.decomposition, mirror_decomposition(entry.decomposition)):
            text = dumps_decomposition(d)
            assert "\n" not in text, entry.name
            assert text == json.dumps(serialize_decomposition(d))
            assert loads_decomposition(text) == d


def test_serialize_tangle_shapes():
    rho = RhoDescriptor(AbstractRho(
        atoroidal=True, trivial=False, satellite=True, torus=TorusParams(3, 2)))
    obj = serialize_tangle(rho)
    assert obj["kind"] == "rho"
    assert obj["presentation"]["abstract"]["torus"] == {"p": 3, "q": 2}


def test_serializing_an_integer_too_long_to_write_raises_slope_too_large():
    # Python-built sides: JSON input cannot reach this, since the decoder caps literals
    huge = 10 ** sys.get_int_max_str_digits()
    slope_side = TauDescriptor(AbstractTau(True, False, True, ExtFraction(huge + 1, 2)))
    twist_side = TauDescriptor(RationalPresentation((huge, 0)))
    with pytest.raises(SlopeTooLarge, match="the slope has more than"):
        serialize_tangle(slope_side)
    for side in (slope_side, twist_side):
        d = Decomposition("tautau", True, side, TauDescriptor(RationalPresentation((3, 0))))
        with pytest.raises(SlopeTooLarge, match="has more than .* digits, too many to write"):
            dumps_decomposition(d)


def test_serialize_tangle_refuses_a_twist_entry_too_long_to_write():
    # the least and the greatest entry, since either may be the longest; a shorter one passes
    huge = 10 ** sys.get_int_max_str_digits()
    for twists in ((huge, 0), (3, -huge), (-huge + 1, huge)):
        with pytest.raises(SlopeTooLarge, match="a twist entry has more than .* digits"):
            serialize_tangle(TauDescriptor(RationalPresentation(twists)))
        with pytest.raises(SlopeTooLarge, match="a twist entry has more than .* digits"):
            serialize_decomposition(Decomposition(
                "taurho", False, TauDescriptor(RationalPresentation((3, 0))),
                RhoDescriptor(RationalPresentation(twists))))
    longest = TauDescriptor(RationalPresentation((huge - 1, 1 - huge)))
    assert serialize_tangle(longest)["presentation"]["rational"]["twists"] == [huge - 1, 1 - huge]


def test_a_twist_entry_of_exactly_the_digit_limit_is_written_and_read_back():
    longest = 10 ** MAX_STR_DIGITS - 1  # MAX_STR_DIGITS nines
    first = TauDescriptor(RationalPresentation((longest, 0, -longest)))
    d = Decomposition("tautau", False, first, TauDescriptor(RationalPresentation((3, 0))))
    text = dumps_decomposition(d)
    assert f'"twists": [{longest}, 0, -{longest}]' in text
    assert loads_decomposition(text) == d
    one_digit_more = d._replace(first=TauDescriptor(RationalPresentation((longest + 1, 0))))
    with pytest.raises(SlopeTooLarge) as err:
        dumps_decomposition(one_digit_more)
    assert str(err.value) == (f"a twist entry has more than {MAX_STR_DIGITS} digits, "
                              "too many to write as text")


class _Text(str):
    pass


class _Int(int):
    pass


# A record built in Python may hold any type and special: each is written as json.dumps writes
# it, and the rest of the document is unchanged.
@pytest.mark.parametrize("field, value, written", [
    ("kind", None, "null"), ("kind", 1, "1"), ("kind", 1.5, "1.5"), ("kind", math.nan, "NaN"),
    ("kind", ("a",), '["a"]'), ("kind", _Text("tautau"), '"tautau"'), ("kind", True, "true"),
    ("kind", "\u00e9\u2028\"", '"\\u00e9\\u2028\\""'), ("kind", "", '""'),
    ("special", 1, "1"), ("special", 0, "0"), ("special", _Int(1), "1"), ("special", None, "null"),
    ("special", 2.0, "2.0"), ("special", math.inf, "Infinity"), ("special", "yes", '"yes"'),
    ("special", [True, None], "[true, null]"), ("special", {"a": 1}, '{"a": 1}'),
    ("special", {1: 2}, '{"1": 2}'),
])
def test_a_python_built_type_or_special_is_written_as_json_writes_it(field, value, written):
    d = catalog_get("4_1").decomposition
    sides = ('[{"kind": "tau", "presentation": {"rational": {"twists": [3, 0]}}}, '
             '{"kind": "tau", "presentation": {"rational": {"twists": [-3, 0]}}}]')
    kind, special = (written, "true") if field == "kind" else ('"tautau"', written)
    expected = f'{{"type": {kind}, "special": {special}, "tangles": {sides}}}'
    assert dumps_decomposition(d._replace(**{field: value})) == expected


@pytest.mark.parametrize("value", [object(), b"x", {1, 2}, 1j, {(1, 2): 3}],
                         ids=["object", "bytes", "set", "complex", "tuple-key"])
@pytest.mark.parametrize("field", ["kind", "special"])
def test_a_python_built_type_or_special_json_cannot_write_raises_type_error(field, value):
    with pytest.raises(TypeError):
        dumps_decomposition(catalog_get("4_1").decomposition._replace(**{field: value}))


# ---------------------------------------------------------------------------
# Generative round trip

from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

twists = st.lists(st.integers(-9, 9), max_size=6).map(tuple)


@st.composite
def torus_params(draw):
    p = draw(st.integers(2, 12))
    q = draw(st.integers(-12, 12).filter(lambda q: math.gcd(p, abs(q)) == 1))
    return TorusParams(p, q)


slopes = st.tuples(st.integers(-12, 12), st.integers(-12, 12)).filter(
    lambda pq: pq != (0, 0)).map(lambda pq: ExtFraction(*pq))


# The parser does not check topology, so each abstract field is drawn on its own.
@st.composite
def tau_descriptors(draw):
    if draw(st.booleans()):
        return TauDescriptor(RationalPresentation(draw(twists)))
    return TauDescriptor(AbstractTau(
        atoroidal=draw(st.booleans()), trivial=draw(st.booleans()),
        rational=draw(st.booleans()), slope=draw(st.none() | slopes),
        unit_fraction_slope=draw(st.none() | st.booleans())))


@st.composite
def rho_descriptors(draw):
    choice = draw(st.sampled_from(["rational", "torus", "abstract"]))
    if choice == "rational":
        return RhoDescriptor(RationalPresentation(draw(twists)))
    if choice == "torus":
        return RhoDescriptor(TorusRhoPresentation(draw(torus_params())))
    return RhoDescriptor(AbstractRho(
        atoroidal=draw(st.booleans()), trivial=draw(st.booleans()),
        hopf_tangle=draw(st.booleans()), satellite=draw(st.booleans()),
        cable=draw(st.booleans()), hopf_summand=draw(st.booleans()),
        torus=draw(st.none() | torus_params())))


@st.composite
def decompositions(draw):
    kind = draw(st.sampled_from(["tautau", "taurho", "rhorho"]))
    sides = {"tautau": (tau_descriptors(), tau_descriptors()),
             "taurho": (tau_descriptors(), rho_descriptors()),
             "rhorho": (rho_descriptors(), rho_descriptors())}[kind]
    return Decomposition(kind=kind, special=draw(st.booleans()),
                         first=draw(sides[0]), second=draw(sides[1]))


# The keys serialize_tangle writes for an abstract side, in this order: the
# required flags always, the tau slope data when given, the rho flags when set.
ABSTRACT_KEYS = {
    AbstractTau: ("atoroidal", "trivial", "rational", "slope", "unit_fraction_slope"),
    AbstractRho: ("atoroidal", "trivial", "hopf_tangle", "satellite", "cable",
                  "hopf_summand", "torus"),
}


def _written(p, key: str) -> bool:
    value = getattr(p, key)
    if key in ("atoroidal", "trivial", "rational"):
        return True
    if isinstance(p, AbstractTau) or key == "torus":
        return value is not None
    return value


def _check_abstract_side(side):
    p, image = side.presentation, mirror_descriptor(side).presentation
    keys = ABSTRACT_KEYS[type(p)]
    for key in keys:  # the mirror negates the slope and the torus q, nothing else
        before, after = getattr(p, key), getattr(image, key)
        if key == "slope" and before is not None:
            assert after == ExtFraction(-before.num, before.den)
        elif key == "torus" and before is not None:
            assert after == TorusParams(before.p, -before.q)
        else:
            assert after == before, key
    written = serialize_tangle(side)["presentation"]["abstract"]
    assert list(written) == [key for key in keys if _written(p, key)]


@given(decompositions())
def test_text_round_trip_generated_documents(d):
    text = dumps_decomposition(d)
    assert loads_decomposition(text) == d
    assert text == json.dumps(serialize_decomposition(d))  # the cycle-checking encoder's text


def _schema(side) -> dict:
    # a side's schema object, built here from the descriptor, apart from jsonio's writer
    p = side.presentation
    if isinstance(p, RationalPresentation):
        return {"kind": side.kind, "presentation": {"rational": {"twists": list(p.twists)}}}
    if isinstance(p, TorusRhoPresentation):
        return {"kind": side.kind,
                "presentation": {"torus_rho": {"p": p.params.p, "q": p.params.q}}}
    flags = {key: getattr(p, key) for key in ABSTRACT_KEYS[type(p)] if _written(p, key)}
    if "slope" in flags:
        flags["slope"] = f"{flags['slope'].num}/{flags['slope'].den}"
    if "torus" in flags:
        flags["torus"] = {"p": flags["torus"].p, "q": flags["torus"].q}
    return {"kind": side.kind, "presentation": {"abstract": flags}}


@given(decompositions())
def test_text_is_json_dumps_of_the_schema_built_apart_from_jsonio(d):
    assert dumps_decomposition(d) == json.dumps(
        {"type": d.kind, "special": d.special, "tangles": [_schema(d.first), _schema(d.second)]})
    assert serialize_tangle(d.first) == _schema(d.first)


@given(decompositions())
def test_round_trip_generated_documents(d):
    assert parse_decomposition(serialize_decomposition(d)) == d
    # classification commutes with the round trip and never raises
    assert classify(parse_decomposition(serialize_decomposition(d))) == classify(d)
    for side in (d.first, d.second):
        assert mirror_descriptor(mirror_descriptor(side)) == side
        if isinstance(side.presentation, (AbstractTau, AbstractRho)):
            _check_abstract_side(side)
