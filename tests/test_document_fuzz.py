"""Mutation fuzzing of serialized catalog documents at the document boundary.

Each example takes a catalog decomposition (or its mirror) as
``dumps_decomposition`` writes it and applies a few text mutations: drop,
duplicate or retype a field, splice in an integer past the int-string digit
limit, truncate, and insert bytes that are not UTF-8.  Flipping a boolean
and renumbering an integer keep many documents valid, so ``classify`` sees
sides the catalog does not have.  Whatever comes out,
``loads_decomposition`` returns a decomposition or raises ``DocumentError``,
``classify`` on a returned decomposition never raises, and ``tritangle
classify`` on the bytes as a file ends in one of its exit codes.

``loads_decomposition`` is also held to an independent strict reader: the
plain decoder for syntax, then a decoder whose own hook refuses a repeated
field, then ``parse_decomposition``.
"""

from __future__ import annotations

import contextlib
import io
import json
import pickle
import re
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tritangle import (
    DocumentError,
    RhoDescriptor,
    TauDescriptor,
    catalog_entries,
    classify,
    dumps_decomposition,
    jsonio,
    loads_decomposition,
    loads_tangle,
    mirror_decomposition,
    parse_decomposition,
    serialize_decomposition,
)
from tritangle.cli import main

EXIT_CODES = {0, 2, 3, 4}

DOCUMENTS = [dumps_decomposition(d)
             for entry in catalog_entries() if entry.decomposition is not None
             for d in (entry.decomposition, mirror_decomposition(entry.decomposition))]

FIELD = re.compile(r'"(\w+)": ')
INTEGER = re.compile(r"-?\d+")
BOOLEAN = re.compile(r"true|false")
OTHER_TYPES = ["null", "true", "false", "0", "-7", "0.5", '"x"', '"1/0"', "[]", "[1, 2]",
               "{}", '{"p": 2, "q": 3}']
NOT_UTF8 = [b"\xff", b"\xe9", b"\xc3", b"\xed\xa0\x80", b"\x80\x80"]


def _field_spans(text: str) -> list[tuple[int, int, int]]:
    """(start of the key, start of the value, end of the value) of each field."""
    spans = []
    decoder = json.JSONDecoder()
    for match in FIELD.finditer(text):
        try:
            _, end = decoder.raw_decode(text, match.end())
        except ValueError:  # the value was cut off by an earlier mutation
            continue
        spans.append((match.start(), match.end(), end))
    return spans


@st.composite
def mutation(draw, text: str) -> str:
    op = draw(st.sampled_from(["drop", "duplicate", "retype", "huge", "truncate",
                               "flip", "renumber", "renumber"]))
    if op == "truncate":
        return text[:draw(st.integers(0, max(0, len(text) - 1)))]
    if op in ("flip", "renumber", "huge"):
        spots = list((BOOLEAN if op == "flip" else INTEGER).finditer(text))
        if not spots:
            return text
        spot = draw(st.sampled_from(spots))
        if op == "flip":
            new = "false" if spot.group() == "true" else "true"
        elif op == "renumber":
            new = str(draw(st.integers(-40, 40)))
        else:
            new = "9" * draw(st.integers(sys.get_int_max_str_digits() + 1,
                                         sys.get_int_max_str_digits() + 50))
        return text[:spot.start()] + new + text[spot.end():]
    spans = _field_spans(text)
    if not spans:
        return text
    key, value, end = draw(st.sampled_from(spans))
    if op == "drop":
        if text.startswith(", ", end):
            return text[:key] + text[end + 2:]
        return text[:key].removesuffix(", ") + text[end:]
    if op == "duplicate":
        repeat = draw(st.sampled_from([text[value:end], *OTHER_TYPES]))
        return text[:end] + ", " + text[key:value] + repeat + text[end:]
    return text[:value] + draw(st.sampled_from(OTHER_TYPES)) + text[end:]


@st.composite
def mutated_documents(draw) -> bytes:
    text = draw(st.sampled_from(DOCUMENTS))
    for _ in range(draw(st.integers(1, 3))):
        text = draw(mutation(text))
    data = text.encode("utf-8")
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(NOT_UTF8)) + data[at:]
    return data


@settings(max_examples=150, deadline=None, derandomize=True)
@given(mutated_documents())
def test_mutated_documents_end_in_a_verdict_or_document_error(data):
    try:
        decomposition = loads_decomposition(data.decode("utf-8", "surrogateescape"))
    except DocumentError:
        pass
    else:
        classify(decomposition)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_bytes(data)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["classify", str(path)])
    assert code in EXIT_CODES


# ---------------------------------------------------------------------------
# Sides built without __init__: parse_tangle stores the presentation its variant has fixed


def check_sides_are_the_public_values(text: str):
    """Each side of the document, if accepted, against the same side built publicly."""
    try:
        decomposition = parse_decomposition(json.loads(text))
    except DocumentError:
        return
    for side in (decomposition.first, decomposition.second):
        assert type(side) in (TauDescriptor, RhoDescriptor)
        p = side.presentation
        built = type(side)(type(p)(*(getattr(p, name) for name in p.__slots__)))
        assert side == built and hash(side) == hash(built) and repr(side) == repr(built)
        assert pickle.dumps(side) == pickle.dumps(built)
        again = pickle.loads(pickle.dumps(side))
        assert (type(again), again, repr(again)) == (type(built), built, repr(built))


@pytest.mark.parametrize("text", DOCUMENTS)
def test_each_catalog_side_is_the_value_its_constructors_build(text):
    check_sides_are_the_public_values(text)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(mutated_documents())
def test_each_mutated_side_is_the_value_its_constructors_build(data):
    text = data.decode("utf-8", "surrogateescape")
    if is_json(text):
        check_sides_are_the_public_values(text)


# ---------------------------------------------------------------------------
# The decoder against an independent strict reader


def _no_repeats(pairs: list) -> dict:
    keys = [key for key, _ in pairs]
    for i, key in enumerate(keys):
        if key in keys[:i]:
            raise DocumentError(f"field {key!r}", "occurs more than once in one object")
    return dict(pairs)


PLAIN = json.JSONDecoder()
STRICT = json.JSONDecoder(object_pairs_hook=_no_repeats)


def strict_loads(text: str):
    """The decomposition, or the refusal's text, in the order decode, repeated field, schema."""
    try:
        PLAIN.decode(text)
        return parse_decomposition(STRICT.decode(text))
    except json.JSONDecodeError as exc:
        return f"line {exc.lineno}, column {exc.colno}: {exc.msg}"
    except DocumentError as exc:
        return str(exc)
    except ValueError:  # an integer literal past the int-string digit limit
        return "document: an integer literal has more than 4300 digits, too many to write as text"


def outcome(text: str):
    try:
        return loads_decomposition(text)
    except DocumentError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(mutated_documents())
def test_mutated_documents_read_as_the_strict_reader_reads_them(data):
    text = data.decode("utf-8", "surrogateescape")
    read = outcome(text)
    assert read == strict_loads(text)
    if not isinstance(read, str):  # the prebuilt encoder writes what json.dumps writes
        assert dumps_decomposition(read) == json.dumps(serialize_decomposition(read))


DOCUMENT = DOCUMENTS[0]  # a rational tau-tau document
RHO_TORUS = {"kind": "rho", "presentation": {"abstract": {
    "atoroidal": True, "trivial": False, "satellite": True, "torus": {"p": 3, "q": 1}}}}
TAURHO = json.dumps({"type": "taurho", "special": False,
                     "tangles": [json.loads(DOCUMENT)["tangles"][0], RHO_TORUS]})
REPEAT = "field {!r}: occurs more than once in one object".format


@pytest.mark.parametrize("text, error", [
    # a repeat and a schema fault in one document: the repeat is reported
    (DOCUMENT.replace('"special": ', '"special": 1, "special": '), REPEAT("special")),
    (DOCUMENT.replace('"type": "tautau"', '"type": "tautau", "type": "sigma"'), REPEAT("type")),
    # a repeat in an abstract side's torus
    (TAURHO.replace('"q": 1', '"q": 1, "q": 2'), REPEAT("q")),
    (TAURHO.replace('"q": 1', '"q": 1, "q": 2').replace('"type": "taurho"', '"type": 1'),
     REPEAT("q")),
    # a colon in a string is no repeat
    (DOCUMENT.replace('"type": "tautau"', '"type": "tau:tau"'),
     'document.type: expected "tautau", "taurho" or "rhorho", got \'tau:tau\''),
    (DOCUMENT.replace('"type": "tautau"', '"type": "tautau", "a:b": 1'),
     "document.a:b: unknown field"),
    # a decode error comes before a repeat, even one in an object that closes before it
    (DOCUMENT.replace("[3, 0]", '[3, 0], "twists": [1]')[:-1],
     "line 1, column 198: Expecting ',' delimiter"),
    (DOCUMENT.replace("[3, 0]", '[3, 0], "twists": [1]').replace("[-3", "[1" + "0" * 4400),
     "document: an integer literal has more than 4300 digits, too many to write as text"),
], ids=["repeat-and-special", "repeat-and-type", "torus", "torus-and-type", "colon-in-value",
        "colon-in-name", "repeat-then-cut", "repeat-then-long-integer"])
def test_fixed_documents_read_as_the_strict_reader_reads_them(text, error):
    assert outcome(text) == strict_loads(text) == error


def test_loads_tangle_refuses_a_repeat():
    with pytest.raises(DocumentError) as err:
        loads_tangle('{"kind": "tau", "presentation": {"rational": {"twists": [3, 0], '
                     '"twists": [1]}}}')
    assert str(err.value) == REPEAT("twists")


class CountingDecoder(json.JSONDecoder):
    """The repeat-naming decoder, counting its decodes."""

    calls = 0

    def decode(self, s, *args):
        CountingDecoder.calls += 1
        return super().decode(s, *args)


def decodes_again(text: str) -> int:
    """How often ``loads_decomposition`` decodes ``text`` with the repeat-naming decoder."""
    CountingDecoder.calls = 0
    with mock.patch.object(jsonio, "_REPEATS",
                           CountingDecoder(object_pairs_hook=jsonio._unique_fields)):
        outcome(text)
    return CountingDecoder.calls


def is_json(text: str) -> bool:
    try:
        PLAIN.decode(text)
    except ValueError:  # a syntax fault, or an integer literal past the digit limit
        return False
    return True


def test_an_accepted_catalog_document_is_decoded_once_and_counted_from_its_schema():
    assert [decodes_again(document) for document in DOCUMENTS] == [0] * len(DOCUMENTS)
    assert decodes_again(TAURHO) == 0


@pytest.mark.parametrize("text, decodes", [
    (DOCUMENT.replace('"special": ', '"special": false, "special": '), 1),
    (TAURHO.replace('"q": 1', '"q": 1, "q": 2').replace('"type": "taurho"', '"type": 1'), 1),
    # refused without a repeat: a refused document is decoded again once, whatever its shape,
    # since only an accepted one has its members counted from the schema's places
    (DOCUMENT.replace('"special": true', '"special": 1'), 1),
    (DOCUMENT.replace('"rational": {', '"braid": {}, "rational": {'), 1),
    ("[" + DOCUMENT + "]", 1),
    ("{}", 1),
    # a colon in a string: decoded again, and no repeat found
    (DOCUMENT.replace('"type": "tautau"', '"type": "tau:tau"'), 1),
], ids=["repeat", "repeat-and-fault", "fault", "two-variants", "list", "no-colon", "colon"])
def test_a_document_is_decoded_again_only_with_more_colons_than_members(text, decodes):
    assert decodes_again(text) == decodes


@settings(max_examples=150, deadline=None, derandomize=True)
@given(mutated_documents())
def test_an_accepted_mutated_document_is_decoded_once(data):
    text = data.decode("utf-8", "surrogateescape")
    if not isinstance(outcome(text), str):  # accepted: its strings hold no colon
        assert decodes_again(text) == 0
    elif is_json(text):  # refused after the decode: decoded again once, to name a repeat
        assert decodes_again(text) == 1
