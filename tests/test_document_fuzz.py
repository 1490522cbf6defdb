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
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from tritangle import (
    DocumentError,
    catalog_entries,
    classify,
    dumps_decomposition,
    loads_decomposition,
    mirror_decomposition,
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
