"""Strict JSON ingestion and serialization of decomposition documents.

The schema is deliberately strict: unknown fields are rejected and booleans
must be actual JSON booleans, because a silently misspelled topology flag
would forge a verdict.  Slopes travel as "p/q" strings to keep floats out.

Document shape::

    {"type": "tautau" | "taurho" | "rhorho",
     "special": bool,
     "tangles": [TANGLE, TANGLE]}

    TANGLE = {"kind": "tau" | "rho",
              "presentation":
                  {"rational": {"twists": [int, ...]}}
                | {"torus_rho": {"p": int, "q": int}}       # rho only
                | {"abstract": {...flags...}}}

The abstract flags are the slots of ``AbstractTau`` and ``AbstractRho``: one without a default
in ``__init__`` is required, the others optional and written only when not at their default.
Every flag is a boolean except the tau ``slope`` and the rho ``torus`` ({"p": int, "q": int}).
A slope is a string "p/q" or "p" of ASCII digits, "-" the only sign; it need not be reduced.
``dumps_decomposition`` writes a document's text in one pass, as ``json.dumps`` writes it, and
``serialize_*`` decode that text; an integer too long for ``str`` raises ``SlopeTooLarge``.

Limits, each a ``DocumentError`` past it: a field name occurs once per object (a refused text,
or one with more colons than members, is decoded again to name it), an integer literal has at
most ``sys.get_int_max_str_digits()`` (4,300) digits, and arrays and objects nest at most
``MAX_DEPTH`` deep, or less where the recursion limit is lowered or the stack already deep.
"""

from __future__ import annotations

import json
import re
from itertools import accumulate
from json.encoder import encode_basestring_ascii

from .errors import DocumentError, InvalidTorusParams, SlopeTooLarge, ZeroOverZero, echo
from .frac import ExtFraction, parse_fraction, too_long_to_print, too_many_digits
from .tangle import (
    AbstractRho,
    AbstractTau,
    Descriptor,
    KIND_RHO,
    KIND_TAU,
    RationalPresentation,
    RhoDescriptor,
    TauDescriptor,
    TorusParams,
    TorusRhoPresentation,
)
from .verdict import KINDS, Decomposition


# Each fixed schema's field names as the keys of a dict: iterated in order, and compared with
# an object's keys in one C call, inline at each object, with _fields called only on a fault
_DOCUMENT, _TANGLE, _RATIONAL, _TORUS = (dict.fromkeys(names).keys() for names in (
    ("type", "special", "tangles"), ("kind", "presentation"), ("twists",), ("p", "q")))


# jsonio checks only JSON's shape: the value classes own the rules of their fields (twist
# entries, torus parameters, abstract flags), and their TypeError's field names the path.

_BOOLEAN = "expected a boolean"  # the refusal of special and of each boolean abstract flag


def _fields(obj: object, path: str, required, allowed=None):
    """Name the fault of an object that its inline keys test refused; a dict subclass passes."""
    if not isinstance(obj, dict):
        raise DocumentError(path, f"expected an object, got {type(obj).__name__}")
    for key in obj:
        if key not in (allowed or required):
            raise DocumentError(f"{path}.{echo(key)}", "unknown field")
    for key in required:
        if key not in obj:
            raise DocumentError(f"{path}.{key}", "required field is missing")


def _slope(value: object, path: str) -> ExtFraction:
    if not isinstance(value, str):
        raise DocumentError(path, 'expected a "p/q" string')
    try:
        return parse_fraction(value)
    except (ValueError, ZeroOverZero) as exc:
        raise DocumentError(path, f"not a valid fraction: {exc}") from None


def _torus(obj: object, path: str) -> TorusParams:
    if type(obj) is not dict or obj.keys() != _TORUS:
        _fields(obj, path, _TORUS)
    try:
        return TorusParams(obj["p"], obj["q"])
    except TypeError as exc:  # the first value that is not an integer, in TorusParams' order
        raise DocumentError(f"{path}.{exc.field}", "expected an integer") from None
    except InvalidTorusParams as exc:
        raise DocumentError(path, str(exc)) from None


def _write_slope(s: ExtFraction) -> str:
    if too_long_to_print(s.num) or too_long_to_print(s.den):
        raise SlopeTooLarge(too_many_digits("the slope"))
    return f'"{s.num}/{s.den}"'


def _write_value(value: object) -> str:
    # json.dumps(value), without its call for a str or a bool: a boolean flag, and the document's
    # type and special, which a record built in Python may hold as any value
    return (encode_basestring_ascii(value) if type(value) is str else "true" if value is True
            else "false" if value is False else json.dumps(value))


# How each non-boolean abstract flag is read from and written to JSON.
_READ_FLAG = {"slope": _slope, "torus": _torus}
_WRITE_FLAG = {"slope": _write_slope, "torus": lambda t: '{"p": %d, "q": %d}' % (t.p, t.q)}


_REQUIRED = object()  # the default of a flag without one: no flag value equals it


def _abstract_schema(cls) -> tuple:
    """An abstract presentation class, its flags in field order, the required and all names.

    Each flag is (key, default, write), read from the class's slots and ``__init__``'s defaults
    (``_REQUIRED`` for a required flag); ``key + write(value)`` is the flag's JSON text.
    """
    names, defaults = cls.__slots__, cls.__init__.__defaults__
    required = len(names) - len(defaults)
    flags = tuple((f'"{name}": ', default, _WRITE_FLAG.get(name, _write_value))
                  for name, default in zip(names, (_REQUIRED,) * required + defaults))
    return cls, flags, dict.fromkeys(names[:required]).keys(), dict.fromkeys(names).keys()


# kind -> the schema above; built once, since reading the class's fields on every call
# would tax the documents path
_ABSTRACT = {KIND_TAU: _abstract_schema(AbstractTau), KIND_RHO: _abstract_schema(AbstractRho)}


def parse_tangle(obj: object, path: str = "tangle") -> Descriptor:
    if type(obj) is not dict or obj.keys() != _TANGLE:
        _fields(obj, path, _TANGLE)
    kind, pres = obj["kind"], obj["presentation"]
    if kind not in (KIND_TAU, KIND_RHO):
        raise DocumentError(f"{path}.kind", f'expected "tau" or "rho", got {echo(kind, repr)}')
    if not isinstance(pres, dict):
        raise DocumentError(f"{path}.presentation",
                            f"expected an object, got {type(pres).__name__}")
    if len(pres) != 1:
        raise DocumentError(f"{path}.presentation",
                            "exactly one presentation variant is required")
    (variant, body), = pres.items()
    if variant == "rational":
        if type(body) is not dict or body.keys() != _RATIONAL:
            _fields(body, f"{path}.presentation.rational", _RATIONAL)
        if not isinstance(body["twists"], list):
            raise DocumentError(f"{path}.presentation.rational.twists",
                                "expected a list of integers")
        try:
            presentation = RationalPresentation(body["twists"])
        except TypeError as exc:  # the first entry that is not an integer
            raise DocumentError(f"{path}.presentation.rational.{exc.field}",
                                "expected an integer") from None
    elif variant == "torus_rho":
        if kind != KIND_RHO:
            raise DocumentError(f"{path}.presentation.torus_rho",
                                "torus parameters only present rho-tangles")
        presentation = TorusRhoPresentation(_torus(body, f"{path}.presentation.torus_rho"))
    elif variant == "abstract":
        # the flags' path, "{path}.presentation.abstract", is joined only where it is written
        cls, _, required, names = _ABSTRACT[kind]
        if type(body) is not dict or not required <= body.keys() <= names:
            _fields(body, f"{path}.presentation.abstract", required, names)
        flags = dict(body)
        for name in _READ_FLAG.keys() & flags.keys():  # slope or torus, read first
            flags[name] = _READ_FLAG[name](flags[name], f"{path}.presentation.abstract.{name}")
        try:
            presentation = cls(**flags)
        except TypeError as exc:  # the refused flag is a boolean: slope and torus were read above
            raise DocumentError(f"{path}.presentation.abstract.{exc.field}", _BOOLEAN) from None
        if flags.get("unit_fraction_slope", False) is None:  # the class reads null as unstated
            raise DocumentError(f"{path}.presentation.abstract.unit_fraction_slope", _BOOLEAN)
    else:
        raise DocumentError(f"{path}.presentation.{echo(variant)}",
                            "unknown presentation variant")
    # the variant branch has fixed the presentation's type, so the side is built without
    # __init__'s check of it, through its slot setter, as frac._canonical builds a fraction
    cls = TauDescriptor if kind == KIND_TAU else RhoDescriptor
    cls._setters[0](side := object.__new__(cls), presentation)
    return side


def parse_decomposition(obj: object, path: str = "document") -> Decomposition:
    if type(obj) is not dict or obj.keys() != _DOCUMENT:
        _fields(obj, path, _DOCUMENT)
    kind, special, tangles = obj["type"], obj["special"], obj["tangles"]
    if kind not in KINDS:
        raise DocumentError(f"{path}.type",
                            f'expected "tautau", "taurho" or "rhorho", got {echo(kind, repr)}')
    if type(special) is not bool:
        raise DocumentError(f"{path}.special", _BOOLEAN)
    if not isinstance(tangles, list) or len(tangles) != 2:
        raise DocumentError(f"{path}.tangles", "expected a list of exactly two tangles")
    # every field checked, so the record is built in C, not by the generated __new__
    sides = map(parse_tangle, tangles, (f"{path}.tangles[0]", f"{path}.tangles[1]"))
    return tuple.__new__(Decomposition, (kind, special, *sides))


def _unique_fields(pairs: list[tuple[str, object]]) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):  # json.loads alone would keep the last value
        # the first key out of step with the deduplicated order is a repeat
        key = next((k for (k, _), kept in zip(pairs, obj) if k != kept), pairs[len(obj)][0])
        raise DocumentError(f"field {echo(key, repr)}", "occurs more than once in one object")
    return obj


# Every document is decoded by the plain decoder's C scanner alone when its value fills the
# text, and by the decoder's decode otherwise (whitespace around the value, extra data after
# it, or no value), so that each syntax fault is refused in decode's own words; either keeps a
# repeated field's last value.  _REPEATS, whose hook sees each object's pairs, only names a
# repeat: it decodes again a refused text, and an accepted one only when it has more colons
# than its schema has members (each member has one colon outside strings, and an accepted
# document's strings hold none).
_DECODER = json.JSONDecoder()
_REPEATS = json.JSONDecoder(object_pairs_hook=_unique_fields)

# The deepest nesting a document may have (RFC 8259 section 9 lets a parser limit it).  The
# decoder's own bound differs between Python versions and lies deeper on all of them, so
# nesting is also checked here, on every text that is refused or decoded again: schema
# documents nest at most 6 deep, and an accepted value is deep only in a repeat's dropped value.
MAX_DEPTH = 500
_TOO_DEEP = "arrays or objects nested too deeply"
# The nesting scan deletes every string literal, then every run of characters that are not
# brackets; both patterns compile on first use, not at import.  The string pattern cannot
# fail: an unterminated literal, even one ending in a lone backslash, runs to the end of the
# text, so its brackets do not count and no match is retried from inside it.
_STRING = r'"(?:[^"\\]|\\[\s\S]?)*(?:"|\Z)'
_NOT_BRACKETS = r'[^\[\]{}]+'
_DEPTH_STEP = {"[": 1, "{": 1, "]": -1, "}": -1}


def _refuse_deep_nesting(text: str, path: str):
    # counting the opening brackets is cheap and spares most refused documents the scan
    if text.count("[") + text.count("{") <= MAX_DEPTH:
        return
    brackets = re.sub(_NOT_BRACKETS, "", re.sub(_STRING, "", text))
    if max(accumulate(map(_DEPTH_STEP.__getitem__, brackets)), default=0) > MAX_DEPTH:
        raise DocumentError(path, _TOO_DEEP)


def _scan(text: str) -> object:
    try:
        value, end = _DECODER.scan_once(text, 0)
    except StopIteration:  # no value starts at index 0: whitespace first, or no value at all
        end = None
    return value if end == len(text) else _DECODER.decode(text)


def _decode(text: str, path: str, decode=_scan) -> object:
    if text.startswith("\ufeff"):  # json.loads refuses a BOM; JSONDecoder.decode does not check
        raise DocumentError("line 1, column 1", "Unexpected UTF-8 BOM (decode using utf-8-sig)")
    try:
        # decoding comes before the nesting scan: a hostile document far deeper than MAX_DEPTH
        # then ends in the decoder's RecursionError without the scan's two regex passes, which
        # cost more than the rest of the document's work
        return decode(text)
    except RecursionError:
        # the decoder's own bound: deeper than MAX_DEPTH at the default recursion limit and a
        # shallow caller stack, but on 3.10 and 3.11 it is the limit less the caller's depth
        raise DocumentError(path, _TOO_DEEP) from None
    except json.JSONDecodeError as exc:
        error = DocumentError(f"line {exc.lineno}, column {exc.colno}", exc.msg)
    except ValueError:  # an integer literal past the int-string digit limit
        error = DocumentError(path, too_many_digits("an integer literal"))
    # before any other error, which a version whose decoder stops at a smaller depth never meets
    _refuse_deep_nesting(text, path)
    raise error


def _schema_members(obj: dict) -> int:
    # the members of an accepted document's or tangle's objects, all at the schema's places
    count, sides = (len(obj), obj["tangles"]) if "tangles" in obj else (0, (obj,))
    for side in sides:
        (body,) = side["presentation"].values()
        count += len(side) + 1 + len(body.keys()) + ("torus" in body and len(body["torus"].keys()))
    return count


def _load(text: str, path: str, parse) -> object:
    # parse of the decoded text, or a repeated field refused in place of its result or fault
    value = _decode(text, path)
    try:
        result = parse(value)
    except Exception:  # a refused value may have any shape: it is decoded again, not counted
        _refuse_deep_nesting(text, path)  # before any other error
        _decode(text, path, _REPEATS.decode)  # a RecursionError there is the nesting refusal too
        raise
    if text.count(":") > _schema_members(value):  # a repeat's dropped value may be deep
        _refuse_deep_nesting(text, path)
        _decode(text, path, _REPEATS.decode)
    return result


def loads_decomposition(text: str) -> Decomposition:
    return _load(text, "document", parse_decomposition)


def loads_tangle(text: str) -> Descriptor:
    return _load(text, "tangle", parse_tangle)


# ---------------------------------------------------------------------------
# Serialization (round-trip stable): the schema is written as text in this one place, in the
# text json.dumps writes, and read back only by the serialize_* functions

_DOCUMENT_TEXT = '{"type": %s, "special": %s, "tangles": [%s, %s]}'
_RATIONAL_TEXT = '{"kind": "%s", "presentation": {"rational": {"twists": %r}}}'
_TORUS_RHO_TEXT = '{"kind": "%s", "presentation": {"torus_rho": {"p": %d, "q": %d}}}'
_ABSTRACT_TEXT = '{"kind": "%s", "presentation": {"abstract": {%s}}}'


def _tangle_text(d: Descriptor) -> str:
    p = d.presentation
    if isinstance(p, RationalPresentation):
        try:  # a list of ints' repr is its JSON
            return _RATIONAL_TEXT % (d.kind, list(p.twists))
        except ValueError:  # str refuses an entry with too many digits, as the decoder would
            raise SlopeTooLarge(too_many_digits("a twist entry")) from None
    if isinstance(p, TorusRhoPresentation):
        return _TORUS_RHO_TEXT % (d.kind, p.params.p, p.params.q)
    # the flags in field order, read in one C call; a required flag's default is _REQUIRED, so
    # it is always written
    return _ABSTRACT_TEXT % (d.kind, ", ".join([
        key + write(value) for (key, default, write), value in zip(_ABSTRACT[d.kind][1], p._key(p))
        if value != default]))


def serialize_tangle(d: Descriptor) -> dict:
    return _DECODER.decode(_tangle_text(d))


def serialize_decomposition(d: Decomposition) -> dict:
    return _DECODER.decode(dumps_decomposition(d))


def dumps_decomposition(d: Decomposition) -> str:
    return _DOCUMENT_TEXT % (_write_value(d.kind), _write_value(d.special),
                             _tangle_text(d.first), _tangle_text(d.second))
