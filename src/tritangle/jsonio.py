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

The abstract flags are the slots of ``AbstractTau`` and ``AbstractRho``: one
without a default in ``__init__`` is required, the others are optional and are
written out only when they differ from their default.  Every flag is a boolean
except the tau ``slope`` and the rho ``torus`` ({"p": int, "q": int}).  A slope is a string
"p/q" or "p" of ASCII digits, with "-" as the only sign; it need not be reduced.
Serializing an integer with more digits than ``str`` writes raises ``SlopeTooLarge``.

Limits, each a ``DocumentError`` past it: a field name occurs once per object,
an integer literal has at most ``sys.get_int_max_str_digits()`` (4,300) digits,
and arrays and objects nest at most ``MAX_DEPTH`` deep, or less where the interpreter's
recursion limit is lowered or the caller's stack is already deep.
"""

from __future__ import annotations

import json
import re
from itertools import accumulate
from typing import Any

from .errors import DocumentError, InvalidTorusParams, SlopeTooLarge, ZeroOverZero
from .frac import MAX_STR_DIGITS, ExtFraction, parse_fraction, too_long_to_print
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
    _trusted_rational,
)
from .verdict import KINDS, Decomposition


# Each fixed schema's field names as the keys of a dict: iterated in order, and compared with
# an object's keys in one C call
_DOCUMENT, _TANGLE, _RATIONAL, _TORUS = (dict.fromkeys(names).keys() for names in (
    ("type", "special", "tangles"), ("kind", "presentation"), ("twists",), ("p", "q")))
_INT_ONLY = frozenset({int})  # holds the types of a list's entries iff each is a plain int


# Each parser compares an exact dict's keys with its schema in one C call and checks twist types
# inline; _fields and the per-index loop run only to name a fault, or for a dict or list subclass
# built in Python.  An abstract flag's type is checked by its class alone.

def _fields(obj: Any, path: str, required, allowed=None):
    """Refuse all but an object with every ``required`` field and none outside ``allowed``."""
    if not isinstance(obj, dict):
        raise DocumentError(path, f"expected an object, got {type(obj).__name__}")
    allowed = allowed or required
    for key in obj:
        if key not in allowed:
            raise DocumentError(f"{path}.{key}", "unknown field")
    for key in required:
        if key not in obj:
            raise DocumentError(f"{path}.{key}", "required field is missing")


def _slope(value: Any, path: str) -> ExtFraction:
    if not isinstance(value, str):
        raise DocumentError(path, 'expected a "p/q" string')
    try:
        return parse_fraction(value)
    except (ValueError, ZeroOverZero) as exc:
        raise DocumentError(path, f"not a valid fraction: {exc}") from None


def _torus(obj: Any, path: str) -> TorusParams:
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
        raise SlopeTooLarge(f"the slope has more than {MAX_STR_DIGITS} digits, too many to write")
    return f"{s.num}/{s.den}"


# How each non-boolean abstract flag is read from and written to JSON.
_READ_FLAG = {"slope": _slope, "torus": _torus}
_WRITE_FLAG = {"slope": _write_slope, "torus": lambda t: {"p": t.p, "q": t.q}}


_REQUIRED = object()  # the default of a flag without one: no flag value equals it


def _abstract_schema(cls) -> tuple:
    """An abstract presentation class, its flags in field order, the required and all names.

    Each flag is (name, default, write), read from the class's slots and the defaults of its
    ``__init__``: the default is ``_REQUIRED`` for a required flag, and a boolean flag has no
    writer (None): it is written as it is.
    """
    names, defaults = cls.__slots__, cls.__init__.__defaults__
    required = len(names) - len(defaults)
    flags = tuple((name, default, _WRITE_FLAG.get(name))
                  for name, default in zip(names, (_REQUIRED,) * required + defaults))
    return cls, flags, dict.fromkeys(names[:required]).keys(), dict.fromkeys(names).keys()


# kind -> the schema above; built once, since reading the class's fields on every call
# would tax the documents path
_ABSTRACT = {KIND_TAU: _abstract_schema(AbstractTau), KIND_RHO: _abstract_schema(AbstractRho)}


def parse_tangle(obj: Any, path: str = "tangle") -> Descriptor:
    if type(obj) is not dict or obj.keys() != _TANGLE:
        _fields(obj, path, _TANGLE)
    kind, pres = obj["kind"], obj["presentation"]
    if kind not in (KIND_TAU, KIND_RHO):
        raise DocumentError(f"{path}.kind", f'expected "tau" or "rho", got {kind!r}')
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
        twists = body["twists"]
        if type(twists) is not list or not _INT_ONLY.issuperset(map(type, twists)):
            if not isinstance(twists, list):
                raise DocumentError(f"{path}.presentation.rational.twists",
                                    "expected a list of integers")
            for i, a in enumerate(twists):
                if type(a) is not int:  # also rejects bool
                    raise DocumentError(f"{path}.presentation.rational.twists[{i}]",
                                        "expected an integer")
        presentation = _trusted_rational(tuple(twists))  # each entry is checked above
    elif variant == "torus_rho":
        if kind != KIND_RHO:
            raise DocumentError(f"{path}.presentation.torus_rho",
                                "torus parameters only present rho-tangles")
        presentation = TorusRhoPresentation(_torus(body, f"{path}.presentation.torus_rho"))
    elif variant == "abstract":
        cls, _, required, names = _ABSTRACT[kind]
        at = f"{path}.presentation.abstract"
        if type(body) is not dict or not required <= body.keys() <= names:
            _fields(body, at, required, names)
        flags = dict(body)
        for name in _READ_FLAG.keys() & flags.keys():  # slope or torus, read first
            flags[name] = _READ_FLAG[name](flags[name], f"{at}.{name}")
        try:
            presentation = cls(**flags)
        except TypeError as exc:  # the refused flag is a boolean: slope and torus were read above
            raise DocumentError(f"{at}.{exc.field}", "expected a boolean") from None
        if flags.get("unit_fraction_slope", False) is None:  # the class reads null as unstated
            raise DocumentError(f"{at}.unit_fraction_slope", "expected a boolean")
    else:
        raise DocumentError(f"{path}.presentation.{variant}", "unknown presentation variant")
    return (TauDescriptor if kind == KIND_TAU else RhoDescriptor)(presentation)


def parse_decomposition(obj: Any, path: str = "document") -> Decomposition:
    if type(obj) is not dict or obj.keys() != _DOCUMENT:
        _fields(obj, path, _DOCUMENT)
    kind, special, tangles = obj["type"], obj["special"], obj["tangles"]
    if kind not in KINDS:
        raise DocumentError(f"{path}.type",
                            f'expected "tautau", "taurho" or "rhorho", got {kind!r}')
    if type(special) is not bool:
        raise DocumentError(f"{path}.special", "expected a boolean")
    if not isinstance(tangles, list) or len(tangles) != 2:
        raise DocumentError(f"{path}.tangles", "expected a list of exactly two tangles")
    return Decomposition(kind, special, parse_tangle(tangles[0], f"{path}.tangles[0]"),
                         parse_tangle(tangles[1], f"{path}.tangles[1]"))


def _unique_fields(pairs: list[tuple[str, Any]]) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):  # json.loads alone would keep the last value
        # the first key out of step with the deduplicated order is a repeat
        key = next((k for (k, _), kept in zip(pairs, obj) if k != kept), pairs[len(obj)][0])
        raise DocumentError(f"field {key!r}", "occurs more than once in one object")
    return obj


_DECODER = json.JSONDecoder(object_pairs_hook=_unique_fields)

# The deepest nesting a document may have (RFC 8259 section 9 lets a parser limit it).  The
# decoder's own bound differs between Python versions and lies deeper on all of them, so
# nesting is also checked here; schema documents nest at most 6 deep.
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
    # counting the opening brackets is cheap and spares every real document the scan
    if text.count("[") + text.count("{") <= MAX_DEPTH:
        return
    brackets = re.sub(_NOT_BRACKETS, "", re.sub(_STRING, "", text))
    if max(accumulate(map(_DEPTH_STEP.__getitem__, brackets)), default=0) > MAX_DEPTH:
        raise DocumentError(path, _TOO_DEEP)


def _decode(text: str, path: str) -> Any:
    if text.startswith("\ufeff"):  # json.loads refuses a BOM; JSONDecoder.decode does not check
        raise DocumentError("line 1, column 1", "Unexpected UTF-8 BOM (decode using utf-8-sig)")
    error = None
    try:
        value = _DECODER.decode(text)
    except RecursionError:
        # the decoder's own bound: deeper than MAX_DEPTH at the default recursion limit and a
        # shallow caller stack, but on 3.10 and 3.11 it is the limit less the caller's depth
        raise DocumentError(path, _TOO_DEEP) from None
    except json.JSONDecodeError as exc:
        error = DocumentError(f"line {exc.lineno}, column {exc.colno}", exc.msg)
    except ValueError as exc:  # an integer literal past the int-string digit limit
        # keep the reason, drop the interpreter's advice to raise the limit
        error = DocumentError(path, str(exc).partition(";")[0])
    except DocumentError as exc:  # a repeated field
        error = exc
    # before any other error, which a version whose decoder stops at a smaller depth never meets
    _refuse_deep_nesting(text, path)
    if error is not None:
        raise error
    return value


def loads_decomposition(text: str) -> Decomposition:
    return parse_decomposition(_decode(text, "document"))


def loads_tangle(text: str) -> Descriptor:
    return parse_tangle(_decode(text, "tangle"))


# ---------------------------------------------------------------------------
# Serialization (round-trip stable)

def serialize_tangle(d: Descriptor) -> dict:
    p = d.presentation
    if isinstance(p, RationalPresentation):
        # the entry of largest magnitude is the least or the greatest
        if p.twists and (too_long_to_print(min(p.twists)) or too_long_to_print(max(p.twists))):
            raise SlopeTooLarge(f"a twist entry has more than {MAX_STR_DIGITS} digits, "
                                "too many to write")
        body = {"rational": {"twists": list(p.twists)}}
    elif isinstance(p, TorusRhoPresentation):
        body = {"torus_rho": {"p": p.params.p, "q": p.params.q}}
    else:
        flags = {}
        for name, default, write in _ABSTRACT[d.kind][1]:  # the flags in field order
            value = getattr(p, name)
            if value != default:  # a required flag's default is _REQUIRED
                flags[name] = write(value) if write else value
        body = {"abstract": flags}
    return {"kind": d.kind, "presentation": body}


def serialize_decomposition(d: Decomposition) -> dict:
    return {
        "type": d.kind,
        "special": d.special,
        "tangles": [serialize_tangle(d.first), serialize_tangle(d.second)],
    }


# the serializer builds fresh containers, so no cycle can occur: skip the encoder's cycle check
_ENCODER = json.JSONEncoder(check_circular=False)


def dumps_decomposition(d: Decomposition) -> str:
    return _ENCODER.encode(serialize_decomposition(d))
