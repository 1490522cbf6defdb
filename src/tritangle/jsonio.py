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

Abstract tau flags: atoroidal, trivial, rational (required booleans),
optional slope ("p/q" string) and unit_fraction_slope.  Abstract rho
flags: atoroidal, trivial (required), optional hopf_tangle, satellite,
cable, hopf_summand and torus {"p": int, "q": int}.

Limits, each a ``DocumentError`` past it: a field name occurs once per object,
an integer literal has at most ``sys.get_int_max_str_digits()`` (4,300) digits,
nesting stays within ``sys.getrecursionlimit()`` (1,000) less the caller's depth.
"""

from __future__ import annotations

import json
from typing import Any

from .errors import DocumentError, InvalidTorusParams, ZeroOverZero
from .frac import ExtFraction, parse_fraction
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
from .verdict import Decomposition, RHORHO, TAURHO, TAUTAU


def _require_object(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise DocumentError(path, f"expected an object, got {type(value).__name__}")
    return value


def _check_fields(obj: dict, path: str, required: tuple[str, ...],
                  optional: tuple[str, ...] = ()):
    for key in obj:
        if key not in required and key not in optional:
            raise DocumentError(f"{path}.{key}", "unknown field")
    for key in required:
        if key not in obj:
            raise DocumentError(f"{path}.{key}", "required field is missing")


def _bool(obj: dict, key: str, path: str, default: bool | None = None) -> bool | None:
    if key not in obj:
        return default
    value = obj[key]
    if not isinstance(value, bool):
        raise DocumentError(f"{path}.{key}", "expected a boolean")
    return value


def _int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DocumentError(path, "expected an integer")
    return value


def _slope(obj: dict, key: str, path: str) -> ExtFraction | None:
    if key not in obj:
        return None
    value = obj[key]
    if not isinstance(value, str):
        raise DocumentError(f"{path}.{key}", 'expected a "p/q" string')
    try:
        return parse_fraction(value)
    except (ValueError, ZeroOverZero) as exc:
        raise DocumentError(f"{path}.{key}", f"not a valid fraction: {exc}") from None


def _torus(obj: Any, path: str) -> TorusParams:
    fields = _require_object(obj, path)
    _check_fields(fields, path, required=("p", "q"))
    try:
        return TorusParams(_int(fields["p"], f"{path}.p"), _int(fields["q"], f"{path}.q"))
    except InvalidTorusParams as exc:
        raise DocumentError(path, str(exc)) from None


def parse_tangle(obj: Any, path: str = "tangle") -> Descriptor:
    doc = _require_object(obj, path)
    _check_fields(doc, path, required=("kind", "presentation"))
    kind = doc["kind"]
    if kind not in (KIND_TAU, KIND_RHO):
        raise DocumentError(f"{path}.kind", f'expected "tau" or "rho", got {kind!r}')
    pres = _require_object(doc["presentation"], f"{path}.presentation")
    if len(pres) != 1:
        raise DocumentError(f"{path}.presentation",
                            "exactly one presentation variant is required")
    variant, body = next(iter(pres.items()))
    vpath = f"{path}.presentation.{variant}"
    if variant == "rational":
        body = _require_object(body, vpath)
        _check_fields(body, vpath, required=("twists",))
        twists = body["twists"]
        if not isinstance(twists, list):
            raise DocumentError(f"{vpath}.twists", "expected a list of integers")
        for i, a in enumerate(twists):
            if type(a) is not int:  # also rejects bool, as _int does
                raise DocumentError(f"{vpath}.twists[{i}]", "expected an integer")
        presentation = RationalPresentation(tuple(twists))
    elif variant == "torus_rho":
        if kind != KIND_RHO:
            raise DocumentError(vpath, "torus parameters only present rho-tangles")
        presentation = TorusRhoPresentation(_torus(body, vpath))
    elif variant == "abstract":
        body = _require_object(body, vpath)
        if kind == KIND_TAU:
            _check_fields(body, vpath,
                          required=("atoroidal", "trivial", "rational"),
                          optional=("slope", "unit_fraction_slope"))
            presentation = AbstractTau(
                atoroidal=_bool(body, "atoroidal", vpath),
                trivial=_bool(body, "trivial", vpath),
                rational=_bool(body, "rational", vpath),
                slope=_slope(body, "slope", vpath),
                unit_fraction_slope=_bool(body, "unit_fraction_slope", vpath, None))
        else:
            _check_fields(body, vpath,
                          required=("atoroidal", "trivial"),
                          optional=("hopf_tangle", "satellite", "cable",
                                    "hopf_summand", "torus"))
            presentation = AbstractRho(
                atoroidal=_bool(body, "atoroidal", vpath),
                trivial=_bool(body, "trivial", vpath),
                hopf_tangle=_bool(body, "hopf_tangle", vpath, False),
                satellite=_bool(body, "satellite", vpath, False),
                cable=_bool(body, "cable", vpath, False),
                hopf_summand=_bool(body, "hopf_summand", vpath, False),
                torus=_torus(body["torus"], f"{vpath}.torus") if "torus" in body else None)
    else:
        raise DocumentError(vpath, "unknown presentation variant")
    if kind == KIND_TAU:
        if not isinstance(presentation, (RationalPresentation, AbstractTau)):
            raise DocumentError(vpath, "not a valid tau presentation")
        return TauDescriptor(presentation)
    return RhoDescriptor(presentation)


def parse_decomposition(obj: Any, path: str = "document") -> Decomposition:
    doc = _require_object(obj, path)
    _check_fields(doc, path, required=("type", "special", "tangles"))
    kind = doc["type"]
    if kind not in (TAUTAU, TAURHO, RHORHO):
        raise DocumentError(f"{path}.type",
                            f'expected "tautau", "taurho" or "rhorho", got {kind!r}')
    special = _bool(doc, "special", path)
    tangles = doc["tangles"]
    if not isinstance(tangles, list) or len(tangles) != 2:
        raise DocumentError(f"{path}.tangles", "expected a list of exactly two tangles")
    first = parse_tangle(tangles[0], f"{path}.tangles[0]")
    second = parse_tangle(tangles[1], f"{path}.tangles[1]")
    return Decomposition(kind=kind, special=special, first=first, second=second)


def _unique_fields(pairs: list[tuple[str, Any]]) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):  # json.loads alone would keep the last value
        # the first key out of step with the deduplicated order is a repeat
        key = next((k for (k, _), kept in zip(pairs, obj) if k != kept), pairs[len(obj)][0])
        raise DocumentError(f"field {key!r}", "occurs more than once in one object")
    return obj


_DECODER = json.JSONDecoder(object_pairs_hook=_unique_fields)


def _decode(text: str, path: str) -> Any:
    if text.startswith("\ufeff"):  # json.loads refuses a BOM; JSONDecoder.decode does not check
        raise DocumentError("line 1, column 1", "Unexpected UTF-8 BOM (decode using utf-8-sig)")
    try:
        return _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"line {exc.lineno}, column {exc.colno}", exc.msg) from None
    except ValueError as exc:  # an integer literal past the int-string digit limit
        # keep the reason, drop the interpreter's advice to raise the limit
        raise DocumentError(path, str(exc).partition(";")[0]) from None
    except RecursionError:
        raise DocumentError(path, "arrays or objects nested too deeply") from None


def loads_decomposition(text: str) -> Decomposition:
    return parse_decomposition(_decode(text, "document"))


def loads_tangle(text: str) -> Descriptor:
    return parse_tangle(_decode(text, "tangle"))


# ---------------------------------------------------------------------------
# Serialization (round-trip stable)

def serialize_tangle(d: Descriptor) -> dict:
    p = d.presentation
    if isinstance(p, RationalPresentation):
        body = {"rational": {"twists": list(p.twists)}}
    elif isinstance(p, TorusRhoPresentation):
        body = {"torus_rho": {"p": p.params.p, "q": p.params.q}}
    elif isinstance(p, AbstractTau):
        flags: dict[str, Any] = {
            "atoroidal": p.atoroidal, "trivial": p.trivial, "rational": p.rational}
        if p.slope is not None:
            flags["slope"] = f"{p.slope.num}/{p.slope.den}"
        if p.unit_fraction_slope is not None:
            flags["unit_fraction_slope"] = p.unit_fraction_slope
        body = {"abstract": flags}
    else:
        flags = {"atoroidal": p.atoroidal, "trivial": p.trivial}
        if p.hopf_tangle:
            flags["hopf_tangle"] = True
        if p.satellite:
            flags["satellite"] = True
        if p.cable:
            flags["cable"] = True
        if p.hopf_summand:
            flags["hopf_summand"] = True
        if p.torus is not None:
            flags["torus"] = {"p": p.torus.p, "q": p.torus.q}
        body = {"abstract": flags}
    return {"kind": d.kind, "presentation": body}


def serialize_decomposition(d: Decomposition) -> dict:
    return {
        "type": d.kind,
        "special": d.special,
        "tangles": [serialize_tangle(d.first), serialize_tangle(d.second)],
    }


def dumps_decomposition(d: Decomposition) -> str:
    return json.dumps(serialize_decomposition(d))
