"""Expected outcomes for benchmark inputs, computed without the engine.

Nothing here imports ``tritangle``.  Slopes come from right folds over
``fractions.Fraction``; verdicts come from the dispatch rules as the
``tritangle.verdict`` docstring and PAPER.md state them; census rows come
from the census rules in the ``tritangle.census`` docstring.  The oracle
works on decomposition documents (plain JSON objects), so the same code
serves the ``documents`` and ``long_twists`` workloads.

An expected verdict is a dict with ``status`` and, by status:

* ``classified``: ``count`` (an int, or None for infinitely many) and
  ``branch`` (the dispatch clause label);
* ``inadmissible``: ``rules``, the set of violated rule names;
* ``toroidal``: nothing else.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

HALF = Fraction(1, 2)

# The dispatch clauses, labelled as the engine's verdicts name them.
BRANCHES = (
    "tautau (i)", "tautau (ii)", "tautau (iii)", "tautau (otherwise)",
    "taurho (hyperbolic)", "taurho (i)", "taurho (ii)", "taurho (iii)", "taurho (iv)",
    "rhorho (i)", "rhorho (ii)", "rhorho (otherwise)",
)
STATUSES = ("classified", "inadmissible", "toroidal")

# Results of the unit-fraction test on a tau side (besides a signed denominator).
NOT_UNIT = "not unit"
UNDETERMINED = "undetermined"


def fold(twists) -> Fraction | None:
    """Value of a twist vector, last entry outermost; None is infinity.

    The empty vector is 0.  Evaluation is projective: a + 1/0 = inf and
    a + 1/inf = a.
    """
    value: Fraction | None = Fraction(0)
    for i, a in enumerate(twists):
        if i == 0 or value is None:
            value = Fraction(a)
        elif value == 0:
            value = None
        else:
            value = a + 1 / value
    return value


def normalize(value: Fraction) -> Fraction:
    """The representative of value modulo Z in (-1/2, 1/2]."""
    r = value - (value.numerator // value.denominator)
    return r - 1 if r > HALF else r


def expand(value: Fraction) -> tuple[int, ...]:
    """Canonical twist vector of a finite value: Euclid with floor quotients.

    Every entry but the last is >= 1 and the first of two or more is >= 2.
    """
    digits = []
    p, q = value.numerator, value.denominator
    while True:
        a = p // q
        digits.append(a)
        p, q = q, p - a * q
        if q == 0:
            return tuple(reversed(digits))


def parse_slope(text: str) -> Fraction | None:
    """A "p/q" slope string; None for p/0 (infinity)."""
    head, _, tail = text.partition("/")
    num, den = int(head), int(tail or 1)
    return None if den == 0 else Fraction(num, den)


# ---------------------------------------------------------------------------
# Sides


def side(tangle: dict) -> dict:
    """Profile of one tangle side: the facts the dispatch rules read.

    Keys: kind, violations (rule names), atoroidal, essential, unit (tau:
    signed denominator m of slope 1/m, NOT_UNIT or UNDETERMINED), annulus
    (rho: satellite, cable or Hopf summand) and torus_p (rho: torus p).
    """
    kind = tangle["kind"]
    (variant, body), = tangle["presentation"].items()
    out = {"kind": kind, "violations": [], "atoroidal": True, "essential": True,
           "unit": NOT_UNIT, "annulus": False, "torus_p": None}
    if variant == "rational":
        value = fold(body["twists"])
        if value is None:
            out["violations"].append("InfiniteSlope")
            return out
        slope = normalize(value)
        unit = abs(slope.numerator) == 1
        out["essential"] = slope != 0 and (kind == "tau" or slope != HALF)
        if kind == "tau" and unit:
            out["unit"] = slope.denominator if slope > 0 else -slope.denominator
        # a rational loop-tangle of slope +-1/(2k), k >= 2, is a (k, +-1) torus arc
        if kind == "rho" and unit and slope.denominator % 2 == 0 and slope.denominator >= 4:
            out["torus_p"] = slope.denominator // 2
            out["annulus"] = True
    elif variant == "torus_rho":
        out["torus_p"] = abs(body["p"])
        out["annulus"] = True
    elif kind == "tau":
        _abstract_tau(body, out)
    else:
        _abstract_rho(body, out)
    return out


def _abstract_tau(flags: dict, out: dict):
    trivial, rational = flags["trivial"], flags["rational"]
    unit_flag = flags.get("unit_fraction_slope")
    text = flags.get("slope")
    bad = out["violations"]
    if not rational and (text is not None or unit_flag is not None):
        bad.append("NonRationalSlopeData")
    slope = None
    if text is not None:
        value = parse_slope(text)
        if value is None:
            bad.append("InfiniteSlope")
        else:
            slope = normalize(value)
            if unit_flag is not None and unit_flag != (abs(slope.numerator) == 1):
                bad.append("SlopeFlagMismatch")
            if trivial != (slope == 0):
                bad.append("TrivialFlagConflict")
    elif trivial and unit_flag:
        bad.append("TrivialFlagConflict")
    if trivial and not rational:
        bad.append("TrivialFlagConflict")
    out["atoroidal"] = flags["atoroidal"]
    out["essential"] = not trivial
    if not rational or unit_flag is False:
        out["unit"] = NOT_UNIT
    elif slope is not None:
        if abs(slope.numerator) == 1:
            out["unit"] = slope.denominator if slope > 0 else -slope.denominator
        else:
            out["unit"] = NOT_UNIT
    else:
        out["unit"] = UNDETERMINED


def _abstract_rho(flags: dict, out: dict):
    trivial = flags["trivial"]
    hopf = flags.get("hopf_tangle", False)
    torus = flags.get("torus")
    on = [name for name in ("satellite", "cable", "hopf_summand")
          if flags.get(name, False) or (name == "satellite" and torus is not None)]
    bad = out["violations"]
    if len(on) > 1:
        bad.append("MutualExclusivity")
    if hopf and (trivial or on):
        bad.append("HopfTangleConflict")
    if trivial and (on or hopf or torus is not None):
        bad.append("TrivialFlagConflict")
    out["atoroidal"] = flags["atoroidal"]
    out["essential"] = not trivial and not hopf
    out["annulus"] = bool(on)
    out["torus_p"] = abs(torus["p"]) if torus is not None else None


# ---------------------------------------------------------------------------
# Decompositions

SIDE_KINDS = {"tautau": ("tau", "tau"), "taurho": ("tau", "rho"), "rhorho": ("rho", "rho")}


def _classified(count: int | None, branch: str) -> dict:
    return {"status": "classified", "count": count, "branch": branch}


def _inadmissible(*rules: str) -> dict:
    return {"status": "inadmissible", "rules": set(rules)}


def expect(doc: dict) -> dict:
    """Expected verdict of a well-formed decomposition document."""
    kind, special = doc["type"], doc["special"]
    a, b = (side(t) for t in doc["tangles"])
    rules = ["KindMismatch" for s, k in zip((a, b), SIDE_KINDS[kind]) if s["kind"] != k]
    if kind == "rhorho" and special:
        rules.append("SpecialRhoRho")
    rules += a["violations"] + b["violations"]
    if rules:
        return _inadmissible(*rules)
    if not (a["essential"] and b["essential"]):
        return _inadmissible("InessentialTangle")
    if not (a["atoroidal"] and b["atoroidal"]):
        return {"status": "toroidal"}
    if kind == "tautau":
        return _tautau(a["unit"], b["unit"], special)
    if kind == "taurho":
        return _taurho(a["unit"], b, special)
    annuli = a["annulus"] + b["annulus"]
    return _classified(annuli, ("rhorho (otherwise)", "rhorho (ii)", "rhorho (i)")[annuli])


def _tautau(m, n, special: bool) -> dict:
    if not special or NOT_UNIT in (m, n):
        return _classified(0, "tautau (otherwise)")
    if UNDETERMINED in (m, n):
        return _inadmissible("UndeterminedSlope")
    if abs(m) == 3 and abs(n) == 3:
        return _classified(None, "tautau (i)") if m == n else _classified(3, "tautau (ii)")
    return _classified(1, "tautau (iii)")


def _taurho(m, rho: dict, special: bool) -> dict:
    if not rho["annulus"]:
        return _classified(0, "taurho (hyperbolic)")
    p = rho["torus_p"]
    if not special or p is None or m == NOT_UNIT:
        return _classified(1, "taurho (iv)")
    if m == UNDETERMINED:
        return _inadmissible("UndeterminedSlope")
    if abs(m) == 3:
        return _classified(None, "taurho (i)") if p == 2 else _classified(4, "taurho (ii)")
    return _classified(2, "taurho (iii)") if p != 2 else _classified(1, "taurho (iv)")


def canonical(doc: dict) -> dict:
    """The document as a round-trip serializer writes it back.

    Torus parameters get p > 0, abstract slopes are reduced "p/q" strings
    with q > 0, and optional rho flags appear only when true.
    """
    return {"type": doc["type"], "special": doc["special"],
            "tangles": [_canonical_tangle(t) for t in doc["tangles"]]}


def _canonical_torus(t: dict) -> dict:
    return {"p": t["p"], "q": t["q"]} if t["p"] > 0 else {"p": -t["p"], "q": -t["q"]}


def _canonical_tangle(tangle: dict) -> dict:
    (variant, body), = tangle["presentation"].items()
    if variant == "rational":
        body = {"twists": list(body["twists"])}
    elif variant == "torus_rho":
        body = _canonical_torus(body)
    elif tangle["kind"] == "tau":
        body = dict(body)
        if "slope" in body:
            head, _, tail = body["slope"].partition("/")
            num, den = int(head), int(tail or 1)
            if den < 0:
                num, den = -num, -den
            if den == 0:
                num = 1
            g = gcd(num, den)
            body["slope"] = f"{num // g}/{den // g}"
    else:
        body = {k: v for k, v in body.items() if v is not False or k in ("atoroidal", "trivial")}
        if "torus" in body:
            body["torus"] = _canonical_torus(body["torus"])
    return {"kind": tangle["kind"], "presentation": {variant: body}}


# ---------------------------------------------------------------------------
# Census

CENSUS_CAP = 99


def census_rows(kind: str, bound: int) -> list[tuple[int, int, str, str]]:
    """Rows (m, n, branch, count) of a census, sorted by (m, n).

    * tautau: special, slopes 1/m and 1/n for odd m, n with 3 <= |m|, |n| <= bound;
    * taurho: special, tau slope 1/m for odd m >= 3 against a (p, 1)-torus
      rho side, 2 <= p <= bound;
    * rhorho: not special; side 0 is a rational rho of slope 3/8 (no good
      annulus), side p >= 2 a (p, 1)-torus rho (one good annulus each).
    """
    rows = []
    if kind == "tautau":
        values = sorted(s * k for k in range(3, bound + 1, 2) for s in (1, -1))
        for m in values:
            for n in values:
                verdict = _tautau(m, n, True)
                rows.append((m, n, verdict["branch"], _count(verdict["count"])))
    elif kind == "taurho":
        for m in range(3, bound + 1, 2):
            for p in range(2, bound + 1):
                verdict = _taurho(m, {"annulus": True, "torus_p": p}, True)
                rows.append((m, p, verdict["branch"], _count(verdict["count"])))
    else:
        sides = [0] + list(range(2, bound + 1))
        for x in sides:
            for y in sides:
                annuli = (x != 0) + (y != 0)
                branch = ("rhorho (otherwise)", "rhorho (ii)", "rhorho (i)")[annuli]
                rows.append((x, y, branch, str(annuli)))
    return rows


def _count(count: int | None) -> str:
    return "inf" if count is None else str(count)


def census_csv(kind: str, bound: int) -> str:
    """The census CSV text: a header line, then one line per row."""
    lines = ["m,n,branch,count"] + [f"{m},{n},{b},{c}" for m, n, b, c in census_rows(kind, bound)]
    return "\n".join(lines) + "\n"
