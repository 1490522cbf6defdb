"""Seeded input generators for the benchmark workloads.

Inputs are produced in batches.  A batch is a pure function of
(workload, seed, batch index), so a run reproduces its inputs from the
seed alone, whatever number of batches its time budget allows.  Nothing
here imports ``tritangle``: every expected outcome comes from ``oracle``,
except catalog documents, whose stored verdicts the caller passes in.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import oracle

# Composition of every documents batch: fixed counts, shuffled order, so the
# share of each class is the same in every run and on every seed.
BATCH_DOCS = 1000
HOSTILE_PER_BATCH = 10       # half long integers, half deep nesting
MALFORMED_PER_BATCH = 100    # expected outcome: DocumentError
CATALOG_PER_BATCH = 20       # catalog documents and their mirrors, half each

# The target classes of generated documents: every dispatch branch, plus
# inadmissible and toroidal decompositions.
TARGETS = oracle.BRANCHES + ("inadmissible", "toroidal")

INT_DIGITS_LIMIT = 4300      # CPython's default int <-> str conversion limit
DEEP_NESTING = 100_000

LONG_BATCH = 60
LONG_MIN, LONG_MAX = 16, 256

CENSUS_KINDS = ("tautau", "taurho", "rhorho")

# Integer parts, split entries, denominators and torus parameters are drawn
# from wide ranges, so that generated sides rarely repeat: the documents
# workload shares little work between documents, unlike the census.
SHIFT = 40
MAX_DEN = 200
MAX_P = 40


def batch_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


@dataclass(frozen=True)
class DocCase:
    """One document and its expected outcome.

    ``verdict`` is None when the expected outcome is a DocumentError;
    otherwise ``document`` is the canonical form the serializer must
    write back.
    """

    text: str
    label: str            # a TARGETS entry, "catalog", "mirror", "malformed" or "hostile"
    verdict: dict | None
    document: dict | None


# ---------------------------------------------------------------------------
# Sides


def tangle(kind: str, variant: str, body: dict) -> dict:
    return {"kind": kind, "presentation": {variant: body}}


def vector(rng: random.Random, value: Fraction) -> list[int]:
    """A random twist vector of the given value.

    Starts from the canonical expansion and splits entries c into
    (x, 0, c - x), which keeps the value (x + 1/P, then 0 + its
    reciprocal, then c - x + x + 1/P).
    """
    v = list(oracle.expand(value))
    for _ in range(rng.randrange(4)):
        i = rng.randrange(len(v))
        x = rng.randint(-9, 9)
        v[i:i + 1] = [x, 0, v[i] - x]
    return v


def rational(rng: random.Random, kind: str, slope: Fraction) -> dict:
    """A rational side of the given slope modulo Z, with a random integer part."""
    return tangle(kind, "rational", {"twists": vector(rng, slope + rng.randint(-SHIFT, SHIFT))})


def unit_slope(m: int) -> Fraction:
    return Fraction(1, m)


def non_unit_slope(rng: random.Random) -> Fraction:
    """A normalized slope a/b with |a| >= 2."""
    while True:
        b = rng.randint(5, MAX_DEN)
        a = rng.randint(2, b // 2)
        if gcd(a, b) == 1:
            return Fraction(a if rng.random() < 0.5 else -a, b)


def tau_slope(rng: random.Random, slope: Fraction) -> dict:
    """A tau side of the given normalized slope, rational or abstract."""
    value = slope + rng.randint(-SHIFT, SHIFT)
    if rng.random() < 0.9:
        return tangle("tau", "rational", {"twists": vector(rng, value)})
    c = rng.randint(1, 3)
    flags = {"atoroidal": True, "trivial": slope == 0, "rational": True,
             "slope": f"{value.numerator * c}/{value.denominator * c}"}
    if rng.random() < 0.5:
        flags["unit_fraction_slope"] = abs(slope.numerator) == 1
    return tangle("tau", "abstract", flags)


def unit_m(rng: random.Random, allow_three: bool = True) -> int:
    choices = [m for m in range(2, MAX_DEN) if allow_three or m != 3]
    return rng.choice(choices) * rng.choice((1, -1))


def tau_unit(rng: random.Random, m: int) -> dict:
    return tau_slope(rng, unit_slope(m))


def tau_not_unit(rng: random.Random) -> dict:
    """An essential atoroidal tau side that is not rational of unit slope."""
    r = rng.random()
    if r < 0.8:
        return tau_slope(rng, non_unit_slope(rng))
    if r < 0.9:
        return tangle("tau", "abstract", {"atoroidal": True, "trivial": False,
                                          "rational": True, "unit_fraction_slope": False})
    return tangle("tau", "abstract", {"atoroidal": True, "trivial": False, "rational": False})


def tau_any(rng: random.Random) -> dict:
    """Any essential atoroidal tau side, its unit status possibly unknown."""
    r = rng.random()
    if r < 0.45:
        return tau_unit(rng, unit_m(rng))
    if r < 0.92:
        return tau_not_unit(rng)
    return tangle("tau", "abstract", {"atoroidal": True, "trivial": False, "rational": True})


def tau_undetermined(rng: random.Random) -> dict:
    flags = {"atoroidal": True, "trivial": False, "rational": True}
    if rng.random() < 0.5:
        flags["unit_fraction_slope"] = True
    return tangle("tau", "abstract", flags)


def coprime_q(rng: random.Random, p: int) -> int:
    while True:
        q = rng.randint(-MAX_P, MAX_P)
        if q and gcd(p, abs(q)) == 1:
            return q


def rho_torus(rng: random.Random, p: int) -> dict:
    """A rho side with torus parameter p: torus, rational or abstract form."""
    r = rng.random()
    if r < 0.45:
        q = coprime_q(rng, p)
        if rng.random() < 0.2:
            return tangle("rho", "torus_rho", {"p": -p, "q": -q})
        return tangle("rho", "torus_rho", {"p": p, "q": q})
    if r < 0.9:
        return rational(rng, "rho", Fraction(rng.choice((1, -1)), 2 * p))
    flags = {"atoroidal": True, "trivial": False, "torus": {"p": p, "q": coprime_q(rng, p)}}
    if rng.random() < 0.5:
        flags["satellite"] = True
    return tangle("rho", "abstract", flags)


def rho_annulus(rng: random.Random) -> dict:
    """A rho side with a good annulus, torus or flag-only."""
    if rng.random() < 0.8:
        return rho_torus(rng, rng.randint(2, MAX_P))
    flag = rng.choice(("satellite", "cable", "hopf_summand"))
    return tangle("rho", "abstract", {"atoroidal": True, "trivial": False, flag: True})


def rho_plain(rng: random.Random) -> dict:
    """An essential atoroidal rho side with no good annulus."""
    r = rng.random()
    if r < 0.5:
        return rational(rng, "rho", non_unit_slope(rng))
    if r < 0.8:  # unit slope with odd denominator: no torus arc
        return rational(rng, "rho", unit_slope(rng.randrange(3, MAX_DEN, 2) * rng.choice((1, -1))))
    flags = {"atoroidal": True, "trivial": False}
    for name in ("hopf_tangle", "satellite", "cable", "hopf_summand"):
        if rng.random() < 0.2:
            flags[name] = False
    return tangle("rho", "abstract", flags)


def rho_any(rng: random.Random) -> dict:
    return rho_annulus(rng) if rng.random() < 0.5 else rho_plain(rng)


def decomposition(kind: str, special: bool, first: dict, second: dict) -> dict:
    return {"type": kind, "special": special, "tangles": [first, second]}


def shuffled(rng: random.Random, a: dict, b: dict) -> tuple[dict, dict]:
    return (a, b) if rng.random() < 0.5 else (b, a)


# ---------------------------------------------------------------------------
# Generated documents, one recipe per target class


def _tautau_i(rng):
    m = rng.choice((3, -3))
    return decomposition("tautau", True, tau_unit(rng, m), tau_unit(rng, m))


def _tautau_ii(rng):
    return decomposition("tautau", True, *shuffled(rng, tau_unit(rng, 3), tau_unit(rng, -3)))


def _tautau_iii(rng):
    m, n = unit_m(rng, allow_three=False), unit_m(rng)
    return decomposition("tautau", True, *shuffled(rng, tau_unit(rng, m), tau_unit(rng, n)))


def _tautau_otherwise(rng):
    if rng.random() < 0.5:
        return decomposition("tautau", False, tau_any(rng), tau_any(rng))
    return decomposition("tautau", True, *shuffled(rng, tau_not_unit(rng), tau_any(rng)))


def _taurho_hyperbolic(rng):
    return decomposition("taurho", rng.random() < 0.5, tau_any(rng), rho_plain(rng))


def _taurho_i(rng):
    return decomposition("taurho", True, tau_unit(rng, rng.choice((3, -3))), rho_torus(rng, 2))


def _taurho_ii(rng):
    return decomposition("taurho", True, tau_unit(rng, rng.choice((3, -3))),
                         rho_torus(rng, rng.randint(3, MAX_P)))


def _taurho_iii(rng):
    return decomposition("taurho", True, tau_unit(rng, unit_m(rng, allow_three=False)),
                         rho_torus(rng, rng.randint(3, MAX_P)))


def _taurho_iv(rng):
    r = rng.random()
    if r < 0.25:
        return decomposition("taurho", False, tau_any(rng), rho_annulus(rng))
    if r < 0.5:
        flag = rng.choice(("satellite", "cable", "hopf_summand"))
        rho = tangle("rho", "abstract", {"atoroidal": True, "trivial": False, flag: True})
        return decomposition("taurho", True, tau_any(rng), rho)
    if r < 0.75:
        return decomposition("taurho", True, tau_not_unit(rng),
                             rho_torus(rng, rng.randint(2, MAX_P)))
    return decomposition("taurho", True, tau_unit(rng, unit_m(rng, allow_three=False)),
                         rho_torus(rng, 2))


def _rhorho_i(rng):
    return decomposition("rhorho", False, rho_annulus(rng), rho_annulus(rng))


def _rhorho_ii(rng):
    return decomposition("rhorho", False, *shuffled(rng, rho_annulus(rng), rho_plain(rng)))


def _rhorho_otherwise(rng):
    return decomposition("rhorho", False, rho_plain(rng), rho_plain(rng))


def _valid(rng):
    """A random admissible decomposition of any branch."""
    return _RECIPES[rng.choice(oracle.BRANCHES)](rng)


def _inadmissible(rng):
    r = rng.randrange(10)
    if r == 0:
        return decomposition("rhorho", True, rho_any(rng), rho_any(rng))
    if r == 1:  # a trivial tau side (slope 0)
        if rng.random() < 0.5:
            trivial = rational(rng, "tau", Fraction(0))
        else:
            trivial = tangle("tau", "abstract",
                             {"atoroidal": True, "trivial": True, "rational": True})
        return decomposition("tautau", rng.random() < 0.5, *shuffled(rng, trivial, tau_any(rng)))
    if r == 2:  # a Hopf rho side (slope 1/2): non-trivial but inessential
        if rng.random() < 0.5:
            hopf = rational(rng, "rho", Fraction(1, 2))
        else:
            hopf = tangle("rho", "abstract",
                          {"atoroidal": True, "trivial": False, "hopf_tangle": True})
        return decomposition("taurho", rng.random() < 0.5, tau_any(rng), hopf)
    if r == 3:  # a twist vector of infinite value: prefix of value 0, then any entry
        twists = vector(rng, Fraction(0)) + [rng.randint(-4, 4)]
        infinite = tangle("tau", "rational", {"twists": twists})
        return decomposition("tautau", True, *shuffled(rng, infinite, tau_any(rng)))
    if r == 4:  # sides of the wrong kinds
        if rng.random() < 0.5:
            return decomposition("tautau", False, tau_any(rng), rho_any(rng))
        return decomposition("taurho", False, rho_any(rng), tau_any(rng))
    if r == 5:
        bad = tangle("tau", "abstract", {"atoroidal": True, "trivial": False, "rational": False,
                                         "slope": "1/3"})
        return decomposition("tautau", False, *shuffled(rng, bad, tau_any(rng)))
    if r == 6:
        bad = tangle("tau", "abstract", {"atoroidal": True, "trivial": False, "rational": True,
                                         "slope": "2/5", "unit_fraction_slope": True})
        return decomposition("taurho", True, bad, rho_any(rng))
    if r == 7:
        bad = tangle("rho", "abstract", {"atoroidal": True, "trivial": False,
                                         "satellite": True, "cable": True})
        return decomposition("rhorho", False, *shuffled(rng, bad, rho_any(rng)))
    if r == 8:
        bad = tangle("rho", "abstract", {"atoroidal": True, "trivial": False,
                                         "hopf_tangle": True, "cable": True})
        return decomposition("taurho", False, tau_any(rng), bad)
    if rng.random() < 0.5:  # special, with a tau slope needed but unknown
        return decomposition("tautau", True, *shuffled(rng, tau_undetermined(rng),
                                                        tau_unit(rng, unit_m(rng))))
    return decomposition("taurho", True, tau_undetermined(rng),
                         rho_torus(rng, rng.randint(2, MAX_P)))


def _toroidal(rng):
    kind = rng.choice(("tautau", "taurho", "rhorho"))
    if kind == "rhorho":
        flags = {"atoroidal": False, "trivial": False}
        if rng.random() < 0.5:
            flags[rng.choice(("satellite", "cable"))] = True
        return decomposition("rhorho", False, *shuffled(rng, tangle("rho", "abstract", flags),
                                                         rho_any(rng)))
    tau = tangle("tau", "abstract", {"atoroidal": False, "trivial": False,
                                     "rational": rng.random() < 0.5})
    if kind == "tautau":
        return decomposition("tautau", rng.random() < 0.5, *shuffled(rng, tau, tau_any(rng)))
    return decomposition("taurho", rng.random() < 0.5, tau, rho_any(rng))


_RECIPES = {
    "tautau (i)": _tautau_i, "tautau (ii)": _tautau_ii, "tautau (iii)": _tautau_iii,
    "tautau (otherwise)": _tautau_otherwise, "taurho (hyperbolic)": _taurho_hyperbolic,
    "taurho (i)": _taurho_i, "taurho (ii)": _taurho_ii, "taurho (iii)": _taurho_iii,
    "taurho (iv)": _taurho_iv, "rhorho (i)": _rhorho_i, "rhorho (ii)": _rhorho_ii,
    "rhorho (otherwise)": _rhorho_otherwise, "inadmissible": _inadmissible,
    "toroidal": _toroidal,
}


def generated(rng: random.Random, target: str) -> DocCase:
    doc = _RECIPES[target](rng)
    return DocCase(json.dumps(doc), target, oracle.expect(doc), oracle.canonical(doc))


# ---------------------------------------------------------------------------
# Malformed and hostile documents


def _malformed_doc(rng: random.Random) -> object:
    """A decomposition document that breaks the schema in one place."""
    doc = _valid(rng)
    i = rng.randrange(2)
    r = rng.randrange(20)
    if r == 0:
        doc["comment"] = "unknown top-level field"
    elif r == 1:
        del doc["special"]
    elif r == 2:
        doc["special"] = "true"
    elif r == 3:
        doc["type"] = doc["type"] + "3"
    elif r == 4:
        doc["tangles"] = doc["tangles"][:1] if rng.random() < 0.5 else doc["tangles"] * 2
    elif r == 5:
        doc["tangles"][i]["kind"] = "sigma"
    elif r == 6:
        doc["tangles"][i]["presentation"]["braid"] = {"word": [1, 2]}
    elif r == 7:
        doc["tangles"][i]["presentation"] = {"braid": {"word": [1, 2]}}
    elif r in (8, 9, 10):
        bad_entry = ("3", 2.5, True)[r - 8]
        doc["tangles"][i] = tangle(doc["tangles"][i]["kind"], "rational",
                                   {"twists": [rng.randint(1, 5), bad_entry, 0]})
    elif r == 11:
        doc["tangles"][i] = tangle(doc["tangles"][i]["kind"], "rational", {"twists": 3})
    elif r == 12:
        doc = decomposition("taurho", False, tau_any(rng),
                            tangle("rho", "torus_rho", {"p": rng.choice((1, 0, -1)), "q": 1}))
    elif r == 13:
        doc = decomposition("rhorho", False, rho_any(rng),
                            tangle("rho", "torus_rho", {"p": 4, "q": rng.choice((2, 6, -2))}))
    elif r == 14:
        doc = decomposition("taurho", False, tangle("tau", "torus_rho", {"p": 3, "q": 1}),
                            rho_any(rng))
    elif r == 15:
        doc = decomposition("tautau", False, tau_any(rng),
                            tangle("tau", "abstract", {"atoroidal": True, "trivial": False}))
    elif r == 16:
        doc = decomposition("rhorho", False, rho_any(rng),
                            tangle("rho", "abstract", {"atoroidal": True, "trivial": False,
                                                       "knotted": True}))
    elif r == 17:
        slope = rng.choice(("0/0", "x/3", "1/3/5", ""))
        doc = decomposition("tautau", False, tau_any(rng),
                            tangle("tau", "abstract", {"atoroidal": True, "trivial": False,
                                                       "rational": True, "slope": slope}))
    elif r == 18:
        doc = decomposition("tautau", True, tau_any(rng),
                            tangle("tau", "abstract", {"atoroidal": True, "trivial": False,
                                                       "rational": True, "slope": 0.5}))
    else:
        return [doc]
    return doc


def malformed(rng: random.Random) -> DocCase:
    doc = _malformed_doc(rng)
    text = json.dumps(doc)
    if isinstance(doc, dict) and rng.random() < 0.15:
        text = text[:rng.randrange(1, len(text))]  # any proper prefix of an object is invalid
    return DocCase(text, "malformed", None, None)


def hostile(rng: random.Random, long_integer: bool) -> DocCase:
    """An input that crashes the document reader instead of raising DocumentError."""
    if long_integer:
        doc = _valid(rng)
        doc["tangles"][0] = tangle(doc["tangles"][0]["kind"], "rational", {"twists": ["@", 0]})
        digits = rng.randint(INT_DIGITS_LIMIT + 1, INT_DIGITS_LIMIT + 1700)
        big = str(rng.randint(1, 9)) + "".join(rng.choice("0123456789") for _ in range(digits - 1))
        text = json.dumps(doc).replace('"@"', big)
    else:
        depth = DEEP_NESTING + rng.randrange(100)
        text = '{"type": "tautau", "special": true, "tangles": ' + "[" * depth + "]" * depth + "}"
    return DocCase(text, "hostile", None, None)


# ---------------------------------------------------------------------------
# Catalog documents and mirrors


def mirror(doc: dict) -> dict:
    """The mirror image: twists and slopes negated, torus (p, q) -> (p, -q)."""
    def side(t: dict) -> dict:
        (variant, body), = t["presentation"].items()
        body = dict(body)
        if variant == "rational":
            body["twists"] = [-a for a in body["twists"]]
        elif variant == "torus_rho":
            body["q"] = -body["q"]
        else:
            if "slope" in body:
                body["slope"] = body["slope"][1:] if body["slope"].startswith("-") \
                    else "-" + body["slope"]
            if "torus" in body:
                body["torus"] = {"p": body["torus"]["p"], "q": -body["torus"]["q"]}
        return tangle(t["kind"], variant, body)
    return decomposition(doc["type"], doc["special"], *(side(t) for t in doc["tangles"]))


def catalog_pair(doc: dict, verdict: dict) -> list[DocCase]:
    """A catalog document and its mirror, both expected to get the stored verdict."""
    image = mirror(doc)
    return [DocCase(json.dumps(doc), "catalog", verdict, oracle.canonical(doc)),
            DocCase(json.dumps(image), "mirror", verdict, oracle.canonical(image))]


# ---------------------------------------------------------------------------
# Batches


def documents_batch(seed: int, index: int, catalog: list[tuple[dict, dict]]) -> list[DocCase]:
    """BATCH_DOCS documents in a seeded order, with the fixed class counts above.

    ``catalog`` lists (document, stored verdict) pairs of the decomposable
    catalog entries.
    """
    rng = batch_rng("documents", seed, index)
    cases = [hostile(rng, long_integer=i % 2 == 0) for i in range(HOSTILE_PER_BATCH)]
    cases += [malformed(rng) for _ in range(MALFORMED_PER_BATCH)]
    for _ in range(CATALOG_PER_BATCH // 2):
        cases += catalog_pair(*rng.choice(catalog))
    while len(cases) < BATCH_DOCS:
        cases.append(generated(rng, rng.choice(TARGETS)))
    rng.shuffle(cases)
    return cases


@dataclass(frozen=True)
class LongCase:
    """A decomposition with long rational sides, as a document.

    ``vectors`` holds each rational side's twist vector, which is the
    canonical expansion of that side's value; ``values`` the values as
    (numerator, denominator).
    """

    document: dict
    verdict: dict
    vectors: tuple[tuple[int, ...], ...]
    values: tuple[tuple[int, int], ...]


def long_vector(rng: random.Random, n: int) -> tuple[int, ...]:
    """A canonical twist vector of n entries: the first >= 2, the last any integer."""
    return (rng.randint(2, 9),) + tuple(rng.randint(1, 9) for _ in range(n - 2)) \
        + (rng.randint(-9, 9),)


def long_case(rng: random.Random, kind: str, lengths: tuple[int, int], torus: bool) -> LongCase:
    """A decomposition of the given kind; with ``torus`` its rho sides are torus tangles."""
    tangles, vectors, values = [], [], []
    for side_kind, n in zip(oracle.SIDE_KINDS[kind], lengths):
        if side_kind == "rho" and torus:
            p = rng.randint(2, MAX_P)
            tangles.append(tangle("rho", "torus_rho", {"p": p, "q": coprime_q(rng, p)}))
            continue
        v = long_vector(rng, n)
        value = oracle.fold(v)
        tangles.append(tangle(side_kind, "rational", {"twists": list(v)}))
        vectors.append(v)
        values.append((value.numerator, value.denominator))
    doc = decomposition(kind, kind != "rhorho" and rng.random() < 0.5, *tangles)
    return LongCase(doc, oracle.expect(doc), tuple(vectors), tuple(values))


def long_batch(seed: int, index: int) -> list[LongCase]:
    """LONG_BATCH cases whose side lengths are stratified over LONG_MIN..LONG_MAX,
    so every batch holds about the same amount of work."""
    rng = batch_rng("long_twists", seed, index)
    span = LONG_MAX - LONG_MIN + 1
    strata = [[LONG_MIN + int((i + rng.random()) * span / LONG_BATCH) for i in range(LONG_BATCH)]
              for _ in range(2)]
    for lengths in strata:
        rng.shuffle(lengths)
    cases = [long_case(rng, CENSUS_KINDS[i % 3], (strata[0][i], strata[1][i]),
                       torus=i % 10 < 3)
             for i in range(LONG_BATCH)]
    rng.shuffle(cases)
    return cases


def census_pass(seed: int, index: int, catalog_size: int) -> tuple[tuple[str, ...], list[int]]:
    """Order of the census kinds and of the catalog entries in one pass."""
    rng = batch_rng("census", seed, index)
    kinds = list(CENSUS_KINDS)
    rng.shuffle(kinds)
    order = list(range(catalog_size))
    rng.shuffle(order)
    return tuple(kinds), order
