"""Built-in table of classified genus-two handlebody-knots.

Each entry stores a decomposition (or an annulus profile for the
non-3-decomposable example) together with the expected verdict, so the
whole hyperbolicity table can be reproduced by running the classifier
over the catalog.  The 19 entries with a decomposition share 6 distinct
decompositions; the table states each once, with the names it stands
for, and ``catalog_verify`` classifies each once.  The entry for 6_8 is
a stored fact: its hyperbolicity is known but not through a
3-decomposition, so it carries no decomposition and is excluded from
classifier-agreement checks.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import UnknownName, echo
from .frac import cf_eval, slope_normalize
from .tangle import (
    AbstractTau,
    RationalPresentation,
    RhoDescriptor,
    TauDescriptor,
)
from .verdict import (
    BRANCH_TAURHO_HYPERBOLIC,
    BRANCH_TAUTAU_HYPERBOLIC,
    BRANCH_TAUTAU_INFINITE,
    BRANCH_TAUTAU_THREE,
    CLASSIFIED,
    INFINITELY_MANY,
    ZERO_ANNULI,
    AnnulusCount,
    AnnulusProfile,
    Decomposition,
    Obstruction,
    TAURHO,
    TAUTAU,
    Verdict,
    classify,
    obstruction_check,
)

DERIVED = "derived_by_classifier"
STORED = "stored_fact"
OBSTRUCTION = "obstruction_profile"


# annulus_count: AnnulusCount; branch: str | None
class ExpectedVerdict(namedtuple("ExpectedVerdict", "annulus_count branch")):
    """A stored verdict: its annulus count and branch label."""

    __slots__ = ()
    status = CLASSIFIED  # every stored verdict is classified: a class attribute, not a field

    @property
    def hyperbolic(self) -> bool:
        return self.annulus_count.is_zero

    def matches(self, v: Verdict) -> bool:
        # a classified verdict is hyperbolic exactly when its count is zero
        return (v.status == self.status and v.annulus_count == self.annulus_count
                and v.branch == self.branch)

    def __str__(self) -> str:
        tag = f" [{self.branch}]" if self.branch else ""
        if self.hyperbolic:
            return "hyperbolic" + tag
        return f"{self.annulus_count} essential annuli{tag}"


# name, source: str; decomposition: Decomposition | None; expected: ExpectedVerdict | None;
# profile: AnnulusProfile | None; expected_obstructions: tuple[Obstruction, ...]
class CatalogEntry(namedtuple(
        "CatalogEntry", "name source decomposition expected profile expected_obstructions",
        defaults=(None, None, None, ()))):
    """One named handlebody-knot of the table, its source text and what it is expected to give."""

    __slots__ = ()

    @property
    def provenance(self) -> str:
        """OBSTRUCTION with an annulus profile, STORED without a decomposition, else DERIVED."""
        if self.profile is not None:
            return OBSTRUCTION
        return STORED if self.decomposition is None else DERIVED


_TAU = TauDescriptor(AbstractTau(atoroidal=True, trivial=False, rational=True))
_TAU_NON_UNIT = TauDescriptor(AbstractTau(
    atoroidal=True, trivial=False, rational=True, unit_fraction_slope=False))
_HYPERBOLIC_TAUTAU = ExpectedVerdict(ZERO_ANNULI, BRANCH_TAUTAU_HYPERBOLIC)
_HYPERBOLIC_TAURHO = ExpectedVerdict(ZERO_ANNULI, BRANCH_TAURHO_HYPERBOLIC)


def _tau_rational(*twists: int) -> TauDescriptor:
    return TauDescriptor(RationalPresentation(twists))


def _plain_rho(*twists: int) -> tuple[str, Decomposition]:
    """The source text and decomposition of a tau-rho whose rho side is rational."""
    return (f"tau-rho decomposition whose rho side is rational with slope "
            f"{slope_normalize(cf_eval(twists))}: neither satellite nor cable, no Hopf summand",
            Decomposition(TAURHO, False, _TAU, RhoDescriptor(RationalPresentation(twists))))


# Each distinct decomposition once: the names it stands for, its source text, the
# decomposition and its expected verdict.
_DECOMPOSITIONS = (
    ("4_1", "special tau-tau decomposition with slopes 1/3 and -1/3",
     Decomposition(TAUTAU, True, _tau_rational(3, 0), _tau_rational(-3, 0)),
     ExpectedVerdict(AnnulusCount(3), BRANCH_TAUTAU_THREE)),
    ("5_2", "special tau-tau decomposition with slopes 1/3 and 1/3",
     Decomposition(TAUTAU, True, _tau_rational(3, 0), _tau_rational(3, 0)),
     ExpectedVerdict(INFINITELY_MANY, BRANCH_TAUTAU_INFINITE)),
    ("5_3 6_2 6_3 6_7 7_17 7_18 7_21 7_23 7_27 7_33 7_57 7_58",
     "special tau-tau decomposition with one side rational but not of unit-fraction slope",
     Decomposition(TAUTAU, True, _TAU_NON_UNIT, _TAU), _HYPERBOLIC_TAUTAU),
    ("6_5 6_6", "tau-tau decomposition that is not special",
     Decomposition(TAUTAU, False, _TAU, _TAU), _HYPERBOLIC_TAUTAU),
    ("6_9 7_37", *_plain_rho(2, 1, 1, 1, -1), _HYPERBOLIC_TAURHO),
    ("7_26", *_plain_rho(3, 2, 1, -1), _HYPERBOLIC_TAURHO),
)

# in name order, which puts the stored fact and the obstruction entry where they belong
_ENTRIES: tuple[CatalogEntry, ...] = tuple(sorted((
    *(CatalogEntry(name, source, decomposition, expected)
      for names, source, decomposition, expected in _DECOMPOSITIONS for name in names.split()),
    CatalogEntry("6_8", "hyperbolic by an involution argument; no 3-decomposition data",
                 expected=ExpectedVerdict(ZERO_ANNULI, None)),
    CatalogEntry(
        "non_3_decomposable",
        "atoroidal knot with two non-separating essential annuli, neither of type 2",
        profile=AnnulusProfile(
            nonseparating_count=2, nonseparating_all_type2=False,
            infinitely_many=False, in_family_L=False, atoroidal=True),
        expected_obstructions=(Obstruction.NOT_3_DECOMPOSABLE_BY_ANNULUS_TYPES,)),
), key=lambda entry: entry.name))

_BY_NAME = {entry.name: entry for entry in _ENTRIES}


def catalog_names() -> tuple[str, ...]:
    return tuple(entry.name for entry in _ENTRIES)


def catalog_entries() -> tuple[CatalogEntry, ...]:
    return _ENTRIES


def catalog_get(name: str) -> CatalogEntry:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise UnknownName(f"no catalog entry named {echo(name, repr)}") from None


# name, expected, actual: str; passed: bool | None, None for a stored fact (reported, not checked)
ReportRow = namedtuple("ReportRow", "name passed expected actual")


# rows: tuple[ReportRow, ...]
class CatalogReport(namedtuple("CatalogReport", "rows")):
    """``catalog_verify``'s rows, one per entry, and their tallies."""

    __slots__ = ()

    @property
    def mismatches(self) -> int:
        return sum(1 for row in self.rows if row.passed is False)

    @property
    def checked(self) -> int:
        return sum(1 for row in self.rows if row.passed is not None)

    @property
    def ok(self) -> bool:
        return self.mismatches == 0


def catalog_verify(entries: list[CatalogEntry] | None = None) -> CatalogReport:
    """Run the classifier over every derived entry and compare to expectations.

    Entries whose decompositions are equal share one ``classify`` call, so the whole
    catalog takes one per distinct decomposition.
    """
    verdicts: dict[Decomposition, Verdict] = {}
    rows = []
    for entry in (catalog_entries() if entries is None else entries):
        if entry.provenance == STORED:
            passed, expected, actual = None, str(entry.expected), "stored fact (not re-derived)"
        elif entry.provenance == OBSTRUCTION:
            found = tuple(obstruction_check(entry.profile))
            passed = found == entry.expected_obstructions
            expected = ", ".join(o.name for o in entry.expected_obstructions) or "none"
            actual = ", ".join(o.name for o in found) or "none"
        else:
            verdict = verdicts.get(entry.decomposition)
            if verdict is None:
                verdict = verdicts[entry.decomposition] = classify(entry.decomposition)
            passed = entry.expected.matches(verdict)
            expected, actual = str(entry.expected), verdict.summary()
        rows.append(ReportRow(entry.name, passed, expected, actual))
    return CatalogReport(tuple(rows))
