"""Exact-arithmetic classifier for 3-decompositions of genus-two handlebody-knots.

The package computes rational-tangle slopes by exact continued fractions,
classifies the good rectangles and good annuli a tangle exterior admits,
and dispatches a 3-decomposition to its essential-annulus count and
hyperbolicity verdict.  A built-in catalog reproduces the verdicts for
the classified handlebody-knots with up to seven crossings.

Each public name is imported from its module on first use (PEP 562).
"""

from importlib import import_module

__version__ = "0.1.0"

# module -> the public names it defines
_NAMES = {
    "annuli": "AnnulusType",
    "catalog": "CatalogEntry CatalogReport catalog_entries catalog_get catalog_names "
               "catalog_verify",
    "census": "CensusRow census_csv census_decomposition run_census",
    "errors": "BoundsTooLarge DocumentError InconsistentFlags InfiniteSlope InfiniteValue "
              "InvalidTorusParams MutualExclusivityViolation NotApplicable SlopeTooLarge "
              "TritangleError UnknownName ZeroOverZero",
    "frac": "ExtFraction TwistVector cf_eval cf_expand mod_z_equal palindrome_numerators "
            "parse_fraction slope_normalize",
    "jsonio": "dumps_decomposition loads_decomposition loads_tangle parse_decomposition "
              "parse_tangle serialize_decomposition serialize_tangle",
    "rect": "RectangleType boundary_arc_count rect_types_rho rect_types_tau",
    "tangle": "AbstractRho AbstractTau RationalPresentation ResolvedTangle RhoDescriptor "
              "TauDescriptor TorusParams TorusRhoPresentation Violation mirror_descriptor "
              "resolve resolve_rho resolve_tau twist_rho validate_descriptor",
    "verdict": "AnnulusCount AnnulusProfile Decomposition Obstruction Verdict classify "
               "classify_rhorho classify_tautau classify_taurho good_annulus "
               "mirror_decomposition obstruction_check",
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names.split()}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    if name in _NAMES:  # a module, bound as an eager ``import tritangle`` would have bound it
        return import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # later reads find it without this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_NAMES})
