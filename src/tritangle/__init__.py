"""Exact-arithmetic classifier for 3-decompositions of genus-two handlebody-knots.

The package computes rational-tangle slopes by exact continued fractions,
classifies the good rectangles and good annuli a tangle exterior admits,
and dispatches a 3-decomposition to its essential-annulus count and
hyperbolicity verdict.  A built-in catalog reproduces the verdicts for
the classified handlebody-knots with up to seven crossings.
"""

from .annuli import AnnulusType, good_annulus
from .catalog import (
    CatalogEntry,
    CatalogReport,
    catalog_entries,
    catalog_get,
    catalog_names,
    catalog_verify,
)
from .census import CensusRow, census_csv, census_decomposition, run_census
from .errors import (
    BoundsTooLarge,
    DocumentError,
    InconsistentFlags,
    InfiniteSlope,
    InfiniteValue,
    InvalidTorusParams,
    MutualExclusivityViolation,
    NotApplicable,
    SlopeTooLarge,
    TritangleError,
    UnknownName,
    ZeroOverZero,
)
from .frac import (
    ExtFraction,
    TwistVector,
    cf_eval,
    cf_expand,
    mod_z_equal,
    palindrome_numerators,
    parse_fraction,
    slope_normalize,
)
from .jsonio import (
    dumps_decomposition,
    loads_decomposition,
    loads_tangle,
    parse_decomposition,
    parse_tangle,
    serialize_decomposition,
    serialize_tangle,
)
from .rect import RectangleType, boundary_arc_count, rect_types_rho, rect_types_tau
from .tangle import (
    AbstractRho,
    AbstractTau,
    RationalPresentation,
    ResolvedTangle,
    RhoDescriptor,
    TauDescriptor,
    TorusParams,
    TorusRhoPresentation,
    Violation,
    mirror_descriptor,
    resolve,
    resolve_rho,
    resolve_tau,
    twist_rho,
    validate_descriptor,
)
from .verdict import (
    AnnulusCount,
    AnnulusProfile,
    Decomposition,
    Obstruction,
    Verdict,
    classify,
    classify_rhorho,
    classify_tautau,
    classify_taurho,
    mirror_decomposition,
    obstruction_check,
)

__version__ = "0.1.0"
