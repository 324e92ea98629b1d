"""Exact dimensions of spaces of degree-2 Siegel cusp forms, the GSp(4,F_p)
character degree table, and newform dimension bounds."""

from .arithmetic import (
    SquareFreeLevel,
    as_integer,
    is_prime,
    legendre_symbol,
    parse_square_free_level,
)
from .dimensions import (
    dim_full_level,
    dim_gamma0,
    dim_paramodular_weight4,
    dim_principal,
    dim_principal_level,
    dim_principal_prime,
    hecke_factor,
)
from .errors import (
    EvenLevelError,
    EvenPrimeError,
    IndexOutOfRangeError,
    InputError,
    IntegralityError,
    NotPrimeError,
    NotSquareFreeError,
    NotTabulatedError,
    SiegelDimsError,
    TooManySolutionsError,
    WeightOutOfRangeError,
)
from .irreps import IrrepEntry, irrep_dim, table_at, unitary_dims
from .newforms import (
    AnalysisReport,
    BoundPair,
    Decomposition,
    analyze_level,
    bounds_prime,
    bounds_squarefree,
    count_decompositions,
    decompose,
    iter_decompositions,
)
from .tables import TableSpec, emit_table
from .verification import VerificationReport, run_all_checks

__version__ = "1.0.0"

__all__ = [
    "AnalysisReport",
    "BoundPair",
    "Decomposition",
    "EvenLevelError",
    "EvenPrimeError",
    "IndexOutOfRangeError",
    "InputError",
    "IntegralityError",
    "IrrepEntry",
    "NotPrimeError",
    "NotSquareFreeError",
    "NotTabulatedError",
    "SiegelDimsError",
    "SquareFreeLevel",
    "TableSpec",
    "TooManySolutionsError",
    "VerificationReport",
    "WeightOutOfRangeError",
    "analyze_level",
    "as_integer",
    "bounds_prime",
    "bounds_squarefree",
    "count_decompositions",
    "decompose",
    "dim_full_level",
    "dim_gamma0",
    "dim_paramodular_weight4",
    "dim_principal",
    "dim_principal_level",
    "dim_principal_prime",
    "emit_table",
    "hecke_factor",
    "irrep_dim",
    "is_prime",
    "iter_decompositions",
    "legendre_symbol",
    "parse_square_free_level",
    "run_all_checks",
    "table_at",
    "unitary_dims",
    "__version__",
]
