"""Exact dimensions of spaces of degree-2 Siegel cusp forms, the GSp(4,F_p)
character degree table, and newform dimension bounds."""

from importlib import import_module as _import_module

__version__ = "1.0.0"

# Each submodule and the public names it defines.  A name's submodule is
# imported the first time the name is read (PEP 562), so a bare
# ``import siegel_dims`` loads none of them.
_EXPORTS = {
    "arithmetic": ("SquareFreeLevel", "as_integer", "is_prime", "legendre_symbol",
                   "parse_square_free_level"),
    "dimensions": ("dim_full_level", "dim_gamma0", "dim_paramodular_weight4", "dim_principal",
                   "dim_principal_level", "dim_principal_prime", "hecke_factor"),
    "errors": ("EvenLevelError", "EvenPrimeError", "IndexOutOfRangeError", "InputError",
               "IntegralityError", "NotPrimeError", "NotSquareFreeError", "NotTabulatedError",
               "SiegelDimsError", "TooManySolutionsError", "WeightOutOfRangeError"),
    "irreps": ("IrrepEntry", "irrep_dim", "table_at", "unitary_dims"),
    "newforms": ("AnalysisReport", "BoundPair", "Decomposition", "analyze_level", "bounds_prime",
                 "bounds_squarefree", "count_decompositions", "decompose",
                 "iter_decompositions"),
    "tables": ("TableSpec", "emit_table"),
    "verification": ("VerificationReport", "run_all_checks"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF) + ["__version__"]


def __getattr__(name):
    if name in _EXPORTS:
        # Importing a submodule binds it in this namespace.
        return _import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Cached here, so later reads are plain namespace lookups.
    value = globals()[name] = getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_MODULE_OF})
