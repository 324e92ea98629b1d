"""The package's export surface: names, order, identity and lazy loading."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import siegel_dims

PUBLIC_NAMES = [
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
SUBMODULES = ["arithmetic", "dimensions", "errors", "irreps", "newforms", "tables", "verification"]


def run_fresh(code: str) -> str:
    """Run ``code`` in a new interpreter that imports this same package."""
    env = dict(os.environ)
    src = str(Path(siegel_dims.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    return proc.stdout


def test_all_is_the_published_list_in_order():
    assert siegel_dims.__all__ == PUBLIC_NAMES


@pytest.mark.parametrize("name", PUBLIC_NAMES[:-1])
def test_each_name_is_the_defining_modules_object(name):
    obj = getattr(siegel_dims, name)
    assert obj.__module__.startswith("siegel_dims.")
    assert getattr(importlib.import_module(obj.__module__), name) is obj


def test_star_import_binds_every_name():
    namespace = {}
    exec("from siegel_dims import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(PUBLIC_NAMES)
    assert namespace["__version__"] == "1.0.0"


def test_unknown_attribute_message():
    with pytest.raises(AttributeError) as info:
        siegel_dims.no_such_name
    assert str(info.value) == "module 'siegel_dims' has no attribute 'no_such_name'"


def test_bare_import_loads_no_submodule():
    out = run_fresh("import sys, siegel_dims; "
                    "print(sorted(m for m in sys.modules if m.startswith('siegel_dims.')))")
    assert out == "[]\n"


def test_public_dir_after_a_bare_import():
    out = run_fresh("import siegel_dims; "
                    "print(*[n for n in dir(siegel_dims) if not n.startswith('_')])")
    assert out.split() == sorted(PUBLIC_NAMES[:-1] + SUBMODULES)


def test_submodule_resolves_after_a_bare_import():
    out = run_fresh("import siegel_dims; print(*siegel_dims.tables.FORMATS)")
    assert out.split() == list(importlib.import_module("siegel_dims.tables").FORMATS)


# Modules that ``dim`` and ``table`` never run.
HEAVY = ["dataclasses", "json", "siegel_dims.irreps", "siegel_dims.newforms",
         "siegel_dims.verification"]


def loaded_after_cli(*argvs) -> str:
    """The exit codes of ``cli.main`` over ``argvs`` in one fresh interpreter,
    then which of HEAVY it loaded."""
    return run_fresh(
        "import contextlib, io, sys\n"
        "from siegel_dims import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    codes = [cli.main(argv) for argv in {list(map(list, argvs))!r}]\n"
        f"print(codes, sorted(m for m in {HEAVY!r} if m in sys.modules))\n"
    )


def test_dim_and_text_table_load_no_heavy_module():
    out = loaded_after_cli(
        ["dim", "--family", "full", "--weight", "10"],
        ["dim", "--family", "principal", "--weight", "4", "--level", "15"],
        ["table", "--family", "principal", "--weight", "4", "--levels", "3,5,15",
         "--format", "text"],
        ["dim", "--family", "principal", "--weight", "4", "--level", "45"],
    )
    assert out == "[0, 0, 0, 1] []\n"


def test_json_table_loads_json_but_not_newforms():
    out = loaded_after_cli(["table", "--family", "full", "--weights", "10..12", "--format", "json"])
    assert out == "[0] ['json']\n"


def test_text_decompose_analyze_and_verify_load_no_json():
    out = loaded_after_cli(
        ["decompose", "--prime", "3", "--target", "15"],
        ["analyze", "--weight", "4", "--prime", "3"],
        ["verify"],
    )
    assert out == ("[0, 0, 0] ['dataclasses', 'siegel_dims.irreps', 'siegel_dims.newforms', "
                   "'siegel_dims.verification']\n")
