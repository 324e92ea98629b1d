import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siegel_dims import arithmetic, dimensions
from siegel_dims.arithmetic import is_prime
from siegel_dims.arithmetic import parse_square_free_level
from siegel_dims.dimensions import hecke_factor
from siegel_dims.errors import InputError, NotTabulatedError, WeightOutOfRangeError
from siegel_dims.tables import TableSpec, build_rows, emit_irreps, emit_table

PRINCIPAL_W4_CSV = (
    "p,dim\n"
    "2,0\n"
    "3,15\n"
    "5,5655\n"
    "7,199500\n"
    "11,20683575\n"
    "13,112567455\n"
    "17,1687834800\n"
)


def spec(**kw):
    defaults = dict(family="principal", weights=(4,), levels=(2, 3, 5, 7, 11, 13, 17))
    defaults.update(kw)
    return TableSpec(**defaults)


class TestFormats:
    def test_csv_principal_weight4(self):
        assert emit_table(spec(fmt="csv")) == PRINCIPAL_W4_CSV

    def test_text_full_level(self):
        out = emit_table(TableSpec("full", weights=tuple(range(10, 21)), fmt="text"))
        values = [line.split()[1] for line in out.splitlines()[1:]]
        assert values == ["1", "0", "1", "0", "1", "0", "2", "0", "2", "0", "3"]

    def test_json_rows_are_objects_with_exact_integers(self):
        out = emit_table(spec(fmt="json"))
        rows = json.loads(out)
        assert rows[0] == {"p": 2, "dim": 0}
        assert rows[-1] == {"p": 17, "dim": 1687834800}

    def test_json_preserves_big_values(self):
        out = emit_table(TableSpec("principal", weights=(4,), levels=(15,), fmt="json"))
        assert json.loads(out) == [{"N": 15, "dim": 69023360250000000}]

    def test_latex_orientation(self):
        out = emit_table(spec(fmt="latex"))
        assert out.startswith("\\begin{tabular}")
        lines = out.splitlines()
        header = next(line for line in lines if line.startswith("$p$"))
        values = next(line for line in lines if line.startswith("$\\dim$"))
        assert header == "$p$ & 2 & 3 & 5 & 7 & 11 & 13 & 17 \\\\"
        assert "199500" in values and "1687834800" in values
        assert out.rstrip().endswith("\\end{tabular}")

    def test_text_digit_grouping_is_optional(self):
        plain = emit_table(spec())
        grouped = emit_table(spec(group_digits=True))
        assert "1687834800" in plain and "," not in plain.replace("p,dim", "")
        assert "1,687,834,800" in grouped

    def test_grouping_never_touches_machine_formats(self):
        assert "1,687,834,800" not in emit_table(spec(fmt="csv", group_digits=True))
        assert "1,687,834,800" not in emit_table(spec(fmt="json", group_digits=True))

    def test_deterministic_output(self):
        for fmt in ("text", "csv", "json", "latex"):
            s = spec(fmt=fmt)
            assert emit_table(s) == emit_table(s)


class TestAxes:
    def test_level_axis_header_is_N_for_composite_levels(self):
        axis, rows = build_rows(TableSpec("principal", weights=(4,), levels=(3, 15)))
        assert axis == "N"
        assert rows == [(3, 15), (15, 69023360250000000)]

    def test_weight_axis_for_fixed_level(self):
        axis, rows = build_rows(
            TableSpec("principal", weights=tuple(range(4, 11)), levels=(3,))
        )
        assert axis == "k"
        assert [d for _, d in rows] == [15, 76, 200, 405, 709, 1130, 1686]

    def test_gamma0_weight4(self):
        axis, rows = build_rows(TableSpec("gamma0", weights=(4,), levels=(2, 3, 5, 7, 11, 13)))
        assert axis == "p"
        assert [d for _, d in rows] == [0, 1, 1, 3, 7, 11]

    def test_paramodular_defaults_to_weight4(self):
        axis, rows = build_rows(TableSpec("paramodular", levels=(2, 3, 5, 7, 11, 13, 17, 19)))
        assert [d for _, d in rows] == [0, 0, 0, 1, 1, 2, 2, 3]


class TestValidation:
    def test_empty_weight_range(self):
        with pytest.raises(InputError):
            emit_table(TableSpec("full"))

    def test_full_rejects_levels(self):
        with pytest.raises(InputError):
            emit_table(TableSpec("full", weights=(10,), levels=(3,)))

    def test_two_varying_axes(self):
        with pytest.raises(InputError):
            emit_table(TableSpec("principal", weights=(4, 5), levels=(3, 5)))

    def test_gamma0_level_outside_table_fails_before_compute(self):
        with pytest.raises(NotTabulatedError):
            emit_table(TableSpec("gamma0", weights=(4,), levels=(3, 17)))

    def test_gamma0_weight_outside_table(self):
        with pytest.raises(NotTabulatedError):
            emit_table(TableSpec("gamma0", weights=(2,), levels=(3,)))

    def test_paramodular_rejects_composite_level(self):
        with pytest.raises(InputError):
            emit_table(TableSpec("paramodular", levels=(15,)))

    def test_paramodular_rejects_other_weights(self):
        with pytest.raises(NotTabulatedError):
            emit_table(TableSpec("paramodular", weights=(5,), levels=(3,)))

    def test_principal_rejects_low_weight(self):
        with pytest.raises(WeightOutOfRangeError):
            emit_table(TableSpec("principal", weights=(3,), levels=(3,)))

    def test_principal_rejects_even_composite_level(self):
        with pytest.raises(InputError):
            emit_table(TableSpec("principal", weights=(4,), levels=(12,)))

    def test_unknown_family_and_format(self):
        with pytest.raises(InputError):
            emit_table(TableSpec("weil", weights=(4,), levels=(3,)))
        with pytest.raises(InputError):
            emit_table(TableSpec("full", weights=(10,), fmt="yaml"))

    def test_irreps_unknown_format(self):
        with pytest.raises(InputError) as info:
            emit_irreps(3, "yaml")
        assert str(info.value) == (
            "unknown format 'yaml'; choose from ('text', 'csv', 'json', 'latex')")


def test_each_composite_level_is_factored_once(monkeypatch):
    calls = []

    def counting(N):
        calls.append(N)
        return parse_square_free_level(N)

    monkeypatch.setattr(dimensions, "parse_square_free_level", counting)
    emit_table(TableSpec("principal", weights=(4,), levels=(3, 15, 21, 35), fmt="csv"))
    assert calls == [15, 21, 35]


def test_weight_axis_table_factors_its_level_once(monkeypatch):
    calls = []

    def counting(N):
        calls.append(N)
        return parse_square_free_level(N)

    monkeypatch.setattr(dimensions, "parse_square_free_level", counting)
    N = 1000003 * 1000033
    emit_table(TableSpec("principal", weights=tuple(range(4, 14)), levels=(N,)))
    assert calls == [N]


def test_weight_axis_table_certifies_a_prime_level_once(monkeypatch):
    def calls_for(weights: int) -> int:
        calls = []

        def counting(n):
            calls.append(n)
            return is_prime(n)

        with monkeypatch.context() as patch:
            patch.setattr(arithmetic, "is_prime", counting)
            patch.setattr(dimensions, "is_prime", counting)
            emit_table(TableSpec("principal", weights=tuple(range(4, 4 + weights)),
                                 levels=(999999999999999989,)))
        return len(calls)

    assert calls_for(3) == calls_for(300)


def test_weight_axis_table_computes_the_hecke_factor_of_a_composite_level_once(monkeypatch):
    def calls_for(weights: int) -> int:
        calls = []

        def counting(level):
            calls.append(level)
            return hecke_factor(level)

        with monkeypatch.context() as patch:
            patch.setattr(dimensions, "hecke_factor", counting)
            emit_table(TableSpec("principal", weights=tuple(range(4, 4 + weights)),
                                 levels=(1000000016000000063,)))
        return len(calls)

    assert calls_for(3) == calls_for(300)


# --- build_rows against per-cell calls of the public formulas ------------------

SMALL_ODD_PRIMES = [p for p in range(3, 100) if all(p % q for q in range(2, p))]
COMPOSITE_LEVELS = st.lists(
    st.sampled_from(SMALL_ODD_PRIMES), min_size=2, max_size=3, unique=True
).map(math.prod)
PRINCIPAL_LEVELS = st.one_of(st.sampled_from(SMALL_ODD_PRIMES), COMPOSITE_LEVELS)
LEVEL_LISTS = {
    "gamma0 weight 4": st.lists(st.sampled_from(sorted(dimensions.GAMMA0_WEIGHT4)),
                                min_size=1, max_size=6),
    "gamma0 weight 1": st.lists(st.integers(1, 10**6), min_size=1, max_size=6),
    "paramodular": st.lists(st.sampled_from([2] + SMALL_ODD_PRIMES), min_size=1, max_size=6),
    "principal": st.lists(PRINCIPAL_LEVELS, min_size=1, max_size=6),
}


@st.composite
def one_axis_specs(draw):
    """(spec, formula as (k, N) -> dim) for a valid spec with at most one varying axis."""
    case = draw(st.sampled_from(
        ["full", "gamma0 weight 4", "gamma0 weight 1", "paramodular",
         "principal levels", "principal weights"]))
    if case == "full":
        start = draw(st.integers(4, 200))
        weights = tuple(range(start, start + draw(st.integers(1, 12))))
        return TableSpec("full", weights=weights), lambda k, N: dimensions.dim_full_level(k)
    if case.startswith("gamma0"):
        k = 4 if case.endswith("4") else 1
        levels = tuple(draw(LEVEL_LISTS[case]))
        return TableSpec("gamma0", weights=(k,), levels=levels), dimensions.dim_gamma0
    if case == "paramodular":
        weights = draw(st.sampled_from([(), (4,)]))
        levels = tuple(draw(LEVEL_LISTS["paramodular"]))
        return (TableSpec("paramodular", weights=weights, levels=levels),
                lambda k, N: dimensions.dim_paramodular_weight4(N))
    if case == "principal levels":
        levels = tuple(draw(LEVEL_LISTS["principal"]))
        spec = TableSpec("principal", weights=(draw(st.integers(4, 30)),), levels=levels)
    else:
        start = draw(st.integers(4, 30))
        weights = tuple(range(start, start + draw(st.integers(2, 12))))
        spec = TableSpec("principal", weights=weights, levels=(draw(PRINCIPAL_LEVELS),))
    return spec, dimensions.dim_principal_level


@given(one_axis_specs())
@settings(max_examples=200, deadline=None)
def test_rows_are_the_per_cell_formula_values(case):
    spec, formula = case
    axis, rows = build_rows(spec)
    if len(spec.weights) > 1 or not spec.levels:
        N = spec.levels[0] if spec.levels else None
        assert axis == "k"
        assert rows == [(k, formula(k, N)) for k in spec.weights]
    else:
        k = spec.weights[0] if spec.weights else 4
        assert axis == ("p" if all(is_prime(N) for N in spec.levels) else "N")
        assert rows == [(N, formula(k, N)) for N in spec.levels]
