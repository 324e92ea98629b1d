import dataclasses
import re
from fractions import Fraction

import pytest

from siegel_dims import irreps
from siegel_dims.arithmetic import is_prime
from siegel_dims.errors import (
    EvenPrimeError,
    IndexOutOfRangeError,
    IntegralityError,
    NotPrimeError,
)
from siegel_dims.irreps import TABLE, irrep_dim, table_at, unitary_dims

ODD_PRIMES_TO_100 = [p for p in range(3, 101) if is_prime(p)]

# Degrees at p = 3 in index order, computed by hand from the polynomials.
DEGREES_AT_3 = [160, 120, 90, 81, 80, 72, 64, 60, 40, 40, 30, 20, 24, 15, 6, 10, 8]


def test_degrees_at_3():
    assert [irrep_dim(n, 3) for n in range(1, 18)] == DEGREES_AT_3


def test_spot_values():
    assert irrep_dim(1, 3) == 10 * 16 == 160
    assert irrep_dim(14, 3) == 3 * 10 // 2 == 15
    assert irrep_dim(4, 5) == 625
    assert irrep_dim(15, 5) == 5 * 16 // 2 == 40
    assert irrep_dim(1, 5) == 26 * 36 == 936


def test_all_degrees_positive():
    for p in ODD_PRIMES_TO_100:
        for n in range(1, 18):
            assert irrep_dim(n, p) > 0


@pytest.mark.parametrize("p", ODD_PRIMES_TO_100)
def test_polynomial_identities(p):
    assert irrep_dim(13, p) + irrep_dim(15, p) == 2 * irrep_dim(14, p)
    assert irrep_dim(2, p) == p * irrep_dim(10, p)
    assert irrep_dim(4, p) == p**4
    assert irrep_dim(5, p) == irrep_dim(4, p) - 1


def formula_as_python(formula):
    """A row's printed formula as a Python expression in p: ``*`` where two
    factors are juxtaposed, ``**`` for ``^``."""
    expression = re.sub(r"(?<=[\dp)])(?=[p(])", "*", formula).replace("^", "**")
    assert set(expression) <= set("p0123456789+-*/()"), formula
    return expression


@pytest.mark.parametrize("entry", TABLE, ids=lambda e: f"row{e.index}")
def test_printed_formula_is_the_degree(entry):
    expression = formula_as_python(entry.formula)
    for p in range(3, 200):
        if is_prime(p):
            value = eval(expression, {"__builtins__": {}}, {"p": Fraction(p)})
            assert value == irrep_dim(entry.index, p), (entry.formula, p)


@pytest.mark.parametrize("p", ODD_PRIMES_TO_100)
def test_halved_rows_are_even_before_halving(p):
    for n in (13, 14, 15):
        assert TABLE[n - 1].halved
        assert TABLE[n - 1].numerator(p) % 2 == 0


def test_distinctness_with_the_single_known_collision():
    # Rows 9 and 10 coincide at p = 3 (both 40); everywhere else the degrees
    # are pairwise distinct for odd p <= 100.
    for p in ODD_PRIMES_TO_100:
        values = [(irrep_dim(n, p), n) for n in range(1, 18)]
        collisions = {
            (a_n, b_n)
            for (a, a_n) in values
            for (b, b_n) in values
            if a == b and a_n < b_n
        }
        if p == 3:
            assert collisions == {(9, 10)}
        else:
            assert collisions == set()


class TestUnitaryDims:
    def test_excludes_rows_16_and_17(self):
        pairs = unitary_dims(3)
        assert len(pairs) == 15
        assert {n for n, _ in pairs} == set(range(1, 16))

    def test_sorted_ascending_with_index_tiebreak(self):
        pairs = unitary_dims(3)
        assert pairs == sorted(pairs, key=lambda t: (t[1], t[0]))
        assert pairs[0] == (15, 6)
        assert pairs[-1] == (1, 160)

    def test_extremes_at_5(self):
        pairs = unitary_dims(5)
        assert pairs[0] == (15, 40)
        assert pairs[-1] == (1, 936)

    def test_rejects_bad_primes(self):
        with pytest.raises(EvenPrimeError):
            unitary_dims(2)
        with pytest.raises(NotPrimeError):
            unitary_dims(9)


class TestErrors:
    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRangeError):
            irrep_dim(0, 3)
        with pytest.raises(IndexOutOfRangeError):
            irrep_dim(18, 3)

    def test_even_prime(self):
        with pytest.raises(EvenPrimeError):
            irrep_dim(1, 2)

    def test_odd_numerator_of_a_halved_row(self, monkeypatch):
        # Row 13 is p(p+1)^2 / 2; one more in its numerator cannot be halved.
        table = list(irreps.TABLE)
        entry = table[12]
        table[12] = dataclasses.replace(entry, numerator=lambda p: entry.numerator(p) + 1)
        monkeypatch.setattr(irreps, "TABLE", tuple(table))
        irreps.degrees_at.cache_clear()
        try:
            with pytest.raises(IntegralityError, match="row 13: .* odd numerator 181 at p=5"):
                irreps.degrees_at(5)
        finally:
            monkeypatch.undo()
            irreps.degrees_at.cache_clear()


def test_table_export_shape():
    rows = table_at(3)
    assert len(rows) == 17
    assert rows[0] == {
        "index": 1,
        "formula": "(p^2+1)(p+1)^2",
        "dimension": 160,
        "unitary_relevant": True,
    }
    assert rows[15]["unitary_relevant"] is False
    assert rows[16]["unitary_relevant"] is False
    assert [r["dimension"] for r in rows] == DEGREES_AT_3
