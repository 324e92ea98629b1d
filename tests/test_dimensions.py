from fractions import Fraction

import pytest

from siegel_dims import arithmetic, dimensions
from siegel_dims.arithmetic import is_prime, parse_square_free_level
from siegel_dims.dimensions import (
    dim_full_level,
    dim_gamma0,
    dim_paramodular_weight4,
    dim_principal,
    dim_principal_level,
    dim_principal_prime,
    hecke_factor,
)
from siegel_dims.errors import (
    InputError,
    IntegralityError,
    NotTabulatedError,
    WeightOutOfRangeError,
)

ODD_PRIMES_TO_97 = [p for p in range(3, 98) if is_prime(p)]


def igusa_cusp_dims(top: int) -> list[int]:
    """dim S_k(Sp(4,Z)) for k = 0..top, from Igusa's structure theorem alone.

    The modular forms of degree 2 have the Hilbert series (1 + t^35) /
    ((1 - t^4)(1 - t^6)(1 - t^10)(1 - t^12)), and the Siegel Phi operator
    maps M_k onto M_k(SL(2,Z)), whose series is 1 / ((1 - t^4)(1 - t^6)),
    with kernel S_k.  Both series are counted by coin change in integers.
    """
    def ways(parts):
        counts = [1] + [0] * top
        for part in parts:
            for k in range(part, top + 1):
                counts[k] += counts[k - part]
        return counts

    siegel, elliptic = ways((4, 6, 10, 12)), ways((4, 6))
    return [siegel[k] + (siegel[k - 35] if k >= 35 else 0) - elliptic[k] for k in range(top + 1)]


class TestFullLevel:
    # Reference values for weights 10..20.
    TABLE = {10: 1, 11: 0, 12: 1, 13: 0, 14: 1, 15: 0, 16: 2, 17: 0, 18: 2, 19: 0, 20: 3}

    @pytest.mark.parametrize("k,expected", sorted(TABLE.items()))
    def test_table(self, k, expected):
        assert dim_full_level(k) == expected

    @pytest.mark.parametrize("k", range(4, 10))
    def test_vanishing_below_weight_10(self, k):
        assert dim_full_level(k) == 0

    def test_weight_4_term_breakdown(self):
        # Hand evaluation: constant 427/3456 = 2135/17280, linear -360/17280,
        # cubic -1775/17280; the period-5 term vanishes at k = 4.
        assert Fraction(2135 - 360 - 1775, 17280) == 0
        assert dim_full_level(4) == 0

    def test_rejects_low_weight(self):
        with pytest.raises(WeightOutOfRangeError):
            dim_full_level(3)

    def test_nonnegative_far_out(self):
        for k in range(4, 200):
            assert dim_full_level(k) >= 0

    def test_matches_igusa_generators(self):
        oracle = igusa_cusp_dims(2000)
        assert [dim_full_level(k) for k in range(4, 2001)] == oracle[4:]

    @pytest.mark.parametrize("residue", range(5))
    def test_igusa_oracle_catches_a_corrupted_pentic_term(self, monkeypatch, residue):
        corrupted = list(dimensions._PENTIC_TERM_BY_K_MOD_5)
        corrupted[residue] += 5  # one unit in every k = residue mod 5 value
        monkeypatch.setattr(dimensions, "_PENTIC_TERM_BY_K_MOD_5", corrupted)
        oracle = igusa_cusp_dims(2000)
        wrong = {k % 5 for k in range(4, 2001) if dim_full_level(k) != oracle[k]}
        assert wrong == {residue}


class TestGamma0:
    @pytest.mark.parametrize(
        "p,expected", [(2, 0), (3, 1), (5, 1), (7, 3), (11, 7), (13, 11)]
    )
    def test_weight4_table(self, p, expected):
        assert dim_gamma0(4, p) == expected

    @pytest.mark.parametrize("N", [1, 2, 15, 360])
    def test_weight1_vanishes_for_all_levels(self, N):
        assert dim_gamma0(1, N) == 0

    def test_outside_table(self):
        with pytest.raises(NotTabulatedError):
            dim_gamma0(4, 17)
        with pytest.raises(NotTabulatedError):
            dim_gamma0(5, 3)
        with pytest.raises(NotTabulatedError):
            dim_gamma0(2, 2)

    def test_error_message_explains_coverage(self):
        with pytest.raises(NotTabulatedError, match="weight 4 at levels"):
            dim_gamma0(4, 17)

    def test_rejects_nonpositive_level(self):
        with pytest.raises(InputError):
            dim_gamma0(1, 0)


class TestParamodular:
    TABLE = {2: 0, 3: 0, 5: 0, 7: 1, 11: 1, 13: 2, 17: 2, 19: 3}

    @pytest.mark.parametrize("p,expected", sorted(TABLE.items()))
    def test_table(self, p, expected):
        assert dim_paramodular_weight4(p) == expected

    def test_formula_path_used_for_p_at_least_5(self):
        # Only 2 and 3 are table-backed; everything else must come from the
        # Legendre-symbol formula.
        from siegel_dims.dimensions import PARAMODULAR_WEIGHT4_SMALL

        assert set(PARAMODULAR_WEIGHT4_SMALL) == {2, 3}

    def test_formula_terms_at_7(self):
        # (-1/7) = -1, (2/7) = 1, (3/7) = -1, (-3/7) = 1:
        # (49 + 504 - 143 + 30 + 72 - 48 + 112) / 576 = 1.
        assert 49 + 504 - 143 + 30 + 72 - 48 + 112 == 576
        assert dim_paramodular_weight4(7) == 1

    def test_table_backing_below_5_is_necessary(self):
        # The formula evaluated outside its domain is not even integral at
        # p = 3 (it gives 1/9), so the small-prime entries cannot come from it.
        from siegel_dims.arithmetic import legendre_symbol

        raw = (
            Fraction(9, 576)
            + Fraction(3, 8)
            - Fraction(143, 576)
            + (Fraction(3, 96) - Fraction(1, 8)) * legendre_symbol(-1, 3)
            + Fraction(1, 8) * legendre_symbol(2, 3)
            + Fraction(1, 12) * legendre_symbol(3, 3)
            + Fraction(3, 36) * legendre_symbol(-3, 3)
        )
        assert raw == Fraction(1, 9)

    def test_larger_primes_integral(self):
        for p in (23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97):
            assert dim_paramodular_weight4(p) >= 0

    def test_rejects_composite(self):
        with pytest.raises(InputError):
            dim_paramodular_weight4(15)

    def test_certifies_the_prime_once(self, monkeypatch):
        calls = []
        real = arithmetic.is_prime

        def counting(n):
            calls.append(n)
            return real(n)

        monkeypatch.setattr(arithmetic, "is_prime", counting)
        assert dim_paramodular_weight4(7919) == 109560
        assert calls == [7919]


class TestPrincipalPrime:
    WEIGHT4 = {2: 0, 3: 15, 5: 5655, 7: 199500, 11: 20683575, 13: 112567455, 17: 1687834800}
    LEVEL3 = {4: 15, 5: 76, 6: 200, 7: 405, 8: 709, 9: 1130, 10: 1686}
    LEVEL5 = {4: 5655, 5: 18980, 6: 43680, 7: 83005, 8: 140205, 9: 218530, 10: 321230}

    @pytest.mark.parametrize("p,expected", sorted(WEIGHT4.items()))
    def test_weight4_table(self, p, expected):
        assert dim_principal_prime(4, p) == expected

    @pytest.mark.parametrize("k,expected", sorted(LEVEL3.items()))
    def test_level3_table(self, k, expected):
        assert dim_principal_prime(k, 3) == expected

    @pytest.mark.parametrize("k,expected", sorted(LEVEL5.items()))
    def test_level5_table(self, k, expected):
        assert dim_principal_prime(k, 5) == expected

    def test_rejects_low_weight(self):
        with pytest.raises(WeightOutOfRangeError):
            dim_principal_prime(3, 3)

    def test_level_2_beyond_weight_4_fails_integrality(self):
        # The formula's natural domain is odd p; at p = 2 only weight 4 is
        # integral and the failure elsewhere must be loud.
        with pytest.raises(IntegralityError):
            dim_principal_prime(5, 2)

    def test_integrality_sweep(self):
        for k in range(4, 61):
            for p in ODD_PRIMES_TO_97:
                assert dim_principal_prime(k, p) >= 0

    def test_strictly_increasing_in_weight(self):
        for p in (3, 5, 7):
            values = [dim_principal_prime(k, p) for k in range(4, 51)]
            assert all(b > a for a, b in zip(values, values[1:]))


class TestHeckeFactor:
    def test_single_primes(self):
        assert hecke_factor(parse_square_free_level(3)) == Fraction(640, 729)
        assert hecke_factor(parse_square_free_level(5)) == Fraction(24, 25) * Fraction(624, 625)

    def test_product_of_local_factors(self):
        expected = (
            Fraction(8, 9) * Fraction(80, 81) * Fraction(24, 25) * Fraction(624, 625)
        )
        assert hecke_factor(parse_square_free_level(15)) == expected
        assert expected == Fraction(9584640, 11390625)  # reduces to 212992/253125
        assert expected.denominator == 253125

    def test_strictly_between_zero_and_one(self):
        for N in (3, 5, 15, 105, 255255):
            m = hecke_factor(parse_square_free_level(N))
            assert 0 < m < 1


class TestPrincipalComposite:
    def test_single_prime_levels_match_prime_formula(self):
        for k in range(4, 31):
            for p in (3, 5, 7, 11, 13, 17):
                assert dim_principal(k, parse_square_free_level(p)) == dim_principal_prime(k, p)

    def test_reference_values(self):
        assert dim_principal(4, parse_square_free_level(3)) == 15
        assert dim_principal(8, parse_square_free_level(3)) == 709

    def test_level15_quoted_value(self):
        assert dim_principal(4, parse_square_free_level(15)) == 69023360250000000

    def test_level15_quoted_is_formula_times_15_to_the_7(self):
        # The quoted reference value carries an extra factor of 15^7 relative
        # to the product formula; both readings stay available.
        level = parse_square_free_level(15)
        formula = dim_principal(4, level, formula_only=True)
        assert formula == 403977600
        assert formula * 15**7 == dim_principal(4, level)

    def test_other_weights_at_level_15_use_the_formula(self):
        level = parse_square_free_level(15)
        assert dim_principal(5, level) == dim_principal(5, level, formula_only=True)

    def test_composite_level_formula_value(self):
        # Independent evaluation of the product formula at N = 105, k = 4.
        level = parse_square_free_level(105)
        N = 105
        inner = (
            Fraction(N**3, 1440) * 6 * 5 * 4 - Fraction(N, 6) * 5 + 1
        )
        expected = Fraction(N**7, 96) * inner * hecke_factor(level)
        assert expected.denominator == 1
        assert dim_principal(4, level) == expected

    def test_level_dispatch_helper(self):
        assert dim_principal_level(4, 7) == 199500
        assert dim_principal_level(4, 2) == 0
        assert dim_principal_level(4, 15) == 69023360250000000
        with pytest.raises(InputError):
            dim_principal_level(4, 21 * 3)  # 63 = 3^2 * 7
