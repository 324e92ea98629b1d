import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from siegel_dims.arithmetic import (
    PRIMALITY_CERTIFIED_BOUND,
    SquareFreeLevel,
    as_integer,
    is_prime,
    legendre_symbol,
    parse_square_free_level,
)
from siegel_dims.errors import (
    EvenLevelError,
    EvenPrimeError,
    InputError,
    IntegralityError,
    NotPrimeError,
    NotSquareFreeError,
)
from siegel_dims.irreps import irrep_dim, unitary_dims
from siegel_dims.newforms import analyze_level, bounds_prime, decompose


def sieve(limit):
    flags = [True] * (limit + 1)
    flags[0] = flags[1] = False
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            for j in range(i * i, limit + 1, i):
                flags[j] = False
    return flags


class TestIsPrime:
    def test_small_cases(self):
        assert is_prime(2)
        assert is_prime(13)
        assert not is_prime(1)
        assert not is_prime(15)

    def test_against_sieve(self):
        flags = sieve(10_000)
        for n in range(1, 10_001):
            assert is_prime(n) == flags[n], n

    def test_large_prime_and_composite(self):
        assert is_prime(2**61 - 1)
        assert not is_prime((2**31 - 1) * (2**31 + 11))

    def test_rejects_uncertified_range(self):
        with pytest.raises(InputError):
            is_prime(PRIMALITY_CERTIFIED_BOUND)

    def test_rejects_non_integers(self):
        # is_prime owns the rule for primes and levels, so every reader of a
        # prime or a level refuses a float or a bool, even once the degree
        # table at the int 3 is cached.
        assert irrep_dim(1, 3) == 160
        cases = [
            (is_prime, 3.0),
            (is_prime, True),
            (parse_square_free_level, 15.0),
            (lambda p: legendre_symbol(2, p), 7.0),
            (lambda p: irrep_dim(1, p), 3.0),
            (lambda p: bounds_prime(4, p), 3.0),
            # A str is refused before any arithmetic runs on it.
            (lambda p: decompose(p, 15), "3"),
            (lambda p: irrep_dim(1, p), "3"),
            (lambda p: analyze_level(4, p), "3"),
            (unitary_dims, "3"),
            (lambda p: legendre_symbol(2, p), "7"),
            (parse_square_free_level, "15"),
            (parse_square_free_level, True),
        ]
        for call, value in cases:
            with pytest.raises(InputError, match=f"^{value!r} is not an integer$"):
                call(value)


class TestLegendreSymbol:
    def test_examples(self):
        assert legendre_symbol(-1, 7) == -1  # 7 = 3 mod 4
        assert legendre_symbol(2, 7) == 1  # 7 = -1 mod 8
        assert legendre_symbol(3, 7) == -1  # squares mod 7 are {1, 2, 4}
        assert legendre_symbol(14, 7) == 0

    def test_matches_square_enumeration(self):
        # Independent oracle: the set of nonzero squares mod p.
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
            squares = {x * x % p for x in range(1, p)}
            for a in range(p):
                expected = 0 if a == 0 else (1 if a in squares else -1)
                assert legendre_symbol(a, p) == expected, (a, p)

    def test_multiplicative_exhaustive(self):
        for p in (q for q in range(3, 101) if is_prime(q)):
            for a in range(p):
                for b in range(p):
                    assert (
                        legendre_symbol(a * b, p)
                        == legendre_symbol(a, p) * legendre_symbol(b, p)
                    )

    def test_depends_only_on_residue(self):
        for a in range(-30, 30):
            assert legendre_symbol(a, 11) == legendre_symbol(a + 11 * 7, 11)

    def test_rejects_bad_modulus(self):
        with pytest.raises(EvenPrimeError):
            legendre_symbol(1, 2)
        with pytest.raises(EvenPrimeError):
            legendre_symbol(1, 10)
        with pytest.raises(NotPrimeError):
            legendre_symbol(1, 9)

    @pytest.mark.parametrize("a", ["2", 2.0, True])
    def test_rejects_a_non_integer_residue(self, a):
        with pytest.raises(InputError, match=f"^{a!r} is not an integer$"):
            legendre_symbol(a, 7)


class TestParseSquareFreeLevel:
    def test_examples(self):
        assert parse_square_free_level(15).primes == (3, 5)
        assert parse_square_free_level(105).primes == (3, 5, 7)
        assert parse_square_free_level(3).primes == (3,)

    def test_square_factor_reports_prime(self):
        with pytest.raises(NotSquareFreeError) as exc:
            parse_square_free_level(9)
        assert exc.value.prime == 3
        with pytest.raises(NotSquareFreeError) as exc:
            parse_square_free_level(75)  # 3 * 5^2
        assert exc.value.prime == 5

    def test_even_and_tiny_levels(self):
        with pytest.raises(EvenLevelError):
            parse_square_free_level(30)
        with pytest.raises(InputError):
            parse_square_free_level(1)
        with pytest.raises(InputError):
            parse_square_free_level(2)

    def test_product_recovers_level(self):
        for N in (3, 15, 105, 1155, 4389):
            level = parse_square_free_level(N)
            assert level.N == N
            assert list(level.primes) == sorted(set(level.primes))

    def test_classification_matches_trial_division(self):
        # Brute-force oracle over every N up to 10^4.
        def odd_square_free(n):
            if n % 2 == 0:
                return False
            for d in range(3, int(math.isqrt(n)) + 1, 2):
                if n % (d * d) == 0:
                    return False
            return True

        for N in range(3, 10_001):
            if odd_square_free(N):
                assert parse_square_free_level(N).N == N
            else:
                with pytest.raises(InputError):
                    parse_square_free_level(N)

    @given(st.integers(min_value=3, max_value=10**6))
    def test_parse_agrees_with_oracle(self, N):
        square_free_odd = N % 2 == 1 and all(
            N % (p * p) for p in range(3, int(math.isqrt(N)) + 1, 2)
        )
        if square_free_odd:
            assert parse_square_free_level(N).N == N
        else:
            with pytest.raises(InputError):
                parse_square_free_level(N)

    def test_direct_construction_validates(self):
        with pytest.raises(InputError):
            SquareFreeLevel((5, 3))  # not sorted
        with pytest.raises(InputError):
            SquareFreeLevel((3, 3))  # repeated
        with pytest.raises(EvenLevelError):
            SquareFreeLevel((2, 3))
        with pytest.raises(NotPrimeError):
            SquareFreeLevel((9,))
        with pytest.raises(InputError):
            SquareFreeLevel(())


class TestExactRationals:
    @given(
        st.integers(-10**12, 10**12),
        st.integers(1, 10**12),
        st.integers(-10**12, 10**12),
        st.integers(1, 10**12),
    )
    def test_add_subtract_round_trip(self, a, b, c, d):
        r, s = Fraction(a, b), Fraction(c, d)
        assert (r + s) - s == r

    @given(st.integers(-10**9, 10**9), st.integers(1, 10**9))
    def test_always_reduced(self, a, b):
        q = Fraction(a, b)
        assert math.gcd(abs(q.numerator), q.denominator) == 1
        assert q.denominator >= 1

    def test_as_integer(self):
        assert as_integer(Fraction(6, 3)) == 2
        assert as_integer(Fraction(0)) == 0

    def test_as_integer_rejects_non_integers(self):
        with pytest.raises(IntegralityError):
            as_integer(Fraction(1, 2))

    def test_as_integer_rejects_negatives(self):
        with pytest.raises(IntegralityError):
            as_integer(Fraction(-3))
