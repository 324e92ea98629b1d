"""Factoring of levels: Pollard--Brent rho for every odd level, checked
against a plain trial-division reference, and the certified bound checked
before any division."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from siegel_dims.arithmetic import (
    PRIMALITY_CERTIFIED_BOUND,
    _pollard_brent,
    is_prime,
    parse_square_free_level,
)
from siegel_dims.errors import InputError, NotSquareFreeError


def trial_division(N):
    """The reference factoring, by trial division alone: (sorted primes,
    None), or (None, repeated prime) for the first prime found whose square
    divides N."""
    primes, rest, d = [], N, 3
    while d * d <= rest:
        if rest % d == 0:
            rest //= d
            if rest % d == 0:
                return None, d
            primes.append(d)
        d += 2
    if rest > 1:
        primes.append(rest)
    return tuple(primes), None


def next_prime(n):
    n |= 1
    while not is_prime(n):
        n += 2
    return n


# Primes from 257 up: products of them are composites with no small factor.
LARGE_PRIMES = [next_prime(257), next_prime(3 * 10**6),
                next_prime(2**24), next_prime(10**8), next_prime(2**28)]
SMALL_PRIMES = [3, 5, 7, 11, 13, 1009, 65537]


def assert_agrees_with_trial_division(N):
    primes, repeated = trial_division(N)
    if repeated is None:
        assert parse_square_free_level(N).primes == primes
    else:
        with pytest.raises(NotSquareFreeError) as info:
            parse_square_free_level(N)
        assert (info.value.level, info.value.prime) == (N, repeated)


@given(st.integers(min_value=3, max_value=10**6 - 1).filter(lambda n: n % 2))
def test_factors_and_repeated_prime_agree_with_trial_division(N):
    assert_agrees_with_trial_division(N)


def test_every_small_odd_level_agrees_with_trial_division():
    for N in range(3, 20_002, 2):
        assert_agrees_with_trial_division(N)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 41, 43, 97, 251, 257, 263, 65537])
def test_every_prime_power_below_the_certified_bound_is_named(p):
    # p^k * m for k >= 2 and m = 1, a small prime other than p, or 1000003:
    # rho has to split p^k, alone or next to another factor.
    for m in (1, 5 if p == 3 else 3, 1000003):
        k = 2
        while p**k * m < PRIMALITY_CERTIFIED_BOUND:
            with pytest.raises(NotSquareFreeError) as info:
                parse_square_free_level(p**k * m)
            assert (info.value.level, info.value.prime) == (p**k * m, p)
            k += 1


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from(SMALL_PRIMES), max_size=3, unique=True),
       st.lists(st.sampled_from(LARGE_PRIMES), min_size=2, max_size=3))
def test_rho_factors_products_of_large_primes(small, large):
    N = math.prod(small) * math.prod(large)
    assume(N < PRIMALITY_CERTIFIED_BOUND)
    repeated = sorted(p for p in set(large) if large.count(p) > 1)
    if repeated:
        with pytest.raises(NotSquareFreeError) as info:
            parse_square_free_level(N)
        assert info.value.prime == repeated[0]
    else:
        assert parse_square_free_level(N).primes == tuple(sorted(small + large))


@given(st.sampled_from(LARGE_PRIMES), st.sampled_from(LARGE_PRIMES))
def test_pollard_brent_returns_a_proper_factor(p, q):
    d = _pollard_brent(p * q)
    assert 1 < d < p * q and (p * q) % d == 0


@pytest.mark.parametrize("primes", [
    (1000000007, 1000000009),
    (1099511627791, 1099511628401),  # two 41-bit primes, N near the certified bound
    (3, 5, 1048583, 1048589, 1048601),
])
def test_large_square_free_levels(primes):
    assert parse_square_free_level(math.prod(primes)).primes == primes


@pytest.mark.parametrize("primes", [(251, 257), (257, 263), (3, 251, 257)])
def test_levels_that_straddle_the_trial_division_bound(primes):
    # 251 < 2^8 < 257 < 263: the primes around 2^8, where trial division
    # used to hand the cofactor to rho; rho now splits all of them.
    assert parse_square_free_level(math.prod(primes)).primes == primes


def test_repeated_prime_just_past_the_trial_division_bound_is_named():
    with pytest.raises(NotSquareFreeError) as info:
        parse_square_free_level(257**2 * 3)
    assert (info.value.level, info.value.prime) == (257**2 * 3, 257)


@pytest.mark.parametrize("N, prime", [
    ((2**31 - 1) ** 2, 2**31 - 1),
    (3 * 5 * (2**31 - 1) ** 2, 2**31 - 1),
    (1048583**2 * 1000000007, 1048583),
    (1048601**2 * 1048583**2, 1048583),
    (9 * 1000000007 * 1000000009, 3),
])
def test_large_repeated_prime_is_named(N, prime):
    with pytest.raises(NotSquareFreeError) as info:
        parse_square_free_level(N)
    assert info.value.prime == prime


@pytest.mark.parametrize("N", [PRIMALITY_CERTIFIED_BOUND, PRIMALITY_CERTIFIED_BOUND + 1,
                               9 * PRIMALITY_CERTIFIED_BOUND, 10**40 + 1])
def test_certified_bound_is_checked_before_any_division(N):
    with pytest.raises(InputError) as info:
        parse_square_free_level(N)
    assert type(info.value) is InputError
    assert str(info.value) == (
        f"levels are only factored below {PRIMALITY_CERTIFIED_BOUND}; got {N}"
    )
