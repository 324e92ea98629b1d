"""Exact integer and rational arithmetic helpers.

Rational values are ordinary :class:`fractions.Fraction` objects throughout
the package: they are arbitrary precision, always stored reduced, keep the
sign on the numerator, and compare structurally -- exactly the guarantees the
dimension formulas need.  Nothing here ever touches floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, prod

from .errors import (
    EvenLevelError,
    EvenPrimeError,
    InputError,
    IntegralityError,
    NotPrimeError,
    NotSquareFreeError,
    _Frozen,
    _require_int,
)

# Witnesses proving n prime for every n below this bound (first 13 primes,
# Sorenson--Webster).  Inputs at or above the bound are rejected rather than
# answered probabilistically.
_MILLER_RABIN_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMALITY_CERTIFIED_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic primality test.

    Correct for every ``n`` below ``PRIMALITY_CERTIFIED_BOUND`` (about
    3.3e24); larger inputs raise :class:`InputError` instead of risking a
    probabilistic answer, and so does an ``n`` that is not an ``int``.
    """
    if _require_int(n) >= PRIMALITY_CERTIFIED_BOUND:
        raise InputError(
            f"primality is only certified below {PRIMALITY_CERTIFIED_BOUND}; got {n}"
        )
    if n < 2:
        return False
    for p in _MILLER_RABIN_WITNESSES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MILLER_RABIN_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_prime(p: int) -> int:
    if not is_prime(p):
        raise NotPrimeError(f"{p} is not prime")
    return p


def require_odd_prime(p: int) -> int:
    if _require_int(p) % 2 == 0:
        raise EvenPrimeError(f"an odd prime is required, got {p}")
    return require_prime(p)


def legendre_symbol(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p, via Euler's criterion.

    Returns 0 when p | a, 1 when a is a nonzero square mod p, and -1
    otherwise.  An ``a`` that is not an ``int`` is an :class:`InputError`.
    """
    return _euler_criterion(_require_int(a), require_odd_prime(p))


def _euler_criterion(a: int, p: int) -> int:
    """(a/p) for a p the caller has already certified as an odd prime."""
    e = pow(a % p, (p - 1) // 2, p)
    if e == p - 1:
        return -1
    if e not in (0, 1):  # impossible for prime p
        raise IntegralityError(f"Euler criterion returned {e} mod {p}")
    return e


class SquareFreeLevel(_Frozen):
    """An odd square-free level, held as its sorted tuple of prime factors."""

    __slots__ = __match_args__ = ("primes",)

    def __init__(self, primes: tuple[int, ...]):
        primes = tuple([_require_int(p, "prime factor ") for p in primes])
        if not primes:
            raise InputError("a level needs at least one prime factor")
        for p, q in zip(primes, primes[1:]):
            if p >= q:
                raise InputError(f"prime factors must be strictly increasing, got {primes}")
        for p in primes:
            if p < 3 or p % 2 == 0:
                raise EvenLevelError(f"prime factors must be odd and >= 3, got {p}")
            require_prime(p)
        super().__init__(primes)

    @property
    def N(self) -> int:
        return prod(self.primes)

    def __str__(self) -> str:
        return str(self.N)


def _pollard_brent(n: int) -> int:
    """A proper factor of the odd composite n, by Pollard's rho with Brent's
    cycle detection and batched gcds (Brent 1980, "An improved Monte Carlo
    factorization algorithm").  Deterministic: it tries x -> x^2 + c for
    c = 1, 2, ... from the start point 2 until one splits n."""
    batch = 128
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(batch, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += batch
            r *= 2
        if g == n:  # the batch overshot: step through it one term at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def _prime_factors(n: int) -> list[int]:
    """The prime factors of n > 1 with multiplicity, each one certified by
    :func:`is_prime`, in no particular order."""
    if is_prime(n):
        return [n]
    d = _pollard_brent(n)
    return _prime_factors(d) + _prime_factors(n // d)


def parse_square_free_level(N: int) -> SquareFreeLevel:
    """Factor N and validate that it is odd, square-free and at least 3.

    Raises :class:`EvenLevelError` when 2 | N and :class:`NotSquareFreeError`
    (naming the smallest repeated prime) when N has a square factor.  Levels
    at or above ``PRIMALITY_CERTIFIED_BOUND`` are refused before any
    division, since their factors could not all be certified prime.

    N is split by Pollard--Brent rho alone, each factor certified by
    :func:`is_prime`; the square check runs on the sorted primes.
    """
    if _require_int(N) < 3:
        raise InputError(f"level must be at least 3, got {N}")
    if N >= PRIMALITY_CERTIFIED_BOUND:
        raise InputError(f"levels are only factored below {PRIMALITY_CERTIFIED_BOUND}; got {N}")
    if N % 2 == 0:
        raise EvenLevelError(f"level must be odd, got {N}")
    primes = sorted(_prime_factors(N))
    for p, q in zip(primes, primes[1:]):
        if p == q:
            raise NotSquareFreeError(N, p)
    return SquareFreeLevel(tuple(primes))


def as_integer(value: Fraction, what: str = "value") -> int:
    """Collapse an exact rational that must be a non-negative integer.

    Dimension formulas are rational expressions whose value is guaranteed to
    be a non-negative integer; any failure here means a table or formula was
    transcribed wrong, so it raises :class:`IntegralityError`.
    """
    if value.denominator != 1:
        raise IntegralityError(f"{what} did not reduce to an integer: {value}")
    n = int(value)
    if n < 0:
        raise IntegralityError(f"{what} is negative: {n}")
    return n
