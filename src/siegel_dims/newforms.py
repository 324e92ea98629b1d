"""Newform dimension bounds and Diophantine decomposition of cusp form spaces.

A cuspidal automorphic representation contributing to S_k(Gamma(p)) occupies
a block of the space whose size is the degree of a nontrivial irreducible
representation of GSp(4,F_p), so the multiplicities (c_1..c_15) of the
unitary-relevant degrees must solve sum c_n * a_n(p) = dim S_k(Gamma(p)).
``iter_decompositions`` streams every solution of that equation and
``decompose`` lists them; ``bounds_prime``
and ``bounds_squarefree`` give the closed-form lower/upper bounds on the
newform dimension; ``analyze_level`` packages dimension, bounds, solutions
and (for weight 4, level 3) the local-component identification into one
report.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from operator import add

from .arithmetic import SquareFreeLevel, require_odd_prime
from .dimensions import (
    _require_weight,
    dim_gamma0,
    dim_paramodular_weight4,
    dim_principal,
    dim_principal_prime,
)
from .errors import (
    DEFAULT_SOLUTION_CAP,
    IndexOutOfRangeError,
    InputError,
    IntegralityError,
    TooManySolutionsError,
    _Frozen,
)
from .irreps import NON_UNITARY_INDICES, degrees_at, irrep_dim

# Enumeration is only meaningful for desk-scale targets; this cap and
# DEFAULT_SOLUTION_CAP abort pathological requests with an explicit error
# instead of running forever.
MAX_ENUMERATION_TARGET = 10**7


@dataclass(frozen=True)
class BoundPair:
    """Exact rational lower/upper bounds; never rounded internally."""

    lower: Fraction
    upper: Fraction

    def integer_envelope(self) -> tuple[int, int]:
        """(ceil(lower), floor(upper)), for callers who want integers."""
        return math.ceil(self.lower), math.floor(self.upper)


def bounds_prime(k: int, p: int) -> BoundPair:
    """Newform dimension bounds for S_k(Gamma(p)), k >= 4, odd prime p.

    lower = ((2k^3-9k^2+13k-6)p^3 + (180-120k)p + 360) * p(p-1)^2 / 34560,
    which equals dim S_k(Gamma(p)) / a_1(p) (checked on every call).  The
    upper bound is (6k^3-27k^2-k+82)/12 when p = 3 and
    numerator * p(p^4-1) / 17280 otherwise, exactly as published.
    """
    _require_weight(k, 4)
    require_odd_prime(p)
    poly = (2 * k**3 - 9 * k**2 + 13 * k - 6) * p**3 + (180 - 120 * k) * p + 360
    lower = Fraction(poly * p * (p - 1) ** 2, 34560)
    if p == 3:
        upper = Fraction(6 * k**3 - 27 * k**2 - k + 82, 12)
    else:
        upper = Fraction(poly * p * (p**4 - 1), 17280)
    if lower * irrep_dim(1, p) != dim_principal_prime(k, p):
        raise IntegralityError(
            f"lower bound at (k={k}, p={p}) violates the dim / a_1 identity"
        )
    return BoundPair(lower, upper)


def bounds_squarefree(k: int, level: SquareFreeLevel) -> BoundPair:
    """Newform dimension bounds for S_k(Gamma(N)), odd square-free N.

    Both bounds share the full Gamma(N) dimension as numerator.  The lower
    divisor is sum a_1(p_i); the upper divisor is 6 + sum_{i>=2} (p_i^2 - 1)
    when 3 | N (the sorted-prime convention makes p_1 = 3 in that case) and
    sum (p_i^2 - 1) when 3 does not divide N.
    """
    dim = dim_principal(k, level)
    primes = level.primes
    lower_div = sum(irrep_dim(1, p) for p in primes)
    if primes[0] == 3:
        upper_div = 6 + sum(p * p - 1 for p in primes[1:])
    else:
        upper_div = sum(p * p - 1 for p in primes)
    return BoundPair(Fraction(dim, lower_div), Fraction(dim, upper_div))


# --- exhaustive decomposition ------------------------------------------------


class Decomposition(_Frozen):
    """One solution of sum c_n * a_n(p) = target.

    ``multiplicities`` maps every index in play (1..15, or 1..17 when the
    non-unitary rows were included) to its multiplicity, zeros included.  A
    solution is stored as a tuple of counts beside a tuple of indices; the
    solutions of one walk share the index tuple 1..n, and the dict view is
    built only when ``multiplicities`` is read.

    The constructor validates: ``__post_init__`` rejects a negative
    multiplicity, an index outside the table and a sum other than the
    target.  The walk behind :func:`iter_decompositions` builds its solutions
    without that method and checks each one against the target instead: it
    carries each prefix's dot product with the degree tuple down the search
    and adds the last two terms, so the check is the full dot product of
    the solution's counts.  Instances are immutable, compare by value and
    are unhashable.
    """

    __slots__ = ("_counts", "_indices", "prime", "target")
    __match_args__ = ("multiplicities", "prime", "target")
    __hash__ = None

    def __init__(self, multiplicities: dict[int, int], prime: int, target: int):
        super().__init__(tuple(multiplicities.values()), tuple(multiplicities), prime, target)
        self.__post_init__()

    # A method of its own because bench/tracing.py wraps it by name to time
    # solution construction; fold it into __init__ with the next change to
    # the benchmark.
    def __post_init__(self):
        degrees = degrees_at(self.prime)
        top = len(degrees)
        total = 0
        for n, c in zip(self._indices, self._counts):
            if c < 0:
                raise InputError(f"multiplicity c_{n} = {c} is negative")
            if not 1 <= n <= top:
                raise IndexOutOfRangeError(
                    f"representation index must be in 1..{top}, got {n}"
                )
            total += c * degrees[n - 1]
        if total != self.target:
            raise InputError(
                f"multiplicities sum to {total}, not the target {self.target}"
            )

    @property
    def multiplicities(self) -> dict[int, int]:
        return dict(zip(self._indices, self._counts))

    @property
    def vector(self) -> tuple[int, ...]:
        return tuple(c for _, c in sorted(zip(self._indices, self._counts)))

    @property
    def total_multiplicity(self) -> int:
        return sum(self._counts)

    def nonzero(self) -> dict[int, int]:
        return {n: c for n, c in zip(self._indices, self._counts) if c}

    def to_text(self) -> str:
        """``c14=1 c15=2`` style, nonzero terms by index; ``trivial`` for 0."""
        terms = sorted(zip(self._indices, self._counts))
        return " ".join([f"c{n}={c}" for n, c in terms if c]) or "trivial"

    def to_json_dict(self) -> dict[str, int]:
        """Every index in play as a string key, zeros included."""
        return {str(n): c for n, c in zip(self._indices, self._counts)}


def _degrees_for(p: int, D: int, include_nonunitary: bool) -> tuple[int, ...]:
    """a_1(p), a_2(p), ... for the indices in play, once p and then D are
    checked.  The one place the target is held to MAX_ENUMERATION_TARGET.
    The non-unitary rows are the last ones of the table, so leaving them out
    is a slice."""
    degrees = degrees_at(p)
    if D < 0:
        raise InputError(f"target must be non-negative, got {D}")
    if D > MAX_ENUMERATION_TARGET:
        raise TooManySolutionsError(
            f"target {D} exceeds the enumeration limit {MAX_ENUMERATION_TARGET}"
        )
    return degrees if include_nonunitary else degrees[: -len(NON_UNITARY_INDICES)]


def _check_cap(max_solutions: int) -> None:
    if max_solutions < 0:
        raise InputError(f"the solution cap must be non-negative, got {max_solutions}")


# The halving count holds its numerator as a dict of terms until the list the
# next step would write is shorter than this many times the number of terms.
# Of 4, 8, 16, 32 and 64, 16 timed within 20 % of the best on targets near
# 10^5 at p = 3..13 and at (3, 10^6); 4 was 1.7x slower than the best at
# (7, 199500), and 64 3.6x slower at (47, 10^7).
_DENSE_FILL = 16


def count_decompositions(p: int, D: int, include_nonunitary: bool = False) -> int:
    """Number of solutions of sum c_n * a_n(p) = D, without enumerating them.

    The count is [x^D] 1 / prod_n (1 - x^(a_n)), one factor per
    representation index, so indices that share a degree (rows 9 and 10 at
    p = 3) count separately.  It is computed by halving the target (Bostan
    and Mori's N-th term step, specialised to binomial denominators), which
    is exact for every D >= 0.

    The method keeps a numerator P, starting at 1, and the list of exponents
    b of the denominator.  While D > 0 it multiplies P by (1 + x^b) for each
    odd b <= D, truncated to degree D, keeps the coefficients of P whose
    exponent has the parity of D, halves every even b and sets D //= 2; the
    count is then P[0], or 0 once the slice leaves P empty.  The step is
    exact because (1 - x^b)(1 + x^b) = 1 - x^(2b): afterwards the
    denominator is a function of x^2, and so is each even factor 1 - x^b
    already, so [x^D] of the quotient is [y^(D // 2)] of the kept
    coefficients over the halved denominator.  An odd b > D is left alone;
    its factor adds nothing at or below D, now or after any later step.

    P starts sparse, as an {exponent: coefficient} dict.  At odd p only a_4
    and a_14 are odd, so the first steps multiply by few binomials and P has
    few terms spread over a range up to D.  Before each step the count
    compares the list that the step would write, of min(max exponent + sum
    of the odd b <= D, D) + 1 entries, with P's number of terms; once the
    list is less than ``_DENSE_FILL`` = 16 times longer, P is written into
    it and stays a list.  One loop takes every step; the two forms of P
    differ only in the multiply-and-slice, and :func:`_count_dense` is that
    step on the list, one slice addition per odd b, so the argument above
    covers both.
    Each step lengthens P by at most sum a_n, and never past degree D,
    before the parity slice halves it, so the list holds O(min(D, sum a_n))
    integers, and while P is sparse the count holds about its terms only: a
    target far below sum a_n at a large p, whose P empties or stays thin,
    never writes a list of D + 1 entries.  The count costs at most about
    15 * sum a_n * log2(D) additions (17 with the non-unitary rows).
    """
    exponents = _degrees_for(p, D, include_nonunitary)
    numerator: dict[int, int] | list[int] = {0: 1}
    while D:
        odd = [b for b in exponents if b & 1 and b <= D]
        if isinstance(numerator, dict) and _DENSE_FILL * len(numerator) > min(max(numerator) + sum(odd), D) + 1:
            dense = [0] * (max(numerator) + 1)
            for e, c in numerator.items():
                dense[e] = c
            numerator = dense
        if isinstance(numerator, list):
            numerator = _count_dense(numerator, odd, D)
        else:
            for b in odd:
                for e, c in numerator.copy().items():
                    if e + b <= D:
                        numerator[e + b] = numerator.get(e + b, 0) + c
            numerator = {e >> 1: c for e, c in numerator.items() if e & 1 == D & 1}
        if not numerator:
            return 0
        exponents = [b if b & 1 else b >> 1 for b in exponents]
        D >>= 1
    return numerator[0]


def _count_dense(numerator: list[int], odd: Sequence[int], D: int) -> list[int]:
    """One halving step of :func:`count_decompositions` on P held as the list
    of its coefficients, numerator[e] at x^e: multiply by (1 + x^b) for each
    b in ``odd``, truncated to degree D, and keep the entries of D's parity."""
    for b in odd:
        n = min(len(numerator) + b, D + 1)
        numerator += [0] * (n - len(numerator))
        # Both slices on the right are copies: old coefficients.
        numerator[b:] = map(add, numerator[b:], numerator[: n - b])
    return numerator[D & 1 :: 2]


def iter_decompositions(
    p: int, D: int, include_nonunitary: bool = False
) -> Iterator[Decomposition]:
    """Every solution of sum c_n * a_n(p) = D, lazily, in lexicographic order
    of (c_1, c_2, ...).

    p and D are validated when this is called, not when iteration starts.
    There is no solution cap here; :func:`counted_decompositions` and
    :func:`decompose` count first and enforce one.
    """
    return _walk(_degrees_for(p, D, include_nonunitary), p, D)


def _walk(
    degrees: tuple[int, ...], p: int, D: int, count: int | None = None
) -> Iterator[Decomposition]:
    """The search behind the decomposition streams.

    A depth-first search fixes c_1, ..., c_(n-2) in turn, c ascending, and
    enters a remainder only if the later degrees can still reach it; one
    reachability row per index 1..n-2 answers that in O(1).  What is left,
    rest = c_(n-1) * a_(n-1) + c_n * a_n, is solved in closed form: with
    g = gcd(a_(n-1), a_n), c_(n-1) runs over one residue class mod a_n / g
    up to rest // a_(n-1), and c_n is the quotient of what remains.  So the
    solutions come out in lexicographic order, and when D is unreachable the
    search ends after D // a_1 probes at index 1.

    The solutions skip the validating constructor.  The search keeps
    c_1, ..., c_(n-2) in one list and carries each prefix's dot product with
    the degrees, so every solution is checked against D as the full dot
    product of the tuple it holds, at the cost of two products.  Given
    ``count``, the walk counts what it yields and raises
    :class:`IntegralityError` at its end if it found a different number: the
    one place the enumeration is checked against the count.
    """
    n = len(degrees)
    # suffix[j] = the sums attainable with degrees[j:], for the rows 1..n-2
    # that the search probes.  Bit D - s stands for the sum s: a right shift
    # adds a degree and drops every sum past D, and bit D (the sum 0) stays
    # set, so the binary string is the row.  The sets nest: one bitset grows.
    suffix = [""] * (n - 1)
    r = 1 << D
    for j in range(n - 1, 0, -1):
        shift = degrees[j]
        while shift <= D:
            r |= r >> shift
            shift <<= 1
        if j < n - 1:
            suffix[j] = format(r, "b")

    # rest = c_(n-1) * a + c_n * b with g | rest, so c_(n-1) * (a / g) =
    # rest / g (mod step): c_(n-1) is (rest / g) * inv (mod step).
    a, b = degrees[n - 2], degrees[n - 1]
    g = math.gcd(a, b)
    step = b // g
    inv = pow(a // g, -1, step)
    # Not a redundant alias: ``check`` is the degrees as iteration reads
    # them, while the search reads ``degrees`` by index, so a sequence whose
    # two views differ fails the per-solution dot-product check.
    check = tuple(degrees)
    check_a, check_b = check[n - 2], check[n - 1]
    indices = tuple(range(1, n + 1))
    new = object.__new__
    set_counts = Decomposition._counts.__set__
    set_indices = Decomposition._indices.__set__
    set_prime = Decomposition.prime.__set__
    set_target = Decomposition.target.__set__
    last = n - 3  # the deepest index the search probes, 0-based
    # path holds c_1..c_(n-2).  Once c_1..c_j are fixed: rests[j] is the
    # target left and heads[j] the dot product of c_1..c_j with ``check``.
    rests = [D] * (last + 1)
    path = [0] * (last + 1)
    heads = [0] * (last + 1)
    found = 0
    j, c = 0, 0
    while True:
        d = degrees[j]
        row = suffix[j + 1]
        rest = rests[j] - c * d
        while rest >= 0 and row[rest] != "1":
            rest -= d
            c += 1
        if rest < 0:  # index j is exhausted: back up one index
            if j == 0:
                break
            j -= 1
            c = path[j] + 1  # the c after the one index j had
            continue
        path[j] = c
        head = heads[j] + c * check[j]
        if j < last:
            j += 1
            rests[j] = rest
            heads[j] = head
            c = 0
            continue
        prefix = tuple(path)
        for c_a in range((rest // g) * inv % step, rest // a + 1, step):
            c_b = (rest - c_a * a) // b
            counts = prefix + (c_a, c_b)
            if head + c_a * check_a + c_b * check_b != D:
                raise IntegralityError(
                    f"enumerated multiplicities {counts} do not sum to {D} at p={p}"
                )
            sol = new(Decomposition)
            set_counts(sol, counts)
            set_indices(sol, indices)
            set_prime(sol, p)
            set_target(sol, D)
            found += 1
            yield sol
        c += 1
    if count is not None and found != count:
        raise IntegralityError(
            f"enumeration found {found} solutions but the count is {count}"
        )


def counted_decompositions(
    p: int,
    D: int,
    include_nonunitary: bool = False,
    max_solutions: int = DEFAULT_SOLUTION_CAP,
) -> tuple[int, Iterator[Decomposition]]:
    """The solution count and a stream of the solutions, for callers that
    want the count before the first solution.

    The count is computed first; if it exceeds ``max_solutions`` a
    :class:`TooManySolutionsError` carrying the exact count is raised before
    any enumeration starts, and a negative cap is an :class:`InputError`.
    The stream is the walk given that count: it raises
    :class:`IntegralityError` at its end if it yielded a different number of
    solutions.
    """
    _check_cap(max_solutions)
    count = count_decompositions(p, D, include_nonunitary)
    if count > max_solutions:
        raise TooManySolutionsError(
            f"{count} solutions exceed the cap of {max_solutions}", count=count
        )
    return count, _walk(_degrees_for(p, D, include_nonunitary), p, D, count)


def decompose(
    p: int,
    D: int,
    include_nonunitary: bool = False,
    max_solutions: int = DEFAULT_SOLUTION_CAP,
) -> list[Decomposition]:
    """All solutions of sum c_n * a_n(p) = D, in lexicographic order of
    (c_1, c_2, ...): the list form of :func:`iter_decompositions`.

    The solution count is computed first; if it exceeds ``max_solutions`` a
    :class:`TooManySolutionsError` carrying the exact count is raised before
    any enumeration starts.  A negative cap is an :class:`InputError`.
    """
    _, solutions = counted_decompositions(p, D, include_nonunitary, max_solutions)
    return list(solutions)


# --- level analysis ----------------------------------------------------------

TAU_COMPONENT = "tau(T, nu^(-1/2) sigma)"
L_COMPONENT = "L(nu^(1/2) St(GL2), nu^(-1/2) sigma)"

# Fixed-vector facts for the two constituents of degree a_14: (label,
# has a Gamma_0(p)-fixed vector, has a paramodular-fixed vector).  These are
# the only local-component facts the analysis can decide, and only the
# weight-4 level-3 case supplies the tabulated dimensions that use them.
A14_CANDIDATES = (
    (TAU_COMPONENT, True, False),
    (L_COMPONENT, False, True),
)


def _rational_json(q: Fraction) -> dict[str, int]:
    return {"numerator": q.numerator, "denominator": q.denominator}


@dataclass
class AnalysisReport:
    """Everything ``analyze_level`` can determine about S_k(Gamma(p))."""

    weight: int
    prime: int
    dimension: int
    bounds: BoundPair
    solution_count: int | None
    solutions: list[Decomposition] | None
    enumeration_note: str | None = None
    newform_dimension: int | None = None
    unique_solution_note: str | None = None
    local_component: str | None = None
    local_component_candidates: tuple[str, ...] | None = None
    local_component_evidence: dict | None = None
    conclusion: str | None = None

    def to_json_dict(self) -> dict:
        out: dict = {
            "weight": self.weight,
            "prime": self.prime,
            "dimension": self.dimension,
            "lower_bound": _rational_json(self.bounds.lower),
            "upper_bound": _rational_json(self.bounds.upper),
            "solution_count": self.solution_count,
        }
        if self.solutions is not None:
            out["solutions"] = [sol.to_json_dict() for sol in self.solutions]
        for key in (
            "enumeration_note",
            "newform_dimension",
            "unique_solution_note",
            "local_component",
            "local_component_evidence",
            "conclusion",
        ):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        if self.local_component_candidates is not None:
            out["local_component_candidates"] = list(self.local_component_candidates)
        return out

    def to_text(self) -> str:
        lines = [
            f"weight {self.weight}, level {self.prime}",
            f"dim S_{self.weight}(Gamma({self.prime})) = {self.dimension}",
            f"newform dimension bounds: {self.bounds.lower} <= dim <= {self.bounds.upper}",
        ]
        if self.solution_count is None:
            lines.append(f"decompositions: {self.enumeration_note}")
        else:
            lines.append(f"decompositions of {self.dimension}: {self.solution_count}")
            if self.solutions is None:
                lines.append(f"  ({self.enumeration_note})")
            else:
                lines.extend(f"  {sol.to_text()}" for sol in self.solutions)
        if self.newform_dimension is not None:
            lines.append(f"newform dimension: {self.newform_dimension}")
        if self.unique_solution_note:
            lines.append(self.unique_solution_note)
        if self.local_component is not None:
            lines.append(f"local component at p={self.prime}: {self.local_component}")
        if self.conclusion:
            lines.append(self.conclusion)
        return "\n".join(lines)


def analyze_level(
    k: int,
    p: int,
    max_solutions: int = DEFAULT_SOLUTION_CAP,
) -> AnalysisReport:
    """Dimension, bounds, and decomposition analysis of S_k(Gamma(p)).

    When the decomposition is unique the newform dimension sum(c_n) is
    derived, even when ``max_solutions`` (which must be non-negative) is too
    small for the solution list to be kept.  For (k, p) = (4, 3) -- the one
    case the tabulated Gamma_0 and paramodular dimensions settle -- the local
    component is identified among the two degree-a_14 candidates via their
    fixed-vector behaviour.
    """
    _check_cap(max_solutions)
    dimension = dim_principal_prime(k, p)
    bounds = bounds_prime(k, p)
    report = AnalysisReport(
        weight=k,
        prime=p,
        dimension=dimension,
        bounds=bounds,
        solution_count=None,
        solutions=None,
    )

    try:
        count = count_decompositions(p, dimension)
    except TooManySolutionsError:
        report.enumeration_note = (
            f"not enumerated: dimension {dimension} exceeds the "
            f"enumeration limit {MAX_ENUMERATION_TARGET}"
        )
        return report

    report.solution_count = count
    solutions = _walk(_degrees_for(p, dimension, False), p, dimension, count)
    if count > max_solutions:
        report.enumeration_note = (
            f"solution list omitted: {count} solutions exceed the cap of {max_solutions}"
        )
    else:
        report.solutions = list(solutions)

    if count == 1:
        # Drained even when the list is omitted, so the count check runs.
        only = (report.solutions or list(solutions))[0]
        report.newform_dimension = only.total_multiplicity
        noun = (
            "a single automorphic representation accounts"
            if report.newform_dimension == 1
            else f"{report.newform_dimension} automorphic representations account"
        )
        report.unique_solution_note = (
            f"the decomposition is unique, so {noun} for the whole space"
        )

        if (k, p) == (4, 3) and only.nonzero() == {14: 1}:
            gamma0_dim = dim_gamma0(4, 3)
            paramodular_dim = dim_paramodular_weight4(3)
            survivors = [
                label
                for label, has_gamma0, has_paramodular in A14_CANDIDATES
                if has_gamma0 == (gamma0_dim > 0)
                and has_paramodular == (paramodular_dim > 0)
            ]
            report.local_component_candidates = tuple(lbl for lbl, _, _ in A14_CANDIDATES)
            report.local_component_evidence = {
                "dim S_4(Gamma_0(3))": gamma0_dim,
                "dim S_4(K(3))": paramodular_dim,
            }
            if len(survivors) == 1:
                report.local_component = survivors[0]
                report.conclusion = (
                    f"local component {survivors[0]}, a Saito-Kurokawa lifting: "
                    "every cusp form of weight 4 and level 3 is a Saito-Kurokawa lift"
                )
    return report
