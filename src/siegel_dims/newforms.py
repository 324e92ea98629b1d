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
from collections import deque
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice, repeat

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
    InputError,
    IntegralityError,
    TooManySolutionsError,
    _Frozen,
    _require_int,
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
    a1 = irrep_dim(1, p)
    poly = (2 * k**3 - 9 * k**2 + 13 * k - 6) * p**3 + (180 - 120 * k) * p + 360
    lower = Fraction(poly * p * (p - 1) ** 2, 34560)
    if p == 3:
        upper = Fraction(6 * k**3 - 27 * k**2 - k + 82, 12)
    else:
        upper = Fraction(poly * p * (p**4 - 1), 17280)
    if lower * a1 != dim_principal_prime(k, p):
        raise IntegralityError(
            f"lower bound at (k={k}, p={p}) violates the dim / a_1 identity"
        )
    return BoundPair(lower, upper)


def bounds_squarefree(k: int, level: SquareFreeLevel) -> BoundPair:
    """Newform dimension bounds for S_k(Gamma(N)), odd square-free N.

    Both bounds share the full Gamma(N) dimension as numerator.  The lower
    divisor is sum a_1(p_i); the upper divisor is the sum over the primes
    p_i | N of p_i^2 - 1, except that p_i = 3 contributes 6, not 8.
    """
    dim = dim_principal(k, level)
    lower_div = sum(irrep_dim(1, p) for p in level.primes)
    upper_div = sum(6 if p == 3 else p * p - 1 for p in level.primes)
    return BoundPair(Fraction(dim, lower_div), Fraction(dim, upper_div))


# --- exhaustive decomposition ------------------------------------------------


class Decomposition(_Frozen):
    """One solution of sum c_n * a_n(p) = target.

    ``multiplicities`` maps every index in play (1..15, or 1..17 when the
    non-unitary rows were included) to its multiplicity, zeros included.  A
    solution stores two things: its own tuple of counts, and one
    ``(indices, prime, target)`` tuple that every solution of a walk shares,
    with the indices 1..n.  ``prime``, ``target`` and ``_indices`` read that
    tuple, and the dict view is built only when ``multiplicities`` is read.
    ``vector`` is the counts sorted by index: the count tuple itself when the
    indices ascend, as a walk's always do.

    The constructor validates: ``__post_init__`` rejects a multiplicity that
    is not an ``int`` or is negative, an index that :func:`irrep_dim`
    refuses, a non-``int`` target and a sum other than it.  The walk behind
    :func:`iter_decompositions` builds its solutions without that method and
    checks each one against the target instead, as the full dot product of
    its counts with the degree tuple, split after c_(n-3): each tail
    (c_(n-2), c_(n-1), c_n) is checked against the remainder it fills when
    the walk makes it, and each prefix's dot product plus that remainder
    against the target.
    Instances are immutable, compare by value and are unhashable.
    """

    __slots__ = ("_counts", "_where")
    __match_args__ = ("multiplicities", "prime", "target")
    __hash__ = None

    def __init__(self, multiplicities: dict[int, int], prime: int, target: int):
        super().__init__(tuple(multiplicities.values()), (tuple(multiplicities), prime, target))
        self.__post_init__()

    # A method of its own because bench/tracing.py wraps it by name to time
    # solution construction; fold it into __init__ with the next change to
    # the benchmark.
    def __post_init__(self):
        require_odd_prime(self.prime)
        total = 0
        for n, c in zip(self._indices, self._counts):
            if _require_int(c, f"multiplicity c_{n} = ") < 0:
                raise InputError(f"multiplicity c_{n} = {c} is negative")
            total += c * irrep_dim(n, self.prime)
        if total != _require_int(self.target, "target "):
            raise InputError(
                f"multiplicities sum to {total}, not the target {self.target}"
            )

    @property
    def _indices(self) -> tuple[int, ...]:
        return self._where[0]

    @property
    def prime(self) -> int:
        return self._where[1]

    @property
    def target(self) -> int:
        return self._where[2]

    @property
    def multiplicities(self) -> dict[int, int]:
        return dict(zip(self._indices, self._counts))

    @property
    def vector(self) -> tuple[int, ...]:
        indices = self._indices
        if list(indices) == sorted(indices):  # always so for a walk's solutions
            return self._counts
        return tuple(c for _, c in sorted(zip(indices, self._counts)))

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
    checked: where a target to count or walk is held to be an ``int``,
    non-negative and at most MAX_ENUMERATION_TARGET.  The non-unitary rows
    are the last ones of the table, so leaving them out is a slice."""
    degrees = degrees_at(p)
    if _require_int(D, "target ") < 0:
        raise InputError(f"target must be non-negative, got {D}")
    if D > MAX_ENUMERATION_TARGET:
        raise TooManySolutionsError(
            f"target {D} exceeds the enumeration limit {MAX_ENUMERATION_TARGET}"
        )
    return degrees if include_nonunitary else degrees[: -len(NON_UNITARY_INDICES)]


def _check_cap(max_solutions: int) -> None:
    if _require_int(max_solutions, "solution cap ") < 0:
        raise InputError(f"the solution cap must be non-negative, got {max_solutions}")


# What the two forms of the halving count's numerator cost, in ns, for
# _pack_pays to estimate the next step in each.  Measured once, on a 2-vCPU
# x86-64 Xeon host under CPython 3.11: every step of the dict phase of 15
# targets, from (3, 15) to (47, 10^7), was timed as a dict step and as
# packing plus a packed step (best of 3 to 50 runs), and these are the least
# squares fit of those 275 pairs of times, weighted by relative error, to the
# work that _pack_pays counts; 80 % of the steps fit within 0.71-1.26x (dict)
# and 0.71-1.14x (packed).  They are constants, not measured at import, so
# that the switch step is the same on every host.
_DICT_STEP = 500  # a dict step, whatever its size
_DICT_VISIT = 50  # a term that one factor (or the parity slice) visits
_DICT_ADD = 75  # a term that one factor adds, at e + b <= D
_PACKED_STEP = 2750  # packing P and a packed step, whatever their size
_PACK_TERM = 390  # a term written into the packed P
_WORD = 4.5  # a 64-bit word of the packed P that one pass reads


def _pack_pays(numerator: dict[int, int], odd: Sequence[int], D: int) -> bool:
    """Whether packing P, held as the dict ``numerator``, and taking the next
    halving step on the packed P is estimated to cost less than taking the
    step on the dict.  Both forms give the same P, so the estimate can only
    make the count slower, never wrong.

    The packed work follows from P's top exponent and largest coefficient:
    packing writes every term and every slot, each odd factor b is one
    shift-add over the slots it reaches, min(slots + b, D + 1), and the
    parity slice reads the slots and writes half of them, all in slots of
    as many words as the coefficients need after the step.  The dict step
    visits every term once per odd factor and once to slice, and adds to
    the terms with e + b <= D.  Its work is first bounded by P doubling at
    every factor, then estimated as if P's terms were spread evenly up to
    its top exponent.  When that estimate puts the dict step above a packed
    step of more than 32 fixed costs, the work is counted exactly, by
    shifting P's exponents, as the bits of one integer, as the step would
    shift its terms: exponents that are sums of the degrees collide, and P
    may grow ten times slower than even spread suggests.  That integer has
    a bit per slot, 1/64 of the packed P."""
    terms = len(numerator)
    packed = _PACKED_STEP + _PACK_TERM * terms
    if _DICT_STEP + (_DICT_VISIT + _DICT_ADD) * (terms << len(odd) + 1) <= packed:
        return False
    slots = max(numerator) + 1
    words = -(-(max(numerator.values()).bit_length() + len(odd)) // 64)
    passes = slots
    visits = adds = 0
    for b in odd:
        visits += terms
        if slots + b <= D + 1:
            added = terms
            slots += b
        else:
            # The terms at e <= D - b, if spread evenly over the slots.
            added = terms * (D + 1 - b) // slots
            slots = D + 1
        adds += added
        passes += slots
        terms = min(terms + added, slots)
    packed += _WORD * words * (passes + 2 * slots)
    if _DICT_STEP + _DICT_VISIT * (visits + terms) + _DICT_ADD * adds <= packed:
        return False
    # Under 32 fixed costs (88 us) a wrong choice loses about what the exact
    # count, 5 to 20 us there, would cost.
    if packed < 32 * _PACKED_STEP:
        return True
    present = bytearray(slots + 7 >> 3)
    for e in numerator:
        present[e >> 3] |= 1 << (e & 7)
    support = int.from_bytes(present, "little")
    # The step writes no slot past the last one, which is slot D if any
    # factor reaches it.
    below = (1 << slots) - 1
    terms = support.bit_count()
    cost = _DICT_STEP + _DICT_VISIT * terms
    for b in odd:
        # The terms at e <= D - b, which the factor adds at e + b.
        moved = terms - (support >> D + 1 - b).bit_count()
        support |= support << b & below
        terms = support.bit_count()
        cost += _DICT_ADD * moved + _DICT_VISIT * terms
        if cost > packed:
            return True
    return cost > packed


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
    count is then P[0], or 0 once the slice leaves P empty or zero.  The
    step is exact because (1 - x^b)(1 + x^b) = 1 - x^(2b): afterwards the
    denominator is a function of x^2, and so is each even factor 1 - x^b
    already, so [x^D] of the quotient is [y^(D // 2)] of the kept
    coefficients over the halved denominator.  An odd b > D is left alone;
    its factor adds nothing at or below D, now or after any later step.

    P starts sparse, as an {exponent: coefficient} dict.  At odd p only a_4
    and a_14 are odd, so the first steps multiply by few binomials and P has
    few terms spread over a range up to D.  Before each step the count
    estimates what the step would cost on the dict and what packing P and
    taking the step packed would cost (:func:`_pack_pays`, from P's terms,
    top exponent and largest coefficient, the odd b <= D and fixed unit
    costs); at the first step where packing is the cheaper, P is packed into
    one integer, in one pass over the terms, and stays packed.  Slot e of
    that integer holds P[e] in ``words`` 64-bit words, and ``bits`` bounds
    the bit length of every coefficient: it starts at that of the largest
    term and grows by one per odd factor, since a multiply by (1 + x^b) at
    most doubles the largest coefficient, while truncation and the parity
    slice never raise it.  So no slot carries into the next, and
    :func:`_count_dense` widens the slots before the bound would pass them.
    One loop takes every step; the two forms of P differ only in the
    multiply-and-slice, and :func:`_count_dense` is that step on the packed
    P, so the argument above covers both.

    Each step lengthens P by at most sum a_n, and never past degree D,
    before the parity slice halves it, so a packed P takes about
    min(D, sum a_n) * 8 * words bytes, and a step holds about three such
    copies at its peak.  While P is sparse the count holds about its terms
    only: a target far below sum a_n at a large p, whose P empties or stays
    thin, never packs D + 1 slots.  A dense step costs one shift-add of the
    packed P per odd factor, at most 15 per step (17 with the non-unitary
    rows), and one strided copy for the parity slice.
    """
    exponents = _degrees_for(p, D, include_nonunitary)
    numerator: dict[int, int] | tuple[int, int, int, int] = {0: 1}
    while D:
        odd = [b for b in exponents if b & 1 and b <= D]
        if isinstance(numerator, dict) and _pack_pays(numerator, odd, D):
            bits = max(c.bit_length() for c in numerator.values())
            words = -(-bits // 64)
            size = 8 * words
            slots = max(numerator) + 1
            dense = bytearray(size * slots)
            for e, c in numerator.items():
                dense[size * e : size * (e + 1)] = c.to_bytes(size, "little")
            numerator = (int.from_bytes(dense, "little"), slots, words, bits)
            del dense
        if isinstance(numerator, tuple):
            numerator = _count_dense(numerator, odd, D)
            if not numerator[0]:
                return 0
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
    # At D = 0 the slice has left P at most the one slot 0, so a packed P is
    # P[0] itself, as a dict's entry 0 is.
    return numerator[0]


def _count_dense(
    numerator: tuple[int, int, int, int], odd: Sequence[int], D: int
) -> tuple[int, int, int, int]:
    """One halving step of :func:`count_decompositions` on P packed as
    ``numerator`` = (packed, slots, words, bits): slot e, the ``words``
    64-bit words from bit 64 * words * e of ``packed``, holds P[e] for
    e < slots, and every coefficient has at most ``bits`` bits.

    Each odd factor adds one to ``bits``; if the bound would pass the slot
    width, every slot is first widened to hold it.  Then the multiply by
    (1 + x^b) is one shift-add of ``packed``, whose addend keeps only the
    slots that land at degree D or below (none for b > D, which the count
    never hands over), and the parity slice copies the slots of D's parity
    into a new packed P."""
    packed, slots, words, bits = numerator
    bits += len(odd)
    if bits > 64 * words:
        wide = -(-bits // 64)
        packed = _restride(packed, slots, words, range(slots), wide)
        words = wide
    width = 64 * words
    for b in odd:
        # Only the slots below room land at degree D or below.
        room = D + 1 - b
        if room > 0:
            low = packed if slots <= room else packed & (1 << width * room) - 1
            packed += low << width * b
            del low
        slots = min(slots + b, D + 1)
    kept = range(D & 1, slots, 2)
    return _restride(packed, slots, words, kept, words), len(kept), words, bits


def _restride(packed: int, slots: int, words: int, picked: range, wide: int) -> int:
    """The slots ``picked`` of ``packed``, whose ``slots`` slots are
    ``words`` 64-bit words each, packed again in slots of ``wide`` >= words
    words.  The words are copied whole, never read as numbers, so the
    machine's byte order does not matter."""
    held = memoryview(packed.to_bytes(8 * words * slots, "little")).cast("Q")
    out = bytearray(8 * wide * len(picked))
    into = memoryview(out).cast("Q")
    start, stop, step = picked.start * words, picked.stop * words, picked.step * words
    for i in range(words):
        into[i::wide] = held[start + i : stop : step]
    # Free the bytes before the integer is made: the step peaks lower.
    held.release()
    return int.from_bytes(out, "little")


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


# The walk builds its solutions this many at a time (256 and 1024 timed the
# same) and holds at most this many tails in its table of remainders.
_BATCH = 1024


def _build(batch: list[tuple[int, ...]], where: tuple) -> list[Decomposition]:
    """One walk-built :class:`Decomposition` per count tuple in ``batch``,
    each sharing ``where`` = (indices, prime, target).  The loops that make
    the objects and fill their two slots run in C: this is the enumeration's
    hot path, and it skips the validating constructor."""
    k = len(batch)
    built = list(map(object.__new__, repeat(Decomposition, k)))
    deque(map(Decomposition._counts.__set__, built, batch), 0)
    deque(map(Decomposition._where.__set__, built, repeat(where, k)), 0)
    return built


def _walk(
    degrees: tuple[int, ...], p: int, D: int, count: int | None = None
) -> Iterator[Decomposition]:
    """The search behind the decomposition streams.

    A depth-first search fixes c_1, ..., c_(n-3) in turn, c ascending, and
    enters a remainder only if the later degrees can still reach it; one
    reachability row per index 1..n-2 answers that in O(1).  What is left,
    rest = c_(n-2) * a_(n-2) + c_(n-1) * a_(n-1) + c_n * a_n, has its tails
    (c_(n-2), c_(n-1), c_n) made by probing row n-2 for c_(n-2) and solving
    the last two in closed form: with g = gcd(a_(n-1), a_n), c_(n-1) runs
    over one residue class mod a_n / g up to what is left // a_(n-1), and
    c_n is the quotient of the rest.  So the solutions come out in
    lexicographic order, and when D is unreachable the search ends after
    D // a_1 probes at index 1.

    Many prefixes leave the same remainder, so the walk keeps a table from
    remainder to its list of tails, and each prefix adds its counts to them
    in C.  The table holds at most ``_BATCH`` tails: it is cleared before a
    new entry would take it past that, and a remainder with more tails is
    streamed and not stored.

    The solutions skip the validating constructor.  The search keeps
    c_1, ..., c_(n-3) in one list and carries each prefix's dot product with
    the degrees as iteration reads them (``head``), and the check is split
    at the prefix: each tail is checked once, when it is made, as its three
    terms against its remainder, and each prefix once, as head + rest == D.
    Together they are the full dot product of every solution's counts.
    The checked count tuples collect in a batch; once it holds ``_BATCH`` of
    them, and at the end, :func:`_build` makes the batch's solutions, all
    sharing one ``(indices, p, D)`` tuple, and the walk yields them.  So the
    stream runs at most one batch ahead of what it has yielded, however many
    solutions one prefix has.  Given ``count``, the walk counts what it
    yields and raises :class:`IntegralityError` at its end if it found a
    different number: the one place the enumeration is checked against the
    count.
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
    d, a, b = degrees[n - 3], degrees[n - 2], degrees[n - 1]
    g = math.gcd(a, b)
    step = b // g
    inv = pow(a // g, -1, step)
    # Not a redundant alias: ``check`` is the degrees as iteration reads
    # them, while the search reads ``degrees`` by index, so a sequence whose
    # two views differ fails the dot-product check.
    check = tuple(degrees)
    check_d, check_a, check_b = check[n - 3], check[n - 2], check[n - 1]
    row = suffix[n - 2]

    def tails(rest: int, prefix: tuple[int, ...]) -> Iterator[tuple[int, int, int]]:
        """The tails of ``rest`` in lexicographic order, each checked as it
        is made; ``prefix`` is the solution's start that a failure names."""
        c, left = 0, rest
        while True:
            while left >= 0 and row[left] != "1":
                left -= d
                c += 1
            if left < 0:
                return
            part = c * check_d
            for c_a in range((left // g) * inv % step, left // a + 1, step):
                c_b = (left - c_a * a) // b
                if part + c_a * check_a + c_b * check_b != rest:
                    raise IntegralityError(
                        f"enumerated multiplicities {prefix + (c, c_a, c_b)} "
                        f"do not sum to {D} at p={p}"
                    )
                yield c, c_a, c_b
            left -= d
            c += 1

    limit = _BATCH
    table: dict[int, list[tuple[int, int, int]]] = {}
    held = 0  # the tails in ``table``
    where = (tuple(range(1, n + 1)), p, D)
    batch: list[tuple[int, ...]] = []
    last = n - 4  # the deepest index the search probes, 0-based
    # path holds c_1..c_(n-3).  Once c_1..c_j are fixed: rests[j] is the
    # target left and heads[j] the dot product of c_1..c_j with ``check``.
    rests = [D] * (last + 1)
    path = [0] * (last + 1)
    heads = [0] * (last + 1)
    found = 0
    j, c = 0, 0
    while True:
        dj = degrees[j]
        probe = suffix[j + 1]
        rest = rests[j] - c * dj
        while rest >= 0 and probe[rest] != "1":
            rest -= dj
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
        if head + rest != D:
            raise IntegralityError(
                f"enumerated multiplicities {prefix + next(tails(rest, prefix))} "
                f"do not sum to {D} at p={p}"
            )
        tail = table.get(rest)
        if tail is None:
            made = tails(rest, prefix)
            tail = list(islice(made, limit + 1))
            if len(tail) > limit:
                tail = chain(tail, made)
            else:
                if held + len(tail) > limit:
                    table.clear()
                    held = 0
                table[rest] = tail
                held += len(tail)
        solutions = map(prefix.__add__, tail)
        while True:
            batch += islice(solutions, limit - len(batch))
            if len(batch) < limit:
                break
            found += limit
            yield from _build(batch, where)
            batch.clear()
        c += 1
    found += len(batch)
    yield from _build(batch, where)
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
    solution_count: int | None = None
    solutions: list[Decomposition] | None = None
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

    The solutions are counted when the dimension is within the enumeration
    limit, and the walk runs only when its solutions are used: when they fit
    ``max_solutions`` (which must be non-negative), or when the decomposition
    is unique.  A unique decomposition gives the newform dimension sum(c_n)
    even when the cap is too small for the solution list to be kept.  For
    (k, p) = (4, 3) -- the one case the tabulated Gamma_0 and paramodular
    dimensions settle -- the local component is identified among the two
    degree-a_14 candidates via their fixed-vector behaviour.
    """
    _check_cap(max_solutions)
    require_odd_prime(p)
    dimension = dim_principal_prime(k, p)
    report = AnalysisReport(k, p, dimension, bounds_prime(k, p))
    try:
        count = count_decompositions(p, dimension)
    except TooManySolutionsError:
        report.enumeration_note = (
            f"not enumerated: dimension {dimension} exceeds the "
            f"enumeration limit {MAX_ENUMERATION_TARGET}"
        )
        return report

    report.solution_count = count
    if count <= max(max_solutions, 1):
        solutions = list(_walk(_degrees_for(p, dimension, False), p, dimension, count))
    if count > max_solutions:
        report.enumeration_note = (
            f"solution list omitted: {count} solutions exceed the cap of {max_solutions}"
        )
    else:
        report.solutions = solutions

    if count == 1:
        [only] = solutions
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
