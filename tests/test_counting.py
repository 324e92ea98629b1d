"""``count_decompositions`` against a plain coin-change DP and golden counts.

The count halves the target at every step, whatever the target is.  The
reference here is the textbook form: one full pass per row, in row order.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import cache
from math import comb, factorial, prod
from operator import add
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siegel_dims import newforms
from siegel_dims.irreps import degrees_at
from siegel_dims.newforms import count_decompositions

ODD_PRIMES = (3, 5, 7, 11, 13)
MAX_TARGET = 20_000


@cache
def reference_table(p, include_nonunitary, top=MAX_TARGET):
    """counts[D] for every D <= top: 15 (or 17) full passes, rows 1.. in order."""
    rows = 17 if include_nonunitary else 15
    counts = [0] * (top + 1)
    counts[0] = 1
    for d in degrees_at(p)[:rows]:
        for s in range(d, top + 1):
            counts[s] += counts[s - d]
    return counts


@given(
    st.sampled_from(ODD_PRIMES),
    st.integers(min_value=0, max_value=MAX_TARGET),
    st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_matches_reference_dp(p, target, include_nonunitary):
    expected = reference_table(p, include_nonunitary)[target]
    assert count_decompositions(p, target, include_nonunitary) == expected


@pytest.mark.parametrize("include_nonunitary", [False, True])
@pytest.mark.parametrize("p", ODD_PRIMES)
class TestEdges:
    def test_empty_target(self, p, include_nonunitary):
        assert count_decompositions(p, 0, include_nonunitary) == 1

    def test_every_target_below_the_smallest_degree(self, p, include_nonunitary):
        rows = 17 if include_nonunitary else 15
        smallest = min(degrees_at(p)[:rows])
        below = [count_decompositions(p, D, include_nonunitary) for D in range(1, smallest)]
        assert below == [0] * (smallest - 1)
        assert count_decompositions(p, smallest, include_nonunitary) >= 1

    def test_target_equal_to_a1(self, p, include_nonunitary):
        a1 = degrees_at(p)[0]
        expected = reference_table(p, include_nonunitary, max(a1, MAX_TARGET))[a1]
        assert count_decompositions(p, a1, include_nonunitary) == expected


@pytest.mark.parametrize("target", [15, 21, 77, 81, 1001, 19999])
@pytest.mark.parametrize("include_nonunitary", [False, True])
def test_odd_targets_at_p3(target, include_nonunitary):
    expected = reference_table(3, include_nonunitary)[target]
    assert expected > 0
    assert count_decompositions(3, target, include_nonunitary) == expected


def test_rows_with_equal_degrees_count_separately():
    # a_9(3) = a_10(3) = 40: c_9 = 1 and c_10 = 1 are two solutions.
    assert degrees_at(3)[8] == degrees_at(3)[9] == 40
    assert count_decompositions(3, 40) == reference_table(3, False)[40]


@pytest.mark.parametrize(
    "p,target,count",
    [
        (3, 709, 8516000),
        (5, 43680, 405404937212972605),
        (5, 83005, 2078604125885483496893),
        (5, 140205, 2597931705199155238239697),
        (7, 199500, 7426455280596302879),
    ],
)
def test_golden_counts(p, target, count):
    # dim S_k(Gamma(p)) for (k, p) = (8, 3), (6, 5), (7, 5), (8, 5), (4, 7), with
    # the counts scripts/newform_report.py printed for them from the row-order DP.
    assert count_decompositions(p, target) == count


# --- targets around and above the sum of the degrees -------------------------

# How far above the degree sum the seeded targets at p = 11 and 13 reach.
ABOVE_THE_SUM = 500


def degree_sum(p, include_nonunitary):
    return sum(degrees_at(p)[: 17 if include_nonunitary else 15])


def halving_table(p, include_nonunitary):
    """Reference counts up to 3 times the degree sum for p <= 7, and up to
    ABOVE_THE_SUM past it for the larger primes, where a full table to 3
    times the sum would cost seconds."""
    total = degree_sum(p, include_nonunitary)
    top = 3 * total if p <= 7 else total + ABOVE_THE_SUM
    return reference_table(p, include_nonunitary, top)


@given(st.sampled_from((3, 5, 7)), st.booleans(), st.data())
@settings(max_examples=100, deadline=None)
def test_halving_matches_reference_dp(p, include_nonunitary, data):
    total = degree_sum(p, include_nonunitary)
    target = data.draw(st.integers(min_value=total, max_value=3 * total))
    expected = halving_table(p, include_nonunitary)[target]
    assert count_decompositions(p, target, include_nonunitary) == expected


@pytest.mark.parametrize("include_nonunitary", [False, True])
@pytest.mark.parametrize("p", [11, 13])
def test_halving_just_above_the_degree_sum(p, include_nonunitary):
    total = degree_sum(p, include_nonunitary)
    rng = random.Random(1000 * p + include_nonunitary)
    targets = rng.sample(range(total + 1, total + ABOVE_THE_SUM + 1), 4)
    table = halving_table(p, include_nonunitary)
    assert [count_decompositions(p, D, include_nonunitary) for D in targets] == [
        table[D] for D in targets
    ]


@pytest.mark.parametrize("include_nonunitary", [False, True])
@pytest.mark.parametrize("p", ODD_PRIMES)
def test_crossover_between_the_two_methods(p, include_nonunitary):
    total = degree_sum(p, include_nonunitary)
    table = halving_table(p, include_nonunitary)
    targets = (total - 1, total, total + 1)
    assert [count_decompositions(p, D, include_nonunitary) for D in targets] == [
        table[D] for D in targets
    ]


def test_count_at_the_enumeration_limit():
    # The dynamic program's count for the largest accepted target, as
    # `decompose --prime 3 --target 10000000` printed it before refusing.
    assert count_decompositions(3, 10**7) == (
        178796249206356953428924790656618692009243404948902395254082114
    )


def test_count_at_a_paper_dimension_for_p11(monkeypatch):
    # dim S_4(Gamma(11)) lies above the enumeration limit; the count was found
    # both by an uncapped row-order DP and by halving.
    monkeypatch.setattr(newforms, "MAX_ENUMERATION_TARGET", 20683575)
    assert count_decompositions(11, 20683575) == (
        1468279476109993457438861542957435811
    )


# --- the sparse phase below the degree sum -------------------------------------

# The numerator starts as a dict of terms and is packed into one integer once
# it fills (see the docstring of count_decompositions).  Targets between
# 2 * 10^4 and the degree sum keep it sparse for several steps at p = 11 and 13.
SPARSE_FROM = 20_000


@given(st.sampled_from((11, 13)), st.booleans(), st.data())
@settings(max_examples=60, deadline=None)
def test_sparse_phase_matches_reference_dp(p, include_nonunitary, data):
    total = degree_sum(p, include_nonunitary)
    target = data.draw(st.integers(min_value=SPARSE_FROM + 1, max_value=total - 1))
    expected = halving_table(p, include_nonunitary)[target]
    assert count_decompositions(p, target, include_nonunitary) == expected


def switch_step(monkeypatch, p, target, include_nonunitary=False):
    """(the step at which the count goes dense, or None, and the count)."""
    dense = newforms._count_dense
    handed = []

    def spy(numerator, exponents, D):
        handed.append(D)
        return dense(numerator, exponents, D)

    monkeypatch.setattr(newforms, "_count_dense", spy)
    count = count_decompositions(p, target, include_nonunitary)
    if not handed:
        return None, count
    return [target >> s for s in range(target.bit_length() + 1)].index(handed[0]), count


# Counts past the reference tables above, from the same row-order DP run once
# in 64-bit integers: no entry up to these targets reaches 2^62.
ROW_ORDER_COUNTS = {(7, 99975): 965059567117177, (23, 10**7): 1384172560521356}


def expected_count(p, target, include_nonunitary):
    """The reference DP's count at p <= 13; the walk's at larger p, where the
    targets here have few solutions."""
    if not include_nonunitary and (p, target) in ROW_ORDER_COUNTS:
        return ROW_ORDER_COUNTS[p, target]
    if p > 13:
        return sum(1 for _ in newforms.iter_decompositions(p, target, include_nonunitary))
    if target <= MAX_TARGET:
        return reference_table(p, include_nonunitary)[target]
    return halving_table(p, include_nonunitary)[target]


# The step at which _pack_pays first estimates packing and a packed step as
# cheaper than the dict step; the costs quoted are its estimates.  A P of a
# few terms never packs: even if every odd factor doubled it, the dict step
# would cost less than packing alone.
@pytest.mark.parametrize(
    "p,target,include_nonunitary,step",
    [
        (3, 5, False, None),  # one term, and no odd degree up to 5
        (13, 1000, True, None),  # at most three terms
        (3, 15, False, None),  # one term at every step
        (3, 16, True, None),  # at most two terms
        (3, 30, False, None),  # at most two terms
        (3, 50, False, None),  # four terms at step 3: spread evenly, 3.1 us against 4.6 us
        (5, 100, True, None),  # one term at every step
        # Two terms at step 1, 11.4 us if spread evenly against 9.5 us packed;
        # packing this cheap is not worth an exact count.
        (3, 10**4, False, 1),
        # Even spread overrates step 3 twelvefold: 78 terms, 321 us counted
        # exactly, 764 us packed; at step 4, 324 terms, 698 us against 495 us.
        (13, 10**5, False, 4),
        (13, 98507, False, 4),  # as at 10**5: 310 us against 751 us, then 661 us against 485 us
        # 40 terms at step 2, 1.15 ms even if spread evenly, against 1.21 ms
        # packed; 491 terms at step 3, 1.83 ms exactly against 1.09 ms.
        (11, 10**5, True, 3),
        # 21 terms at step 2, 156 us exactly against 292 us packed; 255 terms at
        # step 3, 1.37 ms against 0.47 ms.
        (7, 99975, False, 3),
        # 4188 terms over 625,001 slots at step 4, 22 ms exactly against 40 ms
        # packed; 19,562 terms at step 5, 46 ms against 30 ms.
        (23, 10**7, False, 5),
        (47, 10**5, True, None),  # the parity slice empties P while it is sparse
        (47, 10**6, False, None),  # at most 31 terms over up to 90,611 slots
    ],
)
def test_switch_to_the_dense_phase(monkeypatch, p, target, include_nonunitary, step):
    expected = expected_count(p, target, include_nonunitary)
    assert switch_step(monkeypatch, p, target, include_nonunitary) == (step, expected)


@pytest.mark.parametrize("pack", [False, True])
@pytest.mark.parametrize("p", ODD_PRIMES)
def test_each_phase_alone_matches_reference_dp(monkeypatch, p, pack):
    # Never packing keeps P sparse to the end; always packing makes it dense
    # from the start.  The seeds keep the targets this test has always drawn.
    monkeypatch.setattr(newforms, "_pack_pays", lambda numerator, odd, D: pack)
    rng = random.Random(p + (10**9 if pack else 0))
    for include_nonunitary in (False, True):
        table = reference_table(p, include_nonunitary)
        targets = rng.sample(range(MAX_TARGET + 1), 8)
        assert [count_decompositions(p, D, include_nonunitary) for D in targets] == [
            table[D] for D in targets
        ]


@given(st.sampled_from(ODD_PRIMES), st.booleans(), st.data())
@settings(max_examples=200, deadline=None)
def test_packing_at_any_step_matches_reference_dp(p, include_nonunitary, data):
    # The count is the same whichever step P is packed at, so the step can be
    # left to a cost estimate.  Step target.bit_length() never packs.
    target = data.draw(st.integers(min_value=0, max_value=MAX_TARGET), label="D")
    step = data.draw(st.integers(min_value=0, max_value=target.bit_length()), label="step")
    dense = newforms._count_dense
    handed = []

    def spy(numerator, odd, D):
        handed.append(D)
        return dense(numerator, odd, D)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(newforms, "_pack_pays", lambda numerator, odd, D: D <= target >> step)
        patch.setattr(newforms, "_count_dense", spy)
        count = count_decompositions(p, target, include_nonunitary)
    assert count == reference_table(p, include_nonunitary)[target]
    # The packed phase starts at the step asked for; only a P that empties,
    # for a count of 0, ends the count before that step.
    if handed or (count and step < target.bit_length()):
        assert handed[0] == target >> step


def list_step(coefficients, odd, D):
    """The dense step on P as a plain list, numerator[e] at x^e: multiply by
    (1 + x^b) for each b in ``odd``, truncated to degree D, and keep the
    entries of D's parity."""
    numerator = list(coefficients)
    for b in odd:
        n = min(len(numerator) + b, D + 1)
        numerator += [0] * (n - len(numerator))
        numerator[b:] = map(add, numerator[b:], numerator[: n - b])
    return numerator[D & 1 :: 2]


def pack(coefficients, words):
    """(packed, slots, words, bits) with coefficients[e] in slot e."""
    packed = sum(c << 64 * words * e for e, c in enumerate(coefficients))
    return packed, len(coefficients), words, max(c.bit_length() for c in coefficients)


def unpack(numerator):
    packed, slots, words, bits = numerator
    mask = (1 << 64 * words) - 1
    return [packed >> 64 * words * e & mask for e in range(slots)]


@st.composite
def dense_steps(draw):
    D = draw(st.integers(min_value=0, max_value=300), label="D")
    coefficients = draw(
        st.lists(st.integers(min_value=0, max_value=2**200), min_size=1, max_size=D + 1)
        .filter(any),
        label="P",
    )
    # Odd b up to past both len(P) and D; the count hands over b <= D only.
    odd = draw(
        st.lists(st.integers(min_value=0, max_value=D + 40).map(lambda b: 2 * b + 1), max_size=6),
        label="odd",
    )
    return coefficients, odd, D


@given(dense_steps(), st.integers(min_value=0, max_value=1))
@settings(max_examples=300, deadline=None)
def test_packed_step_matches_the_list_step(step, extra_words):
    # Slots may start wider than the coefficients need: the step only ever
    # widens them.
    coefficients, odd, D = step
    bits = max(c.bit_length() for c in coefficients)
    numerator = pack(coefficients, -(-bits // 64) + extra_words)
    stepped = newforms._count_dense(numerator, odd, D)
    expected = list_step(coefficients, odd, D)
    assert unpack(stepped) == expected
    packed, slots, words, bits = stepped
    assert slots == len(expected)
    assert max(c.bit_length() for c in expected or [0]) <= bits <= 64 * words
    assert packed < 1 << 64 * words * slots


@pytest.mark.parametrize("D", [2, 3])
def test_packed_step_widens_a_full_slot(D):
    # (2^64 - 1)(1 + x) doubles P[1] to 2^65 - 2, one bit past a word: the
    # slot must grow a second word, and slot 2 must stay 2^64 - 1, not take
    # a carry.
    full = 2**64 - 1
    stepped = newforms._count_dense(pack([full, full], 1), [1], D)
    assert stepped[2] == 2
    assert unpack(stepped) == list_step([full, full], [1], D) == [[full, full], [2 * full]][D & 1]


@given(st.sampled_from(ODD_PRIMES), st.booleans(), st.data())
@settings(max_examples=25, deadline=None)
def test_deleting_a_degree_matches_the_shifted_difference(p, include_nonunitary, data):
    # (1 - x^(a_j)) * F_S = F_(S without j), so
    # count_S(D) - count_S(D - a_j) = count_(S without j)(D).  Both sides run
    # the same halving code, so this is a consistency check at targets where
    # the row-order DP above is too slow, not an independent oracle.
    degrees = newforms._degrees_for(p, 0, include_nonunitary)
    j = data.draw(st.integers(min_value=0, max_value=len(degrees) - 1), label="j")
    D = data.draw(st.integers(min_value=0, max_value=10**5), label="D")
    full = count_decompositions(p, D, include_nonunitary)
    shifted = count_decompositions(p, D - degrees[j], include_nonunitary) if D >= degrees[j] else 0
    without_j = degrees[:j] + degrees[j + 1 :]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(newforms, "_degrees_for", lambda p, D, include_nonunitary: without_j)
        assert full - shifted == count_decompositions(p, D, include_nonunitary)


# --- the polynomial part, at targets far past any DP ---------------------------


def bernoulli_plus(top):
    """B_0^+ .. B_top^+, from sum over j <= k of C(k + 1, j) B_j^+ = k + 1."""
    numbers = []
    for k in range(top + 1):
        rest = sum(comb(k + 1, j) * b for j, b in enumerate(numbers))
        numbers.append((k + 1 - rest) / Fraction(k + 1))
    return numbers


def polynomial_part(degrees, D):
    """P0(D), the part of the count from the pole of prod 1/(1 - x^a) at x = 1
    (Beck and Robins, Computing the Continuous Discretely, ch. 1):
    (1 / prod a) sum_j D^j / j! [t^(n - 1 - j)] prod T(a t), where
    T(x) = x / (1 - e^(-x)) = sum_k B_k^+ x^k / k!.  It shares no code with
    the halving count."""
    n = len(degrees)
    bernoulli = bernoulli_plus(n - 1)
    series = [Fraction(1)] + [Fraction(0)] * (n - 1)
    for a in degrees:
        factor = [bernoulli[k] * a**k / factorial(k) for k in range(n)]
        series = [sum(series[i] * factor[m - i] for i in range(m + 1)) for m in range(n)]
    residue = sum(Fraction(D**j, factorial(j)) * series[n - 1 - j] for j in range(n))
    return residue / prod(degrees)


def pole_order(degrees):
    """The largest order of a pole at a root of unity other than 1: the most
    degrees one m >= 2 divides.  count - P0 has degree at most one less."""
    return max(sum(a % m == 0 for a in degrees) for m in range(2, max(degrees) + 1))


@given(st.sampled_from((3, 5)), st.booleans(), st.integers(40, 50), st.integers(0, 10**9))
@settings(max_examples=3, deadline=None)
def test_count_matches_its_polynomial_part(p, include_nonunitary, e, r):
    # The error has degree k - 1, so the bound is D^(k - 1): D^k would exceed
    # the count itself at p = 3 up to e of about 36.
    degrees = newforms._degrees_for(p, 0, include_nonunitary)
    k = pole_order(degrees)
    assert k == (15 if include_nonunitary else 13)
    D = 10**e + r
    bound = D ** (k - 1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(newforms, "MAX_ENUMERATION_TARGET", D)
        count = count_decompositions(p, D, include_nonunitary)
    assert abs(count - polynomial_part(degrees, D)) < bound
    assert count > 10**20 * bound


def test_polynomial_part_catches_a_degree_off_by_one(monkeypatch):
    degrees = newforms._degrees_for(3, 0, False)
    D = 10**40 + 12345
    p0 = polynomial_part(degrees, D)
    bound = D ** (pole_order(degrees) - 1)
    monkeypatch.setattr(newforms, "MAX_ENUMERATION_TARGET", D)
    assert abs(count_decompositions(3, D) - p0) < bound
    for j in range(len(degrees)):
        mutated = degrees[:j] + (degrees[j] + 1,) + degrees[j + 1 :]
        monkeypatch.setattr(newforms, "_degrees_for", lambda p, D, include_nonunitary: mutated)
        assert abs(count_decompositions(3, D) - p0) >= bound, j


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_count_at_p47_at_the_limit_stays_small():
    # The parity slice empties P while it is still a handful of terms; a list
    # of D + 1 entries would peak near 200 MiB.  VmHWM is the peak of the new
    # interpreter alone: ru_maxrss would carry over the peak of this process,
    # which forked it.
    code = (
        "from siegel_dims.newforms import count_decompositions\n"
        "count = count_decompositions(47, 10**7)\n"
        "status = open('/proc/self/status').read().split()\n"
        "print(count, int(status[status.index('VmHWM:') + 1]) // 1024)\n"
    )
    env = dict(os.environ)
    src = str(Path(newforms.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    count, peak_mib = map(int, proc.stdout.split())
    assert count == 0
    assert peak_mib < 64


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
@pytest.mark.parametrize("p", [7, 11, 13, 17, 19, 23])
def test_dense_count_at_the_limit_stays_small(p):
    # These primes go dense at the limit, and the packed P takes about
    # min(D, sum a_n) * 8 * words bytes per copy; the whole interpreter
    # peaks below 40 MiB.  VmHWM, as above, is the new interpreter's own.
    code = (
        "import sys\n"
        "from siegel_dims.newforms import count_decompositions\n"
        "count = count_decompositions(int(sys.argv[1]), 10**7)\n"
        "status = open('/proc/self/status').read().split()\n"
        "print(count, int(status[status.index('VmHWM:') + 1]) // 1024)\n"
    )
    env = dict(os.environ)
    src = str(Path(newforms.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, str(p)], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    count, peak_mib = map(int, proc.stdout.split())
    assert count > 0
    assert peak_mib < 64
