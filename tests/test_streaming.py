"""The streaming walk behind ``decompose``: order, completeness, the cost of
validation, the tuple-backed ``Decomposition``, the solution cap, and the
streamed CLI output."""

import copy
import hashlib
import itertools
import json
import operator
import os
import pickle
import subprocess
import sys
import tracemalloc
from dataclasses import FrozenInstanceError
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import siegel_dims
from siegel_dims import arithmetic, newforms
from siegel_dims.cli import main
from siegel_dims.errors import (
    EvenPrimeError,
    IndexOutOfRangeError,
    InputError,
    IntegralityError,
)
from siegel_dims.irreps import degrees_at
from siegel_dims.newforms import (
    TAU_COMPONENT,
    Decomposition,
    analyze_level,
    count_decompositions,
    decompose,
    iter_decompositions,
)
from test_newforms import naive_solutions_up_to

MAX_TARGET = 150


@cache
def naive(p, include_nonunitary):
    return naive_solutions_up_to(p, MAX_TARGET, include_nonunitary)


@cache
def naive_solutions_at_200(include_nonunitary):
    return naive_solutions_up_to(3, 200, include_nonunitary)[200]


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestIterDecompositions:
    @given(
        st.sampled_from([3, 5, 7]),
        st.integers(min_value=0, max_value=MAX_TARGET),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_oracle_in_order(self, p, target, include_nonunitary):
        vectors = [s.vector for s in iter_decompositions(p, target, include_nonunitary)]
        assert vectors == naive(p, include_nonunitary)[target]
        assert all(a < b for a, b in zip(vectors, vectors[1:]))
        assert len(vectors) == count_decompositions(p, target, include_nonunitary)

    def test_is_lazy_and_exported(self):
        stream = siegel_dims.iter_decompositions(3, 76)
        first = next(stream)
        assert first.vector == decompose(3, 76)[0].vector
        assert sum(1 for _ in stream) == 12

    def test_validates_when_called(self):
        with pytest.raises(EvenPrimeError):
            iter_decompositions(2, 10)
        with pytest.raises(InputError):
            iter_decompositions(3, -1)


@pytest.mark.parametrize("target", [15, 300])
def test_primality_is_checked_a_constant_number_of_times(monkeypatch, target):
    calls = []
    real = arithmetic.is_prime

    def counting(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(arithmetic, "is_prime", counting)
    degrees_at.cache_clear()
    solutions = decompose(3, target)
    assert len(solutions) == count_decompositions(3, target)
    assert 1 <= len(calls) <= 5


class TestDecompositionChecks:
    def test_rejects_unknown_index(self):
        counts = {n: 0 for n in range(1, 16)}
        counts[18] = 1
        with pytest.raises(IndexOutOfRangeError):
            Decomposition(counts, 3, 0)

    def test_enumeration_count_mismatch_is_an_integrity_failure(self, monkeypatch):
        monkeypatch.setattr(newforms, "count_decompositions", lambda p, D, nu=False: 2)
        with pytest.raises(IntegralityError):
            decompose(3, 15)


class TestTrustedConstruction:
    """Walk-built solutions skip the validating constructor, which therefore
    serves as the independent oracle for them."""

    @given(
        st.sampled_from([3, 5, 7]),
        st.integers(min_value=0, max_value=MAX_TARGET),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_public_constructor_rebuilds_every_streamed_solution(
        self, p, target, include_nonunitary
    ):
        for sol in iter_decompositions(p, target, include_nonunitary):
            rebuilt = Decomposition(sol.multiplicities, p, target)
            assert rebuilt == sol
            assert repr(rebuilt) == repr(sol)
            assert rebuilt.vector == sol.vector
            assert rebuilt.nonzero() == sol.nonzero()
            assert rebuilt.to_text() == sol.to_text()
            assert list(rebuilt.to_json_dict().items()) == list(sol.to_json_dict().items())
            assert rebuilt.total_multiplicity == sol.total_multiplicity

    def test_walk_checks_each_solution_with_a_dot_product(self):
        class Skewed(tuple):
            """Indexing sees the degrees; iteration, as in the dot product,
            sees each one plus 1."""

            def __iter__(self):
                return (a + 1 for a in tuple.__iter__(self))

        degrees = degrees_at(3)[:15]
        assert [s.vector for s in newforms._walk(degrees, 3, 15)] == [(0,) * 13 + (1, 0)]
        with pytest.raises(IntegralityError, match="do not sum to 15"):
            next(newforms._walk(Skewed(degrees), 3, 15))

    @pytest.mark.parametrize("include_nonunitary", [False, True])
    def test_walk_checks_every_index(self, include_nonunitary):
        # The check covers the carried prefix and both closed-form terms: a
        # degree seen one too high by iteration at any single index fails
        # the walk at the target a_i, which the solution e_i reaches.
        degrees = degrees_at(3)[: 17 if include_nonunitary else 15]
        for i, d in enumerate(degrees):

            class OneOff(tuple):
                def __iter__(self, i=i):
                    return (a + (k == i) for k, a in enumerate(tuple.__iter__(self)))

            with pytest.raises(IntegralityError, match=f"do not sum to {d} "):
                list(newforms._walk(OneOff(degrees), 3, d))

    @pytest.mark.parametrize("include_nonunitary", [False, True])
    def test_walk_names_the_first_solution_that_fails(self, include_nonunitary):
        # With a degree seen one too high by iteration at index i, the walk
        # raises on the first solution, in lexicographic order, whose dot
        # product with the degrees as iteration reads them is not the
        # target; the naive enumeration, not the walk, says which that is.
        degrees = degrees_at(3)[: 17 if include_nonunitary else 15]
        solutions = naive_solutions_at_200(include_nonunitary)
        for i in range(len(degrees)):

            class OneOff(tuple):
                def __iter__(self, i=i):
                    return (a + (k == i) for k, a in enumerate(tuple.__iter__(self)))

            skewed = OneOff(degrees)
            first = next(v for v in solutions if sum(map(operator.mul, v, skewed)) != 200)
            with pytest.raises(IntegralityError) as exc:
                list(newforms._walk(skewed, 3, 200))
            assert str(exc.value) == f"enumerated multiplicities {first} do not sum to 200 at p=3"

    @pytest.mark.parametrize("target,include_nonunitary", [
        (4000, False), (4001, True), (6007, False), (7000, False), (7999, False),
    ])
    def test_reachability_probes_at_large_targets(self, target, include_nonunitary):
        vectors = [s.vector for s in iter_decompositions(7, target, include_nonunitary)]
        assert len(vectors) == count_decompositions(7, target, include_nonunitary)
        assert all(a < b for a, b in zip(vectors, vectors[1:]))


def test_interleaved_walks_keep_separate_state():
    # Walks advanced in turn give what each gives alone, and every solution
    # holds a count tuple of its own, never a view of a walk's search state.
    cases = [(3, 380, False), (5, 2500, False), (3, 120, True)]
    interleaved = [[] for _ in cases]
    streams = [iter_decompositions(*case) for case in cases]
    for step in itertools.zip_longest(*streams):
        for solutions, sol in zip(interleaved, step):
            if sol is not None:
                solutions.append(sol)
    for (p, target, include_nonunitary), solutions in zip(cases, interleaved):
        alone = iter_decompositions(p, target, include_nonunitary)
        assert [s.vector for s in solutions] == [s.vector for s in alone]
        n = 17 if include_nonunitary else 15
        assert all(type(s._counts) is tuple and len(s._counts) == n for s in solutions)
    everything = [s for solutions in interleaved for s in solutions]
    assert len({id(s._counts) for s in everything}) == len(everything)


class TestBatchedConstruction:
    """The walk builds its solutions ``_BATCH`` count tuples at a time; the
    batch size changes nothing a caller can see."""

    CASES = [(3, 380, False, 56102), (5, 2500, False, 24264), (3, 120, True, 868)]
    SIZES = [1, 2, 3, None]  # None keeps the default

    @staticmethod
    def batch(monkeypatch, size):
        if size is not None:
            monkeypatch.setattr(newforms, "_BATCH", size)

    @staticmethod
    @cache
    def default_vectors(p, target, include_nonunitary):
        return [s.vector for s in iter_decompositions(p, target, include_nonunitary)]

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("p,target,include_nonunitary,count", CASES)
    def test_same_solutions_in_the_same_order(
        self, monkeypatch, size, p, target, include_nonunitary, count
    ):
        expected = self.default_vectors(p, target, include_nonunitary)
        self.batch(monkeypatch, size)
        solutions = list(iter_decompositions(p, target, include_nonunitary))
        assert len(solutions) == count == count_decompositions(p, target, include_nonunitary)
        assert [s.vector for s in solutions] == expected
        # One (indices, prime, target) tuple per walk, one count tuple per solution.
        assert len({id(s._where) for s in solutions}) == 1
        assert solutions[0]._where == (tuple(range(1, len(expected[0]) + 1)), p, target)
        assert len({id(s._counts) for s in solutions}) == count

    @pytest.mark.parametrize("size", [1, 3, 1024])
    def test_the_stream_runs_at_most_one_batch_ahead(self, monkeypatch, size):
        # At (3, 199980) the first prefix, c_1..c_13 = 0, alone has 6,667
        # solutions; no batch may hold more than ``size`` of them.
        sizes = []
        build = newforms._build
        monkeypatch.setattr(newforms, "_BATCH", size)
        monkeypatch.setattr(newforms, "_build",
                            lambda batch, where: sizes.append(len(batch)) or build(batch, where))
        stream = iter_decompositions(3, 199980)
        assert next(stream).vector == (0,) * 14 + (33330,)
        assert sizes == [size]

    @pytest.mark.parametrize("size", [1, 3, 1024])
    @pytest.mark.parametrize("p,target,include_nonunitary,count", CASES)
    def test_every_batch_but_the_last_is_full(
        self, monkeypatch, size, p, target, include_nonunitary, count
    ):
        sizes = []
        build = newforms._build
        monkeypatch.setattr(newforms, "_BATCH", size)
        monkeypatch.setattr(newforms, "_build",
                            lambda batch, where: sizes.append(len(batch)) or build(batch, where))
        assert sum(1 for _ in iter_decompositions(p, target, include_nonunitary)) == count
        assert sum(sizes) == count
        assert set(sizes[:-1]) <= {size} and sizes[-1] <= size

    @staticmethod
    def failures(monkeypatch):
        """The message of each IntegralityError the walk raises on the
        one-off degrees at p = 3 and on a count one short, in order."""
        messages = []
        for include_nonunitary in (False, True):
            degrees = degrees_at(3)[: 17 if include_nonunitary else 15]
            for i, d in enumerate(degrees):

                class OneOff(tuple):
                    def __iter__(self, i=i):
                        return (a + (k == i) for k, a in enumerate(tuple.__iter__(self)))

                with pytest.raises(IntegralityError) as exc:
                    list(newforms._walk(OneOff(degrees), 3, d))
                messages.append(str(exc.value))
        monkeypatch.setattr(newforms, "count_decompositions", lambda p, D, nu=False: 56101)
        with pytest.raises(IntegralityError) as exc:
            decompose(3, 380)
        messages.append(str(exc.value))
        return messages

    @pytest.mark.parametrize("size", SIZES[:-1])
    def test_same_integrity_failures(self, monkeypatch, size):
        expected = self.failures(monkeypatch)
        assert expected[-1] == "enumeration found 56102 solutions but the count is 56101"
        self.batch(monkeypatch, size)
        assert self.failures(monkeypatch) == expected


# SHA-256 of the CLI's stdout, computed before the walk built its solutions
# in batches.  At the default cap, (7, 7000) with the non-unitary rows has
# 1,485,953 solutions and is refused, so the JSON pins are (7, 7000) without
# them (7,114 solutions) and (7, 4001) with them (24,196 solutions).
@pytest.mark.parametrize("argv,digest", [
    (("--prime", 3, "--target", 380),
     "8c98b94b40188e1eac306fa3ba7b38d48dfda0d2b80608c02a5665d5972c5c9f"),
    (("--prime", 7, "--target", 7000, "--format", "json"),
     "cfc95e00d5f9bc48326232cd79c18df801bfff2c29266738b3cc894b3606a1b4"),
    (("--prime", 7, "--target", 4001, "--include-nonunitary", "--format", "json"),
     "4a312380543447aa03c827fe2e4cb315be556b3629fe4de23eabdbc434bf22c5"),
], ids=["3-380-text", "7-7000-json", "7-4001-nonunitary-json"])
def test_cli_decompose_golden_output(capsys, argv, digest):
    code, out, _ = run(capsys, "decompose", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestClosedFormTail:
    """The walk solves c_(n-1) and c_n in closed form, over one residue
    class of c_(n-1); the count is the independent oracle."""

    # Per (p, include_nonunitary), the largest target up to which every
    # target has at most 5000 solutions.
    BOUNDS = {
        (3, False): 269, (3, True): 167, (5, False): 1949, (5, True): 973,
        (7, False): 6649, (7, True): 2847, (11, False): 32757, (11, True): 11461,
        (13, False): 57459, (13, True): 19119,
    }

    @given(st.sampled_from(sorted(BOUNDS)), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_the_count(self, case, data):
        p, include_nonunitary = case
        target = data.draw(st.integers(min_value=0, max_value=self.BOUNDS[case]))
        solutions = list(iter_decompositions(p, target, include_nonunitary))
        vectors = [s.vector for s in solutions]
        assert all(a < b for a, b in zip(vectors, vectors[1:]))
        for sol in solutions:
            assert sol == Decomposition(sol.multiplicities, p, target)
        assert len(solutions) == count_decompositions(p, target, include_nonunitary)

    @pytest.mark.parametrize("p,include_nonunitary", sorted(BOUNDS))
    def test_zero_and_below_the_smallest_degree(self, p, include_nonunitary):
        n = 17 if include_nonunitary else 15
        assert [s.vector for s in iter_decompositions(p, 0, include_nonunitary)] == [(0,) * n]
        below = min(degrees_at(p)[:n]) - 1
        assert list(iter_decompositions(p, below, include_nonunitary)) == []

    # Targets (step + 1) * a_(n-1), with step = a_n / gcd(a_(n-1), a_n): the
    # first residue of c_(n-1) is 1, and the class holds 1 and step + 1.
    @pytest.mark.parametrize("p,include_nonunitary,target,first_two", [
        (5, False, 9 * 65, [(1, 13), (9, 0)]),
        (5, True, 13 * 26, [(1, 13), (13, 0)]),
        (7, False, 19 * 175, [(1, 25), (19, 0)]),
        (7, True, 25 * 50, [(1, 25), (25, 0)]),
    ])
    def test_nonzero_first_residue(self, p, include_nonunitary, target, first_two):
        vectors = [s.vector for s in iter_decompositions(p, target, include_nonunitary)]
        n = 17 if include_nonunitary else 15
        assert vectors[:2] == [(0,) * (n - 2) + tail for tail in first_two]
        assert vectors == naive_solutions_up_to(p, target, include_nonunitary)[target]


class TestDecompositionStorage:
    def test_key_order_and_subsets(self):
        sol = Decomposition({15: 2, 14: 0}, 3, 12)
        assert sol.vector == (0, 2)
        assert list(sol.to_json_dict().items()) == [("15", 2), ("14", 0)]
        assert list(sol.multiplicities) == [15, 14]
        assert sol.nonzero() == {15: 2}
        assert sol.to_text() == "c15=2"
        assert sol.total_multiplicity == 2
        assert sol == Decomposition({14: 0, 15: 2}, 3, 12)
        assert sol != Decomposition({14: 0, 15: 2, 1: 0}, 3, 12)
        assert sol != sol.multiplicities
        assert decompose(3, 76)[0] != decompose(3, 76)[1]
        assert Decomposition({}, 3, 0).to_text() == "trivial"

    def test_constructor_keeps_no_reference_to_the_mapping(self):
        counts = {14: 1}
        sol = Decomposition(counts, 3, 15)
        counts[14] = 5
        assert sol.multiplicities == {14: 1}
        sol.multiplicities[14] = 7
        assert sol.vector == (1,)

    @pytest.mark.parametrize("build", [
        lambda: Decomposition({14: 1}, 3, 15),
        lambda: decompose(3, 15)[0],
    ], ids=["constructed", "walk-built"])
    def test_immutable_and_unhashable(self, build):
        sol = build()
        for name in ("prime", "target", "multiplicities", "vector", "_counts"):
            with pytest.raises(FrozenInstanceError):
                setattr(sol, name, None)
            with pytest.raises(AttributeError):
                delattr(sol, name)
        with pytest.raises(TypeError):
            hash(sol)

    def test_copies_and_pickles_through_the_constructor(self):
        sol = decompose(3, 76)[5]
        for clone in (copy.copy(sol), copy.deepcopy(sol), pickle.loads(pickle.dumps(sol))):
            assert clone == sol and repr(clone) == repr(sol)


class TestSolutionCap:
    def test_negative_cap_is_rejected(self):
        with pytest.raises(InputError, match="-1"):
            decompose(3, 15, max_solutions=-1)
        with pytest.raises(InputError, match="-1"):
            analyze_level(4, 3, max_solutions=-1)

    def test_cap_zero_keeps_the_unique_solution_analysis(self):
        report = analyze_level(4, 3, max_solutions=0)
        assert report.solution_count == 1
        assert report.solutions is None
        assert "cap of 0" in report.enumeration_note
        assert report.newform_dimension == 1
        assert report.local_component == TAU_COMPONENT
        assert "solutions" not in report.to_json_dict()

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_cli_analyze_at_cap_zero(self, capsys, fmt):
        code, out, err = run(capsys, "analyze", "--weight", 4, "--prime", 3,
                             "--max-solutions", 0, "--format", fmt)
        assert (code, err) == (0, "")
        assert "Saito-Kurokawa" in out

    @pytest.mark.parametrize("command", [
        ("decompose", "--prime", 3, "--target", 15),
        ("analyze", "--weight", 4, "--prime", 3),
    ])
    def test_cli_negative_cap_exits_1(self, capsys, command):
        code, out, err = run(capsys, *command, "--max-solutions", -1)
        assert (code, out) == (1, "")
        assert "-1" in err and "exceed" not in err


def list_rendering(p, target, include_nonunitary, fmt):
    """The CLI output built from the whole list, as it was before streaming."""
    solutions = decompose(p, target, include_nonunitary)
    if fmt == "json":
        return json.dumps({
            "prime": p,
            "target": target,
            "include_nonunitary": include_nonunitary,
            "count": len(solutions),
            "solutions": [{str(n): c for n, c in s.multiplicities.items()} for s in solutions],
        }) + "\n"
    lines = [" ".join(f"c{n}={c}" for n, c in sorted(s.nonzero().items())) or "trivial"
             for s in solutions]
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("p,target,include_nonunitary", [
    (3, 0, False), (3, 5, False), (3, 76, False), (3, 76, True), (5, 900, False), (7, 2500, True),
])
def test_cli_stream_equals_list_rendering(capsys, fmt, p, target, include_nonunitary):
    flags = ["--include-nonunitary"] if include_nonunitary else []
    code, out, err = run(capsys, "decompose", "--prime", p, "--target", target,
                         "--format", fmt, *flags)
    assert code == 0
    assert out == list_rendering(p, target, include_nonunitary, fmt)
    count = count_decompositions(p, target, include_nonunitary)
    assert err == ("" if fmt == "json" else f"{count} solution(s)\n")


def test_cli_count_mismatch_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(newforms, "count_decompositions", lambda p, D, nu=False: 2)
    code, _, err = run(capsys, "decompose", "--prime", 3, "--target", 15)
    assert code == 2
    assert "integrity" in err


class TestCountedWalk:
    """The walk given a count checks its own length; analyze, decompose and
    the CLI all go through it."""

    def test_count_check_fires_on_a_walk_that_finds_nothing(self, capsys, monkeypatch):
        monkeypatch.setattr(newforms, "count_decompositions", lambda p, D, nu=False: 1)
        with pytest.raises(IntegralityError, match="found 0 solutions but the count is 1"):
            decompose(3, 1)
        code, _, err = run(capsys, "decompose", "--prime", 3, "--target", 1)
        assert code == 2
        assert "integrity" in err

    def test_analyze_cross_checks_its_count(self, monkeypatch):
        monkeypatch.setattr(newforms, "count_decompositions", lambda p, D, nu=False: 2)
        with pytest.raises(IntegralityError, match="found 1 solutions but the count is 2"):
            analyze_level(4, 3)

    def test_analyze_checks_a_unique_solution_it_does_not_list(self, monkeypatch):
        monkeypatch.setattr(newforms, "count_decompositions", lambda p, D, nu=False: 1)
        with pytest.raises(IntegralityError, match="found 13 solutions but the count is 1"):
            analyze_level(5, 3, max_solutions=0)

    def test_unreachable_large_target(self):
        assert list(iter_decompositions(47, 10**6)) == []
        assert count_decompositions(47, 10**6) == 0

    def test_walk_holds_little_beyond_its_rows(self):
        # The rows are 14 strings of D + 1 bytes; building them may add the
        # bitset (D / 8 bytes) but no copy of a row.
        D = 2 * 10**6
        walk = iter_decompositions(47, D)
        tracemalloc.start()
        try:
            assert list(walk) == []
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - 14 * (D + 1) < (D + 1) // 2

    def test_stream_holds_little_beyond_a_batch(self):
        # 1,017,220 solutions at (3, 550), over thousands of remainders: the
        # walk holds its rows of 551 bytes, at most ``_BATCH`` tails and one
        # batch of solutions, never the stream.
        walk = iter_decompositions(3, 550)
        tracemalloc.start()
        try:
            assert sum(1 for _ in walk) == 1017220
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_a_remainder_with_many_tails_is_streamed(self):
        # The first prefix at (3, 19980), c_1..c_12 = 0, leaves a remainder
        # with 278,056 tails; the walk holds at most ``_BATCH`` + 1 of them,
        # not the list, beside its 13 rows of D + 1 bytes.
        D = 19980
        stream = iter_decompositions(3, D)
        tracemalloc.start()
        try:
            assert next(stream).vector == (0,) * 14 + (D // 6,)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - 13 * (D + 1) < 2**20

    def test_walk_holds_n_minus_2_rows(self):
        # The last two multiplicities are solved in closed form, so the walk
        # builds the 13 rows 1..n-2 and no row for index n.
        D = 2 * 10**6
        walk = iter_decompositions(47, D)
        tracemalloc.start()
        try:
            assert list(walk) == []
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - 13 * (D + 1) < (D + 1) // 2


def test_newform_report_marks_targets_over_the_limit():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "newform_report.py"),
         "--max-weight", "4", "--primes", "3,11"],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    rows = {line.split()[1]: line.split() for line in proc.stdout.splitlines()[1:]}
    assert rows["3"][-1] == "1"
    assert rows["11"][-1] == "-"
