import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siegel_dims import newforms
from siegel_dims.arithmetic import parse_square_free_level
from siegel_dims.dimensions import dim_gamma0, dim_principal, dim_principal_prime
from siegel_dims.errors import (
    EvenPrimeError,
    InputError,
    TooManySolutionsError,
    WeightOutOfRangeError,
)
from siegel_dims.irreps import TABLE, irrep_dim
from siegel_dims.newforms import (
    L_COMPONENT,
    MAX_ENUMERATION_TARGET,
    TAU_COMPONENT,
    BoundPair,
    Decomposition,
    analyze_level,
    bounds_prime,
    bounds_squarefree,
    count_decompositions,
    decompose,
)


def naive_solutions_up_to(p, max_target, include_nonunitary=False):
    """Plain bounded recursion in index order: the oracle for `decompose`.

    Returns {target: sorted list of multiplicity vectors} for every target
    up to ``max_target`` in one traversal.
    """
    entries = [e for e in TABLE if include_nonunitary or e.unitary_relevant]
    degrees = [e.dim_at(p) for e in entries]
    buckets = {total: [] for total in range(max_target + 1)}
    vec = [0] * len(degrees)

    def rec(i, total):
        if i == len(degrees):
            buckets[total].append(tuple(vec))
            return
        c = 0
        while total + c * degrees[i] <= max_target:
            vec[i] = c
            rec(i + 1, total + c * degrees[i])
            c += 1
        vec[i] = 0

    rec(0, 0)
    return {total: sorted(sols) for total, sols in buckets.items()}


class TestBoundsPrime:
    def test_weight4_level3(self):
        pair = bounds_prime(4, 3)
        assert pair.lower == Fraction(3, 32)
        assert pair.upper == Fraction(5, 2)

    def test_weight4_level5(self):
        # numerator = 30*125 - 300*5 + 360 = 2610;
        # lower = 2610*5*16/34560, upper = 2610*5*624/17280.
        pair = bounds_prime(4, 5)
        assert pair.lower == Fraction(2610 * 5 * 16, 34560) == Fraction(145, 24)
        assert pair.upper == Fraction(2610 * 5 * 624, 17280) == Fraction(1885, 4)

    def test_weight5_level3_lower_is_dim_over_a1(self):
        pair = bounds_prime(5, 3)
        assert pair.lower == Fraction(76, 160) == Fraction(19, 40)

    def test_lower_times_a1_equals_dimension(self):
        for k in range(4, 21):
            for p in (3, 5, 7, 11, 13):
                pair = bounds_prime(k, p)
                assert pair.lower * irrep_dim(1, p) == dim_principal_prime(k, p)
                assert 0 < pair.lower <= pair.upper

    def test_integer_envelope(self):
        assert bounds_prime(4, 3).integer_envelope() == (1, 2)

    def test_rejects_bad_inputs(self):
        with pytest.raises(WeightOutOfRangeError):
            bounds_prime(3, 3)
        with pytest.raises(EvenPrimeError):
            bounds_prime(4, 2)


class TestBoundsSquarefree:
    def test_single_prime_3_matches_prime_bounds(self):
        assert bounds_squarefree(4, parse_square_free_level(3)) == bounds_prime(4, 3)

    def test_level_15(self):
        pair = bounds_squarefree(4, parse_square_free_level(15))
        dim = 69023360250000000
        assert pair.lower == Fraction(dim, 160 + 936)  # a_1(3) + a_1(5)
        assert pair.upper == Fraction(dim, 6 + (25 - 1))  # 3 | N branch

    def test_level_35_upper_divisor(self):
        # 3 does not divide 35: divisor is (25-1) + (49-1) = 72.
        level = parse_square_free_level(35)
        dim = dim_principal(4, level)
        pair = bounds_squarefree(4, level)
        assert pair.upper == Fraction(dim, 72)
        assert pair.lower == Fraction(dim, 936 + 3200)

    def test_relation_to_prime_bounds_at_single_primes(self):
        # Lower bounds agree always; the upper bounds agree at p = 3 and
        # differ by exactly a factor 2 elsewhere (both forms as published).
        for p in (3, 5, 7):
            for k in range(4, 11):
                single = bounds_squarefree(k, parse_square_free_level(p))
                prime = bounds_prime(k, p)
                assert single.lower == prime.lower
                if p == 3:
                    assert single.upper == prime.upper
                else:
                    assert prime.upper == 2 * single.upper


class TestDecompose:
    def test_weight4_level3_unique_solution(self):
        solutions = decompose(3, 15)
        assert len(solutions) == 1
        assert solutions[0].nonzero() == {14: 1}
        assert solutions[0].total_multiplicity == 1

    def test_zero_target_gives_trivial_solution(self):
        solutions = decompose(3, 0)
        assert len(solutions) == 1
        assert solutions[0].nonzero() == {}

    def test_unreachable_target(self):
        assert decompose(3, 5) == []

    def test_target_12_is_twice_the_minimum(self):
        solutions = decompose(3, 12)
        assert [s.nonzero() for s in solutions] == [{15: 2}]

    def test_matches_naive_oracle_exhaustively(self):
        for p in (3, 5):
            buckets = naive_solutions_up_to(p, 200)
            for target in range(201):
                got = [s.vector for s in decompose(p, target)]
                assert got == buckets[target], (p, target)

    def test_lexicographic_order(self):
        vectors = [s.vector for s in decompose(3, 76)]
        assert vectors == sorted(vectors)
        assert len(vectors) == 13

    def test_solutions_satisfy_equation(self):
        degrees = {n: irrep_dim(n, 3) for n in range(1, 16)}
        for sol in decompose(3, 76):
            assert sum(c * degrees[n] for n, c in sol.multiplicities.items()) == 76

    def test_count_agrees_with_enumeration(self):
        for target in (0, 6, 15, 76, 120, 199):
            assert count_decompositions(3, target) == len(decompose(3, target))

    def test_nonunitary_flag_extends_the_index_set(self):
        base = decompose(3, 40)
        extended = decompose(3, 40, include_nonunitary=True)
        base_vectors = {s.vector + (0, 0) for s in base}
        extended_vectors = {s.vector for s in extended}
        assert base_vectors <= extended_vectors
        # Rows 16 (degree 10) and 17 (degree 8) open genuinely new solutions.
        assert len(extended) > len(base)
        assert all(set(s.multiplicities) == set(range(1, 18)) for s in extended)

    def test_nonunitary_matches_naive_oracle(self):
        buckets = naive_solutions_up_to(3, 60, include_nonunitary=True)
        for target in range(61):
            got = [s.vector for s in decompose(3, target, include_nonunitary=True)]
            assert got == buckets[target], target

    @given(st.sampled_from([3, 5, 7]), st.integers(min_value=0, max_value=150))
    @settings(max_examples=30, deadline=None)
    def test_every_solution_rechecks(self, p, target):
        for sol in decompose(p, target):
            assert sol.prime == p and sol.target == target
            assert all(c >= 0 for c in sol.multiplicities.values())

    def test_solution_cap(self):
        with pytest.raises(TooManySolutionsError) as exc:
            decompose(3, 76, max_solutions=12)
        assert exc.value.count == 13
        assert len(decompose(3, 76, max_solutions=13)) == 13

    def test_default_cap_aborts_weight4_level5_space(self):
        with pytest.raises(TooManySolutionsError) as exc:
            decompose(5, 5655)
        assert exc.value.count == 19005458

    def test_enumeration_target_limit(self):
        with pytest.raises(TooManySolutionsError):
            decompose(3, MAX_ENUMERATION_TARGET + 1)

    def test_rejects_bad_inputs(self):
        with pytest.raises(InputError):
            decompose(3, -1)
        with pytest.raises(EvenPrimeError):
            decompose(2, 10)

    def test_rejects_non_integer_target(self):
        with pytest.raises(InputError, match=r"^target 15\.0 is not an integer$"):
            count_decompositions(3, 15.0)
        with pytest.raises(InputError, match=r"^target True is not an integer$"):
            decompose(3, True)

    def test_rejects_non_integer_cap_level_weight_and_constructed_target(self):
        # Each of these reaches arithmetic or a comparison before any
        # formula, so each is refused there, naming the value.
        cases = []
        for cap in (1.5, "1", None, True):
            cases += [
                (f"solution cap {cap!r}", lambda cap=cap: decompose(3, 15, max_solutions=cap)),
                (f"solution cap {cap!r}", lambda cap=cap: analyze_level(4, 3, max_solutions=cap)),
            ]
        cases += [
            ("level 3.0", lambda: dim_gamma0(4, 3.0)),
            ("weight True", lambda: dim_gamma0(True, 3)),
            ("weight '4'", lambda: dim_gamma0("4", 3)),
            ("target 15.0", lambda: Decomposition({14: 1}, 3, 15.0)),
            ("target False", lambda: Decomposition({}, 3, False)),
            ("target '15'", lambda: Decomposition({14: 1}, 3, "15")),
        ]
        for named, call in cases:
            with pytest.raises(InputError, match=f"^{re.escape(named)} is not an integer$"):
                call()


class TestDecompositionType:
    def test_construction_rechecks_equation(self):
        good = {n: 0 for n in range(1, 16)}
        good[14] = 1
        Decomposition(good, 3, 15)
        bad = dict(good)
        bad[14] = 2
        with pytest.raises(InputError):
            Decomposition(bad, 3, 15)

    def test_rejects_negative_multiplicity(self):
        counts = {n: 0 for n in range(1, 16)}
        counts[14] = -1
        with pytest.raises(InputError):
            Decomposition(counts, 3, -15)


class TestCountDecompositions:
    def test_small_values(self):
        assert count_decompositions(3, 0) == 1
        assert count_decompositions(3, 5) == 0
        assert count_decompositions(3, 15) == 1
        assert count_decompositions(3, 76) == 13

    def test_weight4_level5_regression(self):
        # Frozen at build time; cross-checked against full enumeration.
        assert count_decompositions(5, 5655) == 19005458

    def test_nonunitary_counts_at_least_as_many(self):
        for target in range(0, 120, 7):
            assert count_decompositions(3, target, True) >= count_decompositions(3, target)


class TestAnalyzeLevel:
    def test_weight4_level3_full_identification(self):
        report = analyze_level(4, 3)
        assert report.dimension == 15
        assert report.bounds == BoundPair(Fraction(3, 32), Fraction(5, 2))
        assert report.solution_count == 1
        assert report.newform_dimension == 1
        assert report.local_component == TAU_COMPONENT
        assert report.local_component_candidates == (TAU_COMPONENT, L_COMPONENT)
        assert report.local_component_evidence == {
            "dim S_4(Gamma_0(3))": 1,
            "dim S_4(K(3))": 0,
        }
        assert "Saito-Kurokawa" in report.conclusion

    def test_weight5_level3_multiple_solutions(self):
        report = analyze_level(5, 3)
        assert report.dimension == 76
        assert report.solution_count == 13
        assert len(report.solutions) == 13
        assert report.newform_dimension is None
        assert report.local_component is None
        assert report.conclusion is None

    def test_weight4_level5_reports_count_but_omits_list(self):
        report = analyze_level(4, 5)
        assert report.dimension == 5655
        assert report.bounds == BoundPair(Fraction(145, 24), Fraction(1885, 4))
        assert report.solution_count == 19005458
        assert report.solutions is None
        assert "exceed" in report.enumeration_note
        assert report.newform_dimension is None

    def test_huge_dimension_skips_enumeration(self):
        report = analyze_level(4, 17)
        assert report.dimension == 1687834800
        assert report.solution_count is None
        assert report.solutions is None
        assert "limit" in report.enumeration_note

    def test_json_dict_schema(self):
        import json

        report = analyze_level(4, 3)
        payload = report.to_json_dict()
        json.dumps(payload)
        assert payload["weight"] == 4
        assert payload["prime"] == 3
        assert payload["dimension"] == 15
        assert payload["lower_bound"] == {"numerator": 3, "denominator": 32}
        assert payload["upper_bound"] == {"numerator": 5, "denominator": 2}
        assert payload["solutions"] == [
            {str(n): (1 if n == 14 else 0) for n in range(1, 16)}
        ]
        assert payload["newform_dimension"] == 1
        assert payload["local_component"] == TAU_COMPONENT

    def test_text_rendering_mentions_the_conclusion(self):
        text = analyze_level(4, 3).to_text()
        assert "dim S_4(Gamma(3)) = 15" in text
        assert "3/32" in text and "5/2" in text
        assert "c14=1" in text
        assert "Saito-Kurokawa" in text

    def test_unique_decomposition_of_several_representations(self, monkeypatch):
        # No tabulated dimension has a unique decomposition of total
        # multiplicity above 1; at a stand-in dimension of 12 at p = 3 the one
        # solution is 2 * a_15.
        monkeypatch.setattr("siegel_dims.newforms.dim_principal_prime", lambda k, p: 12)
        monkeypatch.setattr("siegel_dims.newforms.bounds_prime",
                            lambda k, p: BoundPair(Fraction(1), Fraction(2)))
        report = analyze_level(4, 3)
        assert [s.nonzero() for s in report.solutions] == [{15: 2}]
        assert report.newform_dimension == 2
        assert report.unique_solution_note == (
            "the decomposition is unique, so 2 automorphic representations "
            "account for the whole space"
        )
        assert report.local_component is None

    def test_counts_once(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return count_decompositions(*args)

        monkeypatch.setattr("siegel_dims.newforms.count_decompositions", counting)
        report = analyze_level(5, 3)
        assert report.solution_count == len(report.solutions) == 13
        assert calls == [(3, 76)]

    def test_builds_no_solution_past_the_cap(self, monkeypatch):
        build = newforms._build
        built = []

        def spy(batch, where):
            solutions = build(batch, where)
            built.append(len(solutions))
            return solutions

        monkeypatch.setattr(newforms, "_build", spy)
        cases = [
            # 19,005,458 solutions, over the default cap of 10^6.
            ((4, 5), {}, 0),
            ((5, 3), {"max_solutions": 0}, 0),
            # A unique solution is built under any cap: it gives the newform
            # dimension.
            ((4, 3), {"max_solutions": 0}, 1),
            ((5, 3), {}, 13),
        ]
        for args, kwargs, expected in cases:
            built.clear()
            analyze_level(*args, **kwargs)
            assert sum(built) == expected, (args, kwargs)
