"""One-shot verification of every embedded reference value.

``run_all_checks`` recomputes each number in the reference tables from the
corresponding formula (or re-derives it through an independent identity) and
reports expected/computed pairs.  The check list and its order are fixed, so
the JSON rendering is byte-identical across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import dimensions, irreps, newforms
from .arithmetic import is_prime, parse_square_free_level
from .errors import IntegralityError, _Frozen

REPORT_VERSION = 1

# Reference values the checks compare against.
FULL_LEVEL_TABLE = {10: 1, 11: 0, 12: 1, 13: 0, 14: 1, 15: 0, 16: 2, 17: 0, 18: 2, 19: 0, 20: 3}
GAMMA0_WEIGHT4_TABLE = {2: 0, 3: 1, 5: 1, 7: 3, 11: 7, 13: 11}
PARAMODULAR_WEIGHT4_TABLE = {2: 0, 3: 0, 5: 0, 7: 1, 11: 1, 13: 2, 17: 2, 19: 3}
PRINCIPAL_WEIGHT4_TABLE = {
    2: 0, 3: 15, 5: 5655, 7: 199500, 11: 20683575, 13: 112567455, 17: 1687834800,
}
PRINCIPAL_LEVEL3_TABLE = {4: 15, 5: 76, 6: 200, 7: 405, 8: 709, 9: 1130, 10: 1686}
PRINCIPAL_LEVEL5_TABLE = {
    4: 5655, 5: 18980, 6: 43680, 7: 83005, 8: 140205, 9: 218530, 10: 321230,
}
QUOTED_LEVEL15_WEIGHT4 = 69023360250000000


class Check(_Frozen):
    __slots__ = __match_args__ = ("name", "source", "expected", "computed", "passed")


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]

    def to_json_dict(self) -> dict:
        return {
            "version": REPORT_VERSION,
            "overall": "pass" if self.passed else "fail",
            "total": len(self.checks),
            "failed": len(self.failures),
            "checks": [dict(zip(c.__match_args__, c._fields())) for c in self.checks],
        }

    def to_json(self) -> str:
        import json
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    def to_text(self) -> str:
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"{status} {c.name}: expected {c.expected}, got {c.computed} [{c.source}]")
        ok = len(self.checks) - len(self.failures)
        lines.append(f"{'pass' if self.passed else 'FAIL'}: {ok}/{len(self.checks)} checks passed")
        return "\n".join(lines) + "\n"


def _check(name: str, source: str, expected, computed) -> Check:
    return Check(name, source, str(expected), str(computed), expected == computed)


def run_all_checks() -> VerificationReport:
    checks: list[Check] = []
    add = checks.append

    # Each reference table against its formula; a table of zeros is a
    # vanishing statement.
    for prefix, source, table, formula in (
        ("full_level.k", "Eie closed formula vs reference table",
         FULL_LEVEL_TABLE, dimensions.dim_full_level),
        ("full_level.vanishing.k", "space is zero-dimensional below weight 10",
         dict.fromkeys(range(4, 10), 0), dimensions.dim_full_level),
        ("gamma0.weight4.p", "weight-4 reference table (Poor-Yuen)",
         GAMMA0_WEIGHT4_TABLE, lambda p: dimensions.dim_gamma0(4, p)),
        ("gamma0.weight1.N", "weight-1 vanishing (Ibukiyama-Skoruppa)",
         dict.fromkeys((1, 2, 15, 360), 0), lambda N: dimensions.dim_gamma0(1, N)),
        ("paramodular.weight4.p", "weight-4 reference table",
         PARAMODULAR_WEIGHT4_TABLE, dimensions.dim_paramodular_weight4),
        ("principal.weight4.p", "weight-4 reference table",
         PRINCIPAL_WEIGHT4_TABLE, lambda p: dimensions.dim_principal_prime(4, p)),
        ("principal.level3.k", "level-3 reference table",
         PRINCIPAL_LEVEL3_TABLE, lambda k: dimensions.dim_principal_prime(k, 3)),
        ("principal.level5.k", "level-5 reference table",
         PRINCIPAL_LEVEL5_TABLE, lambda k: dimensions.dim_principal_prime(k, 5)),
    ):
        for x, want in table.items():
            add(_check(f"{prefix}{x}", source, want, formula(x)))

    level15 = parse_square_free_level(15)
    add(_check("principal.level15.quoted", "quoted weight-4 level-15 reference value",
               QUOTED_LEVEL15_WEIGHT4, dimensions.dim_principal(4, level15)))
    add(_check("principal.level15.quoted_vs_formula",
               "quoted value equals the product formula times 15^7 (documented discrepancy)",
               QUOTED_LEVEL15_WEIGHT4,
               dimensions.dim_principal(4, level15, formula_only=True) * 15**7))

    # Newform bounds and the weight-4 level-3 decomposition.
    bounds43 = newforms.bounds_prime(4, 3)
    add(_check("newform.bounds.lower.k4p3", "lower bound at weight 4, level 3",
               Fraction(3, 32), bounds43.lower))
    add(_check("newform.bounds.upper.k4p3", "upper bound at weight 4, level 3",
               Fraction(5, 2), bounds43.upper))

    solutions = newforms.decompose(3, 15)
    nonzero = [sol.nonzero() for sol in solutions]
    add(_check("newform.decomposition.p3d15", "unique solution c_14 = 1",
               [{14: 1}], nonzero))

    # The uncounted stream, so that a disagreement fails here by name rather
    # than raising from the walk's own count check.
    add(_check("newform.count_vs_walk.p3d76",
               "counting DP agrees with the length of the enumeration walk",
               newforms.count_decompositions(3, 76),
               sum(1 for _ in newforms.iter_decompositions(3, 76))))

    report43 = newforms.analyze_level(4, 3)
    add(_check("newform.analysis.k4p3.newform_dimension",
               "a single automorphic representation accounts for the space",
               1, report43.newform_dimension))
    add(_check("newform.analysis.k4p3.local_component",
               "Saito-Kurokawa local component identified by fixed-vector data",
               newforms.TAU_COMPONENT, report43.local_component))

    # Aggregate identities.
    levels = {p: parse_square_free_level(p) for p in (3, 5, 7, 11, 13, 17)}
    consistent = all(
        dimensions.dim_principal(k, level) == dimensions.dim_principal_prime(k, p)
        for k in range(4, 31)
        for p, level in levels.items()
    )
    add(_check("consistency.prime_vs_product",
               "product formula at a single prime equals the prime formula (k 4..30)",
               True, consistent))

    try:
        identity = all(
            newforms.bounds_prime(k, p).lower * irreps.irrep_dim(1, p)
            == dimensions.dim_principal_prime(k, p)
            for k in range(4, 21)
            for p in (3, 5, 7, 11, 13)
        )
    except IntegralityError:
        # bounds_prime checks the same identity on every call and raises on a
        # mismatch; here that mismatch is this check failing.
        identity = False
    add(_check("consistency.lower_times_a1",
               "lower bound times a_1(p) recovers the dimension (k 4..20)",
               True, identity))

    odd_primes = [p for p in range(3, 101, 2) if is_prime(p)]
    for name, identity, holds in (
        ("a13_plus_a15", "a_13(p) + a_15(p) = 2 a_14(p)",
         lambda a, p: a[13] + a[15] == 2 * a[14]),
        ("a2_is_p_a10", "a_2(p) = p * a_10(p)", lambda a, p: a[2] == p * a[10]),
        ("a5_is_a4_minus_1", "a_5(p) = a_4(p) - 1", lambda a, p: a[5] == a[4] - 1),
        ("a3_is_p_a11", "a_3(p) = p * a_11(p)", lambda a, p: a[3] == p * a[11]),
        ("a8_is_p_a12", "a_8(p) = p * a_12(p)", lambda a, p: a[8] == p * a[12]),
        ("a6_is_p2_a17", "a_6(p) = p^2 * a_17(p)", lambda a, p: a[6] == p * p * a[17]),
        ("a7_is_a17_squared", "a_7(p) = a_17(p)^2", lambda a, p: a[7] == a[17] ** 2),
        ("a5_is_a16_a17", "a_5(p) = a_16(p) * a_17(p)", lambda a, p: a[5] == a[16] * a[17]),
    ):
        # Padded so that a[n] is a_n(p).
        add(_check(f"irreps.identity.{name}", f"{identity} for odd p <= 100", True,
                   all(holds((0, *irreps.degrees_at(p)), p) for p in odd_primes)))
    add(_check("irreps.halved_rows_integral",
               "rows 13-15 evaluate to integers for odd p <= 100", True,
               all(e.numerator(p) % 2 == 0
                   for e in irreps.TABLE if e.halved for p in odd_primes)))

    return VerificationReport(tuple(checks))
