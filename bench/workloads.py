"""The four workloads: seeded inputs, the operations, and their output checks.

Each builder turns a seed into a fixed list of operations.  An operation is
one library call (or one CLI invocation for ``cli``) plus a check of its
result against a reference computed before any timing starts.  See
RATIONALE.md for why each workload exists and which layers it loads.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import oracle
import siegel_dims as sd
from siegel_dims import TableSpec
from siegel_dims import verification as ref

SRC = Path(__file__).resolve().parent.parent / "src"
CLI_TIMEOUT_S = 60


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    # Returns what is wrong with the result, or None when it is right.
    check: Callable[[object], str | None]
    # What a result yields: solutions for enumeration, stdout bytes for the CLI.
    items: Callable[[object], int] = lambda result: 0
    # Why this operation is known to fail today; it still counts as failed.
    known_defect: str | None = None


@dataclass
class Workload:
    ops: list[Op]
    warmup: list[Op]
    # cli: the argv of each op, replayed in-process through cli.main when traced.
    argvs: list[list[str]] = field(default_factory=list)


def build(name: str, seed: int) -> Workload:
    return BUILDERS[name](random.Random(seed))


# --- helpers -------------------------------------------------------------------


def _geometric(lo, hi, n):
    return [lo * (hi / lo) ** (i / (n - 1)) for i in range(n)]


def _near(rng, sizes, jitter=0.02):
    """Each size moved by a seeded factor within 1 +- jitter.

    Sizes are set per slot and only jittered, so that the work in a pass, and
    with it every timing, does not depend on the seed.
    """
    return [size * rng.uniform(1 - jitter, 1 + jitter) for size in sizes]


def _next_prime(n: int) -> int:
    n = max(3, int(n)) | 1
    while not oracle.is_small_prime(n):
        n += 2
    return n


def _odd_primes(limit: int) -> list[int]:
    return [n for n in range(3, limit, 2) if oracle.is_small_prime(n)]


def _two_factor_levels(rng, lo, hi, n):
    """n odd square-free levels q1*q2, the smaller factor q1 spaced geometrically
    over [lo, hi]: trial division costs about q1 steps."""
    levels = []
    for small in _near(rng, _geometric(lo, hi, n)):
        q1 = _next_prime(small)
        q2 = _next_prime(rng.uniform(q1 + 1, max(hi, 2 * q1)))
        levels.append(q1 * q2)
    return levels


def _small_composites(rng, n):
    primes = _odd_primes(100)
    return [math.prod(rng.sample(primes, rng.randint(2, 4))) for _ in range(n)]


def _expect(expected, what="value"):
    return lambda result: None if result == expected else f"{what} {result!r}, expected {expected!r}"


def _check_solutions(solutions, p, target, count):
    """Distinct, strictly increasing in lexicographic order, each summing to target."""
    if len(solutions) != count:
        return f"{len(solutions)} solutions, expected {count}"
    degrees = oracle.degrees(p)
    previous = None
    for sol in solutions:
        vector = sol.vector
        if sol.prime != p or sol.target != target or len(vector) != len(degrees):
            return f"solution {sol!r} does not belong to ({p}, {target})"
        if min(vector) < 0 or sum(c * a for c, a in zip(vector, degrees)) != target:
            return f"solution {vector} does not sum to {target}"
        if previous is not None and vector <= previous:
            return f"solution {vector} is not after {previous}"
        previous = vector
    return None


# --- enumerate -----------------------------------------------------------------

# (p, target range, solutions wanted, targets): many small targets, where the
# per-call work shows, a few at p = 5 and 7, and the bulk of the solutions in
# seven large targets at p = 3.  Targets come in groups of equal size so that
# the median and the tail each fall inside a group, not between two sizes.  A
# target is drawn among those whose count is within 5% of the wanted one:
# counts jump with the target's residues, so a plain draw would make the work
# per pass depend on the seed.
ENUMERATE_SLOTS = (
    (3, (20, 250), 100, 6),
    (3, (20, 250), 300, 6),
    (3, (20, 250), 1000, 6),
    (5, (1500, 2800), 5000, 3),
    (7, (4000, 8000), 3000, 2),
    (3, (250, 400), 12000, 7),
)


def _pick_targets(rng, counts, lo, hi, want, n):
    near = [d for d in range(lo, hi + 1) if abs(counts[d] - want) <= 0.05 * want]
    if not near:
        near = [min(range(lo, hi + 1), key=lambda d: abs(counts[d] - want))]
    return rng.sample(near, n) if len(near) >= n else rng.choices(near, k=n)


def _decompose_op(p, target, count):
    return Op(f"decompose({p}, {target})", lambda: sd.decompose(p, target),
              lambda sols: _check_solutions(sols, p, target, count), len)


def _analyze_enumerated_op(k, p, counts):
    dimension = ref.PRINCIPAL_LEVEL3_TABLE[k]

    def check(report):
        if report.dimension != dimension:
            return f"dimension {report.dimension}, expected {dimension}"
        if report.solutions is None:
            return "solution list omitted"
        return _check_solutions(report.solutions, p, dimension, counts[dimension])

    return Op(f"analyze_level({k}, {p})", lambda: sd.analyze_level(k, p), check,
              lambda report: len(report.solutions or ()))


def build_enumerate(rng) -> Workload:
    tables = {p: oracle.count_table(p, max(hi for q, (_, hi), *_ in ENUMERATE_SLOTS if q == p))
              for p in (3, 5, 7)}
    ops = []
    for p, (lo, hi), want, n in ENUMERATE_SLOTS:
        for target in _pick_targets(rng, tables[p], lo, hi, want, n):
            count = sd.count_decompositions(p, target)
            if count != tables[p][target]:
                raise SystemExit(f"count_decompositions({p}, {target}) = {count}, "
                                 f"reference DP says {tables[p][target]}")
            ops.append(_decompose_op(p, target, count))
    ops += [_analyze_enumerated_op(k, 3, tables[3]) for k in (5, 6)]
    rng.shuffle(ops)
    warmup = [_decompose_op(p, d, tables[p][d]) for p, d in ((3, 150), (5, 900), (7, 2500))]
    return Workload(ops, warmup + [_analyze_enumerated_op(4, 3, tables[3])])


# --- count ---------------------------------------------------------------------

COUNT_PRIMES = (3, 5, 7, 11, 13)
# Three targets near 10^5 per prime, and the baseline's (3, 10^6).  The DP's
# cost is about 15 * D big-integer additions, so this keeps a pass short
# enough to repeat four times in a run, and puts the median and the tail
# inside groups of equal-size targets.
COUNT_TARGETS = (10**5,) * 3
COUNT_BASELINE = (3, 10**6)
# analyze_level at these (k, p) counts but omits the list, which is over the cap.
COUNT_ANALYSES = ((4, 5), (5, 5), (6, 5), (4, 7))
PUBLISHED_COUNT_K4_P5 = 19005458  # decompositions of dim S_4(Gamma(5)) = 5655


def _reference_counts(request: dict[int, list[int]]) -> dict[int, dict[int, int]]:
    """Counts from the oracle's DP, run in a child process (see oracle.py)."""
    proc = subprocess.run(
        [sys.executable, str(Path(oracle.__file__))],
        input=json.dumps({str(p): ts for p, ts in request.items()}),
        capture_output=True, text=True, timeout=170, check=True)
    answer = json.loads(proc.stdout)
    return {int(p): {int(t): int(c) for t, c in counts.items()} for p, counts in answer.items()}


def _analysis_dimension(k, p):
    return ref.PRINCIPAL_LEVEL5_TABLE[k] if p == 5 else ref.PRINCIPAL_WEIGHT4_TABLE[p]


def build_count(rng) -> Workload:
    targets = {p: [round(t) for t in _near(rng, COUNT_TARGETS)] for p in COUNT_PRIMES}
    targets[COUNT_BASELINE[0]].append(COUNT_BASELINE[1])
    request = {p: list(ts) for p, ts in targets.items()}
    for k, p in COUNT_ANALYSES:
        request[p].append(_analysis_dimension(k, p))
    reference = _reference_counts(request)
    if reference[5][5655] != PUBLISHED_COUNT_K4_P5:
        raise SystemExit(f"reference DP gives {reference[5][5655]} at (5, 5655)")

    def count_op(p, target):
        return Op(f"count_decompositions({p}, {target})",
                  lambda: sd.count_decompositions(p, target),
                  _expect(reference[p][target], "count"))

    def analyze_op(k, p):
        dimension = _analysis_dimension(k, p)
        count = reference[p][dimension]

        def check(report):
            got = (report.dimension, report.solution_count, report.solutions)
            return None if got == (dimension, count, None) else (
                f"(dimension, count, solutions) {got[:2]}, {'omitted' if got[2] is None else 'listed'};"
                f" expected ({dimension}, {count}), omitted")

        return Op(f"analyze_level({k}, {p})", lambda: sd.analyze_level(k, p), check)

    ops = [count_op(p, t) for p, ts in targets.items() for t in ts]
    ops += [analyze_op(k, p) for k, p in COUNT_ANALYSES]
    rng.shuffle(ops)
    small = oracle.count_table(3, 20000)
    warmup = [Op("count_decompositions(3, 20000)", lambda: sd.count_decompositions(3, 20000),
                 _expect(small[20000], "count")), analyze_op(4, 5)]
    return Workload(ops, warmup)


# --- survey --------------------------------------------------------------------

# The specs of scripts/regenerate_tables.py; their values are the reference
# tables in siegel_dims.verification.
REFERENCE_TABLES = (
    (TableSpec("full", weights=tuple(range(10, 21))), ref.FULL_LEVEL_TABLE),
    (TableSpec("gamma0", weights=(4,), levels=(2, 3, 5, 7, 11, 13)), ref.GAMMA0_WEIGHT4_TABLE),
    (TableSpec("paramodular", levels=(2, 3, 5, 7, 11, 13, 17, 19)), ref.PARAMODULAR_WEIGHT4_TABLE),
    (TableSpec("principal", weights=(4,), levels=(2, 3, 5, 7, 11, 13, 17)), ref.PRINCIPAL_WEIGHT4_TABLE),
    (TableSpec("principal", weights=tuple(range(4, 11)), levels=(3,)), ref.PRINCIPAL_LEVEL3_TABLE),
    (TableSpec("principal", weights=tuple(range(4, 11)), levels=(5,)), ref.PRINCIPAL_LEVEL5_TABLE),
    (TableSpec("principal", weights=(4,), levels=(15,)), {15: ref.QUOTED_LEVEL15_WEIGHT4}),
)
FORMATS = ("text", "csv", "json", "latex")


def _table_numbers(text: str, grouped: bool) -> list[int]:
    return [int(n) for n in re.findall(r"\d+", text.replace(",", "") if grouped else text)]


def _table_op(spec: TableSpec, rows: dict[int, int]) -> Op:
    axes, values = list(rows), list(rows.values())
    if spec.fmt == "latex":
        expected = axes + values
    else:
        expected = [n for pair in zip(axes, values) for n in pair]

    def check(text):
        got = _table_numbers(text, spec.group_digits)
        return None if got == expected else f"table numbers {got}, expected {expected}"

    return Op(f"emit_table({spec.family}, {spec.fmt})", lambda: sd.emit_table(spec), check)


def _is_dimension(value):
    return None if isinstance(value, int) and value >= 0 else f"dimension {value!r}"


def _level_check(N):
    def check(result):
        level, pair = result
        primes = level.primes
        if level.N != N or list(primes) != sorted(set(primes)) or not all(map(oracle.is_small_prime, primes)):
            return f"level {N} factored as {primes}"
        return None if 0 < pair.lower and 0 < pair.upper else f"bounds {pair}"
    return check


def build_survey(rng) -> Workload:
    primes = _odd_primes(10**4)
    composites = _two_factor_levels(rng, 10**3, 10**5, 30)
    small = _small_composites(rng, 30)
    ops = []

    def value_op(label, call, expected=None):
        check = _is_dimension if expected is None else _expect(expected)
        ops.append(Op(label, call, check))

    for k, want in ref.FULL_LEVEL_TABLE.items():
        value_op(f"dim_full_level({k})", lambda k=k: sd.dim_full_level(k), want)
    for k in rng.sample(range(21, 400), 20):
        value_op(f"dim_full_level({k})", lambda k=k: sd.dim_full_level(k))
    for p, want in ref.PRINCIPAL_WEIGHT4_TABLE.items():
        value_op(f"dim_principal_level(4, {p})", lambda p=p: sd.dim_principal_level(4, p), want)
    for N in rng.sample(primes, 30) + composites[:20] + small[:20]:
        k = rng.randint(4, 40)
        value_op(f"dim_principal_level({k}, {N})", lambda k=k, N=N: sd.dim_principal_level(k, N))
    for p, want in ref.PARAMODULAR_WEIGHT4_TABLE.items():
        value_op(f"dim_paramodular_weight4({p})", lambda p=p: sd.dim_paramodular_weight4(p), want)
    for p in rng.sample(primes[2:], 20):
        value_op(f"dim_paramodular_weight4({p})", lambda p=p: sd.dim_paramodular_weight4(p))
    for p in rng.sample(primes, 30):
        k = rng.randint(4, 40)
        ops.append(Op(f"bounds_prime({k}, {p})", lambda k=k, p=p: sd.bounds_prime(k, p),
                      lambda pair: None if 0 < pair.lower <= pair.upper else f"bounds {pair}"))
    for N in composites[20:] + small[20:]:
        k = rng.randint(4, 40)

        def squarefree(k=k, N=N):
            level = sd.parse_square_free_level(N)
            return level, sd.bounds_squarefree(k, level)

        ops.append(Op(f"bounds_squarefree({k}, {N})", squarefree, _level_check(N)))
    for p in rng.sample(primes, 20):
        ops.append(Op(f"table_at({p})", lambda p=p: sd.irreps.table_at(p),
                      lambda rows, p=p: None if [r["dimension"] for r in rows]
                      == list(oracle.degrees(p, True)) else f"degrees at {p}: {rows}"))
    ops += [Op("run_all_checks()", lambda: sd.run_all_checks(),
               lambda report: None if report.passed else f"failed: {report.failures}")
            for _ in range(2)]

    # Reference tables and seeded larger ones, each in all four formats.
    start = rng.randint(21, 300)
    weights = tuple(range(start, start + 60))
    k = rng.randint(4, 12)
    levels = tuple(dict.fromkeys(sorted(rng.sample(primes[:200], 8)) + composites[:4] + small[:4]))
    para = tuple(sorted(rng.sample(primes, 20)))
    seeded = (
        (TableSpec("full", weights=weights), {w: sd.dim_full_level(w) for w in weights}),
        (TableSpec("principal", weights=(k,), levels=levels),
         {N: sd.dim_principal_level(k, N) for N in levels}),
        (TableSpec("paramodular", levels=para), {p: sd.dim_paramodular_weight4(p) for p in para}),
    )
    for tables, grouped in ((REFERENCE_TABLES, False), (seeded, True)):
        for spec, rows in tables:
            for fmt in FORMATS:
                ops.append(_table_op(TableSpec(spec.family, spec.weights, spec.levels, fmt,
                                               group_digits=grouped and fmt == "text"), rows))
    rng.shuffle(ops)
    return Workload(ops, ops[::10])


# --- cli -----------------------------------------------------------------------

KNOWN_LEVEL2_DEFECT = ("principal level 2 at weight != 4 exits 2 (integrity) where the "
                       "README documents 1 (domain error); ROADMAP item 4")


def child_env():
    """The environment for a child interpreter that imports siegel_dims from src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _invoke(argv, env):
    proc = subprocess.run([sys.executable, "-m", "siegel_dims.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
    return proc.returncode, proc.stdout


def _lines(*values) -> str:
    return "".join(f"{v}\n" for v in values)


def _irreps_stdout(p: int, fmt: str) -> str:
    rows = sd.irreps.table_at(p)
    if fmt == "json":
        return _lines(json.dumps(rows))
    if fmt == "csv":
        return _lines("index,formula,dimension,unitary_relevant", *(
            f"{r['index']},{r['formula']},{r['dimension']},{str(r['unitary_relevant']).lower()}"
            for r in rows))
    if fmt == "latex":
        return _lines("\\begin{tabular}{|l|l|l|l|}", "\\hline", "index & degree & value & unitary \\\\",
                      "\\hline\\hline", *(
                          f"$a_{{{r['index']}}}(p)$ & ${r['formula']}$ & {r['dimension']} & "
                          f"{'yes' if r['unitary_relevant'] else 'no'} \\\\" for r in rows),
                      "\\hline", "\\end{tabular}")
    width = max(len(r["formula"]) for r in rows)
    return _lines(*(f"a{r['index']:<3} {r['formula']:<{width}} {r['dimension']}"
                    f"{'' if r['unitary_relevant'] else '  (non-unitary)'}" for r in rows))


def _bounds_stdout(k, N, envelope):
    pair = sd.bounds_prime(k, N) if sd.is_prime(N) else sd.bounds_squarefree(k, sd.parse_square_free_level(N))
    return _lines(*(pair.integer_envelope() if envelope else (pair.lower, pair.upper)))


def _decompose_stdout(p, target, fmt):
    solutions = sd.decompose(p, target)
    if fmt == "json":
        return _lines(json.dumps({
            "prime": p, "target": target, "include_nonunitary": False, "count": len(solutions),
            "solutions": [{str(n): c for n, c in s.multiplicities.items()} for s in solutions]}))
    return _lines(*(" ".join(f"c{n}={c}" for n, c in sorted(s.nonzero().items())) or "trivial"
                    for s in solutions))


def _cli_cases(rng):
    """(argv, expected stdout or None for a documented exit-1 error, known defect)."""
    primes = _odd_primes(2000)
    cases = []

    def ok(argv, stdout):
        cases.append(([str(a) for a in argv], stdout, None))

    for k in rng.sample(range(4, 200), 3):
        ok(["dim", "--family", "full", "--weight", k], _lines(sd.dim_full_level(k)))
    N = rng.choice(sorted(ref.GAMMA0_WEIGHT4_TABLE))
    ok(["dim", "--family", "gamma0", "--weight", 4, "--level", N], _lines(sd.dim_gamma0(4, N)))
    N = rng.randint(1, 10**6)
    ok(["dim", "--family", "gamma0", "--weight", 1, "--level", N], _lines(0))
    for p in rng.sample(primes, 2):
        ok(["dim", "--family", "paramodular", "--level", p], _lines(sd.dim_paramodular_weight4(p)))
    for N in rng.sample(primes, 2) + _small_composites(rng, 1):
        k = rng.randint(4, 30)
        ok(["dim", "--family", "principal", "--weight", k, "--level", N],
           _lines(sd.dim_principal_level(k, N)))

    start = rng.randint(4, 100)
    para = sorted(rng.sample(primes, 12))
    levels = sorted(rng.sample(primes[:100], 6) + _small_composites(rng, 3))
    gamma0 = sorted(rng.sample(sorted(ref.GAMMA0_WEIGHT4_TABLE), 4))
    k = rng.randint(4, 12)
    specs = [
        (["--family", "full", "--weights", f"{start}..{start + 30}"],
         TableSpec("full", weights=tuple(range(start, start + 31)))),
        (["--family", "paramodular", "--levels", ",".join(map(str, para))],
         TableSpec("paramodular", levels=tuple(para))),
        (["--family", "principal", "--weight", k, "--levels", ",".join(map(str, levels))],
         TableSpec("principal", weights=(k,), levels=tuple(levels))),
        (["--family", "gamma0", "--weight", 4, "--levels", ",".join(map(str, gamma0))],
         TableSpec("gamma0", weights=(4,), levels=tuple(gamma0))),
    ]
    for i, fmt in enumerate(FORMATS * 2):
        flags, spec = specs[(i + rng.randrange(4)) % 4]
        group = fmt == "text" and i >= 4
        spec = TableSpec(spec.family, spec.weights, spec.levels, fmt, group)
        ok(["table", *flags, "--format", fmt, *(["--group-digits"] if group else [])],
           sd.emit_table(spec))

    for p in rng.sample(primes, 3):
        k = rng.randint(4, 30)
        ok(["bounds", "--weight", k, "--level", p], _bounds_stdout(k, p, False))
    for N in _small_composites(rng, 2):
        ok(["bounds", "--weight", 4, "--level", N, "--integer-envelope"], _bounds_stdout(4, N, True))
    # The tail: trial division over the smaller factor, tens of ms each.
    for N in _two_factor_levels(rng, 3 * 10**5, 10**6, 8):
        k = rng.randint(4, 30)
        ok(["bounds", "--weight", k, "--level", N], _bounds_stdout(k, N, False))

    for fmt in FORMATS:
        p = rng.choice(primes)
        ok(["irreps", "--prime", p, "--format", fmt], _irreps_stdout(p, fmt))
    for p, target, fmt in ((3, rng.randint(15, 150), "text"), (5, rng.randint(200, 800), "text"),
                           (3, rng.randint(15, 150), "json")):
        ok(["decompose", "--prime", p, "--target", target, "--format", fmt],
           _decompose_stdout(p, target, fmt))
    report = sd.analyze_level(4, 3)
    ok(["analyze", "--weight", 4, "--prime", 3], _lines(report.to_text()))
    ok(["analyze", "--weight", 4, "--prime", 3, "--format", "json"], _lines(json.dumps(report.to_json_dict())))
    report = sd.run_all_checks()
    ok(["verify"], report.to_text())
    ok(["verify", "--format", "json"], report.to_json())

    # Errors from the README's exit-code contract: exit 1 and nothing on stdout.
    q = rng.choice(primes[1:])
    errors = [
        ["dim", "--family", "full", "--weight", rng.randint(-3, 3)],
        ["dim", "--family", "gamma0", "--weight", 4, "--level", rng.choice(primes[5:100])],
        ["dim", "--family", "paramodular", "--level", q * rng.choice(primes)],
        ["dim", "--family", "principal", "--weight", 4, "--level", 9 * q],
        ["bounds", "--weight", 4, "--level", 2 * q],
        ["decompose", "--prime", 3 * q, "--target", 10],
        ["decompose", "--prime", 3, "--target", rng.randint(300, 400), "--max-solutions", 1000],
        ["irreps", "--prime", 2],
        ["analyze", "--weight", rng.randint(1, 3), "--prime", 3],
        ["table", "--family", "full", "--weights", "10..20", "--level", 3],
        ["dim", "--family", "nosuch", "--weight", 4],
        ["frobnicate"],
    ]
    for argv in rng.sample(errors, 8):
        cases.append(([str(a) for a in argv], None, None))
    cases.append((["dim", "--family", "principal", "--weight", str(rng.randint(5, 12)), "--level", "2"],
                  None, KNOWN_LEVEL2_DEFECT))
    return cases


def build_cli(rng) -> Workload:
    env = child_env()
    cases = _cli_cases(rng)
    rng.shuffle(cases)
    ops = [Op("siegel-dims " + " ".join(argv), lambda argv=argv: _invoke(argv, env),
              _expect((0, stdout) if stdout is not None else (1, ""), "(exit code, stdout)"),
              items=lambda result: len(result[1].encode()), known_defect=defect)
           for argv, stdout, defect in cases]
    argvs = [argv for argv, _, _ in cases]
    warmup = [Op("siegel-dims verify", lambda: _invoke(["verify"], env),
                 _expect((0, sd.run_all_checks().to_text()), "(exit code, stdout)"))]
    return Workload(ops, warmup, argvs)


BUILDERS = {
    "enumerate": build_enumerate,
    "count": build_count,
    "survey": build_survey,
    "cli": build_cli,
}
