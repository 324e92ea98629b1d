"""The exit-code contract of the CLI, as a property over argv.

Every argv drawn from the documented flags -- with bounded magnitudes, and
with malformed tokens mixed in -- must end with exit status 0, 1 or 2, let
no exception escape ``cli.main``, and print nothing on stdout when it exits
1.  Magnitudes stay small enough for each case to answer in well under the
deadline: weights up to 60, levels and primes below 10^7, targets up to
2000, and a solution cap up to 20000 on every ``decompose`` and ``analyze``
so that no case walks more solutions than that.
"""

import io
import re
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from siegel_dims import cli
from siegel_dims.tables import FAMILIES, FORMATS

MALFORMED = st.sampled_from([
    "", " ", "x", "-", "--", "-1.5", "1.5", "1e3", "0x10", "1_0", "+5", "-0", " 7",
    "٣", "4..", "..4", "4..2", "4...6", "a..b", "3,,5", "3,", ",", "9" * 5000,
])
SMALL_PRIMES = st.sampled_from([2, 3, 5, 7, 11, 13, 17, 9999991])
SQUARE_FREE = st.lists(st.sampled_from([3, 5, 7, 11, 13, 1009, 4999]), min_size=2, max_size=3,
                       unique=True).map(lambda ps: ps[0] * ps[1] * (ps[2] if ps[2:] else 1))
WEIGHTS = st.one_of(st.integers(4, 60), st.integers(-5, 60))
LEVELS = st.one_of(SMALL_PRIMES, SQUARE_FREE, st.integers(-10, 10**7 - 1))
PRIMES = st.one_of(SMALL_PRIMES, st.integers(-10, 10**7 - 1))
TARGETS = st.one_of(st.sampled_from([0, 15, 76, 200]), st.integers(-5, 2000))
CAPS = st.integers(-3, 20000)


def token(values):
    """A flag value: a drawn integer or choice as text, or now and then a
    malformed token."""
    return st.integers(0, 9).flatmap(lambda roll: MALFORMED if roll == 0 else values.map(str))


def weight_range():
    return st.builds(lambda a, b: f"{a}..{min(a + 20, b)}", WEIGHTS, WEIGHTS)


def level_list():
    return st.lists(LEVELS, min_size=1, max_size=5).map(lambda ns: ",".join(map(str, ns)))


# For each subcommand: (flag, value strategy or None for a switch, the chance
# in ten that the flag is given).  Required flags are given nine times in ten.
SUBCOMMANDS = {
    "dim": [("--family", st.sampled_from(FAMILIES), 9), ("--weight", WEIGHTS, 7),
            ("--level", LEVELS, 7)],
    "table": [("--family", st.sampled_from(FAMILIES), 9), ("--weight", WEIGHTS, 4),
              ("--weights", weight_range(), 4), ("--level", LEVELS, 4),
              ("--levels", level_list(), 4), ("--format", st.sampled_from(FORMATS), 5),
              ("--group-digits", None, 3)],
    "bounds": [("--weight", WEIGHTS, 9), ("--level", LEVELS, 9),
               ("--integer-envelope", None, 3)],
    "decompose": [("--prime", PRIMES, 9), ("--target", TARGETS, 9),
                  ("--include-nonunitary", None, 3), ("--max-solutions", CAPS, 10),
                  ("--format", st.sampled_from(["text", "json"]), 5)],
    "analyze": [("--weight", WEIGHTS, 9), ("--prime", PRIMES, 9),
                ("--max-solutions", CAPS, 10),
                ("--format", st.sampled_from(["text", "json"]), 5)],
    "irreps": [("--prime", PRIMES, 9), ("--format", st.sampled_from(FORMATS), 5)],
    "verify": [("--format", st.sampled_from(["text", "json"]), 5)],
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from([*SUBCOMMANDS, "unknown", "--help"]))
    argv = [command]
    for flag, values, chance in SUBCOMMANDS.get(command, []):
        if draw(st.integers(0, 9)) < chance:
            argv.append(flag)
            if values is not None:
                argv.append(draw(token(values)))
    if draw(st.integers(0, 19)) == 0:  # a stray token: junk, a repeated flag or --help
        stray = draw(st.one_of(MALFORMED, st.sampled_from(["--help", "--weight", "--level"])))
        argv.insert(draw(st.integers(0, len(argv))), stray)
    return argv


def run(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


@given(argvs())
@settings(max_examples=200, deadline=timedelta(seconds=5))
@example(["dim", "--family", "principal", "--weight", "5", "--level", "2"])
@example(["table", "--family", "principal", "--weights", "4..6", "--levels", "3,5"])
@example(["decompose", "--prime", "3", "--target", "9" * 5000, "--max-solutions", "5"])
@example(["analyze", "--weight", "60", "--prime", "9999991", "--max-solutions", "0"])
def test_every_argv_exits_0_1_or_2(argv):
    code, stdout = run(argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 1:
        assert stdout == "", argv


def test_top_level_usage_lists_every_subcommand():
    code, stdout = run(["--help"])
    assert code == 0
    choices = re.search(r"\{([a-z,]+)\}", stdout).group(1)
    assert set(choices.split(",")) == set(SUBCOMMANDS)


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_fuzzed_flags_are_the_parsers(command):
    # The property above draws argvs from SUBCOMMANDS, so its flags, in the
    # parser's order, must be the ones the usage paragraph names.
    code, stdout = run([command, "--help"])
    assert code == 0
    usage = stdout.split("\n\n")[0]
    assert re.findall(r"--[a-z][a-z-]*", usage) == [flag for flag, _, _ in SUBCOMMANDS[command]]


ODD_PRIME_ARGVS = [
    *[["analyze", "--weight", str(k), "--prime", "2"] for k in range(4, 9)],
    *[["bounds", "--weight", str(k), "--level", "2"] for k in range(4, 9)],
    ["decompose", "--prime", "2", "--target", "15"],
    *[["irreps", "--prime", "2", "--format", fmt] for fmt in FORMATS],
]


@pytest.mark.parametrize("argv", ODD_PRIME_ARGVS, ids=" ".join)
def test_two_is_refused_where_an_odd_prime_is_required(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    assert (code, out.getvalue(), err.getvalue()) == (
        1, "", "error: an odd prime is required, got 2\n")
