import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import siegel_dims
from siegel_dims import newforms, verification
from siegel_dims.arithmetic import SquareFreeLevel
from siegel_dims.dimensions import dim_principal
from siegel_dims.cli import MAX_TABLE_WEIGHTS, _unlimited_digits, main
from siegel_dims.dimensions import dim_full_level


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDim:
    def test_principal_level15(self, capsys):
        code, out, err = run(capsys, "dim", "--family", "principal", "--weight", "4", "--level", "15")
        assert (code, out) == (0, "69023360250000000\n")
        assert err == ""

    def test_full(self, capsys):
        code, out, _ = run(capsys, "dim", "--family", "full", "--weight", "10")
        assert (code, out) == (0, "1\n")

    def test_gamma0(self, capsys):
        code, out, _ = run(capsys, "dim", "--family", "gamma0", "--weight", "4", "--level", "13")
        assert (code, out) == (0, "11\n")

    def test_paramodular(self, capsys):
        code, out, _ = run(capsys, "dim", "--family", "paramodular", "--level", "19")
        assert (code, out) == (0, "3\n")

    def test_not_tabulated_is_a_domain_error(self, capsys):
        code, out, err = run(capsys, "dim", "--family", "gamma0", "--weight", "4", "--level", "17")
        assert code == 1
        assert out == ""
        assert "not available" in err

    def test_integrality_failure_maps_to_exit_2(self, capsys):
        code, out, err = run(capsys, "dim", "--family", "principal", "--weight", "5", "--level", "2")
        assert code == 2
        assert out == ""
        assert "integrity" in err

    def test_stdout_is_exactly_one_integer_line(self, capsys):
        _, out, _ = run(capsys, "dim", "--family", "principal", "--weight", "4", "--level", "7")
        assert out == "199500\n"


class TestBounds:
    def test_prime_level(self, capsys):
        code, out, _ = run(capsys, "bounds", "--weight", "4", "--level", "3")
        assert (code, out) == (0, "3/32\n5/2\n")

    def test_composite_level(self, capsys):
        # 69023360250000000/1096 and /30 in lowest terms.
        code, out, _ = run(capsys, "bounds", "--weight", "4", "--level", "15")
        assert code == 0
        assert out == "8627920031250000/137\n2300778675000000\n"

    def test_integer_envelope(self, capsys):
        code, out, _ = run(capsys, "bounds", "--weight", "4", "--level", "3", "--integer-envelope")
        assert (code, out) == (0, "1\n2\n")

    def test_even_level_rejected(self, capsys):
        code, _, err = run(capsys, "bounds", "--weight", "4", "--level", "2")
        assert code == 1
        assert "odd prime" in err


class TestDecompose:
    def test_unique_solution(self, capsys):
        code, out, err = run(capsys, "decompose", "--prime", "3", "--target", "15")
        assert (code, out) == (0, "c14=1\n")
        assert "1 solution(s)" in err

    def test_trivial_solution(self, capsys):
        code, out, _ = run(capsys, "decompose", "--prime", "3", "--target", "0")
        assert (code, out) == (0, "trivial\n")

    def test_no_solutions(self, capsys):
        code, out, err = run(capsys, "decompose", "--prime", "3", "--target", "5")
        assert (code, out) == (0, "")
        assert "0 solution(s)" in err

    def test_json(self, capsys):
        code, out, _ = run(capsys, "decompose", "--prime", "3", "--target", "12", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 1
        assert payload["solutions"][0]["15"] == 2

    def test_cap_is_a_domain_error(self, capsys):
        code, _, err = run(capsys, "decompose", "--prime", "5", "--target", "5655")
        assert code == 1
        assert "19005458" in err

    def test_include_nonunitary(self, capsys):
        code, out, _ = run(
            capsys, "decompose", "--prime", "3", "--target", "8", "--include-nonunitary"
        )
        assert (code, out) == (0, "c17=1\n")


class TestAnalyze:
    def test_text_report(self, capsys):
        code, out, _ = run(capsys, "analyze", "--weight", "4", "--prime", "3")
        assert code == 0
        assert "dim S_4(Gamma(3)) = 15" in out
        assert "newform dimension: 1" in out
        assert "tau(T, nu^(-1/2) sigma)" in out
        assert "Saito-Kurokawa" in out

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "analyze", "--weight", "4", "--prime", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["dimension"] == 15
        assert payload["newform_dimension"] == 1
        assert payload["lower_bound"] == {"numerator": 3, "denominator": 32}

    def test_large_space_reports_count_only(self, capsys):
        code, out, _ = run(capsys, "analyze", "--weight", "4", "--prime", "5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["solution_count"] == 19005458
        assert "solutions" not in payload


class TestIrreps:
    def test_json(self, capsys):
        code, out, _ = run(capsys, "irreps", "--prime", "3", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 17
        assert rows[13] == {
            "index": 14,
            "formula": "p(p^2+1)/2",
            "dimension": 15,
            "unitary_relevant": True,
        }

    def test_text_marks_nonunitary_rows(self, capsys):
        code, out, _ = run(capsys, "irreps", "--prime", "3")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 17
        assert sum("non-unitary" in line for line in lines) == 2

    def test_csv_header(self, capsys):
        _, out, _ = run(capsys, "irreps", "--prime", "5", "--format", "csv")
        assert out.splitlines()[0] == "index,formula,dimension,unitary_relevant"

    def test_even_prime_rejected(self, capsys):
        code, _, err = run(capsys, "irreps", "--prime", "2")
        assert code == 1
        assert "odd prime" in err


class TestTable:
    def test_csv_matches_emitter(self, capsys):
        code, out, _ = run(
            capsys, "table", "--family", "principal", "--weight", "4",
            "--levels", "2,3,5,7,11,13,17", "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[:3] == ["p,dim", "2,0", "3,15"]
        assert out.splitlines()[-1] == "17,1687834800"

    def test_weights_range(self, capsys):
        code, out, _ = run(capsys, "table", "--family", "full", "--weights", "10..20")
        assert code == 0
        assert len(out.splitlines()) == 12  # header + 11 rows

    def test_bad_range_syntax(self, capsys):
        code, _, err = run(capsys, "table", "--family", "full", "--weights", "10-20")
        assert code == 1
        assert "A..B" in err

    def test_both_single_and_range_rejected(self, capsys):
        code, _, err = run(
            capsys, "table", "--family", "full", "--weight", "10", "--weights", "10..12"
        )
        assert code == 1
        assert "not both" in err

    @pytest.mark.parametrize("flags, message", [
        (("--family", "full", "--weights", "5"),
         "weight range must look like A..B, got '5'"),
        (("--family", "full", "--weights", "a..b"),
         "weight range must look like A..B, got 'a..b'"),
        (("--family", "full", "--weights", "6..4"),
         "empty weight range '6..4'"),
        (("--family", "principal", "--weight", "4", "--levels", "3,x"),
         "levels must be a comma-separated list of integers, got '3,x'"),
    ])
    def test_axis_parse_errors(self, capsys, flags, message):
        assert run(capsys, "table", *flags) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("flags", [("--weights", "4..5"), ()])
    def test_gamma0_needs_exactly_one_weight(self, capsys, flags):
        assert run(capsys, "table", "--family", "gamma0", *flags, "--level", "3") == (
            1, "", "error: family 'gamma0' takes exactly one weight (--weight)\n")

    def test_weight_range_at_the_bound_renders(self, capsys):
        code, out, err = run(capsys, "table", "--family", "full", "--weights", "4..10003")
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 1 + MAX_TABLE_WEIGHTS

    @pytest.mark.parametrize("weights, count", [("4..10004", 10001), ("4..1000000000", 999999997)])
    def test_weight_range_over_the_bound_is_refused(self, capsys, weights, count):
        assert run(capsys, "table", "--family", "full", "--weights", weights) == (
            1, "", f"error: weight range {weights!r} has {count} weights; "
                   "at most 10000 are allowed\n")


class TestVerify:
    def test_passes_with_exit_0(self, capsys):
        code, out, err = run(capsys, "verify")
        assert code == 0
        assert err == ""
        lines = out.splitlines()
        assert lines[-1].startswith("pass:")
        assert sum(line.startswith("PASS ") for line in lines) >= 50

    def test_json_is_deterministic(self, capsys):
        _, out1, _ = run(capsys, "verify", "--format", "json")
        _, out2, _ = run(capsys, "verify", "--format", "json")
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["overall"] == "pass"
        assert payload["total"] >= 50

    def test_failed_check_exits_2(self, capsys, monkeypatch):
        monkeypatch.setitem(verification.FULL_LEVEL_TABLE, 10, 2)
        code, out, err = run(capsys, "verify")
        assert code == 2
        assert "FAIL full_level.k10" in out
        assert err == "1 reference check(s) failed\n"

    def test_bounds_identity_failure_exits_2_with_a_report(self, capsys, monkeypatch):
        dim = newforms.dim_principal_prime
        monkeypatch.setattr(newforms, "dim_principal_prime",
                            lambda k, p: dim(k, p) + ((k, p) == (20, 13)))
        code, out, err = run(capsys, "verify")
        assert code == 2
        assert "FAIL consistency.lower_times_a1" in out
        assert err == "1 reference check(s) failed\n"


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1
        assert "usage:" in err

    def test_missing_required_flag(self, capsys):
        code, _, err = run(capsys, "bounds", "--weight", "4")
        assert code == 1
        assert "usage:" in err

    def test_non_integer_argument(self, capsys):
        code, _, err = run(capsys, "dim", "--family", "full", "--weight", "ten")
        assert code == 1
        assert "usage:" in err

    def test_no_arguments_at_all(self, capsys):
        code, _, err = run(capsys)
        assert code == 1
        assert "usage:" in err

    def test_missing_axis_for_dim(self, capsys):
        code, _, err = run(capsys, "dim", "--family", "principal", "--weight", "4")
        assert code == 1
        assert "--level" in err


# The exact bytes of `irreps --prime 3` in latex and json.
IRREPS_3_LATEX = (
    "\\begin{tabular}{|l|l|l|l|}\n"
    "\\hline\n"
    "index & degree & value & unitary \\\\\n"
    "\\hline\\hline\n"
    "$a_{1}(p)$ & $(p^2+1)(p+1)^2$ & 160 & yes \\\\\n"
    "$a_{2}(p)$ & $p(p^2+1)(p+1)$ & 120 & yes \\\\\n"
    "$a_{3}(p)$ & $p^2(p^2+1)$ & 90 & yes \\\\\n"
    "$a_{4}(p)$ & $p^4$ & 81 & yes \\\\\n"
    "$a_{5}(p)$ & $p^4-1$ & 80 & yes \\\\\n"
    "$a_{6}(p)$ & $p^2(p^2-1)$ & 72 & yes \\\\\n"
    "$a_{7}(p)$ & $(p^2-1)^2$ & 64 & yes \\\\\n"
    "$a_{8}(p)$ & $p(p^2+1)(p-1)$ & 60 & yes \\\\\n"
    "$a_{9}(p)$ & $(p^2+1)(p-1)^2$ & 40 & yes \\\\\n"
    "$a_{10}(p)$ & $(p^2+1)(p+1)$ & 40 & yes \\\\\n"
    "$a_{11}(p)$ & $p(p^2+1)$ & 30 & yes \\\\\n"
    "$a_{12}(p)$ & $(p^2+1)(p-1)$ & 20 & yes \\\\\n"
    "$a_{13}(p)$ & $p(p+1)^2/2$ & 24 & yes \\\\\n"
    "$a_{14}(p)$ & $p(p^2+1)/2$ & 15 & yes \\\\\n"
    "$a_{15}(p)$ & $p(p-1)^2/2$ & 6 & yes \\\\\n"
    "$a_{16}(p)$ & $p^2+1$ & 10 & no \\\\\n"
    "$a_{17}(p)$ & $p^2-1$ & 8 & no \\\\\n"
    "\\hline\n"
    "\\end{tabular}\n"
)

IRREPS_3_JSON = (
    '[{"index": 1, "formula": "(p^2+1)(p+1)^2", "dimension": 160, "unitary_relevant": true}, '
    '{"index": 2, "formula": "p(p^2+1)(p+1)", "dimension": 120, "unitary_relevant": true}, '
    '{"index": 3, "formula": "p^2(p^2+1)", "dimension": 90, "unitary_relevant": true}, '
    '{"index": 4, "formula": "p^4", "dimension": 81, "unitary_relevant": true}, '
    '{"index": 5, "formula": "p^4-1", "dimension": 80, "unitary_relevant": true}, '
    '{"index": 6, "formula": "p^2(p^2-1)", "dimension": 72, "unitary_relevant": true}, '
    '{"index": 7, "formula": "(p^2-1)^2", "dimension": 64, "unitary_relevant": true}, '
    '{"index": 8, "formula": "p(p^2+1)(p-1)", "dimension": 60, "unitary_relevant": true}, '
    '{"index": 9, "formula": "(p^2+1)(p-1)^2", "dimension": 40, "unitary_relevant": true}, '
    '{"index": 10, "formula": "(p^2+1)(p+1)", "dimension": 40, "unitary_relevant": true}, '
    '{"index": 11, "formula": "p(p^2+1)", "dimension": 30, "unitary_relevant": true}, '
    '{"index": 12, "formula": "(p^2+1)(p-1)", "dimension": 20, "unitary_relevant": true}, '
    '{"index": 13, "formula": "p(p+1)^2/2", "dimension": 24, "unitary_relevant": true}, '
    '{"index": 14, "formula": "p(p^2+1)/2", "dimension": 15, "unitary_relevant": true}, '
    '{"index": 15, "formula": "p(p-1)^2/2", "dimension": 6, "unitary_relevant": true}, '
    '{"index": 16, "formula": "p^2+1", "dimension": 10, "unitary_relevant": false}, '
    '{"index": 17, "formula": "p^2-1", "dimension": 8, "unitary_relevant": false}]\n'
)


class TestSingleDispatchPath:
    @pytest.mark.parametrize("family_flags", [
        ("--family", "full", "--weight", "20"),
        ("--family", "gamma0", "--weight", "4", "--level", "11"),
        ("--family", "paramodular", "--level", "17"),
        ("--family", "principal", "--weight", "6", "--level", "15"),
    ])
    def test_dim_is_the_value_cell_of_a_one_row_table(self, capsys, family_flags):
        code, out, _ = run(capsys, "dim", *family_flags)
        assert code == 0
        code, table, _ = run(capsys, "table", *family_flags, "--format", "csv")
        assert code == 0
        header, row = table.splitlines()
        assert out == row.split(",")[1] + "\n"

    @pytest.mark.parametrize("fmt, expected", [
        ("latex", IRREPS_3_LATEX),
        ("json", IRREPS_3_JSON),
    ])
    def test_irreps_golden_bytes(self, capsys, fmt, expected):
        assert run(capsys, "irreps", "--prime", "3", "--format", fmt) == (0, expected, "")


class TestLevelsPastTheCertifiedBound:
    """Weight-1 gamma0 vanishes at every level, so a level no primality test
    can certify is still answered; the other families still need the test."""

    BIG = str(10**25)

    def test_gamma0_weight1_dim_is_zero(self, capsys):
        assert run(capsys, "dim", "--family", "gamma0", "--weight", "1", "--level", self.BIG) == (
            0, "0\n", "")

    @pytest.mark.parametrize("levels", [f"{10**25},15", f"15,{10**25}"])
    def test_gamma0_weight1_table_is_labelled_N_in_the_given_order(self, capsys, levels):
        code, out, err = run(capsys, "table", "--family", "gamma0", "--weight", "1",
                             "--levels", levels, "--format", "csv")
        assert (code, err) == (0, "")
        assert out == "N,dim\n" + "".join(f"{N},0\n" for N in levels.split(","))

    def test_gamma0_weight4_is_not_available(self, capsys):
        code, out, err = run(capsys, "dim", "--family", "gamma0", "--weight", "4",
                             "--level", self.BIG)
        assert (code, out) == (1, "")
        assert "is not available" in err

    @pytest.mark.parametrize("family_flags", [
        ("--family", "principal", "--weight", "4"),
        ("--family", "paramodular"),
    ])
    def test_other_families_still_refuse(self, capsys, family_flags):
        assert run(capsys, "dim", *family_flags, "--level", self.BIG) == (
            1, "", "error: primality is only certified below "
                   f"3317044064679887385961981; got {self.BIG}\n")


def test_decompose_at_the_enumeration_limit_refuses_on_the_count(capsys):
    assert run(capsys, "decompose", "--prime", "3", "--target", "10000000") == (
        1, "", "error: 178796249206356953428924790656618692009243404948902395254082114 "
                "solutions exceed the cap of 1000000\n")


class TestAnswersWiderThan4300Digits:
    """Python 3.10.7+ refuses int-to-str conversions past 4300 digits by
    default; answers print in full, while parsing the flags keeps the guard."""

    HUGE = str(10**1500)

    @staticmethod
    def widest_integer(text):
        return max(len(word) for word in text.replace("/", " ").replace(",", " ").split())

    @pytest.mark.parametrize("argv", [
        ("dim", "--family", "full", "--weight", HUGE),
        ("table", "--family", "full", "--weight", HUGE, "--format", "csv"),
        ("bounds", "--weight", HUGE, "--level", "3"),
        ("bounds", "--weight", HUGE, "--level", "15", "--integer-envelope"),
        ("analyze", "--weight", HUGE, "--prime", "3"),
        ("analyze", "--weight", HUGE, "--prime", "3", "--format", "json"),
    ])
    def test_answer_is_printed(self, capsys, argv):
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert self.widest_integer(out) > 4300
        if limit is not None:
            assert sys.get_int_max_str_digits() == limit

    def test_dim_is_exact(self, capsys):
        with _unlimited_digits():
            expected = f"{dim_full_level(int(self.HUGE))}\n"
        assert run(capsys, "dim", "--family", "full", "--weight", self.HUGE) == (0, expected, "")

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="no int-to-str digit limit before Python 3.10.7")
    def test_parsing_a_flag_keeps_the_guard(self, capsys):
        code, out, err = run(capsys, "table", "--family", "gamma0", "--weight", "1",
                             "--levels", "9" * 5000)
        assert (code, out) == (1, "")
        assert "comma-separated list of integers" in err

    def test_interpreter_without_the_limit(self, capsys, monkeypatch):
        # Python 3.10.0-3.10.6 has no digit limit and nothing to lift.
        monkeypatch.delattr(sys, "set_int_max_str_digits")
        with _unlimited_digits():
            pass
        assert run(capsys, "dim", "--family", "full", "--weight", "20") == (0, "3\n", "")


class TestLevelsPastTrialDivision:
    """1000000007 * 1000000009 is past the reach of trial division alone; the
    CLI factors it by Pollard--Brent rho and answers within the time bound,
    run as a subprocess so a hang fails the test instead of stalling it."""

    LEVEL = SquareFreeLevel((1000000007, 1000000009))
    TIMEOUT_S = 10

    def run_cli(self, *argv):
        env = dict(os.environ)
        src = str(Path(siegel_dims.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "siegel_dims.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=self.TIMEOUT_S)
        return proc.returncode, proc.stdout, proc.stderr

    def test_bounds(self):
        pair = newforms.bounds_squarefree(4, self.LEVEL)
        assert self.run_cli("bounds", "--weight", "4", "--level", str(self.LEVEL)) == (
            0, f"{pair.lower}\n{pair.upper}\n", "")

    def test_dim_principal(self):
        argv = ("dim", "--family", "principal", "--weight", "4", "--level", str(self.LEVEL))
        assert self.run_cli(*argv) == (0, f"{dim_principal(4, self.LEVEL)}\n", "")

    def test_repeated_small_prime_behind_a_hard_cofactor(self):
        # 3^2 * 600000000031 * 601000000001: rho splits the cofactor of about
        # 3.6e23 before the repeated 3 is seen.
        level = "3245400000173079000000279"
        assert self.run_cli("bounds", "--weight", "4", "--level", level) == (
            1, "", f"error: level {level} is not square-free: 3^2 divides it\n")
