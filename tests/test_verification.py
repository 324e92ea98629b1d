import dataclasses
import hashlib
import json

import pytest

from siegel_dims import dimensions
from siegel_dims import irreps, newforms
from siegel_dims.verification import run_all_checks


def test_fresh_build_passes_everything():
    report = run_all_checks()
    assert report.passed
    assert len(report.checks) >= 50
    assert report.failures == []


def test_report_is_deterministic():
    a = run_all_checks().to_json()
    b = run_all_checks().to_json()
    assert a == b


def test_json_shape():
    payload = run_all_checks().to_json_dict()
    json.dumps(payload)
    assert payload["version"] == 1
    assert payload["overall"] == "pass"
    assert payload["total"] == len(payload["checks"])
    assert payload["failed"] == 0
    for check in payload["checks"]:
        assert set(check) == {"name", "source", "expected", "computed", "passed"}


def test_text_has_one_line_per_check():
    report = run_all_checks()
    lines = report.to_text().splitlines()
    assert len(lines) == len(report.checks) + 1  # plus the summary line
    assert all(line.startswith("PASS ") for line in lines[:-1])
    assert lines[-1].endswith("checks passed")


def test_check_names_are_unique():
    names = [c.name for c in run_all_checks().checks]
    assert len(names) == len(set(names))


def test_corrupted_constant_table_is_caught(monkeypatch):
    # Fault injection: poison one entry of the constant-term table and the
    # full-level checks must fail by name.
    corrupted = list(dimensions._CONST_TERM_BY_K_MOD_12)
    corrupted[10] += 3456  # shifts every k = 10 mod 12 value by 1
    monkeypatch.setattr(dimensions, "_CONST_TERM_BY_K_MOD_12", corrupted)

    report = run_all_checks()
    assert not report.passed
    failing = {c.name for c in report.failures}
    assert "full_level.k10" in failing
    assert all(name.startswith("full_level.") for name in failing)
    assert report.to_json_dict()["overall"] == "fail"


def test_corrupted_reference_table_is_caught(monkeypatch):
    monkeypatch.setitem(dimensions.GAMMA0_WEIGHT4, 7, 4)
    report = run_all_checks()
    assert {c.name for c in report.failures} == {"gamma0.weight4.p7"}


@pytest.mark.parametrize("row,name", [
    (11, "irreps.identity.a3_is_p_a11"),
    (12, "irreps.identity.a8_is_p_a12"),
    (6, "irreps.identity.a6_is_p2_a17"),
    (7, "irreps.identity.a7_is_a17_squared"),
    (16, "irreps.identity.a5_is_a16_a17"),
])
def test_corrupted_irreps_row_is_caught(monkeypatch, row, name):
    # Fault injection: shift one row of the degree table by 2 (keeping its
    # parity) and exactly the identity that reads it must fail.
    table = list(irreps.TABLE)
    entry = table[row - 1]
    table[row - 1] = dataclasses.replace(entry, numerator=lambda p: entry.numerator(p) + 2)
    monkeypatch.setattr(irreps, "TABLE", tuple(table))
    irreps.degrees_at.cache_clear()
    try:
        report = run_all_checks()
    finally:
        monkeypatch.undo()
        irreps.degrees_at.cache_clear()
    assert {c.name for c in report.failures} == {name}


def test_count_disagreeing_with_the_walk_is_caught(monkeypatch):
    count = newforms.count_decompositions
    monkeypatch.setattr(newforms, "count_decompositions",
                        lambda p, D, nu=False: count(p, D, nu) + (D == 76))
    report = run_all_checks()
    assert {c.name for c in report.failures} == {"newform.count_vs_walk.p3d76"}


def test_report_bytes_are_pinned():
    # The check list, names, sources and order are fixed, so are the bytes.
    report = run_all_checks()
    assert hashlib.sha256(report.to_text().encode()).hexdigest() == (
        "df87811b9a4f8c34565242e40771f3ff1598ba0cff0eedba46c941c7e284f29b")
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == (
        "91110b686bd45be648a778bd6513ba82f47a89dac8c99d1e401d04dd17c02108")


@pytest.mark.parametrize("row,name", [
    (13, "irreps.identity.a13_plus_a15"),
    (10, "irreps.identity.a2_is_p_a10"),
    (4, "irreps.identity.a5_is_a4_minus_1"),
])
def test_corrupted_row_fails_its_identity(monkeypatch, row, name):
    # The remaining identity rows, injected the same way as above.
    test_corrupted_irreps_row_is_caught(monkeypatch, row, name)


def test_bounds_identity_failure_is_reported_by_name(monkeypatch):
    # bounds_prime checks lower * a_1 = dim itself and raises on a mismatch;
    # run_all_checks reports that as its own check failing, not as a fault.
    dim = newforms.dim_principal_prime
    monkeypatch.setattr(newforms, "dim_principal_prime",
                        lambda k, p: dim(k, p) + ((k, p) == (20, 13)))
    report = run_all_checks()
    assert {c.name for c in report.failures} == {"consistency.lower_times_a1"}
