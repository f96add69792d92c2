"""Acceptance gate: every criterion at its stated tolerance and runtime.

Each test prints one PASS/FAIL line; run with ``pytest -s`` to see them all,
or use ``salpeter-afm verify`` for the same checks from the command line.
"""
import csv
import io
import json
import time

import pytest

from salpeter_afm import verification
from salpeter_afm.cli import main
from salpeter_afm import (
    GlobalQ,
    QuantumState,
    coulomb_closed,
    linear_closed,
    linear_nr_expansion,
    linear_ur_expansion,
    q_exact,
)


def _finish(name: str, results, t0: float, limit_s: float):
    elapsed = time.time() - t0
    failed = [r for r in results if not r.passed]
    status = "PASS" if not failed and elapsed < limit_s else "FAIL"
    print(f"{status} {name}  [{elapsed:.1f}s / limit {limit_s:.0f}s, {len(results)} checks]")
    for r in failed:
        print("  " + r.line())
    assert not failed, f"{name}: {len(failed)} checks failed"
    assert elapsed < limit_s, f"{name}: runtime {elapsed:.1f}s exceeds {limit_s}s"


def test_criterion_1_coulomb_afm_value():
    t0 = time.time()
    results = verification.check_coulomb_afm_value()
    _finish("criterion-1 coulomb AFM mass 0.9798 +- 1e-4", results, t0, 1.0)


def test_criterion_2_coulomb_reference_value():
    t0 = time.time()
    results = verification.check_coulomb_reference_value()
    _finish("criterion-2 coulomb reference mass 0.8454 +- 0.003", results, t0, 120.0)


def test_criterion_3_upper_bound_suite():
    t0 = time.time()
    results = verification.check_upper_bound_suite()
    assert len(results) == 44  # 22 rows, two Q choices each
    _finish("criterion-3 upper bounds on the linear mass scan", results, t0, 600.0)


def test_criterion_4_closed_form_equivalence():
    t0 = time.time()
    results = verification.check_closed_form_equivalence()
    _finish("criterion-4 closed forms vs generic solver at 1e-9", results, t0, 5.0)


def test_criterion_5_asymptotic_crossing():
    t0 = time.time()
    results = verification.check_asymptotic_crossing()
    _finish("criterion-5 expansion crossing at 0.34 / 5.5% error", results, t0, 1.0)


def test_criterion_6_q_oracle():
    t0 = time.time()
    results = verification.check_q_oracle()
    assert len(results) == 36
    _finish("criterion-6 numeric Q against analytic values at 1e-6", results, t0, 60.0)


def test_criterion_7_existence_window():
    t0 = time.time()
    results = verification.check_existence_window()
    _finish("criterion-7 coulomb existence window", results, t0, 1.0)


def test_criterion_8_residual_property():
    t0 = time.time()
    results = verification.check_residual_property()
    _finish("criterion-8 residuals and radii over 200 random configs", results, t0, 10.0)


def test_criterion_9_symmetric_reduction():
    t0 = time.time()
    results = verification.check_symmetric_reduction()
    _finish("criterion-9 equal-mass reduction to sigma form", results, t0, 1.0)


def test_all_suites_run_every_check_in_order():
    results = verification.run_suite("all")
    assert [r.name for r in results] == [r.name for name in verification.SUITES for r in verification.run_suite(name)]
    assert all(r.passed for r in results)


class TestCheckResults:
    def test_line_writes_every_field(self):
        result = verification.CheckResult("demo", False, 1.5, 2.0, 1e-3, "note")
        assert result.line() == "FAIL demo  value=1.5  expected=2  tol=0.001  note"

    def test_raises_fails_on_the_other_no_root_error_and_on_a_return(self):
        def collapse():
            raise verification.CollapseDetected("collapse")

        wrong = verification._raises("demo", collapse, verification.NoBoundState)
        assert (wrong.passed, wrong.detail) == (False, "CollapseDetected instead")
        quiet = verification._raises("demo", lambda: None, verification.NoBoundState)
        assert (quiet.passed, quiet.detail) == (False, "expected NoBoundState")


# ---------------------------------------------------------------------------
# figure data as CSV, checked pointwise against the closed forms


def test_linear_scan_csv_reproduction(tmp_path):
    out = tmp_path / "linear_scan.csv"
    config = tmp_path / "linear_scan.json"
    config.write_text(
        json.dumps(
            {
                "mode": "scan",
                "masses": [0.0, 1.0],
                "potential": [{"alpha": 0.2, "exponent": 1}],
                "state": {"n": 0, "l": 0},
                "scan": {"variable": "m", "values": [0.0, 0.5, 1.0], "include_reference": True},
                "out": str(out),
            }
        )
    )
    assert main(["scan", "--config", str(config)]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    q1, q2 = q_exact(1, QuantumState(0)), q_exact(2, QuantumState(0))
    for row in rows[1:]:
        m = float(row[0])
        afm1, afm2, ref = float(row[1]), float(row[2]), float(row[3])
        assert afm1 == pytest.approx(linear_closed(m, 0.2, q1).mass, rel=1e-8)
        assert afm2 == pytest.approx(linear_closed(m, 0.2, q2).mass, rel=1e-8)
        assert float(row[4]) == pytest.approx(linear_ur_expansion(m, 0.2, q2), rel=1e-8)
        if m > 0:
            assert float(row[5]) == pytest.approx(linear_nr_expansion(m, 0.2, q2), rel=1e-8)
        assert ref < afm1 and ref < afm2  # both curves sit above the reference
    print("PASS figure-data linear scan CSV matches the closed forms")


def test_coulomb_sweep_csv_reproduction(tmp_path):
    out = tmp_path / "coulomb_sweep.csv"
    config = tmp_path / "coulomb_sweep.json"
    config.write_text(
        json.dumps(
            {
                "mode": "scan",
                "masses": [0.0, 1.0],
                "potential": [{"alpha": 1.2, "exponent": -1}],
                "state": {"n": 0, "l": 0},
                "scan": {"variable": "Q", "start": 0.65, "stop": 1.15, "step": 0.05},
                "out": str(out),
            }
        )
    )
    assert main(["scan", "--config", str(config)]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["Q", "r0_am", "M_over_m"]
    for row in rows[1:]:
        sol = coulomb_closed(1.0, 1.2, GlobalQ.explicit(float(row[0]), -1.0))
        assert float(row[1]) == pytest.approx(sol.r0 * 1.0 / 1.2, rel=1e-8)
        assert float(row[2]) == pytest.approx(sol.mass, rel=1e-8)
    print("PASS figure-data coulomb sweep CSV matches the closed form")
