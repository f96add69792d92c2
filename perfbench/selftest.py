"""Self-tests of the benchmark: span arithmetic, failure classification, seeding, rounds.

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the repository's test run: importing the
benchmark there would add its constants to what Hypothesis draws from.
"""
import math
import os
import sys
import time

import pytest
from scipy.optimize import brentq

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import summary  # noqa: E402
import workloads  # noqa: E402
from salpeter_afm.errors import CollapseDetected, ConvergenceFailure, DomainError, NoBoundState  # noqa: E402
from salpeter_afm.types import GlobalQ, PowerLawPotential  # noqa: E402


def _span(id, parent, name, start, end, **attrs):
    return spans.Span(id, parent, name, start, end, attrs)


def test_self_time_subtracts_the_union_of_child_intervals():
    tree = [
        _span(0, None, "root", 0.0, 10.0),
        _span(1, 0, "a", 1.0, 4.0),
        _span(2, 0, "b", 3.0, 6.0),      # overlaps a: the union [1, 6] counts once
        _span(3, 0, "c", 8.0, 12.0),     # runs past its parent: clipped at 10
        _span(4, 1, "a.child", 2.0, 3.0),
    ]
    own = spans.self_times(tree)
    assert own == pytest.approx({0: 3.0, 1: 2.0, 2: 3.0, 3: 4.0, 4: 1.0})


def test_layer_metrics_attribute_eigensolves_by_parent_span():
    tree = [
        _span(0, None, "oracle.nr_energy", 0.0, 5.0),
        _span(1, 0, "linalg.eigvalsh", 0.5, 1.5, n=300),
        _span(2, 0, "linalg.eigvalsh", 2.0, 4.0, n=600),
        _span(3, None, "reference.sse_eigenvalue", 10.0, 20.0),
        _span(4, 3, "reference.sqrt_kinetic", 10.0, 13.0, l=1, points=600, box=5.0),
        _span(5, 4, "linalg.eigh", 10.5, 12.5, n=600),
        _span(6, 3, "reference.sqrt_kinetic", 13.0, 16.0, l=1, points=600, box=5.0),
        _span(7, 6, "linalg.eigh", 13.5, 15.5, n=600),
        _span(8, 3, "linalg.eigvalsh", 16.0, 19.0, n=600),
        _span(9, None, "cli.main", 30.0, 31.0, exit=0),
        _span(10, None, "cli.main", 31.0, 32.0, error="ValueError", typed=False),
        _span(11, 9, "core.solve_afm", 30.2, 30.6, error="CollapseDetected", typed=True),
    ]
    m = spans.layer_metrics(tree, (3, 1), 123)
    assert m["oracle.rungs"] == 2 and m["oracle.max_points"] == 600
    assert m["oracle.eigensolve.s"] == pytest.approx(3.0)
    assert m["oracle.build.s"] == pytest.approx(2.0)
    assert m["oracle.eigensolve.computed_flops"] == pytest.approx(4.0 / 3.0 * (300**3 + 600**3))
    assert m["oracle.eigensolve.computed_bytes"] == 8 * (300**2 + 600**2)
    assert m["reference.rungs"] == 1 and m["reference.eigensolve.s"] == pytest.approx(3.0)
    assert m["reference.decomp.calls"] == 2 and m["reference.decomp.distinct_ratio"] == 0.5
    assert m["reference.decomp.s"] == pytest.approx(4.0)
    assert m["reference.sqrt_kinetic.lpos_s"] == pytest.approx(6.0)
    assert m["oracle.sine_matrix.hit_ratio"] == 0.75
    assert m["cli.main.calls"] == 2 and m["cli.exit_code.0"] == 1 and m["cli.uncaught"] == 1
    assert m["cli.main.self_s"] == pytest.approx(1.6)
    assert m["core.solve_afm.typed_errors"] == 1 and m["core.solve_afm.untyped_errors"] == 0
    assert m["cli.bytes_written"] == 123


def test_recorder_nests_spans_and_marks_errors():
    rec = spans.Recorder()

    def inner(x):
        if x < 0:
            raise NoBoundState("no")
        return x

    inner_t = rec.wrap("core.solve_afm", inner)
    outer_t = rec.wrap("cli.main", lambda x: inner_t(x))
    assert outer_t(2) == 2
    with pytest.raises(NoBoundState):
        outer_t(-1)
    names = [(s.name, s.parent) for s in rec.spans]
    assert names == [("cli.main", None), ("core.solve_afm", 0), ("cli.main", None), ("core.solve_afm", 2)]
    assert rec.spans[3].attrs == {"error": "NoBoundState", "typed": True}
    assert len(rec.take()) == 4 and rec.spans == []


@pytest.mark.parametrize("err, kind", [
    (NoBoundState("x"), "expected"),
    (CollapseDetected("x"), "expected"),
    (DomainError("x"), "expected"),
    (ConvergenceFailure("x"), "error:ConvergenceFailure"),
    (OverflowError("x"), "error:OverflowError"),
    (ValueError("x"), "error:ValueError"),
])
def test_error_classification(err, kind):
    assert checks.classify_error(err) == kind


# Two virial-balance roots: M(r0) has a local maximum near 0.0178 and a local
# minimum near 1.277.
TWO_ROOTS = (1.0987, 2.8044, ((1.2248, 2.570), (0.3937, -1.658)), 4.634)


def test_local_minimum_test_tells_the_two_roots_apart():
    m1, m2, terms, qv = TWO_ROOTS
    balance = lambda r: checks.virial_balance(m1, m2, terms, qv, r)  # noqa: E731
    r_max, r_min = brentq(balance, 0.01, 0.03, xtol=1e-16), brentq(balance, 1.0, 1.5, xtol=1e-16)
    assert not checks.is_local_minimum(m1, m2, terms, qv, r_max)
    assert checks.is_local_minimum(m1, m2, terms, qv, r_min)


def test_afm_sweep_counts_a_local_maximum_as_a_failure(tmp_path):
    m1, m2, terms, qv = TWO_ROOTS
    sweep = workloads.AfmSweep(0, str(tmp_path))
    sweep.bound = [(m1, m2, PowerLawPotential(terms), GlobalQ.explicit(qv))]
    sweep.closed = []
    anchor, item = sweep.run_round()
    assert anchor.failure is None and anchor.anchor
    r0 = workloads.core.solve_afm(m1, m2, PowerLawPotential(terms), qv).r0
    expected = None if checks.is_local_minimum(m1, m2, terms, qv, r0) else "local_max"
    assert item.failure == expected and not item.anchor


def test_cli_outcomes_are_classified(tmp_path, monkeypatch):
    mix = workloads.CliMix(0, str(tmp_path))
    mix.calls = [workloads.CliCall(["verify"], workloads._exit_check(3))] * 3
    results = iter([3, 1, ValueError("boom")])

    def fake_main(argv):
        value = next(results)
        if isinstance(value, Exception):
            raise value
        return value

    monkeypatch.setattr(workloads.cli, "main", fake_main)
    assert [o.failure for o in mix.run_round()] == [None, "exit:1!=3", "uncaught:ValueError"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_the_same_inputs(name, tmp_path):
    make = workloads.WORKLOADS[name]
    first = make(7, str(tmp_path / "a")).inputs()
    assert make(7, str(tmp_path / "b")).inputs() == first
    assert make(8, str(tmp_path / "c")).inputs() != first


def test_rounds_count_failed_items_once_and_sum_each_items_fastest_time():
    class Alternating:
        rounds = 0

        def run_round(self):
            time.sleep(0.01)
            self.rounds += 1
            first = 0.3 if self.rounds % 2 else 0.2
            return [workloads.Outcome(first, None), workloads.Outcome(0.4, "local_max")]

    phase = run._rounds(Alternating(), seconds=0.05, probe=True)
    assert len(phase.rounds) >= 2 and len(phase.probes) == len(phase.rounds)
    assert phase.items == 2 and phase.failures == {1: "local_max"} and not phase.anchor_failed
    assert phase.item_fastest_s() == pytest.approx(0.6)
    assert len(phase.latencies()) == 2 * len(phase.rounds)


def test_tail_level_leaves_ten_items_of_a_round_beyond_it():
    values = [float(i) for i in range(10000)]
    level, value, beyond = summary.tail(values, 1000)     # ten rounds of 1000 items
    assert level == 99.0 and beyond == 100 and value == pytest.approx(9899.01)
    assert summary.tail(values, 10000)[0] == 99.9
    assert summary.tail(values[:50], 50) is None


def test_compare_verdicts():
    base = {s: [10.0 + 0.1 * (s % 3)] for s in range(10)}
    faster = {s: [8.0] for s in range(10)}
    same = {s: [10.05] for s in range(10)}
    slower = {s: [13.0] for s in range(10)}
    assert compare.verdict(base, faster, "lower", 0.1)[0] == "gain"
    assert compare.verdict(base, same, "lower", 0.1)[0] == "no-worse"
    assert compare.verdict(base, slower, "lower", 0.1)[0] == "worse"
    assert compare.verdict(base, same, "lower", None)[0] == "unresolved"
    assert compare.verdict(faster, base, "higher", 0.1)[0] == "gain"
    assert math.isclose(summary.quartiles([1.0, 2.0, 3.0, 4.0])[1], 2.5)
