"""The four benchmark workloads.

Each workload turns a seed into a fixed set of inputs, then runs that set as
one *round*: every item calls the program, is timed, and is checked.  The
runner repeats rounds for the requested time.  Inputs that are not drawn
from the seed (paper values, analytic tables, README configurations) are
*anchors*: the run is not correct when an anchor fails.  Failures on seeded
inputs are counted, never filtered out.

Expected values that need the program (closed forms, q_exact, the direct
solve behind a CLI call) are computed once when the inputs are made, so the
checks inside a round call no program code.

A workload whose time is spent in interpreted Python sets ``PYTHON_BOUND``;
the runner then scales its wall time by a host probe (see run.py).
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import re
import time
from dataclasses import dataclass

import numpy as np

import checks
from salpeter_afm import cli, core, reference, verification
from salpeter_afm.types import GlobalQ, PowerLawPotential, QuantumState


@dataclass(frozen=True)
class Outcome:
    seconds: float            # time spent in the program for this item; checks excluded
    failure: str | None       # None when the item passed its checks
    anchor: bool = False


def _timed(call):
    """(result, error, seconds) of one program call; the error is returned, not raised."""
    t0 = time.perf_counter()
    try:
        result = call()
    except Exception as err:  # every escaping exception is an outcome to classify
        return None, err, time.perf_counter() - t0
    return result, None, time.perf_counter() - t0


def _error_failure(err: Exception, expected_allowed: bool) -> str | None:
    kind = checks.classify_error(err)
    return None if kind == "expected" and expected_allowed else f"error:{type(err).__name__}"


def _solution_failure(m1, m2, terms, qv, sol) -> str | None:
    if checks.worst_residual(m1, m2, terms, qv, sol.r0, sol.p0, sol.mass) > checks.RESIDUAL_TOL:
        return "residual"
    if not checks.is_local_minimum(m1, m2, terms, qv, sol.r0):
        return "local_max"
    return None


# ---------------------------------------------------------------------------


class AfmSweep:
    """Generic AFM solves on seeded configurations, plus closed forms vs the solver.

    All the work is the core root bracket and Brent solve; no matrices.
    """

    PYTHON_BOUND = True

    BOUND_DRAWS = 2000
    CLOSED_DRAWS = 200

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        self.bound = []
        for _ in range(self.BOUND_DRAWS):
            m1, m2, potential, qv = verification.random_bound_configuration(rng)
            self.bound.append((m1, m2, potential, GlobalQ.explicit(qv)))
        self.closed = []
        for _ in range(self.CLOSED_DRAWS):
            m, a, qv = verification.random_coulomb_config(rng)
            self.closed.append(("coulomb_closed", m, a, PowerLawPotential.coulomb(a), GlobalQ.explicit(qv, -1.0)))
            m, b, qv = verification.random_linear_config(rng)
            self.closed.append(("linear_closed", m, b, PowerLawPotential.linear(b), GlobalQ.explicit(qv, 1.0)))
        self.anchor_q = core.q_exact(-1, QuantumState(0, 0))
        self.bytes_written = 0

    def inputs(self):
        return {
            "bound": [(m1, m2, p.terms, q.value) for m1, m2, p, q in self.bound],
            "closed": [(name, m, c, q.value) for name, m, c, _, q in self.closed],
        }

    def run_round(self) -> list[Outcome]:
        out = [self._anchor()]
        for m1, m2, potential, q in self.bound:
            sol, err, dt = _timed(lambda: core.solve_afm(m1, m2, potential, q))
            if err is not None:
                out.append(Outcome(dt, _error_failure(err, True)))
            else:
                out.append(Outcome(dt, _solution_failure(m1, m2, potential.terms, q.value, sol)))
        for name, m, coef, potential, q in self.closed:
            out.append(self._closed_item(name, m, coef, potential, q))
        return out

    def _anchor(self) -> Outcome:
        sol, err, dt = _timed(lambda: core.solve_afm(0.0, 1.0, PowerLawPotential.coulomb(1.2), self.anchor_q))
        value, tol = checks.COULOMB_AFM
        ok = err is None and abs(sol.mass - value) < tol
        return Outcome(dt, None if ok else "coulomb_afm_value", anchor=True)

    def _closed_item(self, name, m, coef, potential, q) -> Outcome:
        # looked up per call, so that a traced round sees the wrapped function
        closed, c_err, dt1 = _timed(lambda: getattr(core, name)(m, coef, q))
        generic, g_err, dt2 = _timed(lambda: core.solve_afm(0.0, m, potential, q))
        dt = dt1 + dt2
        if c_err is not None or g_err is not None:
            kinds = {checks.classify_error(e) if e is not None else "solved" for e in (c_err, g_err)}
            if kinds == {"expected"}:
                return Outcome(dt, None)
            untyped = sorted(k for k in kinds if k.startswith("error:"))
            return Outcome(dt, untyped[0] if untyped else "closed_vs_generic")
        if max(checks.rel_diff(closed.mass, generic.mass), checks.rel_diff(closed.r0, generic.r0)) > checks.CLOSED_FORM_TOL:
            return Outcome(dt, "closed_vs_generic")
        return Outcome(dt, _solution_failure(0.0, m, potential.terms, q.value, generic))


# ---------------------------------------------------------------------------


class QLadder:
    """Numeric global quantum numbers from the nonrelativistic oracle.

    Dense operator builds and eigvalsh dominate; core does almost no work.
    """

    # (p, n, l) with analytic Q; (-1, 3, 0) is the deep level whose ladder
    # reaches N = 4800, the others stop after two or three rungs.
    ANALYTIC = (
        (-1.0, 3, 0),
        (2.0, 0, 0), (2.0, 1, 0), (2.0, 0, 2), (1.0, 0, 0),
        (-1.0, 0, 2), (-1.0, 0, 3), (-1.0, 3, 3),
        (1.0, 1, 0), (-1.0, 0, 1),
    )
    # Non-analytic exponents are drawn from ranges whose ladders have a fixed
    # rung count (two rungs above p = 1.2, three in [-0.7, -0.3] for l <= 1),
    # so the seed changes the values but not the cost class.
    SEEDED = (((1.2, 3.5), (0, 0)), ((1.2, 3.5), (0, 0)), ((-0.7, -0.3), (0, 1)), ((-0.7, -0.3), (1, 1)))

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        self.analytic = [(p, QuantumState(n, l), core.q_exact(p, QuantumState(n, l)).value) for p, n, l in self.ANALYTIC]
        self.seeded = []
        for (lo, hi), (n, l) in self.SEEDED:
            p = float(rng.uniform(lo, hi))
            mu, rho = (float(x) for x in rng.uniform(0.5, 2.0, size=2))
            self.seeded.append((p, QuantumState(n, l), mu, rho))
        self.bytes_written = 0

    def inputs(self):
        return {
            "analytic": [(p, s.n, s.l) for p, s, _ in self.analytic],
            "seeded": [(p, s.n, s.l, mu, rho) for p, s, mu, rho in self.seeded],
        }

    def run_round(self) -> list[Outcome]:
        out = []
        for p, state, exact in self.analytic:
            q, err, dt = _timed(lambda: core.q_numeric(p, state, tol=checks.Q_TOL))
            failure = _error_failure(err, False) if err else (None if abs(q.value - exact) < checks.Q_TOL else "q_vs_exact")
            out.append(Outcome(dt, failure, anchor=True))
        for p, state, mu, rho in self.seeded:
            base, err1, dt1 = _timed(lambda: core.q_numeric(p, state, tol=checks.Q_TOL))
            scaled, err2, dt2 = _timed(lambda: core.q_numeric(p, state, mu=mu, rho=rho, tol=checks.Q_TOL))
            failure = None
            if err1 or err2:
                failure = _error_failure(err1 or err2, False)
            elif abs(base.value - scaled.value) >= checks.Q_TOL:
                failure = "q_depends_on_mu_rho"
            out.append(Outcome(dt1, failure if err1 else None))
            out.append(Outcome(dt2, failure))
        return out


# ---------------------------------------------------------------------------


class SseReference:
    """Semirelativistic reference eigenvalues against the AFM bounds.

    Uses the eigensolve layer differently from q-ladder: mass-dependent
    matrix functions, an eigh per mass per rung at l > 0, and Aitken ladders.
    """

    SCAN_MASSES = 6

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        s0, p1 = QuantumState(0, 0), QuantumState(0, 1)
        b = float(rng.uniform(0.1, 0.3))
        masses = sorted(float(m) for m in rng.uniform(0.0, 3.0, size=self.SCAN_MASSES))
        # (problem, Q choices, reference value and tolerance or None, anchor)
        self.problems = [
            (reference.SseProblem(0.0, 1.0, PowerLawPotential.coulomb(1.2), s0), [core.q_exact(-1, s0)],
             checks.COULOMB_REF, True),
            # the funnel is a concave function of r^2, so the p = 2 mass is a certified bound
            (reference.SseProblem(0.3, 1.5, PowerLawPotential.funnel(0.5, 0.2), p1), [core.q_exact(2, p1)],
             None, True),
        ]
        q_linear = [core.q_exact(1, s0), core.q_exact(2, s0)]
        for m in masses:
            self.problems.append((reference.SseProblem(0.0, m, PowerLawPotential.linear(b), s0), q_linear, None, False))
        self.bytes_written = 0

    def inputs(self):
        return [(p.m1, p.m2, p.potential.terms, p.state.n, p.state.l, [q.value for q in qs])
                for p, qs, _, _ in self.problems]

    def run_round(self) -> list[Outcome]:
        out = []
        for problem, q_choices, ref, anchor in self.problems:
            rows, err, dt = _timed(lambda: reference.bound_gap(problem, q_choices))
            if err is not None:
                failure = _error_failure(err, False)
            elif any(row.gap < -checks.BOUND_SLACK for row in rows):
                failure = "bound_violated"
            elif ref is not None and abs(rows[0].mass_ref - ref[0]) >= ref[1]:
                failure = "reference_value"
            else:
                failure = None
            out.append(Outcome(dt, failure, anchor))
        return out


# ---------------------------------------------------------------------------


README_BOUND = {
    "mode": "bound",
    "masses": [0.0, 1.0],
    "potential": [{"alpha": 1.2, "exponent": -1}],
    "state": {"n": 0, "l": 0},
    "q": 1.0,
}
README_SCAN = {
    "mode": "scan",
    "masses": [0.0, 1.0],
    "potential": [{"alpha": 0.2, "exponent": 1}],
    "state": {"n": 0, "l": 0},
    "scan": {"variable": "m", "start": 0.0, "stop": 1.0, "step": 0.05, "include_reference": False},
}
COULOMB_SWEEP = {
    "mode": "scan",
    "masses": [0.0, 1.0],
    "potential": [{"alpha": 1.2, "exponent": -1}],
    "state": {"n": 0, "l": 0},
    "scan": {"variable": "Q", "start": 0.65, "stop": 1.15, "step": 0.05},
}
# analytic rows only: the oracle is measured by q-ladder, here the CLI layer is
README_QTABLE = {"mode": "qtable", "qtable": {"p_values": [2, 1, -1], "states": [[0, 0], [1, 0]], "numeric": False}}
MALFORMED_KINDS = (
    "unknown_key", "mode_mismatch", "non_numeric_mass", "grid_points_below_64",
    "negative_mass", "invalid_json", "p_and_q", "unknown_suite",
)


@dataclass
class CliCall:
    argv: list
    check: object             # check(exit_code, stdout, out_text) -> failure or None
    anchor: bool = False
    out_path: str | None = None


class CliMix:
    """In-process ``cli.main`` calls on seeded configurations in the README's shapes.

    Covers config parsing and output writing.  16 of the 139 calls in a
    round are malformed configurations, two of each kind, that must exit 3.
    """

    PYTHON_BOUND = True

    BOUND_CALLS = 96
    SCANS = 8
    QTABLES = 4
    MALFORMED_EACH = 2

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        os.makedirs(workdir, exist_ok=True)
        self.workdir = workdir
        self.calls: list[CliCall] = []
        self.described = []
        self.bytes_written = 0

        self._bound(README_BOUND, "text", anchor=True)
        self._bound(README_BOUND, "json", anchor=True)
        self._scan_m(README_SCAN, anchor=True)
        self._scan_q(COULOMB_SWEEP, anchor=True)
        self._qtable(README_QTABLE, anchor=True)
        for suite in ("windows", "linear-limits"):
            self._add(["verify", "--suite", suite], None, _verify_check, anchor=True)

        for i in range(self.BOUND_CALLS):
            m1, m2, potential, qv = verification.random_bound_configuration(rng)
            config = {
                "mode": "bound",
                "masses": [m1, m2],
                "potential": [{"alpha": a, "exponent": lam} for a, lam in potential.terms],
                "q": qv,
            }
            self._bound(config, "json" if i % 2 else "text")
        for _ in range(self.SCANS):
            start, step = float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.05, 0.2))
            scan = {"variable": "m", "start": start, "stop": start + 10 * step, "step": step, "include_reference": False}
            self._scan_m({**README_SCAN, "potential": [{"alpha": float(rng.uniform(0.1, 1.0)), "exponent": 1}], "scan": scan})
            a, m = float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 3.0))
            # the grid stays 0.02 a away from the window edges a/2 and a
            scan = {"variable": "Q", "start": 0.42 * a, "stop": 0.42 * a + 14 * 0.05 * a, "step": 0.05 * a}
            self._scan_q({**COULOMB_SWEEP, "masses": [0.0, m], "potential": [{"alpha": a, "exponent": -1}], "scan": scan})
        for _ in range(self.QTABLES):
            states = [[int(n), 0] for n in sorted(rng.choice(5, size=2, replace=False))]
            self._qtable({"mode": "qtable", "qtable": {"p_values": [2, 1, -1], "states": states, "numeric": False}})
        for _ in range(self.MALFORMED_EACH):
            for kind in MALFORMED_KINDS:
                self._malformed(kind, rng)

    # -- building calls ----------------------------------------------------

    def _config_file(self, config) -> str:
        path = os.path.join(self.workdir, f"config-{len(self.calls)}.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(config if isinstance(config, str) else json.dumps(config))
        self.described.append(config)
        return path

    def _add(self, argv, config, check, anchor=False, out=False):
        if config is not None:
            argv = [argv[0], "--config", self._config_file(config), *argv[1:]]
        else:
            self.described.append(argv)
        out_path = None
        if out:
            out_path = os.path.join(self.workdir, f"out-{len(self.calls)}.csv")
            argv = [*argv, "--out", out_path]
        self.calls.append(CliCall(argv, check, anchor, out_path))

    def _bound(self, config, fmt, anchor=False):
        m1, m2 = config["masses"]
        terms = tuple((t["alpha"], t["exponent"]) for t in config["potential"])
        potential = PowerLawPotential(terms)
        q = GlobalQ.explicit(config["q"])
        sol, err, _ = _timed(lambda: core.solve_afm(m1, m2, potential, q))
        if err is not None:
            # the documented exit code for a domain error; anything else escaping is a failure anyway
            expected = 2 if checks.classify_error(err) == "expected" else None
            check = _exit_check(expected)
        else:
            check = _bound_check(fmt, m1, m2, potential.terms, q.value, sol.mass, checks.COULOMB_AFM if anchor else None)
        self._add(["bound", "--format", fmt], config, check, anchor)

    def _scan_m(self, config, anchor=False):
        b = config["potential"][0]["alpha"]
        scan = config["scan"]
        q1, q2 = core.q_exact(1, QuantumState(0)), core.q_exact(2, QuantumState(0))
        rows = []
        for i in range(int(round((scan["stop"] - scan["start"]) / scan["step"])) + 1):
            m = scan["start"] + i * scan["step"]
            rows.append([m, core.linear_closed(m, b, q1).mass, core.linear_closed(m, b, q2).mass, None,
                         core.linear_ur_expansion(m, b, q2), core.linear_nr_expansion(m, b, q2) if m > 0 else None])
        self._add(["scan"], config, _csv_check(rows), anchor, out=True)

    def _scan_q(self, config, anchor=False):
        a = config["potential"][0]["alpha"]
        m = max(config["masses"])
        scan = config["scan"]
        rows = []
        for i in range(int(round((scan["stop"] - scan["start"]) / scan["step"])) + 1):
            qv = scan["start"] + i * scan["step"]
            sol, err, _ = _timed(lambda: core.coulomb_closed(m, a, GlobalQ.explicit(qv, -1.0)))
            rows.append([qv, type(err).__name__, type(err).__name__] if err else [qv, sol.r0 * m / a, sol.mass / m])
        self._add(["scan"], config, _csv_check(rows), anchor, out=True)

    def _qtable(self, config, anchor=False):
        rows = []
        for p in config["qtable"]["p_values"]:
            for n, l in config["qtable"]["states"]:
                q = core.q_exact(p, QuantumState(n, l))
                rows.append([p, n, l, q.value, q.source, None])
        self._add(["qtable", "--format", "csv"], config, _csv_check(rows), anchor)

    def _malformed(self, kind, rng):
        m = float(rng.uniform(0.1, 3.0))
        good = {**README_BOUND, "masses": [0.0, m]}
        argv = ["bound"]
        if kind == "unknown_key":
            config = {**good, "colour": "red"}
        elif kind == "mode_mismatch":
            config = {**good, "mode": "scan"}
        elif kind == "non_numeric_mass":
            config = {**good, "masses": ["heavy", m]}
        elif kind == "grid_points_below_64":
            argv = ["reference"]
            config = {**good, "mode": "reference", "grid": {"points": int(rng.integers(8, 64)), "box_radius": 10.0}}
        elif kind == "negative_mass":
            config = {**good, "masses": [-m, m]}
        elif kind == "invalid_json":
            config = json.dumps(good)[:-1]
        elif kind == "p_and_q":
            config = {**good, "p": 2.0}
        else:  # unknown_suite
            argv, config = ["verify", "--suite", f"no-such-suite-{int(rng.integers(1000))}"], None
        self._add(argv, config, _exit_check(3))

    def inputs(self):
        return self.described

    # -- running -----------------------------------------------------------

    def run_round(self) -> list[Outcome]:
        out = []
        written = 0
        for call in self.calls:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code, err, dt = _timed(lambda: cli.main(call.argv))
            text = stdout.getvalue()
            written += len(text.encode())
            out_text = None
            if call.out_path and os.path.exists(call.out_path):
                with open(call.out_path, encoding="utf-8") as handle:
                    out_text = handle.read()
                written += len(out_text.encode())
                os.remove(call.out_path)
            failure = f"uncaught:{type(err).__name__}" if err is not None else call.check(code, text, out_text)
            out.append(Outcome(dt, failure, call.anchor))
        self.bytes_written = written
        return out


# -- CLI output checks ------------------------------------------------------


def _exit_check(expected):
    def check(code, text, out_text):
        return None if code == expected else f"exit:{code}!={expected}"
    return check


def _verify_check(code, text, out_text):
    last = text.strip().splitlines()[-1] if text.strip() else ""
    done, _, total = last.partition(" ")[0].partition("/")
    return None if code == 0 and done and done == total else "verify_failed"


_TEXT_MASS = re.compile(r"^mass\b[^=]*=\s*(\S+)", re.M)
_TEXT_R0 = re.compile(r"\br0\s*=\s*(\S+)")


def _bound_check(fmt, m1, m2, terms, qv, mass, paper=None):
    """Exit 0, the solver's mass (and the paper's value, for the README config), a local minimum."""
    def check(code, text, out_text):
        if code != 0:
            return f"exit:{code}!=0"
        if fmt == "json":
            record = json.loads(text)
            printed = record["mass"]
            if checks.rel_diff(printed, mass) > checks.RESIDUAL_TOL:
                return "output"
            r0 = record["r0"]
            if checks.worst_residual(m1, m2, terms, qv, r0, record["p0"], printed) > checks.RESIDUAL_TOL:
                return "residual"
        else:
            found_mass, found_r0 = _TEXT_MASS.search(text), _TEXT_R0.search(text)
            if not (found_mass and found_r0):
                return "output"
            printed = float(found_mass.group(1))
            if checks.rel_diff(printed, mass) > checks.CSV_REL:
                return "output"
            r0 = float(found_r0.group(1))
        if paper is not None and abs(printed - paper[0]) >= paper[1]:
            return "coulomb_afm_value"
        # text prints r0 to 9 digits, so probe the balance farther from it
        return None if checks.is_local_minimum(m1, m2, terms, qv, r0, h=1e-6 if fmt == "json" else 1e-4) else "local_max"
    return check


def _csv_check(expected_rows):
    """Compare CSV rows after the header to expected values at the CSV tolerance; None skips a cell."""
    def check(code, text, out_text):
        if code != 0:
            return f"exit:{code}!=0"
        rows = list(csv.reader((out_text if out_text is not None else text).splitlines()))[1:]
        if len(rows) != len(expected_rows):
            return "row_count"
        for got, want in zip(rows, expected_rows):
            for cell, value in zip(got, want):
                if value is None:
                    continue
                if isinstance(value, str):
                    if cell != value:
                        return "output"
                elif checks.rel_diff(float(cell), float(value)) > checks.CSV_REL and abs(float(cell) - value) > 1e-12:
                    return "output"
        return None
    return check


WORKLOADS = {
    "afm-sweep": AfmSweep,
    "q-ladder": QLadder,
    "sse-reference": SseReference,
    "cli-mix": CliMix,
}
