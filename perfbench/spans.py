"""Span recorder and the per-layer metrics computed from its spans.

The recorder wraps the program's public entry points from outside (it swaps
module attributes and restores them afterwards), so the program itself is
not changed.  Spans are kept in memory and written out once, at the end of
the run.  A layer is a package module; a span belongs to the layer of its
name, and an eigensolve span is attributed to the layer of its parent span.
"""
from __future__ import annotations

import functools
import json
import os
import time
from dataclasses import dataclass, field

import checks
from salpeter_afm.errors import AfmError

# Flops counted per dense symmetric eigensolve: 4/3 N^3 is the leading term
# of the Householder tridiagonalisation that both eigvalsh and eigh perform.
EIGEN_FLOPS_PER_N3 = 4.0 / 3.0

# module -> {attribute: span name}.  reference imports sine_transform_matrix
# by name, so that binding is wrapped separately.  Missing attributes are
# skipped, so the recorder keeps working when an entry point is removed.
ENTRY_POINTS = {
    "core": {
        "solve_afm": "core.solve_afm",
        "q_numeric": "core.q_numeric",
        "q_exact": "core.q_exact",
        "coulomb_closed": "core.closed",
        "linear_closed": "core.closed",
        "coulomb_symmetric": "core.closed",
        "linear_symmetric_massless": "core.closed",
        "linear_ur_expansion": "core.closed",
        "linear_nr_expansion": "core.closed",
    },
    "oracle": {
        "nr_energy": "oracle.nr_energy",
        "nr_eigenvalue": "oracle.nr_eigenvalue",
        "sine_transform_matrix": "oracle.sine_matrix",
    },
    "reference": {
        "sse_eigenvalue": "reference.sse_eigenvalue",
        "bound_gap": "reference.bound_gap",
        "sqrt_kinetic_matrix": "reference.sqrt_kinetic",
        "sine_transform_matrix": "oracle.sine_matrix",
    },
    "verification": {"run_suite": "verification.suite"},
    "cli": {"main": "cli.main"},
}
EIGENSOLVERS = ("eigvalsh", "eigh")


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span stack for one single-threaded process."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, annotate=None):
        """Wrap fn in a span; annotate(span, args, kwargs, result) records attributes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(self.spans), self._stack[-1] if self._stack else None, name, time.perf_counter())
            self.spans.append(span)
            self._stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                span.attrs["error"] = type(err).__name__
                span.attrs["typed"] = isinstance(err, AfmError)
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if annotate is not None:
                annotate(span, args, kwargs, result)
            return result

        # an lru_cache keeps these on its C type, where functools.wraps does not look
        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a new list."""
        if self._stack:
            raise RuntimeError("cannot take spans while a span is open")
        spans, self.spans = self.spans, []
        return spans


def dump(spans: list[Span], path: str) -> None:
    """Write spans as JSON lines; attributes that are not plain values are left out."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for s in spans:
            attrs = {k: v for k, v in s.attrs.items() if isinstance(v, (int, float, str, bool))}
            handle.write(json.dumps({"id": s.id, "parent": s.parent, "name": s.name,
                                     "start": s.start, "end": s.end, "attrs": attrs}) + "\n")


# ---------------------------------------------------------------------------
# installing the wrappers


class _LinalgProxy:
    """Stands in for ``scipy.linalg`` inside one program module."""

    def __init__(self, real, recorder: Recorder):
        self._real = real
        for name in EIGENSOLVERS:
            setattr(self, name, recorder.wrap(f"linalg.{name}", getattr(real, name), _note_matrix))

    def __getattr__(self, name):
        return getattr(self._real, name)


def _note_matrix(span, args, kwargs, result):
    span.attrs["n"] = int(args[0].shape[0])


def _note_solve(span, args, kwargs, result):
    if len(args) == 4:  # the positional form every caller in the package uses
        m1, m2, potential, q = args
        span.attrs["solve"] = (m1, m2, potential.terms, getattr(q, "value", q), result.r0)


def _note_sqrt_kinetic(span, args, kwargs, result):
    if len(args) == 3:
        _, l, grid = args
        span.attrs.update(l=int(l), points=int(grid.points), box=float(grid.box_radius))


def _note_suite(span, args, kwargs, result):
    span.attrs["checks"] = len(result)
    span.attrs["passed"] = sum(bool(r.passed) for r in result)


def _note_main(span, args, kwargs, result):
    span.attrs["exit"] = result


ANNOTATIONS = {
    "core.solve_afm": _note_solve,
    "reference.sqrt_kinetic": _note_sqrt_kinetic,
    "verification.suite": _note_suite,
    "cli.main": _note_main,
}


def install(recorder: Recorder, modules: dict) -> callable:
    """Wrap the entry points of the given program modules; returns an undo function."""
    saved = []
    for mod_name, table in ENTRY_POINTS.items():
        module = modules[mod_name]
        for attr, span_name in table.items():
            fn = getattr(module, attr, None)
            if callable(fn):
                saved.append((module, attr, fn))
                setattr(module, attr, recorder.wrap(span_name, fn, ANNOTATIONS.get(span_name)))
        linalg = getattr(module, "sla", None)
        if linalg is not None and all(hasattr(linalg, n) for n in EIGENSOLVERS):
            saved.append((module, "sla", linalg))
            module.sla = _LinalgProxy(linalg, recorder)

    def undo():
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)

    return undo


# ---------------------------------------------------------------------------
# self time and per-layer metrics


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval that its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.duration - covered
    return out


def layer_metrics(spans: list[Span], cache_lookups: tuple[int, int], cli_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced round.

    cache_lookups is (hits, misses) of the sine-matrix cache over the round;
    cli_bytes is what the CLI wrote to stdout and to --out files.
    """
    own = self_times(spans)
    by_id = {s.id: s for s in spans}

    def named(name):
        return [s for s in spans if s.name == name]

    def parent_name(s):
        return by_id[s.parent].name if s.parent is not None else ""

    solves = named("core.solve_afm")
    solved = [s.attrs["solve"] for s in solves if "solve" in s.attrs]
    eig = [s for s in spans if s.name.startswith("linalg.")]
    oracle_eig = [s for s in eig if parent_name(s).startswith("oracle.")]
    oracle_rungs = [s for s in oracle_eig if parent_name(s) == "oracle.nr_energy"]
    decomp = [s for s in eig if parent_name(s) == "reference.sqrt_kinetic"]
    ref_eig = [s for s in eig if parent_name(s).startswith("reference.") and parent_name(s) != "reference.sqrt_kinetic"]
    ref_rungs = [s for s in ref_eig if parent_name(s) == "reference.sse_eigenvalue"]
    sqrt_k = named("reference.sqrt_kinetic")
    decomp_keys = [tuple(by_id[s.parent].attrs.get(k) for k in ("points", "l", "box")) for s in decomp]
    suites = named("verification.suite")
    mains = named("cli.main")
    hits, misses = cache_lookups
    exits = [s.attrs.get("exit") for s in mains]

    def total(items, key=lambda s: s.duration):
        return float(sum(key(s) for s in items))

    return {
        "core.solve_afm.calls": len(solves),
        "core.solve_afm.self_s": total(solves, lambda s: own[s.id]),
        "core.solve_afm.us_per_call": 1e6 * total(solves) / len(solves) if solves else 0.0,
        "core.solve_afm.typed_errors": sum(1 for s in solves if s.attrs.get("typed") is True),
        "core.solve_afm.untyped_errors": sum(1 for s in solves if s.attrs.get("typed") is False),
        "core.solve_afm.local_max_roots": sum(1 for a in solved if not checks.is_local_minimum(*a)),
        "core.closed.self_s": total(named("core.closed"), lambda s: own[s.id]),
        "core.q_numeric.s": total(named("core.q_numeric")),
        "oracle.nr_energy.calls": len(named("oracle.nr_energy")),
        "oracle.rungs": len(oracle_rungs),
        "oracle.max_points": max((s.attrs.get("n", 0) for s in oracle_eig), default=0),
        "oracle.eigensolve.s": total(oracle_eig),
        "oracle.eigensolve.computed_flops": sum(EIGEN_FLOPS_PER_N3 * s.attrs.get("n", 0) ** 3 for s in oracle_eig),
        "oracle.eigensolve.computed_bytes": sum(8 * s.attrs.get("n", 0) ** 2 for s in oracle_eig),
        "oracle.build.s": total(named("oracle.nr_energy"), lambda s: own[s.id]),
        "oracle.sine_matrix.s": total(named("oracle.sine_matrix")),
        "oracle.sine_matrix.lookups": hits + misses,
        "oracle.sine_matrix.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "reference.sse_eigenvalue.calls": len(named("reference.sse_eigenvalue")),
        "reference.rungs": len(ref_rungs),
        "reference.max_points": max((s.attrs.get("n", 0) for s in ref_eig), default=0),
        "reference.eigensolve.s": total(ref_eig),
        "reference.sqrt_kinetic.l0_s": total(s for s in sqrt_k if s.attrs.get("l") == 0),
        "reference.sqrt_kinetic.lpos_s": total(s for s in sqrt_k if s.attrs.get("l", 0) > 0),
        "reference.decomp.s": total(decomp),
        "reference.decomp.calls": len(decomp),
        "reference.decomp.distinct_ratio": len(set(decomp_keys)) / len(decomp) if decomp else 0.0,
        "verification.suite.s": total(suites),
        "verification.checks_passed": sum(s.attrs.get("passed", 0) for s in suites),
        "verification.checks_attempted": sum(s.attrs.get("checks", 0) for s in suites),
        "cli.main.calls": len(mains),
        "cli.main.self_s": total(mains, lambda s: own[s.id]),
        "cli.bytes_written": cli_bytes,
        "cli.exit_code.0": exits.count(0),
        "cli.exit_code.1": exits.count(1),
        "cli.exit_code.2": exits.count(2),
        "cli.exit_code.3": exits.count(3),
        "cli.uncaught": sum(1 for s in mains if "error" in s.attrs),
    }
