"""Command-line front end: bound | reference | scan | qtable | verify.

Configuration is a single JSON document, with command-line flags laid over
it; all quantities are GeV-based natural units.  Exit codes: 0 success,
1 verification failure, 2 domain error (any AfmError: no bound state,
collapse, no convergence, ...), 3 bad configuration or usage.

The oracle, the reference and the verification suites, and with them numpy
and scipy, are imported by the first verb that needs them; ``bound`` with an
explicit Q or an analytic one (p = 2, 1 or -1), the ``scan`` sweeps without
the reference column and the analytic ``qtable`` run on floats alone.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import math
import sys

from . import core
from .errors import AfmError, CollapseDetected, ConvergenceFailure, DomainError, NoBoundState, UnsupportedCase
from .types import GlobalQ, PowerLawPotential, QuantumState

# What a configuration may hold.  A dict is an object with those keys, a
# one-item list a list whose items all have that schema; the leaves are str,
# bool (the only keys that take true or false) and float, a finite number.
SCHEMA = {
    "mode": str, "suite": str, "out": str, "format": str,
    "masses": [float], "sigma": float, "p": float, "q": float,
    "potential": [{"alpha": float, "exponent": float}],
    "state": {"n": float, "l": float},
    "scan": {"variable": str, "values": [float], "start": float, "stop": float, "step": float,
             "include_reference": bool},
    "qtable": {"p_values": [float], "states": [[float]], "numeric": bool},
}

# The most points a start/stop/step scan grid may have.
SCAN_MAX_POINTS = 100_000


class ConfigError(ValueError):
    """Raised for malformed or inconsistent run configuration."""


# ---------------------------------------------------------------------------
# configuration and output


def _check(node, schema, path: str = "configuration") -> None:
    """Raise ConfigError, naming the path, where node departs from schema.

    A number is an int or a float but not a boolean, which Python would read
    as 0 or 1, and fits a finite double: 1e400 reads as inf, a 400-digit
    integer does not fit, and NaN or Infinity is not JSON.
    """
    if isinstance(schema, dict):
        if not isinstance(node, dict):
            raise ConfigError(f"{path} must be a JSON object")
        for key, child in node.items():
            if key not in schema:
                raise ConfigError(f"unknown key {key!r} in {path}")
            _check(child, schema[key], f"{path}.{key}")
    elif isinstance(schema, list):
        if not isinstance(node, list):
            raise ConfigError(f"{path} must be a list")
        for i, item in enumerate(node):
            _check(item, schema[0], f"{path}[{i}]")
    elif schema is float:
        if isinstance(node, bool) or not isinstance(node, (int, float)) or not abs(node) <= sys.float_info.max:
            raise ConfigError(f"{path} must be a finite number")
    elif not isinstance(node, schema):
        raise ConfigError(f"{path} must be {'true or false' if schema is bool else 'a string'}")


def load_config(args: argparse.Namespace) -> dict:
    """Read the --config file, check its keys and values, and lay the flags over it.

    An optional ``mode`` key must name the verb being run, ``p`` and ``q``
    exclude each other, and the output format must be one the verb writes.
    """
    verb = args.command
    config = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as handle:
                config = json.load(handle)
        except (OSError, ValueError) as err:
            raise ConfigError(f"cannot read configuration {args.config}: {err}") from None
    _check(config, SCHEMA)
    if "p" in config and "q" in config:
        raise ConfigError("give either the auxiliary exponent p or an explicit Q, not both")
    if config.get("mode", verb) != verb:
        raise ConfigError(f"configuration mode {config['mode']!r} does not match command {verb!r}")
    for dest, value in vars(args).items():
        if dest not in ("command", "config") and value is not None:
            config[dest] = value
    formats = VERBS[verb][1]
    if config.get("format", formats[0]) not in formats:
        raise ConfigError(f"{verb} writes only {', '.join(formats)}")
    return config


@contextlib.contextmanager
def _config_values():
    """Report a KeyError, TypeError or ValueError raised while building domain
    objects from configuration values as a bad configuration."""
    try:
        yield
    except KeyError as err:
        raise ConfigError(f"missing key {err}") from None
    except (TypeError, ValueError) as err:
        raise ConfigError(str(err)) from None


def _masses(config: dict) -> tuple[float, float]:
    pair = config["masses"]
    if len(pair) != 2:
        raise ConfigError("masses must be a pair [m1, m2]")
    masses = (float(pair[0]), float(pair[1]))
    if min(masses) < 0:
        raise ConfigError("masses must be non-negative")
    return masses


def _potential(config: dict) -> PowerLawPotential:
    return PowerLawPotential(tuple((t["alpha"], t["exponent"]) for t in config["potential"]))


def _state(config: dict) -> QuantumState:
    return QuantumState(config["state"].get("n", 0), config["state"].get("l", 0))


def _global_q(config: dict, potential: PowerLawPotential) -> GlobalQ:
    if "q" in config:
        active = potential.active_terms()
        p = active[0][1] if len(active) == 1 else None  # proportional auxiliary choice
        return GlobalQ.explicit(config["q"], p)
    if "p" not in config:
        raise ConfigError("give the auxiliary exponent p or an explicit q")
    p, state = float(config["p"]), _state(config)
    try:
        return core.q_exact(p, state)
    except UnsupportedCase:
        return core.q_numeric(p, state)  # a ValueError here rejects p


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _window_hint(masses: tuple[float, float], potential: PowerLawPotential, q: GlobalQ) -> str:
    active = potential.active_terms()
    if len(active) == 1 and active[0][1] == -1.0 and 0.0 in masses:
        a = active[0][0]
        side = ""
        if q.value >= a:
            side = "no binding: Q >= a; "
        elif q.value <= a / 2.0:
            side = "collapse: Q <= a/2; "
        return f" ({side}heavy-light Coulomb binds only for a/2 < Q < a; here a={a:g}, Q={q.value:g})"
    return ""


def _emit(text: str, config: dict) -> None:
    out_path = config.get("out")
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        except OSError as err:
            raise ConfigError(f"cannot write {out_path}: {err}") from None
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# commands


def cmd_bound(config: dict) -> int:
    with _config_values():
        masses = _masses(config)
        potential = _potential(config)
        q = _global_q(config, potential)
    m1, m2 = masses
    try:
        sol = core.solve_afm(m1, m2, potential, q)
    except (NoBoundState, CollapseDetected) as err:
        sys.stderr.write(f"error: {err}{_window_hint(masses, potential, q)}\n")
        return 2
    res = core.residuals(sol, m1, m2, potential, q)
    r1, r2 = core.rotation_radii(sol)
    cert = core.concavity_certificate(potential, q.p) if q.p is not None else None
    reason = cert.reason if cert is not None else "not_certified"
    if config.get("format") == "json":
        record = {
            "mass": sol.mass,
            "r0": sol.r0,
            "p0": sol.p0,
            "nu1": sol.nu1,
            "nu2": sol.nu2,
            "rotation_radii": [r1, r2],
            "q": {"value": q.value, "source": q.source, "p": q.p},
            "certified_upper_bound": sol.certified_upper_bound,
            "certificate_reason": reason,
            "residuals": {"mass": res[0], "q": res[1], "virial": res[2]},
        }
        _emit(json.dumps(record, indent=2) + "\n", config)
    else:
        lines = [
            f"mass          M   = {_fmt(sol.mass)} GeV",
            f"mean radius   r0  = {_fmt(sol.r0)} GeV^-1",
            f"mean momentum p0  = {_fmt(sol.p0)} GeV",
            f"einbein       nu1 = {_fmt(sol.nu1)} GeV",
            f"einbein       nu2 = {_fmt(sol.nu2)} GeV",
            f"radii split   r1  = {_fmt(r1)}, r2 = {_fmt(r2)} GeV^-1",
            f"global Q          = {_fmt(q.value)} [{q.describe()}]",
            f"upper bound       = {'yes' if sol.certified_upper_bound else 'no'} ({reason})",
            f"residuals         = mass {res[0]:.2e}, q {res[1]:.2e}, virial {res[2]:.2e}",
        ]
        _emit("\n".join(lines) + "\n", config)
    return 0


def cmd_reference(config: dict) -> int:
    from . import reference

    with _config_values():
        m1, m2 = _masses(config)
        sigma = float(config["sigma"]) if "sigma" in config else None
        problem = reference.SseProblem(m1, m2, _potential(config), _state(config), sigma=sigma)
    mass = reference.sse_eigenvalue(problem)
    if config.get("format") == "json":
        _emit(json.dumps({"mass": mass}) + "\n", config)
    else:
        _emit(f"reference mass M = {_fmt(mass)} GeV\n", config)
    return 0


def _scan_values(section: dict) -> list[float]:
    if "values" in section:
        return [float(v) for v in section["values"]]
    try:
        start, stop, step = (float(section[k]) for k in ("start", "stop", "step"))
    except KeyError:
        raise ConfigError("scan needs either values or start/stop/step") from None
    if not step > 0.0:
        raise ConfigError("scan step must be positive")
    span = (stop + 1e-12 * max(abs(stop), 1.0) - start) / step
    if not span < SCAN_MAX_POINTS:  # also an infinite span, which floor cannot take
        raise ConfigError(f"scan grid has more than {SCAN_MAX_POINTS} points; use a larger step or a shorter range")
    count = math.floor(span) + 1
    return [start + i * step for i in range(max(count, 0))]


def _single_term(potential: PowerLawPotential, exponent: float, what: str) -> float:
    active = potential.active_terms()
    if len(active) != 1 or active[0][1] != exponent:
        raise ConfigError(f"{what} requires a single potential term with exponent {exponent:g}")
    return active[0][0]


def cmd_scan(config: dict) -> int:
    with _config_values():
        section = config["scan"]
        potential = _potential(config)
        values = _scan_values(section)
    scans = {"m": _scan_mass, "Q": _scan_q}
    if section.get("variable") not in scans:
        raise ConfigError("scan variable must be 'm' or 'Q'")
    buffer = io.StringIO()
    scans[section["variable"]](config, potential, values, csv.writer(buffer))
    _emit(buffer.getvalue(), config)
    return 0


def _scan_mass(config: dict, potential: PowerLawPotential, values: list[float], writer) -> None:
    """Heavy-light linear scan: masses (0, m), both analytic Q choices,
    reference value, and the two expansions."""
    b = _single_term(potential, 1.0, "the mass scan")
    with _config_values():
        state = _state(config)
        include_ref = config["scan"].get("include_reference", True)
    if any(m < 0.0 for m in values):
        raise ConfigError("scan masses must be non-negative")
    core.check_mass_squares(*values)  # the reference's kinetic term and M_ur are built from m^2
    q1 = core.q_exact(1, state) if state.l == 0 else None
    q2 = core.q_exact(2, state)
    writer.writerow(["m", "M_afm_Q1", "M_afm_Q2", "M_ref", "M_ur", "M_nr"])
    for m in values:
        row = [_fmt(m)]
        row.append(_fmt(core.linear_closed(m, b, q1).mass) if q1 is not None else "n/a")
        row.append(_fmt(core.linear_closed(m, b, q2).mass))
        if include_ref:
            from . import reference  # imports scipy, which the other columns do without

            try:
                problem = reference.SseProblem(0.0, m, potential, state)
                row.append(_fmt(reference.sse_eigenvalue(problem)))
            except AfmError as err:
                row.append(type(err).__name__)
        else:
            row.append("")
        row.append(_fmt(core.linear_ur_expansion(m, b, q2)))
        row.append(_fmt(core.linear_nr_expansion(m, b, q2)) if m > 0 else "n/a")
        writer.writerow(row)


def _scan_q(config: dict, potential: PowerLawPotential, values: list[float], writer) -> None:
    """Heavy-light Coulomb sweep across the binding window, in scaled units:
    radius in a/m, mass in m."""
    a = _single_term(potential, -1.0, "the Q sweep")
    with _config_values():
        m = max(_masses(config))
    if m <= 0:
        raise ConfigError("the Q sweep needs one positive mass")
    writer.writerow(["Q", "r0_am", "M_over_m"])
    for qv in values:
        with _config_values():
            q = GlobalQ.explicit(qv, -1.0)
        try:
            sol = core.coulomb_closed(m, a, q)
            writer.writerow([_fmt(qv), _fmt(sol.r0 * m / a), _fmt(sol.mass / m)])
        except AfmError as err:
            writer.writerow([_fmt(qv), type(err).__name__, type(err).__name__])


def cmd_qtable(config: dict) -> int:
    # inside the block, q_numeric rejects an exponent p <= -2 or p == 0 with a ValueError
    with _config_values():
        section = config["qtable"]
        p_values = [float(p) for p in section["p_values"]]
        states = [QuantumState(n, l) for n, l in section["states"]]
        with_numeric = section.get("numeric", True)
        rows = []
        for p in p_values:
            for state in states:
                analytic = numeric = None
                try:
                    analytic = core.q_exact(p, state)
                except UnsupportedCase:
                    pass
                if with_numeric or analytic is None:
                    try:
                        numeric = core.q_numeric(p, state)
                    except (ConvergenceFailure, DomainError):
                        if analytic is None:
                            raise
                        # a level beyond the oracle's basis keeps its exact Q, without a cross-check
                best = analytic or numeric
                delta = abs(analytic.value - numeric.value) if analytic and numeric else None
                rows.append((p, state.n, state.l, best.value, best.describe(), delta))
    if config.get("format") == "json":
        payload = [
            {"p": p, "n": n, "l": l, "q": qv, "source": src, "cross_check": delta}
            for p, n, l, qv, src, delta in rows
        ]
        _emit(json.dumps(payload, indent=2) + "\n", config)
    elif config.get("format") == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(["p", "n", "l", "Q", "source", "cross_check"])
        for p, n, l, qv, src, delta in rows:
            writer.writerow([_fmt(p), n, l, _fmt(qv), src, _fmt(delta) if delta is not None else ""])
        _emit(buffer.getvalue(), config)
    else:
        lines = [f"{'p':>6} {'n':>3} {'l':>3} {'Q':>14}  {'source':<16} {'cross-check':>12}"]
        for p, n, l, qv, src, delta in rows:
            check = f"{delta:.2e}" if delta is not None else "-"
            lines.append(f"{p:>6g} {n:>3} {l:>3} {qv:>14.8f}  {src:<16} {check:>12}")
        _emit("\n".join(lines) + "\n", config)
    return 0


def cmd_verify(config: dict) -> int:
    from . import verification

    try:
        results = verification.run_suite(config.get("suite") or "all")
    except KeyError as err:
        raise ConfigError(str(err)) from None
    if config.get("format") == "json":
        _emit(json.dumps([dataclasses.asdict(r) for r in results], indent=2) + "\n", config)
    else:
        text = "\n".join(r.line() for r in results)
        n_fail = sum(not r.passed for r in results)
        text += f"\n{len(results) - n_fail}/{len(results)} checks passed\n"
        _emit(text, config)
    return 0 if all(r.passed for r in results) else 1


# Each verb's command and the output formats it writes; the first is the default.
VERBS = {
    "bound": (cmd_bound, ("text", "json")),
    "reference": (cmd_reference, ("text", "json")),
    "scan": (cmd_scan, ("csv",)),
    "qtable": (cmd_qtable, ("text", "csv", "json")),
    "verify": (cmd_verify, ("text", "json")),
}


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as bad configuration (exit 3); argparse itself exits 2."""

    def error(self, message):
        raise ConfigError(f"{message}\n{self.format_usage().rstrip()}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="salpeter-afm",
        description="Variational upper bounds and reference eigenvalues for the "
        "two-body spinless Salpeter equation (GeV units).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for verb, (_, formats) in VERBS.items():
        cmd = sub.add_parser(verb)
        cmd.add_argument("--config", required=verb != "verify", help="path to a JSON configuration")
        cmd.add_argument("--out", help="write output to this path instead of stdout")
        if len(formats) > 1:
            cmd.add_argument("--format", choices=formats, help="output format")
        if verb == "verify":
            cmd.add_argument("--suite", help="suite name (default: all)")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return VERBS[args.command][0](load_config(args))
    except ConfigError as err:
        sys.stderr.write(f"configuration error: {err}\n")
        return 3
    except AfmError as err:
        sys.stderr.write(f"error: {err}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
