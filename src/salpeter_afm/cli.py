"""Command-line front end: bound | reference | scan | qtable | verify.

Configuration is a single JSON document, with command-line flags laid over
it; all quantities are GeV-based natural units.  Exit codes: 0 success,
1 verification failure, 2 domain error (any AfmError: no bound state,
collapse, no convergence, ...), 3 bad configuration or usage.

The oracle, the reference and the verification suites are imported by the
first verb that needs them, and numpy and scipy by the first call that does:
``bound`` with an explicit Q or an analytic one (p = 2, 1 or -1), the ``scan``
sweeps without the reference column, the analytic ``qtable`` and ``verify``
of the ``windows`` and ``linear-limits`` suites run on floats alone; the
``closed-forms`` and ``residuals`` suites draw their configurations with
numpy; scipy is loaded by the first ladder: ``reference``, the reference
column of a mass ``scan``, a numeric Q and the ``coulomb-paper``, ``bounds``
and ``qtable`` suites.
"""
from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
import re
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
_FLOAT_MAX = sys.float_info.max


class ConfigError(ValueError):
    """Raised for malformed or inconsistent run configuration."""


# ---------------------------------------------------------------------------
# configuration and output


def _check(node, schema, path: tuple = ()) -> None:
    """Raise ConfigError, naming the path, where node departs from schema.

    A number is an int or a float but not a boolean, which Python would read
    as 0 or 1, and fits a finite double: 1e400 reads as inf, a 400-digit
    integer does not fit, and NaN or Infinity is not JSON.
    """
    if isinstance(schema, dict):
        if not isinstance(node, dict):
            raise ConfigError(f"{_where(path)} must be a JSON object")
        for key, child in node.items():
            if key not in schema:
                raise ConfigError(f"unknown key {key!r} in {_where(path)}")
            _check(child, schema[key], (path, key))
    elif isinstance(schema, list):
        if not isinstance(node, list):
            raise ConfigError(f"{_where(path)} must be a list")
        for i, item in enumerate(node):
            _check(item, schema[0], (path, i))
    elif schema is float:
        if isinstance(node, bool) or not isinstance(node, (int, float)) or not abs(node) <= _FLOAT_MAX:
            raise ConfigError(f"{_where(path)} must be a finite number")
    elif not isinstance(node, schema):
        raise ConfigError(f"{_where(path)} must be {'true or false' if schema is bool else 'a string'}")


def _where(path: tuple) -> str:
    """The name at the end of a (parent, key) path: configuration.state.n for (((), "state"), "n")."""
    if not path:
        return "configuration"
    return _where(path[0]) + (f"[{path[1]}]" if isinstance(path[1], int) else f".{path[1]}")


def load_config(verb: str, flags: dict[str, str]) -> dict:
    """Read the --config file, check its keys and values, and lay the other flags over it.

    An optional ``mode`` key must name the verb being run, ``p`` and ``q``
    exclude each other, and the output format must be one the verb writes.
    """
    config, path = {}, flags.get("config")
    if path:
        try:
            with open(path, "rb", buffering=0) as handle:  # one read and one decode, no text layer
                text = handle.read().decode("utf-8")
            # line ends as a text-mode read gives them, and with them the reader's error positions
            config = json.loads(text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text)
        except (OSError, ValueError) as err:
            raise ConfigError(f"cannot read configuration {path}: {err}") from None
    _check(config, SCHEMA)
    if "p" in config and "q" in config:
        raise ConfigError("give either the auxiliary exponent p or an explicit Q, not both")
    if config.get("mode", verb) != verb:
        raise ConfigError(f"configuration mode {config['mode']!r} does not match command {verb!r}")
    config.update((name, value) for name, value in flags.items() if name != "config")
    formats = VERBS[verb][1]
    if config.get("format", formats[0]) not in formats:
        raise ConfigError(f"{verb} writes only {', '.join(formats)}")
    return config


class _ConfigValues(contextlib.AbstractContextManager):
    """Report a KeyError, TypeError or ValueError raised while building domain
    objects from configuration values as a bad configuration."""

    def __exit__(self, kind, err, traceback):
        if isinstance(err, (KeyError, TypeError, ValueError)):
            raise ConfigError(f"missing key {err}" if isinstance(err, KeyError) else str(err)) from None


_config_values = _ConfigValues()


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
            with open(out_path, "wb") as handle:  # one encode, no text layer
                handle.write(text.encode("utf-8"))
        except OSError as err:
            raise ConfigError(f"cannot write {out_path}: {err}") from None
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# commands


def cmd_bound(config: dict) -> int:
    with _config_values:
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
    reason = core.concavity_certificate(potential, q.p).reason
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
        _emit(json.dumps(record) + "\n", config)
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

    with _config_values:
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
    return [start + i * step for i in range(math.floor(max(span, -1.0)) + 1)]  # a stop below start: no point


def _single_term(potential: PowerLawPotential, exponent: float, what: str) -> float:
    active = potential.active_terms()
    if len(active) != 1 or active[0][1] != exponent:
        raise ConfigError(f"{what} requires a single potential term with exponent {exponent:g}")
    return active[0][0]


def cmd_scan(config: dict) -> int:
    with _config_values:
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
    with _config_values:
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
        row.append(_fmt(core.linear_closed_mass(m, b, q1)) if q1 is not None else "n/a")
        row.append(_fmt(core.linear_closed_mass(m, b, q2)))
        if include_ref:
            from . import reference  # numpy, and scipy at its ladder, which the other columns do without

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
    with _config_values:
        m = max(_masses(config))
    if m <= 0:
        raise ConfigError("the Q sweep needs one positive mass")
    with _config_values:
        qs = [GlobalQ.explicit(qv, -1.0) for qv in values]
    writer.writerow(["Q", "r0_am", "M_over_m"])
    for qv, q in zip(values, qs):
        try:
            sol = core.coulomb_closed(m, a, q)
            radius = sol.r0 * m / a
            if not 0.0 < radius < math.inf:  # r0 m alone leaves the double range, r0 m/a does not
                radius = sol.r0 / a * m
            writer.writerow([_fmt(qv), _fmt(radius), _fmt(sol.mass / m)])
        except AfmError as err:
            writer.writerow([_fmt(qv), type(err).__name__, type(err).__name__])


def cmd_qtable(config: dict) -> int:
    # inside the block, q_numeric rejects an exponent p <= -2 or p == 0 with a ValueError
    with _config_values:
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
        _emit(json.dumps(payload) + "\n", config)
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
        _emit(json.dumps([dataclasses.asdict(r) for r in results]) + "\n", config)
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


ABOUT = "Variational upper bounds and reference eigenvalues for the two-body spinless Salpeter equation (GeV units)."
FLAG_HELP = {"config": "path to a JSON configuration", "out": "write output to this path instead of stdout",
             "format": "output format", "suite": "suite name (default: all)"}


def _options(verb: str | None) -> dict[str, str]:
    """Each option string of a verb (None: of the top level) with its flag, "" for help: --config,
    required but for verify, --out, --format where the verb writes more than one format, verify --suite."""
    names = ["config", "out"] + ["format"] * (len(VERBS[verb][1]) > 1) + ["suite"] * (verb == "verify") if verb else []
    return {"-h": "", "--help": "", **{f"--{name}": name for name in names}}


OPTIONS = {verb: _options(verb) for verb in (None, *VERBS)}  # built once, read by every call


def _usage(verb: str | None, full: bool = False) -> str:
    """The usage line of the top level (verb None) or of a verb; with full, its help text."""
    choices = "{" + ",".join(VERBS[verb][1] if verb else VERBS) + "}"
    flags = [(f"--{n} {choices if n == 'format' else n.upper()}", FLAG_HELP[n]) for n in OPTIONS[verb].values() if n]
    specs = [s if s.startswith("--config") and verb != "verify" else f"[{s}]" for s, _ in flags]
    usage = " ".join(["usage: salpeter-afm", verb or f"[-h] {choices} ...", *["[-h]"] * bool(verb), *specs])
    rows = (f"  {spec:<20}  {text}" for spec, text in [("-h, --help", "show this help message and exit"), *flags])
    return "\n".join([usage, *["", ABOUT] * (verb is None), "", "options:", *rows]) if full else usage


def _read(arg: str, options: dict[str, str]) -> tuple[str, str | None] | None:
    """How argparse reads arg: None as a value, else (its option string, "" if unknown; a value given with =)."""
    if arg in options or not arg.startswith("-") or arg in ("-", "--"):
        return (arg, None) if arg in options else None
    head, eq, value = arg.partition("=")
    matches = [o for o in options if o.startswith(head)] if arg.startswith("--") else []
    if len(matches) == 1:  # the flag itself, or a unique prefix such as --fo
        return matches[0], value if eq else None
    return None if re.match(r"^-\d+$|^-\d*\.\d+$", arg) or " " in arg else ("", None)


def parse_argv(argv: list[str]) -> tuple[str, dict[str, str]]:
    """The verb of a command line and its flags, {name: value} for those given, read as argparse reads them:
    --flag value or --flag=value, a unique prefix such as --fo, the last value of a repeated flag, and "-" or
    a negative number as a value.  -h/--help prints help and exits 0; a usage error raises ConfigError."""
    args, extras, flags, verb, options = list(argv), [], {}, None, OPTIONS[None]
    try:
        while args:
            arg = args.pop(0)
            read = _read(arg, options)
            if arg == "--" and verb:  # what follows is no flag
                args, extras = [], [*extras, arg, *args]
            elif read is None and verb is None:  # the first value names the verb
                if arg not in VERBS:
                    choices = ", ".join(map(repr, VERBS))
                    raise ConfigError(f"argument command: invalid choice: {arg!r} (choose from {choices})")
                verb, options = arg, OPTIONS[arg]
            elif read is None or not read[0]:
                extras.append(arg)
            elif not options[read[0]]:  # -h/--help
                if read[1] is not None:
                    raise ConfigError(f"argument -h/--help: ignored explicit argument {read[1]!r}")
                sys.stdout.write(_usage(verb, full=True) + "\n")
                raise SystemExit(0)
            else:
                (option, value), formats = read, VERBS[verb][1]
                if value is None:
                    if not args or args[0] == "--" or _read(args[0], options) is not None:
                        raise ConfigError(f"argument {option}: expected one argument")
                    value = args.pop(0)
                if option == "--format" and value not in formats:
                    choices = ", ".join(map(repr, formats))
                    raise ConfigError(f"argument --format: invalid choice: {value!r} (choose from {choices})")
                flags[options[option]] = value
        if verb is None or ("config" not in flags and verb != "verify"):
            raise ConfigError(f"the following arguments are required: {'--config' if verb else 'command'}")
        if extras:
            raise ConfigError(f"unrecognized arguments: {' '.join(extras)}")
    except ConfigError as err:
        raise ConfigError(f"{err}\n{_usage(verb)}") from None
    return verb, flags


def main(argv: list[str] | None = None) -> int:
    try:
        verb, flags = parse_argv(sys.argv[1:] if argv is None else argv)
        return VERBS[verb][0](load_config(verb, flags))
    except ConfigError as err:
        sys.stderr.write(f"configuration error: {err}\n")
        return 3
    except AfmError as err:
        sys.stderr.write(f"error: {err}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
