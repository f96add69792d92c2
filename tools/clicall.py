"""Per-call timing and output digests of in-process cli.main in the README's call shapes.

Usage: python tools/clicall.py [SRC]

SRC is the source tree to import salpeter_afm from (default: this
checkout's src).  The shapes are the README's command lines on its
configurations:

- "bound-text" and "bound-json": the Coulomb bound, without and with
  --format json;
- "scan-mass" and "scan-q": the linear mass scan (without the reference
  column, as perfbench's cli-mix runs it) and the Coulomb Q sweep, each
  with --out;
- "qtable-csv": the analytic quantum-number table with --format csv;
- "verify-windows": verify --suite windows;
- "malformed": the bound configuration with an unknown key (exit 3).

Each of 30 passes first empties every functools cache of the package, as
a perfbench round does to start like a fresh process, then calls each
shape 5 times, each call timed alone.  After each call its --out file is
read and deleted, as perfbench's cli-mix does, so every call writes a new
file.  Printed as JSON per shape: its exit code, "cold_us", the fastest
first call after the caches were emptied, "warm_us", the fastest later
call, in microseconds, and "sha256", the digest of what the call left:
its exit code, stdout, --out text and stderr (a list of digests if the
calls of a shape differ).  Run on two trees, the numbers compare one
command line's cost on each, and equal digests show equal output.

Then cli-mix rounds of perfbench's seeds 1-6 are built (from this
checkout's perfbench) and each of their calls is run once; "cli-mix seed N"
holds the number of calls and one digest over all of them in order.

Every call runs in a temporary directory under the checkout's .perfbench,
where cli-mix writes its own files, so that making a file costs what it
costs there: on one 2-core host a new file took ~300 us in the system's
temporary directory and ~12 us there.  The calls name their files by
relative paths, so the digests do not depend on where that directory is.
"""
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import time
from pathlib import Path

PASSES = 30
CALLS = 5
MIX_SEEDS = range(1, 7)
ROOT = Path(__file__).resolve().parents[1]

BOUND = {
    "mode": "bound",
    "masses": [0.0, 1.0],
    "potential": [{"alpha": 1.2, "exponent": -1}],
    "state": {"n": 0, "l": 0},
    "q": 1.0,
}
SCAN_MASS = {
    "mode": "scan",
    "masses": [0.0, 1.0],
    "potential": [{"alpha": 0.2, "exponent": 1}],
    "state": {"n": 0, "l": 0},
    "scan": {"variable": "m", "start": 0.0, "stop": 1.0, "step": 0.05, "include_reference": False},
}
SCAN_Q = {
    "mode": "scan",
    "masses": [0.0, 1.0],
    "potential": [{"alpha": 1.2, "exponent": -1}],
    "scan": {"variable": "Q", "start": 0.5, "stop": 1.3, "step": 0.1},
}
QTABLE = {"mode": "qtable", "qtable": {"p_values": [2, 1, -1], "states": [[0, 0], [1, 0]], "numeric": False}}
MALFORMED = dict(BOUND, colour="red")
OUT = "out.csv"


def shapes() -> dict[str, list[str]]:
    """The call shapes, their configurations written to the current directory."""
    def config(name, payload):
        Path(f"{name}.json").write_text(json.dumps(payload))
        return ["--config", f"{name}.json"]

    return {
        "bound-text": ["bound", *config("bound", BOUND)],
        "bound-json": ["bound", *config("bound", BOUND), "--format", "json"],
        "scan-mass": ["scan", *config("scan-mass", SCAN_MASS), "--out", OUT],
        "scan-q": ["scan", *config("scan-q", SCAN_Q), "--out", OUT],
        "qtable-csv": ["qtable", *config("qtable", QTABLE), "--format", "csv"],
        "verify-windows": ["verify", "--suite", "windows"],
        "malformed": ["bound", *config("malformed", MALFORMED)],
    }


def clear_caches() -> None:
    """Empty every functools cache in the package, as perfbench's rounds do."""
    for name, module in list(sys.modules.items()):
        if name.startswith("salpeter_afm") and module is not None:
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def call(cli, argv: list[str], out_path: str | None) -> tuple[float, int, bytes]:
    """One timed cli.main call: its time in microseconds, its exit code, and what it
    left (exit code, stdout, --out text, stderr), after which the --out file is deleted."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = (time.perf_counter() - start) * 1e6
    out_text = b""
    if out_path and os.path.exists(out_path):
        out_text = Path(out_path).read_bytes()
        os.remove(out_path)
    parts = [str(code).encode(), stdout.getvalue().encode(), out_text, stderr.getvalue().encode()]
    return elapsed, code, b"".join(len(part).to_bytes(8, "big") + part for part in parts)


def time_shapes(cli) -> dict:
    calls = shapes()
    report = {name: {"exit": None, "cold_us": float("inf"), "warm_us": float("inf")} for name in calls}
    digests = {name: [] for name in calls}
    for _ in range(PASSES):
        clear_caches()
        for name, argv in calls.items():
            for i in range(CALLS):
                elapsed, code, left = call(cli, argv, OUT if "--out" in argv else None)
                entry = report[name]
                entry["exit"] = code
                key = "cold_us" if i == 0 else "warm_us"
                entry[key] = min(entry[key], round(elapsed, 1))
                digest = hashlib.sha256(left).hexdigest()
                if digest not in digests[name]:
                    digests[name].append(digest)
    for name, found in digests.items():
        report[name]["sha256"] = found[0] if len(found) == 1 else found
    return report


def digest_mix(cli, workloads, seed: int) -> dict:
    """Every call of cli-mix's round for the seed, run once, as one digest."""
    mix = workloads.CliMix(seed, f"mix-{seed}")
    clear_caches()
    total = hashlib.sha256()
    for item in mix.calls:
        total.update(call(cli, item.argv, item.out_path)[2])
    return {"calls": len(mix.calls), "sha256": total.hexdigest()}


def main(argv):
    src = Path(argv[1]).resolve() if len(argv) > 1 else ROOT / "src"
    sys.path.insert(0, str(src))
    from salpeter_afm import cli

    (ROOT / ".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
        home = os.getcwd()
        os.chdir(tmp)
        try:
            report = time_shapes(cli)
            sys.path.insert(0, str(ROOT / "perfbench"))  # perfbench's modules import each other from there
            import workloads

            for seed in MIX_SEEDS:
                report[f"cli-mix seed {seed}"] = digest_mix(cli, workloads, seed)
        finally:
            os.chdir(home)
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    main(sys.argv)
