"""Per-call timing of in-process cli.main in the README's call shapes.

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
shape 5 times, each call timed alone.  Printed as JSON per shape: its exit
code, "cold_us", the fastest first call after the caches were emptied,
and "warm_us", the fastest later call, in microseconds.  Run on two trees,
the numbers compare one command line's cost on each.
"""
import contextlib
import io
import json
import sys
import tempfile
import time
from pathlib import Path

PASSES = 30
CALLS = 5

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


def shapes(workdir: Path) -> dict[str, list[str]]:
    def config(name, payload):
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(payload))
        return ["--config", str(path)]

    out = ["--out", str(workdir / "out.csv")]
    return {
        "bound-text": ["bound", *config("bound", BOUND)],
        "bound-json": ["bound", *config("bound", BOUND), "--format", "json"],
        "scan-mass": ["scan", *config("scan-mass", SCAN_MASS), *out],
        "scan-q": ["scan", *config("scan-q", SCAN_Q), *out],
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


def main(argv):
    src = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1] / "src"
    sys.path.insert(0, str(src))
    from salpeter_afm import cli

    with tempfile.TemporaryDirectory() as tmp:
        calls = shapes(Path(tmp))
        report = {name: {"exit": None, "cold_us": float("inf"), "warm_us": float("inf")} for name in calls}
        for _ in range(PASSES):
            clear_caches()
            for name, call in calls.items():
                for i in range(CALLS):
                    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                        start = time.perf_counter()
                        code = cli.main(call)
                        elapsed = (time.perf_counter() - start) * 1e6
                    entry = report[name]
                    entry["exit"] = code
                    key = "cold_us" if i == 0 else "warm_us"
                    entry[key] = min(entry[key], round(elapsed, 1))
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    main(sys.argv)
