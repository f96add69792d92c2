#!/usr/bin/env python3
"""Benchmark runner for salpeter-afm.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its ``src``.
One workload runs in this process: its seeded inputs are made, then rounds
are repeated for ``--seconds`` (at least one round), closed loop from a
single caller.  ``wall_s`` sums each item's fastest time over the rounds;
``attempted`` and ``failed`` count distinct items, so they do not depend on
how many rounds fit.  With ``--trace 0`` the last line of output is the
end-to-end result; with ``--trace 1`` the untraced rounds are followed by as
many seconds of traced rounds, and the last line holds the per-layer
metrics, each the median over the traced rounds.
``--workload all`` runs every workload in its own process and prints them
all.  Each result is also appended, with the environment, to the results
file (``.perfbench/results.jsonl`` unless ``--results`` names another).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
# Half of the fresh-interpreter starts run before the rounds and half after,
# so that one run samples the shared host at two moments.
SETUP_STARTS = 6
# What a user of the CLI pays on every start: imports plus the first solve.
SETUP_CODE = (
    "import salpeter_afm.cli\n"
    "from salpeter_afm import PowerLawPotential, core\n"
    "core.solve_afm(0.0, 1.0, PowerLawPotential.coulomb(1.2), 1.0)\n"
)
# Fastest sum of _host_probe pieces over a run in the 2-vCPU box's fast stretches (README).
PROBE_REF_S = 0.0063
PROBE_PIECES = 64


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=str(OUT / "results.jsonl"), help="JSON-lines file the result is appended to")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "salpeter_afm" / "__init__.py").is_file():
        print(f"error: no program source under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {names} or 'all'", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    # cap BLAS threads before numpy is first imported, here and in children
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return _run_all(args, names)
    return _run_one(args, spec, nproc)


def _measure_setup(starts: int) -> list[float]:
    times = []
    for _ in range(starts):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def _host_probe() -> array:
    """Seconds for each of PROBE_PIECES fixed pieces of interpreted Python that call no program code.

    On a shared host the interpreter runs up to 1.8 times slower for tens of
    seconds at a time, longer than a run; the probe slows with it.  It is cut
    into pieces of about 0.1 ms, the size of an item, so that the fastest
    time of each piece over a run is taken the way each item's is.
    """
    times = array("d")
    acc, table = 0.0, {}
    for _ in range(PROBE_PIECES):
        t0 = time.perf_counter()
        for i in range(300):
            x = 1.0 + (i % 97) * 0.01
            acc += math.hypot(x, 0.5) + x**1.7 - math.log(x)
            table[i & 255] = acc
        times.append(time.perf_counter() - t0)
    return times


def _clear_program_caches() -> None:
    """Empty every functools cache in the package, so each round starts like a fresh process."""
    for name, module in list(sys.modules.items()):
        if name.startswith("salpeter_afm") and module is not None:
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


@dataclass
class Phase:
    """What a run of rounds leaves behind.

    Every round runs the same items in the same order, so item i of one
    round is item i of every other.  A failure is kept per item, the first
    kind seen, so the failure count does not grow with the number of rounds.
    """

    walls: list = field(default_factory=list)
    rounds: list = field(default_factory=list)      # one array of item seconds per round
    failures: dict = field(default_factory=dict)    # item index -> failure kind
    anchor_failed: bool = False
    probes: list = field(default_factory=list)      # one _host_probe array after each round

    @property
    def items(self) -> int:
        return len(self.rounds[0])

    def latencies(self) -> array:
        return array("d", (dt for one in self.rounds for dt in one))

    def item_fastest_s(self) -> float:
        """Sum over the items of each item's fastest time over the rounds.

        A round measures the host as well as the program: on a shared host
        another tenant's burst lands in some rounds and not in others.  An
        item's fastest time is its cost with the least interference.
        """
        return _fastest_sum(self.rounds)

    def probe_fastest_s(self) -> float:
        return _fastest_sum(self.probes)


def _fastest_sum(rows) -> float:
    """Sum over the columns of the column's smallest value."""
    return math.fsum(min(column) for column in zip(*rows))


def _rounds(workload, seconds: float, after_round=None, probe: bool = False) -> Phase:
    """Repeat rounds while another one is expected to fit in the time; at least one.

    With ``probe``, the host probe runs after every round, outside the round's time.
    """
    phase = Phase()
    start = time.perf_counter()
    while True:
        _clear_program_caches()
        t0 = time.perf_counter()
        outcomes = workload.run_round()
        phase.walls.append(time.perf_counter() - t0)
        phase.rounds.append(array("d", (o.seconds for o in outcomes)))
        for i, o in enumerate(outcomes):
            if o.failure is not None:
                phase.failures.setdefault(i, o.failure)
                phase.anchor_failed |= o.anchor
        if probe:
            phase.probes.append(_host_probe())
        if after_round is not None:
            after_round()
        if time.perf_counter() - start + statistics.median(phase.walls) > seconds:
            return phase


def _run_one(args, spec, nproc) -> int:
    import summary
    import workloads
    from salpeter_afm import cli, core, oracle, reference, verification

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        setup = [] if args.trace else _measure_setup(SETUP_STARTS // 2)
        workload = workloads.WORKLOADS[args.workload](args.seed, str(workdir))
        probed = getattr(workload, "PYTHON_BOUND", False)
        phase = _rounds(workload, args.seconds, probe=probed)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if not args.trace:
            setup += _measure_setup(SETUP_STARTS - SETUP_STARTS // 2)
        # attempted and failed count distinct items: each is run once per round
        attempted, failed = phase.items, len(phase.failures)
        result = {"correct": not phase.anchor_failed, "attempted": attempted, "failed": failed}
        wall_s = phase.item_fastest_s()
        # interpreted-Python workloads in the host's reference state; the ladders are BLAS-bound
        host_factor = PROBE_REF_S / phase.probe_fastest_s() if probed else 1.0
        latencies = phase.latencies()
        item_tail = summary.tail(latencies, attempted)
        extra = {
            "rounds": len(phase.walls),
            "round_walls_s": phase.walls,
            "fastest_round_s": min(phase.walls),
            "wall_s": wall_s,
            "probe_fastest_s": phase.probe_fastest_s() if probed else None,
            "host_factor": host_factor,
            "items_per_round": attempted,
            "failed_ratio": failed / attempted,
            "failures": dict(sorted(Counter(phase.failures.values()).items())),
            "item_p50_ms": 1e3 * statistics.median(latencies),
            "item_tail": None if item_tail is None else
            {"percentile": item_tail[0], "value_ms": 1e3 * item_tail[1], "samples_beyond": item_tail[2]},
        }
        if args.trace:
            modules = {"core": core, "oracle": oracle, "reference": reference, "verification": verification, "cli": cli}
            values = _traced_phase(workload, modules, args, wall_s)
            listed = spec["per_layer"]
        else:
            values = {"wall_ref_s": wall_s * host_factor, "setup_s": statistics.median(setup), "peak_rss_mb": peak_rss_mb}
            extra["setup_starts_s"] = setup
            listed = spec["end_to_end"]
        result["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "env": summary.environment(str(ROOT), nproc), "result": result, "extra": extra}
    os.makedirs(os.path.dirname(os.path.abspath(args.results)), exist_ok=True)
    with open(args.results, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")
    _print_human(args.workload, result, extra)
    print(json.dumps(result))
    return 0


def _traced_phase(workload, modules, args, untraced_wall: float) -> dict:
    """Rounds with every entry point wrapped; each per-layer metric is the median over rounds.

    trace.overhead_ratio compares the fastest traced round with the fastest
    untraced one.  The spans of the first traced round are written to .perfbench/.
    """
    import spans

    recorder = spans.Recorder()
    sine = getattr(modules["oracle"], "sine_transform_matrix", None)
    per_round, first = [], []

    def after_round():
        info = sine.cache_info() if hasattr(sine, "cache_info") else None
        round_spans = recorder.take()
        if not first:
            first.extend(round_spans)
        per_round.append(spans.layer_metrics(
            round_spans, (info.hits, info.misses) if info else (0, 0), workload.bytes_written))

    undo = spans.install(recorder, modules)
    try:
        traced = _rounds(workload, args.seconds, after_round)
    finally:
        undo()
    spans.dump(first, str(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"))
    values = {name: statistics.median(m[name] for m in per_round) for name in per_round[0]}
    values["trace.overhead_ratio"] = traced.item_fastest_s() / untraced_wall
    return values


def _print_human(workload: str, result: dict, extra: dict) -> None:
    print(f"== {workload}: {extra['rounds']} round(s) of {extra['items_per_round']} items, "
          f"correct={result['correct']}")
    for name, m in result["metrics"].items():
        print(f"  {name:<36} {m['value']:.6g} {m['unit']}")
    print(f"  {'wall_s':<36} {extra['wall_s']:.6g} s (host factor {extra['host_factor']:.4g})")
    print(f"  {'item_p50_ms':<36} {extra['item_p50_ms']:.6g} ms")
    print(f"  {'failed_ratio':<36} {extra['failed_ratio']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} items)")
    tail = extra["item_tail"]
    if tail is None:
        print(f"  {'item_tail_ms':<36} - (too few items for a tail)")
    else:
        print(f"  {'item_tail_ms':<36} {tail['value_ms']:.6g} ms "
              f"(p{tail['percentile']:g}, {tail['samples_beyond']} samples beyond)")
    for kind, count in extra["failures"].items():
        print(f"  failure {kind}: {count}")


def _run_all(args, names) -> int:
    """Each workload in its own process; print every result, then one combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--results", args.results]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
