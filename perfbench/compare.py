#!/usr/bin/env python3
"""Compare two result sets written by run.py.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each argument is a results file (JSON lines, one record per run).  Runs are
paired by workload and seed.  For every (workload, metric) the table gives
each side's median and quartiles and a verdict:

  gain        the change wins at least 9 in 10 pairs and the medians differ
              by more than the base's quartile spread;
  no-worse    not a gain, and the change's median is no worse than the
              base's by more than the metric's bound;
  worse       worse than that bound;
  unresolved  the base's own spread is wider than the bound (unless every
              change run beats every base run), or the metric has no bound.

End-to-end metrics come from --trace 0 runs, per-layer ones from --trace 1
runs.  A gain on a workload where the change failed more items than the
base is marked void.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import summary

SPEC = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
# reported by every run next to the gated metrics; no bound
EXTRA = {
    "wall_s": ("s", "lower"), "failed_ratio": ("ratio", "lower"),
    "item_p50_ms": ("ms", "lower"), "item_tail_ms": ("ms", "lower"),
}


def load(path: str) -> dict:
    """{(trace, workload, metric): {seed: [values]}} plus failed/attempted per workload."""
    table, failures = {}, {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            rec = json.loads(line)
            key = (rec["trace"], rec["workload"])
            values = {name: m["value"] for name, m in rec["result"]["metrics"].items()}
            if rec["trace"] == 0:
                values["wall_s"] = rec["extra"].get("wall_s")
                values["failed_ratio"] = rec["extra"]["failed_ratio"]
                values["item_p50_ms"] = rec["extra"].get("item_p50_ms")
                tail = rec["extra"].get("item_tail")
                values["item_tail_ms"] = tail["value_ms"] if tail else None
                done = failures.setdefault(rec["workload"], [0, 0])
                done[0] += rec["result"]["failed"]
                done[1] += rec["result"]["attempted"]
            for name, value in values.items():
                if value is not None:
                    table.setdefault((*key, name), {}).setdefault(rec["seed"], []).append(value)
    return {"table": table, "failures": failures}


def verdict(base: dict, change: dict, better: str, bound: float | None) -> tuple[str, int, int]:
    """(verdict, wins, pairs) for two {seed: [values]} maps of one metric."""
    sign = 1.0 if better == "lower" else -1.0
    b_all = [v for vs in base.values() for v in vs]
    c_all = [v for vs in change.values() for v in vs]
    b_q1, b_med, b_q3 = summary.quartiles(b_all)
    _, c_med, _ = summary.quartiles(c_all)
    seeds = sorted(set(base) & set(change))
    pair_diffs = [sign * (summary.quartiles(change[s])[1] - summary.quartiles(base[s])[1]) for s in seeds]
    wins = sum(1 for d in pair_diffs if d < 0)
    if seeds and wins >= 0.9 * len(seeds) and sign * (c_med - b_med) < 0 and abs(c_med - b_med) > b_q3 - b_q1:
        return "gain", wins, len(seeds)
    if bound is None or b_med == 0:
        return "unresolved", wins, len(seeds)
    every_run_better = max(sign * v for v in c_all) < min(sign * v for v in b_all)
    if (b_q3 - b_q1) / abs(b_med) > bound and not every_run_better:
        return "unresolved", wins, len(seeds)
    worse_by = sign * (c_med - b_med) / abs(b_med)
    return ("no-worse" if worse_by <= bound else "worse"), wins, len(seeds)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    metrics = {m["name"]: (0, m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]}
    metrics.update({name: (0, unit, better, None) for name, (unit, better) in EXTRA.items()})
    metrics.update({m["name"]: (1, m["unit"], m["better"], None) for m in spec["per_layer"]})
    base, change = load(argv[0]), load(argv[1])
    print(f"{'workload':<14} {'metric':<34} {'unit':<6} {'base median [q1, q3]':<32} "
          f"{'change median [q1, q3]':<32} {'wins':>7}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        b_fail, c_fail = base["failures"].get(workload), change["failures"].get(workload)
        more_failures = bool(b_fail and c_fail and c_fail[0] / c_fail[1] > b_fail[0] / b_fail[1])
        for name, (trace, unit, better, bound) in metrics.items():
            key = (trace, workload, name)
            if key not in base["table"] or key not in change["table"]:
                continue
            b, c = base["table"][key], change["table"][key]
            result, wins, pairs = verdict(b, c, better, bound)
            if result == "gain" and more_failures:
                result = "gain (void: more failures)"
            cols = []
            for side in (b, c):
                q1, med, q3 = summary.quartiles([v for vs in side.values() for v in vs])
                cols.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}]")
            print(f"{workload:<14} {name:<34} {unit:<6} {cols[0]:<32} {cols[1]:<32} {wins:>3}/{pairs:<3}  {result}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
