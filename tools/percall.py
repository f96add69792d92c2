"""Per-call timing of core.solve_afm on the afm-sweep draws of one seed.

Usage: python tools/percall.py [SRC] [SEED] [PASSES]

SRC is the source tree to import salpeter_afm from (default: this
checkout's src), SEED the draw seed (default 1835) and PASSES the number
of timed passes (default 15).  The draws are those of perfbench's
afm-sweep workload for the seed, taken from its AfmSweep class in this
checkout's perfbench: the seeded bound configurations, then for each
closed-form draw the generic solve of a Coulomb (0, m) and of a linear
(0, m) configuration.  Each call is timed alone in every pass and keeps
its fastest time; the mean of those is printed per class as JSON:

- "lam>=-1": the bound draws with every active exponent >= -1 and the
  linear solves;
- "lam<-1": the bound draws with an exponent below -1;
- "coulomb": the Coulomb (0, m) solves.

After the timed passes each call runs once more with the balance counted:
"evals" is the mean number of scalar evaluations per call, of the balance
from core._virial_balance and, where the tree has it, of
core._balance_parts's grid points; a tree that evaluates the grid as one
array counts that as one.  "brent_evals" is the mean number of those made
inside core._brent, so the cell search made the rest.  The counting
wrappers hand the factories their arguments unchanged, so they count on a
tree whose factories take the potential's (alpha, lam) terms and on one
whose factories take the (|lam| alpha, lam + 1) table that solve_afm builds.
"""
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def draws(workloads, seed):
    """(class, m1, m2, potential, Q) of afm-sweep's generic solves for the seed, in its order."""
    sweep = workloads.AfmSweep(seed, ".")  # the workload makes no file
    out = []
    for m1, m2, potential, q in sweep.bound:
        steep = any(lam < -1.0 for _, lam in potential.active_terms())
        out.append(("lam<-1" if steep else "lam>=-1", m1, m2, potential, q))
    for name, m, _, potential, q in sweep.closed:
        out.append(("coulomb" if name == "coulomb_closed" else "lam>=-1", 0.0, m, potential, q))
    return out


def solve(package, args):
    """package.core.solve_afm(*args); a typed error counts as a call like any other."""
    try:
        package.core.solve_afm(*args)
    except package.AfmError:
        pass


def count_evaluations(package, items):
    """(scalar balance evaluations, those inside core._brent) per item, with the counting wrappers in place."""
    core, counter, in_brent = package.core, [0], [0]

    def counting(factory):
        def make(*args):
            inner = factory(*args)

            def evaluate(*x):
                counter[0] += 1
                return inner(*x)

            return evaluate

        return make

    def brent(f, *args, **kwargs):
        def evaluate(x):
            in_brent[0] += 1
            return f(x)

        return saved["_brent"](evaluate, *args, **kwargs)

    names = [name for name in ("_virial_balance", "_balance_parts") if hasattr(core, name)]
    saved = {name: getattr(core, name) for name in [*names, "_brent"]}
    for name in names:
        setattr(core, name, counting(saved[name]))
    core._brent = brent
    try:
        counts = []
        for _, *args in items:
            counter[0] = in_brent[0] = 0
            solve(package, args)
            counts.append((counter[0], in_brent[0]))
    finally:
        for name, value in saved.items():
            setattr(core, name, value)
    return counts


def main(argv):
    src = Path(argv[1]).resolve() if len(argv) > 1 else ROOT / "src"
    seed = int(argv[2]) if len(argv) > 2 else 1835
    passes = int(argv[3]) if len(argv) > 3 else 15
    sys.path.insert(0, str(src))
    import salpeter_afm as package

    sys.path.insert(0, str(ROOT / "perfbench"))  # perfbench's modules import each other from there
    import workloads

    items = draws(workloads, seed)
    best = [float("inf")] * len(items)
    clock, solve_afm, error = time.perf_counter, package.core.solve_afm, package.AfmError
    for _ in range(passes):
        for n, (_, *args) in enumerate(items):
            start = clock()
            try:
                solve_afm(*args)
            except error:
                pass
            elapsed = clock() - start
            if elapsed < best[n]:
                best[n] = elapsed
    counts = count_evaluations(package, items)
    report = {}
    for name in ("lam>=-1", "lam<-1", "coulomb"):
        picked = [n for n, item in enumerate(items) if item[0] == name]
        report[name] = {
            "calls": len(picked),
            "us": round(1e6 * sum(best[n] for n in picked) / len(picked), 2),
            "evals": round(sum(counts[n][0] for n in picked) / len(picked), 2),
            "max_evals": max(counts[n][0] for n in picked),
            "brent_evals": round(sum(counts[n][1] for n in picked) / len(picked), 2),
        }
    print(json.dumps(report))


if __name__ == "__main__":
    main(sys.argv)
