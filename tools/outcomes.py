"""Outcome census of core.solve_afm on two fixed families of draws.

Usage: python tools/outcomes.py [SRC]

SRC is the source tree to import salpeter_afm from (default: this
checkout's src).  The draws are fixed:

- "log-uniform": the 30 000 draws of tests/test_solver.py's
  TestSeededSearch::test_log_uniform_draws (seed 20261019), couplings,
  masses and Q over 1e-300..1e300;
- "seeded": 20 000 verification.random_bound_configuration draws (seed
  20261018).

Printed as JSON: per family the number of draws, the count of each
outcome kind ("solved", or the error's type and message with every
number replaced by #) and the largest residual of a returned solution;
then "solved_sha256", a SHA-256 over each solution's family, draw index,
r0 and mass as hex, and "errors_sha256", one over each error's family,
draw index, type and full message.  Run on two trees, equal hashes mean
the same doubles and the same errors on every draw.
"""
import hashlib
import json
import re
import sys
from collections import Counter
from pathlib import Path

import numpy as np

LOG_UNIFORM_DRAWS = 30000
SEEDED_DRAWS = 20000

# a standalone decimal, inf or nan, not the digit of a name such as r0
_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:inf|nan|(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?)(?![\w.])")


def log_uniform(PowerLawPotential):
    """(m1, m2, potential, Q) of TestSeededSearch::test_log_uniform_draws, in its order and types."""
    rng = np.random.default_rng(20261019)
    for _ in range(LOG_UNIFORM_DRAWS):
        terms = [(10.0 ** rng.uniform(-300, 300), rng.uniform(0.2, 5.0))]
        if rng.random() < 0.5:
            terms.append((10.0 ** rng.uniform(-300, 300), rng.choice([-1.9, -1.0, -0.5, 0.5, 2.0, 4.5])))
        m1 = 0.0 if rng.random() < 0.25 else 10.0 ** rng.uniform(-300, 300)
        m2 = 10.0 ** rng.uniform(-300, 300)
        yield m1, m2, PowerLawPotential(tuple(terms)), 10.0 ** rng.uniform(-300, 300)


def seeded(verification, GlobalQ):
    """(m1, m2, potential, Q) of random_bound_configuration at seed 20261018."""
    rng = np.random.default_rng(20261018)
    for _ in range(SEEDED_DRAWS):
        m1, m2, potential, qv = verification.random_bound_configuration(rng)
        yield m1, m2, potential, GlobalQ.explicit(qv)


def main(argv):
    src = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1] / "src"
    sys.path.insert(0, str(src))
    import salpeter_afm as package
    from salpeter_afm import verification

    families = {
        "log-uniform": log_uniform(package.PowerLawPotential),
        "seeded": seeded(verification, package.GlobalQ),
    }
    solved_hash, errors_hash, report = hashlib.sha256(), hashlib.sha256(), {}
    for family, draws in families.items():
        kinds, worst = Counter(), 0.0
        for n, args in enumerate(draws):
            try:
                sol = package.solve_afm(*args)
            except package.AfmError as err:
                kinds[f"{type(err).__name__}: {_NUMBER.sub('#', str(err))}"] += 1
                errors_hash.update(f"{family} {n} {type(err).__name__}: {err}\n".encode())
                continue
            kinds["solved"] += 1
            worst = max(worst, *package.residuals(sol, *args))
            solved_hash.update(f"{family} {n} {sol.r0.hex()} {sol.mass.hex()}\n".encode())
        report[family] = {"draws": sum(kinds.values()), "kinds": dict(sorted(kinds.items())), "max_residual": worst}
    report["solved_sha256"] = solved_hash.hexdigest()
    report["errors_sha256"] = errors_hash.hexdigest()
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    main(sys.argv)
