"""Outcome census of the reference levels: q_numeric, nr_energy and sse_eigenvalue on a fixed sweep.

Usage: python tools/levels.py [SRC]

SRC is the source tree to import salpeter_afm from (default: this
checkout's src).  The sweep is fixed:

- "q_numeric": p in {-1.9, -1.5, -1, -0.75, -0.5, -0.25, 0.5, 1, 1.5, 2,
  3, 4.5, 8, 9}, n in {0, 3, 8}, l in {0, 1, 2, 5, 30, 69, 70, 85, 300,
  1000}, at tol 1e-6 and 1e-3; then the seven steep levels that need the
  3x finer cusp scale at l >= 1 (p = -1.5 at (1, 1), (3, 2), (8, 5) and
  p = -1.9 at (0, 5), (3, 30), (3, 60), (3, 69)), p = -1 at n in
  {0, 3} and l = 1e4, 1e20, 1e50, 1e150, and the non-integer p in
  {-0.5, 0.5, 1.5, 2.5} at n = 0 and l = 1e5, 2e5, 1e7, 1e30, 1e160, at
  the default tol;
- "nr_energy": p in {-1.5, -1, 0.5, 2, 8} at (0, 0) and (0, 30), mu and
  rho in {1e-200, 1, 1e200}, at tol 1e-3; then p = -1 at l = 1e20;
- "sse_eigenvalue": masses (0, 1), (1, 1) and (0.3, 1.5) with the
  potentials -1.2/r, -0.5/r, 0.2 r, the funnel -0.5/r + 0.2 r, 0.2 r^3 and
  the capped 0.2 r^4.5 and 0.2 r^6, at n in {0, 2} and l in {0, 1, 5, 30,
  300}; the symmetric mode (sigma 2, masses (1, 1)) on the same
  potentials and states; then -1.2/r at masses (1, 1), n = 0 and
  l = 1000, 1e4 and 1e5, two-mass and symmetric.

Printed as JSON: per family the number of outcomes and the count of each
kind ("value", or the error's type), and "sha256", one digest over every
outcome in order: its family, its arguments, and the value as hex or the
error's type and full text.  Run on two trees, equal digests mean the
same doubles and the same errors on every level of the sweep.
``sweep(package)`` yields the (family, arguments, (kind, text)) triples,
for a comparison that names the levels that moved.
"""
import hashlib
import json
import sys
from collections import Counter
from pathlib import Path

Q_EXPONENTS = (-1.9, -1.5, -1.0, -0.75, -0.5, -0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.5, 8.0, 9.0)
Q_STATES = [(n, l) for n in (0, 3, 8) for l in (0, 1, 2, 5, 30, 69, 70, 85, 300, 1000)]
STEEP = [(-1.5, 1, 1), (-1.5, 3, 2), (-1.5, 8, 5), (-1.9, 0, 5), (-1.9, 3, 30), (-1.9, 3, 60), (-1.9, 3, 69)]
UNITS = (1e-200, 1.0, 1e200)
MASSES = ((0.0, 1.0), (1.0, 1.0), (0.3, 1.5))
POTENTIALS = (
    ((1.2, -1.0),), ((0.5, -1.0),), ((0.2, 1.0),), ((0.5, -1.0), (0.2, 1.0)), ((0.2, 3.0),), ((0.2, 4.5),),
    ((0.2, 6.0),),
)
SSE_STATES = [(n, l) for n in (0, 2) for l in (0, 1, 5, 30, 300)]


def sweep(package):
    """(family, arguments, (kind, text)) of every level of the sweep, in order."""
    from salpeter_afm import oracle

    def outcome(call, *args, **kwargs):
        """("value", the value as hex) or (the error's type, its full text)."""
        try:
            return "value", float(call(*args, **kwargs)).hex()
        except package.AfmError as err:
            return type(err).__name__, str(err)

    state = package.QuantumState
    for tol in (1e-6, 1e-3):
        for p in Q_EXPONENTS:
            for n, l in Q_STATES:
                q = outcome(lambda: package.q_numeric(p, state(n, l), tol=tol).value)
                yield "q_numeric", f"p={p} n={n} l={l} tol={tol}", q
    levels = STEEP + [(-1.0, n, 10**e) for n in (0, 3) for e in (4, 20, 50, 150)]
    levels += [(p, 0, l) for p in (-0.5, 0.5, 1.5, 2.5) for l in (10**5, 2 * 10**5, 10**7, 10**30, 10**160)]
    for p, n, l in levels:
        yield "q_numeric", f"p={p} n={n} l={l}", outcome(lambda: package.q_numeric(p, state(n, l)).value)
    for p in (-1.5, -1.0, 0.5, 2.0, 8.0):
        for l in (0, 30):
            for mu in UNITS:
                for rho in UNITS:
                    energy = outcome(oracle.nr_energy, mu, rho, p, state(0, l), tol=1e-3)
                    yield "nr_energy", f"p={p} l={l} mu={mu} rho={rho}", energy
    yield "nr_energy", "p=-1.0 l=1e20", outcome(oracle.nr_energy, 1.0, 1.0, -1.0, state(0, 10**20))
    problems = [(m1, m2, None, terms, n, l) for m1, m2 in MASSES for terms in POTENTIALS for n, l in SSE_STATES]
    problems += [(1.0, 1.0, 2.0, terms, n, l) for terms in POTENTIALS for n, l in SSE_STATES]
    problems += [(1.0, 1.0, sigma, ((1.2, -1.0),), 0, l) for sigma in (None, 2.0) for l in (1000, 10**4, 10**5)]
    for m1, m2, sigma, terms, n, l in problems:
        problem = package.SseProblem(m1, m2, package.PowerLawPotential(terms), state(n, l), sigma)
        yield "sse_eigenvalue", f"m={m1},{m2} sigma={sigma} V={terms} n={n} l={l}", outcome(
            package.sse_eigenvalue, problem)


def main(argv):
    src = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1] / "src"
    sys.path.insert(0, str(src))
    import salpeter_afm as package

    digest, kinds = hashlib.sha256(), {}
    for family, arguments, (kind, text) in sweep(package):
        digest.update(f"{family} {arguments} {kind}: {text}\n".encode())
        kinds.setdefault(family, Counter())[kind] += 1
    report = {family: {"outcomes": sum(c.values()), "kinds": dict(sorted(c.items()))} for family, c in kinds.items()}
    report["sha256"] = digest.hexdigest()
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    main(sys.argv)
