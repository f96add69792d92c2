"""Named verification suites: quoted benchmark values, bound checks, and invariants.

Each check returns a :class:`CheckResult`; suites bundle related checks so the
command line and the test suite share one implementation.  Each check imports
what it needs where it runs: the two that run a reference ladder import
:mod:`.reference` (numpy, and scipy at the first eigensolve), and the three
that draw random configurations import numpy, so ``windows`` and
``linear-limits`` load neither library.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import core
from .errors import CollapseDetected, NoBoundState
from .types import GlobalQ, PowerLawPotential, QuantumState

if TYPE_CHECKING:
    import numpy as np

# Benchmark numbers for the heavy-light Coulomb system at a = 1.2, Q = 1:
# the variational mass ratio and the accurate numerical one.
COULOMB_AFM_RATIO = 0.9798
COULOMB_REF_RATIO = 0.8454

# Seed of the closed-form, residual and symmetric-reduction checks.
SEED = 20120614
# How far the variational mass may fall below the reference mass (criterion 3).
BOUND_SLACK = 1e-4


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    value: float | None = None
    expected: float | None = None
    tol: float | None = None
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        parts = [f"{status} {self.name}"]
        if self.value is not None:
            parts.append(f"value={self.value:.9g}")
        if self.expected is not None:
            parts.append(f"expected={self.expected:.9g}")
        if self.tol is not None:
            parts.append(f"tol={self.tol:g}")
        if self.detail:
            parts.append(self.detail)
        return "  ".join(parts)


def _within(name: str, value: float, expected: float, tol: float) -> CheckResult:
    """Pass when value lies within tol of expected."""
    return CheckResult(name, abs(value - expected) < tol, value, expected, tol)


def _raises(name: str, call, error: type) -> CheckResult:
    """Pass when call() raises error; the other no-root error fails, with its name."""
    try:
        call()
    except error:
        return CheckResult(name, True)
    except (NoBoundState, CollapseDetected) as err:
        return CheckResult(name, False, detail=f"{type(err).__name__} instead")
    return CheckResult(name, False, detail=f"expected {error.__name__}")


# ---------------------------------------------------------------------------
# quoted benchmark values for the heavy-light Coulomb system


def check_coulomb_afm_value() -> list[CheckResult]:
    sol = core.solve_afm(0.0, 1.0, PowerLawPotential.coulomb(1.2), core.q_exact(-1, QuantumState(0, 0)))
    return [_within("coulomb-afm-mass-ratio", sol.mass, COULOMB_AFM_RATIO, 1e-4)]


def check_coulomb_reference_value() -> list[CheckResult]:
    from . import reference

    problem = reference.SseProblem(0.0, 1.0, PowerLawPotential.coulomb(1.2), QuantumState(0, 0))
    mass = reference.sse_eigenvalue(problem)
    return [_within("coulomb-reference-mass-ratio", mass, COULOMB_REF_RATIO, 3e-3)]


# ---------------------------------------------------------------------------
# upper bounds across the linear-potential mass scan


def check_upper_bound_suite() -> list[CheckResult]:
    from . import reference

    potential = PowerLawPotential.linear(0.2)
    results = []
    for n in (0, 1):
        state = QuantumState(n, 0)
        q_choices = [core.q_exact(1, state), core.q_exact(2, state)]
        for m in (round(0.1 * i, 1) for i in range(11)):
            problem = reference.SseProblem(0.0, m, potential, state)
            for row in reference.bound_gap(problem, q_choices):
                results.append(
                    CheckResult(
                        f"bound-b0.2-n{n}-m{m:g}-{row.q.describe()}",
                        row.gap >= -BOUND_SLACK,
                        row.gap,
                        None,
                        BOUND_SLACK,
                        detail=f"M_afm={row.mass_afm:.6f} M_ref={row.mass_ref:.6f}",
                    )
                )
    return results


# ---------------------------------------------------------------------------
# closed forms against the generic solver


def random_coulomb_config(rng: np.random.Generator) -> tuple[float, float, float]:
    m = rng.uniform(0.1, 5.0)
    a = rng.uniform(0.4, 3.0)
    q = a * rng.uniform(0.52, 0.98)  # stay inside the a/2 < Q < a window
    return m, a, q


def random_linear_config(rng: np.random.Generator) -> tuple[float, float, float]:
    return rng.uniform(0.0, 3.0), rng.uniform(0.05, 1.0), rng.uniform(0.5, 6.0)


def check_closed_form_equivalence() -> list[CheckResult]:
    import numpy as np

    # each closed form: its name, sampler, function, potential and exponent p
    pairs = (
        ("coulomb", random_coulomb_config, core.coulomb_closed, PowerLawPotential.coulomb, -1.0),
        ("linear", random_linear_config, core.linear_closed, PowerLawPotential.linear, 1.0),
    )
    rng = np.random.default_rng(SEED)
    worst = [0.0] * len(pairs)
    for _ in range(25):
        for i, (_, sample, closed_form, potential, p) in enumerate(pairs):
            m, coupling, qv = sample(rng)
            q = GlobalQ.explicit(qv, p)
            closed = closed_form(m, coupling, q)
            generic = core.solve_afm(0.0, m, potential(coupling), q)
            worst[i] = max(
                worst[i],
                abs(closed.mass - generic.mass) / generic.mass,
                abs(closed.r0 - generic.r0) / generic.r0,
            )
    return [
        _within(f"closed-form-{name}-vs-generic", w, 0.0, 1e-9)
        for (name, *_), w in zip(pairs, worst)
    ]


# ---------------------------------------------------------------------------
# where the two linear-potential expansions meet


def expansion_crossing() -> tuple[float, float]:
    """Mass ratio x = m/M0 where the two expansions coincide, and their
    common relative error against the closed form there.  Both numbers are
    independent of b and Q; they are computed at b = 0.2, Q = 1.5."""
    b = 0.2
    q = GlobalQ.explicit(1.5, 1.0)
    m0 = core.linear_symmetric_massless(2.0, b, q)

    def gap(x: float) -> float:
        m = x * m0
        return core.linear_ur_expansion(m, b, q) - core.linear_nr_expansion(m, b, q)

    x_star = core._brent(gap, 0.1, 0.8, xtol=2e-12, rtol=1e-13)
    m = x_star * m0
    exact = core.linear_closed(m, b, q).mass
    err = (core.linear_ur_expansion(m, b, q) - exact) / exact
    return x_star, err


def check_asymptotic_crossing() -> list[CheckResult]:
    x_star, err = expansion_crossing()
    return [
        _within("expansion-crossing-location", x_star, 0.34, 0.02),
        _within("expansion-crossing-error", err, 0.055, 0.01),
    ]


# ---------------------------------------------------------------------------
# numeric Q against the analytic values


# (p, n, l) for every level with an analytic Q, up to n = 3 and l = 3.
Q_ORACLE_CASES = (
    tuple((-1.0, n, l) for l in range(4) for n in range(4))
    + tuple((2.0, n, l) for l in range(4) for n in range(4))
    + tuple((1.0, n, 0) for n in range(4))
)
Q_TOL = 1e-6


def check_q_oracle() -> list[CheckResult]:
    results = []
    for p, n, l in Q_ORACLE_CASES:
        state = QuantumState(n, l)
        exact = core.q_exact(p, state).value
        numeric = core.q_numeric(p, state, tol=Q_TOL).value
        results.append(_within(f"q-oracle-p{p:g}-n{n}-l{l}", numeric, exact, Q_TOL))
    return results


# ---------------------------------------------------------------------------
# the Coulomb existence window


def check_existence_window() -> list[CheckResult]:
    potential = PowerLawPotential.coulomb(1.2)

    def solve(qv):
        return core.solve_afm(0.0, 1.0, potential, GlobalQ.explicit(qv, -1.0))

    sol = solve(1.0)
    return [
        CheckResult("window-binds-inside", sol.mass > 0.0, sol.mass),
        _raises("window-no-bound-above", lambda: solve(2.0), NoBoundState),
        _raises("window-collapse-below", lambda: solve(0.6), CollapseDetected),
    ]


# ---------------------------------------------------------------------------
# residuals and rotation radii over random configurations


def random_bound_configuration(rng: np.random.Generator):
    """Masses, potential, Q guaranteed to admit a solution (one confining term)."""
    terms = [(rng.uniform(0.05, 2.0), rng.uniform(0.2, 3.0))]
    if rng.random() < 0.5:
        lam = rng.uniform(-1.8, 2.5)
        if abs(lam) > 0.05:
            terms.append((rng.uniform(0.0, 1.0), lam))
    m1 = 0.0 if rng.random() < 0.25 else rng.uniform(0.0, 5.0)
    m2 = rng.uniform(0.0, 5.0)
    return m1, m2, PowerLawPotential(tuple(terms)), rng.uniform(0.3, 8.0)


def check_residual_property() -> list[CheckResult]:
    import numpy as np

    rng = np.random.default_rng(SEED)
    worst = [0.0, 0.0, 0.0]
    worst_split = 0.0
    solved = 0
    while solved < 200:
        m1, m2, potential, qv = random_bound_configuration(rng)
        try:
            sol = core.solve_afm(m1, m2, potential, GlobalQ.explicit(qv))
        except (NoBoundState, CollapseDetected):
            continue
        solved += 1
        res = core.residuals(sol, m1, m2, potential, sol.q)
        worst = [max(w, r) for w, r in zip(worst, res)]
        r1, r2 = core.rotation_radii(sol)
        worst_split = max(worst_split, abs(r1 + r2 - sol.r0) / sol.r0)
    return [
        _within("residual-mass-assembly", worst[0], 0.0, 1e-10),
        _within("residual-q-identity", worst[1], 0.0, 1e-10),
        _within("residual-virial-balance", worst[2], 0.0, 1e-10),
        _within("rotation-radii-split", worst_split, 0.0, 2e-15),
    ]


# ---------------------------------------------------------------------------
# equal masses against the symmetric closed forms


def check_symmetric_reduction() -> list[CheckResult]:
    import numpy as np

    rng = np.random.default_rng(SEED)
    worst = 0.0
    for i in range(20):
        if i % 2 == 0:
            m = rng.uniform(0.2, 4.0)
            a = rng.uniform(0.3, 2.0)
            qv = rng.uniform(a / 2.0 + 0.05 * a, 4.0)  # equal masses need only a < 2Q
            q = GlobalQ.explicit(qv, -1.0)
            target = core.coulomb_symmetric(2.0, m, a, q)
            sol = core.solve_afm(m, m, PowerLawPotential.coulomb(a), q)
        else:
            b = rng.uniform(0.05, 1.0)
            qv = rng.uniform(0.5, 6.0)
            q = GlobalQ.explicit(qv, 1.0)
            target = core.linear_symmetric_massless(2.0, b, q)
            sol = core.solve_afm(0.0, 0.0, PowerLawPotential.linear(b), q)
        worst = max(worst, abs(sol.mass - target) / target)
    return [_within("symmetric-reduction", worst, 0.0, 1e-9)]


# ---------------------------------------------------------------------------
# suites


# Each suite name and its checks, in the order their results are reported.
SUITES = {
    "coulomb-paper": (check_coulomb_afm_value, check_coulomb_reference_value),
    "linear-limits": (check_asymptotic_crossing,),
    "bounds": (check_upper_bound_suite,),
    "closed-forms": (check_closed_form_equivalence, check_symmetric_reduction),
    "windows": (check_existence_window,),
    "residuals": (check_residual_property,),
    "qtable": (check_q_oracle,),
}


def run_suite(name: str) -> list[CheckResult]:
    if name == "all":
        checks = [check for suite in SUITES.values() for check in suite]
    elif name in SUITES:
        checks = SUITES[name]
    else:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return [result for check in checks for result in check()]
