"""Correctness checks that the benchmark applies to the program's outputs.

They are written from the defining relations, not from the program's own
helpers, so a defect in the program cannot also hide in its check.  The
tolerances are those of ``tests/test_acceptance.py``.
"""
from __future__ import annotations

import math

from salpeter_afm.errors import CollapseDetected, DomainError, NoBoundState

RESIDUAL_TOL = 1e-10      # criterion 8
CLOSED_FORM_TOL = 1e-9    # criterion 4
Q_TOL = 1e-6              # criterion 6
BOUND_SLACK = 1e-4        # criterion 3: gap >= -slack
COULOMB_AFM = (0.9798, 1e-4)   # criterion 1
COULOMB_REF = (0.8454, 3e-3)   # criterion 2
CSV_REL = 1e-8            # printed %.9g values, as in the CSV reproduction tests

# Exceptions that mean "this input has no bound state here"; every other
# exception escaping the program is a failure.
EXPECTED_ERRORS = (NoBoundState, CollapseDetected, DomainError)


def potential_value(terms, r: float) -> float:
    """V(r) = sum sign(lam) alpha r^lam."""
    return sum(math.copysign(a, lam) * r**lam for a, lam in terms)


def virial_pull(terms, r: float) -> float:
    """r V'(r) = sum |lam| alpha r^lam."""
    return sum(abs(lam) * a * r**lam for a, lam in terms)


def virial_balance(m1: float, m2: float, terms, qv: float, r: float) -> float:
    """r^3 dM/dr0 at r0 = r: negative below a minimum of M(r0), positive above."""
    p0 = qv / r
    return r * r * virial_pull(terms, r) - qv * qv * (1.0 / math.hypot(p0, m1) + 1.0 / math.hypot(p0, m2))


def is_local_minimum(m1: float, m2: float, terms, qv: float, r0: float, h: float = 1e-6) -> bool:
    """True when M(r0) is a local minimum: the balance crosses from - to + at r0.

    A residual check cannot make this distinction, since the balance also
    vanishes at a local maximum.
    """
    return virial_balance(m1, m2, terms, qv, r0 * (1.0 - h)) < 0.0 < virial_balance(
        m1, m2, terms, qv, r0 * (1.0 + h)
    )


def worst_residual(m1: float, m2: float, terms, qv: float, r0: float, p0: float, mass: float) -> float:
    """Largest relative residual of the three defining relations of a solution."""
    nu1, nu2 = math.hypot(p0, m1), math.hypot(p0, m2)
    pull = virial_pull(terms, r0)
    return max(
        abs(mass - (nu1 + nu2 + potential_value(terms, r0))) / abs(mass),
        abs(p0 * r0 - qv) / qv,
        abs(p0 * p0 / nu1 + p0 * p0 / nu2 - pull) / abs(pull),
    )


def rel_diff(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def classify_error(err: BaseException) -> str:
    """Return 'expected' for the typed no-bound-state outcomes, else 'error:<Name>'."""
    return "expected" if isinstance(err, EXPECTED_ERRORS) else f"error:{type(err).__name__}"
