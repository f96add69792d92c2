"""Reference eigensolver for the genuine spinless Salpeter equation.

Discretizes sqrt(p^2 + m1^2) + sqrt(p^2 + m2^2) + V(r) (or the symmetric
sigma * sqrt(p^2 + m^2) + V variant) in the same hard-wall sine basis the
nonrelativistic oracle uses.  The partial-wave p^2 operator is the exact
spectral second derivative plus the centrifugal diagonal; the kinetic sum is
taken functionally from one symmetric eigendecomposition of it per grid,
shared by both masses (for l = 0 the sine functions themselves diagonalize
p^2, so no extra decomposition is needed).  Values are certified by grid
doubling; potentials with an attractive tail get a geometric (Aitken)
extrapolation over the doubling ladder because the origin cusp slows raw
convergence to a fractional order.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from . import core
from .errors import CollapseDetected, ConvergenceFailure, NoBoundState
from .oracle import SpectralGrid, box_momenta, sine_operator
from .types import GlobalQ, PowerLawPotential, QuantumState

_START_POINTS = 600
_TOL = 5e-4  # relative change between the last two rungs accepted as converged


@dataclass(frozen=True)
class SseProblem:
    """One semirelativistic eigenvalue problem.

    Two-mass mode uses kinetic terms for m1 and m2; setting ``sigma``
    switches to the symmetric form sigma * sqrt(p^2 + m^2) with m = m1
    (m2 must then equal m1).
    """

    m1: float
    m2: float
    potential: PowerLawPotential
    state: QuantumState
    sigma: float | None = None
    grid: SpectralGrid | None = None

    def __post_init__(self):
        if not (0.0 <= self.m1 < np.inf and 0.0 <= self.m2 < np.inf):
            raise ValueError("masses must be finite and non-negative")
        if self.sigma is not None:
            if not (0.0 < self.sigma < np.inf):
                raise ValueError("sigma must be positive and finite")
            if self.m1 != self.m2:
                raise ValueError("the symmetric mode uses a single mass; set m1 == m2")


def sqrt_kinetic_matrix(terms: tuple[tuple[float, float], ...], l: int, grid: SpectralGrid) -> np.ndarray:
    """Dense matrix of sum(weight * sqrt(p^2 + mass^2)) over (weight, mass) terms.

    For l = 0 the sine basis diagonalizes p^2 exactly; for l > 0 the
    centrifugal term is added on the grid diagonal and the sum is formed
    from one eigendecomposition of that symmetric p^2 matrix.
    """

    def kinetic(p2):
        return sum(weight * np.sqrt(p2 + mass * mass) for weight, mass in terms)

    k2 = box_momenta(grid) ** 2
    if l == 0:
        return sine_operator(kinetic(k2))
    psq = sine_operator(k2)
    psq[np.diag_indices_from(psq)] += l * (l + 1) / grid.radii**2
    w, u = sla.eigh(psq)
    out = (u * kinetic(np.clip(w, 0.0, None))) @ u.T
    return 0.5 * (out + out.T)


def sse_hamiltonian(problem: SseProblem, grid: SpectralGrid) -> np.ndarray:
    """Symmetric Hamiltonian matrix of the discretized problem."""
    m1, m2, sigma = problem.m1, problem.m2, problem.sigma
    terms = ((1.0, m1), (1.0, m2)) if sigma is None else ((sigma, m1),)
    h = sqrt_kinetic_matrix(terms, problem.state.l, grid)
    h[np.diag_indices_from(h)] += problem.potential.value(grid.radii)
    return h


def _level_mass(problem: SseProblem, radius: float, points: int) -> float:
    h = sse_hamiltonian(problem, SpectralGrid(radius, points))
    n = problem.state.n
    return float(sla.eigvalsh(h, subset_by_index=(n, n))[0])


def _box_radius(problem: SseProblem) -> float:
    """Box size from the cheap variational radius (tried at Q(-1), then Q(2))."""
    state = problem.state
    radius = None
    collapse = None
    for q in (core.q_exact(-1, state), core.q_exact(2, state)):
        try:
            r0 = core.solve_afm(problem.m1, problem.m2, problem.potential, q).r0
        except CollapseDetected as err:
            collapse = err
            continue
        except NoBoundState:
            continue
        radius = max(radius, r0) if radius is not None else r0
    if radius is None:
        if collapse is not None:
            raise collapse
        raise NoBoundState("could not find a variational bound state to size the box")
    # cusped attractive-only potentials are resolution limited: keep the box tight
    attractive_only = all(lam < 0 for _, lam in problem.potential.active_terms())
    return (6.0 if attractive_only else 12.0) * radius


def _aitken(values: list[float]) -> float:
    d1, d2 = values[0] - values[1], values[1] - values[2]
    denom = d1 - d2
    if denom == 0.0 or d1 == 0.0 or d2 / d1 <= 0.0:
        return values[2]
    return values[2] - d2 * d2 / denom


def sse_eigenvalue(problem: SseProblem) -> float:
    """Converged (n, l) eigenvalue of the semirelativistic Hamiltonian.

    Confining-only potentials are accepted once plain grid doubling changes
    the value by less than 5e-4 relative.  Potentials with an attractive tail
    run the full three-rung ladder and return its geometric Aitken limit;
    the ladder is validated to be monotone with a sane decay ratio before
    extrapolating.
    """
    grid = problem.grid
    if grid is None:
        grid = SpectralGrid(_box_radius(problem), _START_POINTS)
    radius, n_pts = grid.box_radius, grid.points

    if not any(lam < 0 for _, lam in problem.potential.active_terms()):
        previous = _level_mass(problem, radius, n_pts)
        cap = 4 * max(n_pts, _START_POINTS)
        while n_pts < cap:
            n_pts *= 2
            current = _level_mass(problem, radius, n_pts)
            if abs(current - previous) <= _TOL * abs(current):
                return current
            previous = current
        raise ConvergenceFailure(f"doubling to {n_pts} points left a relative change above {_TOL:g}")

    values = [_level_mass(problem, radius, n) for n in (n_pts, 2 * n_pts, 4 * n_pts)]
    if abs(values[-1] - values[-2]) <= _TOL * abs(values[-1]):
        return values[-1]
    d1, d2 = values[0] - values[1], values[1] - values[2]
    if not (d1 > 0 and d2 > 0 and 0.02 < d2 / d1 < 0.98):
        raise ConvergenceFailure(
            "doubling ladder is not geometrically decreasing; refusing to extrapolate "
            f"(values {values})"
        )
    return _aitken(values)


@dataclass(frozen=True)
class BoundGapRow:
    """One upper-bound check: variational mass vs reference mass."""

    q: GlobalQ
    mass_afm: float
    mass_ref: float
    gap: float


def bound_gap(problem: SseProblem, q_choices: list[GlobalQ]) -> list[BoundGapRow]:
    """Gap M_afm - M_ref for each supplied Q, against one reference run."""
    if problem.sigma is not None:
        raise ValueError("bound_gap works in two-mass mode")
    mass_ref = sse_eigenvalue(problem)
    rows = []
    for q in q_choices:
        sol = core.solve_afm(problem.m1, problem.m2, problem.potential, q)
        rows.append(BoundGapRow(q, sol.mass, mass_ref, sol.mass - mass_ref))
    return rows
