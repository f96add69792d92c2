"""Radial nonrelativistic eigensolver for H = p^2/(2 mu) + rho*sign(p)*r^p.

The reduced radial equation is discretized on a uniform grid r_i = i*R/(N+1)
with hard walls at r = 0 and r = R.  The second derivative is represented
exactly in the sine basis of that box, potentials are diagonal on the grid,
and eigenvalues come from dense symmetric diagonalization.  Energies are
refined by Richardson extrapolation over grid doublings, which restores fast
convergence for cusped (p < 0) potentials.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg as sla

from .errors import ConvergenceFailure, DomainError
from .types import AfmSolution, GlobalQ, PowerLawPotential, QuantumState

_DEFAULT_START = 300
_DEFAULT_CAP = 4800


@dataclass(frozen=True)
class SpectralGrid:
    """Uniform radial grid r_i = i * R/(N+1), i = 1..N, with hard walls."""

    box_radius: float
    points: int

    def __post_init__(self):
        if not (0.0 < self.box_radius < math.inf):
            raise ValueError("box_radius must be positive and finite")
        if self.points < 64:
            raise ValueError("need at least 64 grid points")

    @property
    def spacing(self) -> float:
        return self.box_radius / (self.points + 1)

    @property
    def radii(self) -> np.ndarray:
        return np.arange(1, self.points + 1) * self.spacing


@dataclass(frozen=True)
class RadialEigenpair:
    """Energy and reduced radial wavefunction samples u(r_i).

    Amplitudes are normalized to sum(u^2) * dr = 1 and carry n interior sign
    changes for the n-th radial excitation.  The energy is the extrapolated
    estimate; amplitudes live on ``grid`` (the finest level used).
    """

    energy: float
    amplitudes: np.ndarray
    grid: SpectralGrid


@lru_cache(maxsize=6)
def sine_transform_matrix(points: int) -> np.ndarray:
    """Orthogonal (and involutory) DST-I matrix for a box with N interior points."""
    i = np.arange(1, points + 1)
    s = np.sqrt(2.0 / (points + 1)) * np.sin(np.outer(i, i) * np.pi / (points + 1))
    s.setflags(write=False)
    return s


def box_momenta(grid: SpectralGrid) -> np.ndarray:
    """Sine-basis momenta k_j = j*pi/R; the exact -d2/dr2 eigenvalues are k_j^2."""
    return np.arange(1, grid.points + 1) * np.pi / grid.box_radius


def energy_from_q(q_value: float, mu: float, rho: float, p: float) -> float:
    """Power-law eigenvalue parameterized by the global quantum number Q."""
    return (
        (p + 2.0)
        / (2.0 * p)
        * (abs(p) * rho) ** (2.0 / (p + 2.0))
        * (q_value * q_value / mu) ** (p / (p + 2.0))
    )


def invert_q(epsilon: float, mu: float, rho: float, p: float) -> GlobalQ:
    """Recover Q from an eigenvalue of p^2/(2 mu) + rho*sign(p)*r^p.

    The eigenvalue sign must match sign(p): confining exponents have positive
    spectra, attractive negative exponents have negative bound-state energies.
    """
    _check_oracle_args(mu, rho, p)
    base = 2.0 * p * epsilon / ((p + 2.0) * (abs(p) * rho) ** (2.0 / (p + 2.0)))
    if base <= 0.0:
        raise DomainError(
            f"eigenvalue sign {math.copysign(1, epsilon):+.0f} is inconsistent with p={p:g}"
        )
    value = math.sqrt(mu) * base ** ((p + 2.0) / (2.0 * p))
    return GlobalQ(value, "numeric", p)


def _check_oracle_args(mu: float, rho: float, p: float) -> None:
    if not (mu > 0.0 and rho > 0.0):
        raise ValueError("mu and rho must be positive")
    if p <= -2.0 or p == 0.0:
        raise ValueError("exponent p must be > -2 and nonzero")


def default_grid(mu: float, rho: float, p: float, state: QuantumState) -> SpectralGrid:
    """Box size from a classical turning-radius estimate of the target state.

    The energy seed comes from the Q parameterization with the analytic
    harmonic value 2n+l+3/2 for p > 0 and the hydrogen-like value n+l+1 for
    p < 0.  Confining exponents get a 12x turning-radius box; attractive ones
    get the turning radius plus twelve exponential decay lengths, which keeps
    the cusp at the origin well resolved.
    """
    q_seed = 2.0 * state.n + state.l + 1.5 if p > 0 else float(state.n + state.l + 1)
    eps = abs(energy_from_q(q_seed, mu, rho, p))
    r_turn = (eps / rho) ** (1.0 / p)
    if p > 0:
        radius = 12.0 * r_turn
    else:
        kappa = math.sqrt(2.0 * mu * eps)
        radius = r_turn + 12.0 / kappa
    return SpectralGrid(radius, _DEFAULT_START)


def _hamiltonian(mu, rho, p, l, grid: SpectralGrid) -> np.ndarray:
    r = grid.radii
    s = sine_transform_matrix(grid.points)
    k2 = box_momenta(grid) ** 2
    h = (s * (k2 / (2.0 * mu))) @ s
    diag = rho * math.copysign(1.0, p) * r**p
    if l > 0:
        diag = diag + l * (l + 1) / (2.0 * mu * r * r)
    h[np.diag_indices_from(h)] += diag
    return h


def _level_energy(mu, rho, p, state, grid) -> float:
    h = _hamiltonian(mu, rho, p, state.l, grid)
    return float(sla.eigvalsh(h, subset_by_index=(state.n, state.n))[0])


def _richardson_columns(values: list[float]) -> list[list[float]]:
    """Richardson table over grid doublings, eliminating orders 2, 3, 4, ...

    Column j holds estimates whose leading error is O(h^(j+2)); eliminating
    an order that happens to be absent is harmless.
    """
    cols = [list(values)]
    while len(cols[-1]) > 1 and len(cols) < 7:
        fac = 2.0 ** (len(cols) + 1)
        prev = cols[-1]
        cols.append([(fac * prev[i + 1] - prev[i]) / (fac - 1.0) for i in range(len(prev) - 1)])
    return cols


def _ladder_estimate(values: list[float]) -> tuple[float, float]:
    """Best extrapolant and a conservative error estimate from a doubling ladder."""
    cols = _richardson_columns(values)
    best = next(c[-1] for c in reversed(cols) if c)
    deepest = max(j for j, c in enumerate(cols) if len(c) >= 2)
    gauge = abs(cols[deepest][-1] - cols[deepest][-2])
    # successive entries of column j improve by ~2^(j+2); claim half that gain
    est = gauge / 2.0 ** (deepest + 1) if deepest >= 1 else gauge
    return best, est


def nr_energy(
    mu: float,
    rho: float,
    p: float,
    state: QuantumState,
    grid: SpectralGrid | None = None,
    *,
    tol: float = 1e-7,
) -> tuple[float, SpectralGrid]:
    """Extrapolated (n, l) eigenvalue and the finest grid used.

    Runs the doubling ladder from ``grid`` (or the default box) until the
    Richardson error estimate drops below ``tol`` relative, raising
    ConvergenceFailure at the point cap and DomainError when a p < 0 state
    comes out unbound.
    """
    _check_oracle_args(mu, rho, p)
    if grid is None:
        grid = default_grid(mu, rho, p, state)
    cap = max(_DEFAULT_CAP, 2 * grid.points)
    values: list[float] = []
    n_pts = grid.points
    while n_pts <= cap:
        level = SpectralGrid(grid.box_radius, n_pts)
        values.append(_level_energy(mu, rho, p, state, level))
        if p < 0 and values[-1] >= 0.0:
            raise DomainError(
                f"state (n={state.n}, l={state.l}) is unbound for p={p:g} in this box"
            )
        if len(values) >= 2:
            best, est = _ladder_estimate(values)
            if est <= tol * max(abs(best), 1e-300):
                return best, level
        n_pts *= 2
    raise ConvergenceFailure(
        f"eigenvalue estimate stuck at relative error ~{est / max(abs(best), 1e-300):.1e} "
        f"with {n_pts // 2} points (tol {tol:g}); steep-cusp s-waves "
        f"(noninteger p < -1) converge slowly on uniform grids, consider a looser tol"
    )


def nr_eigenvalue(
    mu: float,
    rho: float,
    p: float,
    state: QuantumState,
    grid: SpectralGrid | None = None,
    *,
    tol: float = 1e-7,
) -> RadialEigenpair:
    """Converged (n, l) eigenpair of p^2/(2 mu) + rho*sign(p)*r^p.

    The energy is ladder-extrapolated as in :func:`nr_energy`; the
    amplitudes come from the finest grid, normalized to sum(u^2) dr = 1 with
    a positive leading lobe.
    """
    energy, level = nr_energy(mu, rho, p, state, grid, tol=tol)
    h = _hamiltonian(mu, rho, p, state.l, level)
    _, vec = sla.eigh(h, subset_by_index=(state.n, state.n))
    u = vec[:, 0]
    u = u / math.sqrt(level.spacing)  # eigh returns sum(u^2) = 1
    lead = np.nonzero(np.abs(u) > 1e-8 * np.max(np.abs(u)))[0][0]
    if u[lead] < 0:
        u = -u
    return RadialEigenpair(energy, u, level)


def afm_eigenstate(
    sol: AfmSolution,
    potential: PowerLawPotential,
    p: float,
    state: QuantumState,
    grid: SpectralGrid | None = None,
    *,
    tol: float = 1e-7,
) -> RadialEigenpair:
    """Approximate eigenstate attached to a solved configuration.

    Freezes the einbeins at their solution values: the reduced mass is
    mu = nu1*nu2/(nu1+nu2) and the auxiliary coupling is the local ratio
    rho = V'(r0) / (|p| r0^(p-1)).
    """
    mu = sol.nu1 * sol.nu2 / (sol.nu1 + sol.nu2)
    return nr_eigenvalue(mu, auxiliary_coupling(sol, potential, p), p, state, grid, tol=tol)


def auxiliary_coupling(sol: AfmSolution, potential: PowerLawPotential, p: float) -> float:
    """rho = V'(r0)/(|p| r0^(p-1)), the frozen auxiliary-field coupling."""
    return float(potential.derivative(sol.r0) / (abs(p) * sol.r0 ** (p - 1.0)))
