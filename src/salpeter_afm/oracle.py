"""Radial nonrelativistic eigensolver for H = p^2/(2 mu) + rho*sign(p)*r^p.

The reduced radial equation is discretized on a uniform grid r_i = i*R/(N+1)
with hard walls at r = 0 and r = R.  The second derivative is represented
exactly in the sine basis of that box and potentials are diagonal on the
grid.  Energies come from a ladder of grid doublings in the fixed box,
refined by Richardson extrapolation, which restores fast convergence for
cusped (p < 0) potentials.  The first rung is diagonalized densely, which
fixes the level index; each finer rung is solved matrix-free by LOBPCG in
the sine basis, warm-started from the rung before, and solved densely
instead when its residual or level-identity check fails.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.fft
import scipy.linalg as sla
from scipy.sparse.linalg import lobpcg

from .errors import ConvergenceFailure, DomainError
from .types import AfmSolution, GlobalQ, PowerLawPotential, QuantumState

_DEFAULT_START = 300
_DEFAULT_CAP = 4800
_NR_TOL = 1e-7

# A refined rung's level n is kept when its error bound |r|^2/gap is below
# this, relative: far below the finest ladder tolerance q_numeric asks (1e-9).
_LEVEL_TOL = 1e-12
_MAXITER = 400


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


def sine_operator(symbol: np.ndarray) -> np.ndarray:
    """Dense S @ diag(symbol) @ S for the orthonormal DST-I matrix S of size N.

    Entry (i, j) is T(i-j) - T(i+j) with T(m) = sum_k symbol_k cos(pi m k/(N+1))
    / (N+1), so one type-1 cosine transform of the zero-padded symbol gives
    every entry in O(N^2) work; the result is exactly symmetric.
    """
    n = len(symbol)
    padded = np.concatenate(([0.0], symbol, [0.0]))
    t = scipy.fft.dct(padded, type=1) / (2.0 * (n + 1))
    t = np.concatenate((t, t[n:0:-1]))  # T(m) for m = 0..2N+1; T(2N+2-m) = T(m)
    out = sla.toeplitz(t[:n])
    out -= sla.hankel(t[2 : n + 2], t[n + 1 : 2 * n + 1])
    return out


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


def seed_q(p: float, state: QuantumState) -> float:
    """Analytic Q(2) = 2n+l+3/2 for p > 0 and Q(-1) = n+l+1 for p < 0."""
    return 2.0 * state.n + state.l + 1.5 if p > 0 else float(state.n + state.l + 1)


def default_grid(mu: float, rho: float, p: float, state: QuantumState) -> SpectralGrid:
    """Box size from a classical turning-radius estimate of the target state.

    The energy seed comes from the Q parameterization at :func:`seed_q`.
    Confining exponents get a 12x turning-radius box; attractive ones
    get the turning radius plus twelve exponential decay lengths, which keeps
    the cusp at the origin well resolved.
    """
    eps = abs(energy_from_q(seed_q(p, state), mu, rho, p))
    r_turn = (eps / rho) ** (1.0 / p)
    if p > 0:
        radius = 12.0 * r_turn
    else:
        kappa = math.sqrt(2.0 * mu * eps)
        radius = r_turn + 12.0 / kappa
    return SpectralGrid(radius, _DEFAULT_START)


def _potential(mu, rho, p, l, grid: SpectralGrid) -> np.ndarray:
    """Diagonal of the Hamiltonian on the grid: the potential plus the centrifugal term."""
    r = grid.radii
    diag = rho * math.copysign(1.0, p) * r**p
    if l > 0:
        diag = diag + l * (l + 1) / (2.0 * mu * r * r)
    return diag


def _hamiltonian(mu, rho, p, l, grid: SpectralGrid) -> np.ndarray:
    h = sine_operator(box_momenta(grid) ** 2 / (2.0 * mu))
    h[np.diag_indices_from(h)] += _potential(mu, rho, p, l, grid)
    return h


def _dst(x: np.ndarray) -> np.ndarray:
    """Orthonormal DST-I along the grid axis; it is its own inverse."""
    return scipy.fft.dst(x, type=1, norm="ortho", axis=0)


def _dense_levels(mu, rho, p, state: QuantumState, grid: SpectralGrid):
    """Levels 0..n+1 by dense diagonalization, with their sine coefficients."""
    h = _hamiltonian(mu, rho, p, state.l, grid)
    levels, vectors = sla.eigh(h, subset_by_index=(0, state.n + 1))
    return levels, _dst(vectors)


def _gaps(levels: np.ndarray) -> np.ndarray:
    """Distance from each level to its nearest neighbour in the block."""
    steps = np.diff(levels)
    return np.minimum(np.append(steps, np.inf), np.insert(steps, 0, np.inf))


def _refined_levels(mu, rho, p, state, grid, levels, coeffs):
    """Levels 0..n+1 on ``grid`` by LOBPCG, warm-started from a coarser rung.

    H c = k^2/(2 mu) c + S (V * S c) is applied with two sine transforms and
    preconditioned with 1/(k^2/(2 mu) + shift).  The shift is the level's
    energy scale |E_seed|, or the potential at the wall where that is larger
    (confining p): there the potential, not the kinetic symbol, dominates
    the large-r modes, which a smaller shift leaves unpreconditioned.  Mode
    j is the momentum j*pi/R on every rung of the fixed box, so the coarse
    coefficients fill the first rows of the start block; the new modes get
    a small perturbation from a fixed seed, since LOBPCG can break down at
    its first step on exactly zero rows.  Returns the levels, their
    coefficients and the residual norms |H c - level c|, or None when
    LOBPCG gives up.  Warnings stay here: the caller judges the residuals.
    """
    symbol = box_momenta(grid) ** 2 / (2.0 * mu)
    diag = _potential(mu, rho, p, state.l, grid)[:, None]
    wall = rho * math.copysign(1.0, p) * grid.box_radius**p
    shift = max(abs(energy_from_q(seed_q(p, state), mu, rho, p)), wall)

    def apply(c):
        return symbol[:, None] * c + _dst(diag * _dst(c))

    start = 1e-6 * np.random.default_rng(0).standard_normal((grid.points, len(levels)))
    start[: len(coeffs)] = coeffs
    n = state.n
    # half the residual that _next_rung accepts, so a converged solve passes
    target = math.sqrt(_LEVEL_TOL * abs(levels[n]) * _gaps(levels)[n]) / 2.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            values, vectors = lobpcg(
                apply, start, M=lambda c: c / (symbol + shift)[:, None],
                tol=target, maxiter=_MAXITER, largest=False,
            )
        except ValueError:  # a breakdown lobpcg does not recover from
            return None
    return values, vectors, np.linalg.norm(apply(vectors) - vectors * values, axis=0)


def _next_rung(mu, rho, p, state, grid, levels, coeffs):
    """Levels and coefficients on ``grid``, refined from the previous rung.

    The refinement is kept when two checks pass; otherwise the rung is
    solved densely.  Accuracy: the residual norm r of the unit Ritz vector of
    level n and the gap to its neighbours bound the eigenvalue error by
    r^2/gap (Kato-Temple), which must be below _LEVEL_TOL relative.
    Identity: each refined vector keeps more than half its weight on the
    coarse vector of the same index, so no level was skipped or swapped.
    """
    refined = _refined_levels(mu, rho, p, state, grid, levels, coeffs)
    if refined is not None:
        values, vectors, residuals = refined
        n = state.n
        bounded = residuals[n] ** 2 <= _LEVEL_TOL * abs(values[n]) * _gaps(values)[n]
        kept = np.einsum("ij,ij->j", coeffs, vectors[: len(coeffs)]) ** 2 > 0.5
        if bounded and np.all(kept):
            return values, vectors
    return _dense_levels(mu, rho, p, state, grid)


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


def _ladder(mu, rho, p, state: QuantumState, grid: SpectralGrid | None, tol: float):
    """The doubling ladder behind :func:`nr_energy`.

    Returns the extrapolated level, the finest grid and the sine
    coefficients of level n there.  The first rung is solved densely, which
    fixes the level index; each finer rung is refined from the one before.
    """
    _check_oracle_args(mu, rho, p)
    if grid is None:
        grid = default_grid(mu, rho, p, state)
    cap = max(_DEFAULT_CAP, 2 * grid.points)
    values: list[float] = []
    n_pts = grid.points
    while n_pts <= cap:
        level = SpectralGrid(grid.box_radius, n_pts)
        if values:
            levels, coeffs = _next_rung(mu, rho, p, state, level, levels, coeffs)
        else:
            levels, coeffs = _dense_levels(mu, rho, p, state, level)
        values.append(float(levels[state.n]))
        if p < 0 and values[-1] >= 0.0:
            raise DomainError(
                f"state (n={state.n}, l={state.l}) is unbound for p={p:g} in this box"
            )
        if len(values) >= 2:
            best, est = _ladder_estimate(values)
            if est <= tol * max(abs(best), 1e-300):
                return best, level, coeffs[:, state.n]
        n_pts *= 2
    raise ConvergenceFailure(
        f"eigenvalue estimate stuck at relative error ~{est / max(abs(best), 1e-300):.1e} "
        f"with {n_pts // 2} points (tol {tol:g}); steep-cusp s-waves "
        f"(noninteger p < -1) converge slowly on uniform grids, consider a looser tol"
    )


def nr_energy(
    mu: float,
    rho: float,
    p: float,
    state: QuantumState,
    grid: SpectralGrid | None = None,
    *,
    tol: float = _NR_TOL,
) -> tuple[float, SpectralGrid]:
    """Extrapolated (n, l) eigenvalue and the finest grid used.

    Runs the doubling ladder from ``grid`` (or the default box) until the
    Richardson error estimate drops below ``tol`` relative, raising
    ConvergenceFailure at the point cap and DomainError when a p < 0 state
    comes out unbound.
    """
    energy, level, _ = _ladder(mu, rho, p, state, grid, tol)
    return energy, level


def nr_eigenvalue(
    mu: float,
    rho: float,
    p: float,
    state: QuantumState,
    grid: SpectralGrid | None = None,
) -> RadialEigenpair:
    """Converged (n, l) eigenpair of p^2/(2 mu) + rho*sign(p)*r^p.

    The energy is ladder-extrapolated as in :func:`nr_energy`, to its default
    1e-7 relative; the amplitudes are the finest rung's level, normalized to
    sum(u^2) dr = 1 with a positive leading lobe.
    """
    energy, level, coeffs = _ladder(mu, rho, p, state, grid, _NR_TOL)
    u = _dst(coeffs)
    u = u / (np.linalg.norm(u) * math.sqrt(level.spacing))
    lead = np.nonzero(np.abs(u) > 1e-8 * np.max(np.abs(u)))[0][0]
    if u[lead] < 0:
        u = -u
    return RadialEigenpair(energy, u, level)


def afm_eigenstate(
    sol: AfmSolution,
    potential: PowerLawPotential,
    p: float,
    state: QuantumState,
) -> RadialEigenpair:
    """Approximate eigenstate attached to a solved configuration.

    Freezes the einbeins at their solution values: the reduced mass is
    mu = nu1*nu2/(nu1+nu2) and the auxiliary coupling is the local ratio
    rho = V'(r0) / (|p| r0^(p-1)).
    """
    mu = sol.nu1 * sol.nu2 / (sol.nu1 + sol.nu2)
    return nr_eigenvalue(mu, auxiliary_coupling(sol, potential, p), p, state)


def auxiliary_coupling(sol: AfmSolution, potential: PowerLawPotential, p: float) -> float:
    """rho = V'(r0)/(|p| r0^(p-1)), the frozen auxiliary-field coupling."""
    return float(potential.derivative(sol.r0) / (abs(p) * sol.r0 ** (p - 1.0)))
