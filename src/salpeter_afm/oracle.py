"""Radial nonrelativistic eigensolver for H = p^2/(2 mu) + rho*sign(p)*r^p.

r = a x with a^(p+2) = 1/(mu rho) turns H into rho a^p (p_x^2/2 + sign(p)*x^p),
so the unit problem is solved once and its energy and radii are rescaled;
a unit of (mu, rho) outside the double range is a DomainError.  The unit
problem is Rayleigh-Ritz in the Laguerre basis of :mod:`.reference`: each
rung N = 20, 40, 80, 160 builds H from the cached unit-scale p_l^2 and r^p
matrices at the basis scale h and bisects level n alone, on the reversed
matrix's tridiagonal at abstol 2 safmin (the eps ||H|| that the subset
solvers lost came from their abstol 0, not from bisection), and the
reference's ladder accepts, extrapolates (Aitken) or refuses the rungs, on
one BLAS thread; :func:`nr_eigenvalue` takes its eigenvector from the same
solver on the finest rung.
Every rung is an upper bound on the true level.  h puts the n-th basis
function at the variational radius of the seed Q, and a confining r^p term
caps it so that the round-off of its matrix stays below the tolerance.

The basis bounds the levels it reaches.  Level n needs rungs N > n; at
q_numeric's default tolerance the ladder converges, at l = 0, for n <= 17 at
p = 4, 23 at p = 2, 22 at p = -1, 27 at p = 1 and 29 at p = 0.5, and at
n = 0 for l <= 69 at p = -1 and 73 at p = -0.5; beyond that it raises
ConvergenceFailure.  A confining p has no l limit of convergence short of
the double range: p = 0.5, 1, 1.5, 2, 2.5, 4.5 and 8 converge at n = 0 for
every l measured, up to 1000, p = 1, 2 and 4 up to l = 1e30, and p = 1 up
to l = 1e306.  DomainError refuses a non-integer p beyond l ~ 1.6e5, where
its r^p matrix rounds by more than 1e-9; a p whose r^p matrix may leave the
double range (p = 2 beyond l ~ 3e153, a larger p sooner); p = -1 where the
variational radius of the seed Q does (Q above ~1.3e154); and a rung whose
x matrix J would (N = 160 beyond l ~ 5.6e305, N = 20 beyond ~4.5e307).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import core, reference
from .errors import ConvergenceFailure, DomainError
from .types import AfmSolution, GlobalQ, PowerLawPotential, QuantumState

_NR_TOL = 1e-7
_SAMPLES = 4000  # uniform radii on which nr_eigenvalue samples u(r)
_EXTENT = 10.0  # the sampled radii reach this many times the mean radius <r>
_LOG_TINY, _LOG_MAX = math.log(np.finfo(float).tiny), math.log(np.finfo(float).max)


@dataclass(frozen=True)
class RadialEigenpair:
    """Energy and reduced radial wavefunction samples u(r_i).

    The energy is the ladder's estimate.  The amplitudes sample the finest
    rung's level on the uniform radii r_i = i * dr, are normalized to
    sum(u^2) * dr = 1 and carry n interior sign changes for the n-th radial
    excitation, with a positive leading lobe.
    """

    energy: float
    radii: np.ndarray
    amplitudes: np.ndarray


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
    check_args(mu, rho, p)
    base = 2.0 * p * epsilon / ((p + 2.0) * (abs(p) * rho) ** (2.0 / (p + 2.0)))
    if base <= 0.0:
        raise DomainError(
            f"eigenvalue sign {math.copysign(1, epsilon):+.0f} is inconsistent with p={p:g}"
        )
    value = math.sqrt(mu) * base ** ((p + 2.0) / (2.0 * p))
    return GlobalQ(value, "numeric", p)


def check_args(mu: float, rho: float, p: float) -> None:
    """ValueError unless mu, rho > 0 and p > -2 is finite and nonzero."""
    if not (mu > 0.0 and rho > 0.0):
        raise ValueError("mu and rho must be positive")
    if not math.isfinite(p) or p <= -2.0 or p == 0.0:
        raise ValueError("exponent p must be finite, > -2 and nonzero")


def seed_q(p: float, state: QuantumState) -> float:
    """Analytic Q(2) = 2n+l+3/2 for p > 0 and Q(-1) = n+l+1 for p < 0."""
    return core.q_exact(2 if p > 0 else -1, state).value


def _log_units(mu: float, rho: float, p: float) -> tuple[float, float]:
    """Logarithms of the energy unit rho^(2/(p+2)) mu^(-p/(p+2)) and the radius unit (mu rho)^(-1/(p+2))."""
    check_args(mu, rho, p)
    log_mu, log_rho = math.log(mu), math.log(rho)
    return (2.0 * log_rho - p * log_mu) / (p + 2.0), -(log_mu + log_rho) / (p + 2.0)


def _rescale(values, log_unit: float, what: str):
    """values * e^log_unit, or DomainError where the unit or a value in it leaves the double range."""
    logs = np.log(np.abs(values)) + log_unit
    if not (_LOG_TINY < log_unit < _LOG_MAX and _LOG_TINY < np.min(logs) and np.max(logs) < _LOG_MAX):
        raise DomainError(f"the {what} unit e^{log_unit:.6g} of these mu and rho leaves the double range")
    return values * math.exp(log_unit)


def _solve(p: float, state: QuantumState, tol: float) -> tuple[float, float, int]:
    """Level n of p_l^2/2 + sign(p)*r^p, the basis scale and the size of the last rung; the
    scale comes from the variational radius r0 = (Q^2/|p|)^(1/(p+2)) and energy of the seed Q."""
    q = seed_q(p, state)
    square = q * q / abs(p)
    try:  # where Q^2/|p| overflows (Q above ~1.3e154), the same radius as (Q/sqrt|p|)^(2/(p+2))
        radius = square ** (1.0 / (p + 2.0)) if square < math.inf else (q / math.sqrt(abs(p))) ** (2.0 / (p + 2.0))
    except OverflowError:  # p < 0: the power of a finite base can overflow, and a float power raises
        radius = math.inf
    if not radius < math.inf:
        raise DomainError(f"the variational radius at the seed Q = {q:.6g} leaves the double range")
    scale, _ = reference.basis_scale(radius, energy_from_q(q, 1.0, 1.0, p), state, ((1.0, p),), tol)
    build = functools.partial(reference.nr_hamiltonian, p, state.l, scale)
    energy, _, size = reference.ladder("oracle", build, state.n, scale, tol, tol, 0.0)
    if not (energy < 0.0 if p < 0.0 else energy > 0.0):  # a level has the sign of p
        raise ConvergenceFailure(
            f"oracle: level n={state.n}, l={state.l:.6g} came out at {energy:.6g}, whose sign contradicts "
            f"p={p:g}: the basis of scale h={scale:.6g} does not reach it"
        )
    return energy, scale, size


def nr_energy(mu: float, rho: float, p: float, state: QuantumState, *, tol: float = _NR_TOL) -> float:
    """The (n, l) eigenvalue, extrapolated over the basis ladder.

    Raises ConvergenceFailure when the ladder's error estimate exceeds
    ``tol`` relative, which bounds the levels it reaches (see the module
    docstring), or when the level's sign contradicts sign(p) (a basis that
    does not reach it, as for p = -1 at l = 1e20), and DomainError where the
    r^p matrix (a steep p) or the energy unit of (mu, rho) leaves the
    double range.
    """
    log_energy, _ = _log_units(mu, rho, p)
    return _rescale(_solve(p, state, tol)[0], log_energy, "energy")


@reference._one_blas_thread  # the ladder's rungs and the finest rung's eigenvector alike
def nr_eigenvalue(mu: float, rho: float, p: float, state: QuantumState) -> RadialEigenpair:
    """Converged (n, l) eigenpair of p^2/(2 mu) + rho*sign(p)*r^p.

    The energy is ladder-extrapolated as in :func:`nr_energy`, to its default
    1e-7 relative.  The amplitudes are the finest rung's eigenvector summed
    over the basis functions on uniform radii out to ten times its mean radius;
    where their recurrence leaves the double range (at some l past ~1e150)
    that is a DomainError.
    """
    log_energy, log_radius = _log_units(mu, rho, p)
    energy, scale, size = _solve(p, state, _NR_TOL)
    _, c = reference._level(reference.nr_hamiltonian(p, state.l, scale, size), state.n, vector=True)
    diag, off = reference.jacobi_matrix(state.l, size)
    mean_x = diag @ c**2 + 2.0 * off @ (c[:-1] * c[1:])  # <r>/h
    x = np.arange(1, _SAMPLES + 1) * (_EXTENT * mean_x * scale / _SAMPLES)
    radii = _rescale(x, log_radius, "radius")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # at a huge l the recurrence can overflow
        u = reference.basis_functions(state.l, scale, size, x) @ c
        u /= np.linalg.norm(u) * math.sqrt(radii[0])
    if not np.isfinite(u).all():
        raise DomainError(f"the basis functions at log10(l+1)={math.log10(state.l + 1):.4g} leave the double range")
    lead = np.nonzero(np.abs(u) > 1e-8 * np.max(np.abs(u)))[0][0]
    if u[lead] < 0:
        u = -u
    return RadialEigenpair(_rescale(energy, log_energy, "energy"), radii, u)


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
