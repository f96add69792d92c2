"""Radial nonrelativistic eigensolver for H = p^2/(2 mu) + rho*sign(p)*r^p.

r = a x with a^(p+2) = 1/(mu rho) turns H into rho a^p (p_x^2/2 + sign(p)*x^p),
so the unit problem is solved once and its energy is rescaled, and the maps
between Q and the eigenvalue are stated once at mu = rho = 1 and rescaled
the same way (:func:`_rescale`); a unit of (mu, rho) or a rescaled energy
outside the double range is a DomainError.  The unit
problem is Rayleigh-Ritz in the Laguerre basis of :mod:`.reference`: each
rung N = 20, 40, 80, 160 builds H from the cached unit-scale p_l^2 and r^p
matrices at the basis scale h and bisects level n alone, on the reversed
matrix's tridiagonal at abstol 2 safmin (the eps ||H|| that the subset
solvers lost came from their abstol 0, not from bisection), and the
reference's ladder accepts, extrapolates (Aitken) or refuses the rungs, on
one BLAS thread.
Every rung is an upper bound on the true level.  h puts the n-th basis
function at the variational radius of the seed Q, and a confining r^p term
caps it so that the round-off of its matrix stays below the tolerance.

The basis bounds the levels it reaches.  Level n needs rungs N > n; at
q_numeric's default tolerance the ladder converges, at l = 0, for n <= 17 at
p = 4, 23 at p = 2, 22 at p = -1, 27 at p = 1 and 29 at p = 0.5; beyond
that it raises ConvergenceFailure.  At l >= 1 an attractive p >= -1 has no
cusp and takes the natural scale: p = -1, -0.75, -0.5 and -0.25 converge at
n = 0 for every l measured, up to 1e5, and p = -1 up to l = 1e150.  A
steeper p keeps the 3x finer cusp scale and converges at n = 0 for
1 <= l <= 61 at p = -1.5 and 5 <= l <= 51 at p = -1.9.  A confining p has
no l limit of convergence short of the double range: p = 0.5, 1, 1.5, 2,
2.5, 4.5 and 8 converge at n = 0 for every l measured, up to 1000, p = 1, 2
and 4 up to l = 1e30, and p = 1 up to l = 1e306.  A non-integer p has no
l limit of its own: p = -0.75, -0.5, 0.5 and 1.5 converge at n = 0 up to
l = 1e160 onto l + 1/2 + sqrt(p+2)/2 (to 3.5e-14 from l = 1e7 up), p = 2.5
up to l = 1e30 and p = 0.5 at l = 1e300.  DomainError refuses a p whose
r^p matrix may leave the double range (p = 2 beyond l ~ 3e153, p = 2.5 at
l = 1e160, a larger p sooner); a p < 0 where the variational radius of
the seed Q does (p = -1 for Q above ~1.3e154, p = -0.5 at l = 1e300); and
a rung whose x matrix J would (N = 160 beyond l ~ 5.6e305, N = 20 beyond
~4.5e307).
"""
from __future__ import annotations

import contextlib
import functools
import math
import sys

from . import core, reference
from .errors import DomainError
from .types import GlobalQ, QuantumState

_NR_TOL = 1e-7
_LOG_TINY, _LOG_MAX = math.log(sys.float_info.min), math.log(sys.float_info.max)


def energy_from_q(q_value: float, mu: float, rho: float, p: float) -> float:
    """Power-law eigenvalue parameterized by the global quantum number Q: the unit eigenvalue
    (p+2)/(2p) |p|^(2/(p+2)) (Q^2)^(p/(p+2)) at mu = rho = 1, rescaled by the energy unit of (mu, rho)
    (:func:`_rescale`).  ValueError for mu, rho or p as :func:`check_args`, DomainError for a Q <= 0 and
    for a unit eigenvalue, energy unit or eigenvalue beyond the double range (a normal double)."""
    log_unit = _log_energy_unit(mu, rho, p)
    with contextlib.suppress(OverflowError, ZeroDivisionError, DomainError):  # a power out of range, or 0 ** -x
        if q_value > 0.0:
            unit_energy = (p + 2.0) / (2.0 * p) * abs(p) ** (2.0 / (p + 2.0)) * (q_value * q_value) ** (p / (p + 2.0))
            return _rescale(unit_energy, log_unit)
    raise DomainError(f"the eigenvalue at Q={q_value:g}, mu={mu:g}, rho={rho:g}, p={p:g} leaves the double range")


def invert_q(epsilon: float, mu: float, rho: float, p: float) -> GlobalQ:
    """Recover Q from an eigenvalue of p^2/(2 mu) + rho*sign(p)*r^p: the inverse of :func:`energy_from_q`
    on the eigenvalue in the energy unit of (mu, rho).

    The eigenvalue sign must match sign(p): confining exponents have positive
    spectra, attractive negative exponents have negative bound-state energies.
    ValueError for mu, rho or p as :func:`check_args`, DomainError for an eigenvalue in that unit (a normal
    double) or a Q beyond the double range.
    """
    log_unit = _log_energy_unit(mu, rho, p)
    if math.copysign(1.0, p) * epsilon <= 0.0:
        raise DomainError(f"eigenvalue sign {math.copysign(1, epsilon):+.0f} is inconsistent with p={p:g}")
    with contextlib.suppress(OverflowError, ZeroDivisionError, DomainError):  # a power beyond the double range
        base = 2.0 * p * epsilon / ((p + 2.0) * abs(p) ** (2.0 / (p + 2.0)))
        value = _rescale(base, -log_unit) ** ((p + 2.0) / (2.0 * p))
        if 0.0 < value < math.inf:
            return GlobalQ(value, "numeric", p)  # a NaN eigenvalue fails in _rescale
    raise DomainError(f"Q from the eigenvalue {epsilon:g} at mu={mu:g}, rho={rho:g}, p={p:g} leaves the double range")


def check_args(mu: float, rho: float, p: float) -> None:
    """ValueError unless mu, rho > 0 and p > -2 is finite and nonzero."""
    if not (mu > 0.0 and rho > 0.0):
        raise ValueError("mu and rho must be positive")
    if not math.isfinite(p) or p <= -2.0 or p == 0.0:
        raise ValueError("exponent p must be finite, > -2 and nonzero")


def seed_q(p: float, state: QuantumState) -> float:
    """Analytic Q(2) = 2n+l+3/2 for p > 0 and Q(-1) = n+l+1 for p < 0."""
    return core.q_exact(2 if p > 0 else -1, state).value


def _log_energy_unit(mu: float, rho: float, p: float) -> float:
    """Logarithm of the energy unit rho^(2/(p+2)) mu^(-p/(p+2))."""
    check_args(mu, rho, p)
    return (2.0 * math.log(rho) - p * math.log(mu)) / (p + 2.0)


def _rescale(value: float, log_unit: float) -> float:
    """value * e^log_unit, or DomainError where the unit or the rescaled value (a 0 value included) leaves
    the double range."""
    if not (_LOG_TINY < log_unit < _LOG_MAX and value != 0 and _LOG_TINY < math.log(abs(value)) + log_unit < _LOG_MAX):
        raise DomainError(f"the energy unit e^{log_unit:.6g} of these mu and rho leaves the double range")
    return value * math.exp(log_unit)


@functools.lru_cache(maxsize=reference._CACHE_SIZE)
def _solve(p: float, state: QuantumState, tol: float) -> float:
    """Level n of p_l^2/2 + sign(p)*r^p; the basis scale comes from the variational radius
    r0 = (Q^2/|p|)^(1/(p+2)) and energy of the seed Q, an inf where that energy leaves the
    double range, which leaves the scale uncapped."""
    q = seed_q(p, state)
    square = q * q / abs(p)
    try:  # where Q^2/|p| overflows (Q above ~1.3e154), the same radius as (Q/sqrt|p|)^(2/(p+2))
        radius = square ** (1.0 / (p + 2.0)) if square < math.inf else (q / math.sqrt(abs(p))) ** (2.0 / (p + 2.0))
    except OverflowError:  # p < 0: the power of a finite base can overflow, and a float power raises
        radius = math.inf
    if not radius < math.inf:
        raise DomainError(f"the variational radius at the seed Q = {q:.6g} leaves the double range")
    try:
        seed = energy_from_q(q, 1.0, 1.0, p)
    except DomainError:
        seed = math.inf
    hamiltonian = functools.partial(reference.nr_hamiltonian, p, state.l)
    return reference.ladder("oracle", hamiltonian, state, ((1.0, p),), (radius, seed), tol, tol, 0.0)[0]


def nr_energy(mu: float, rho: float, p: float, state: QuantumState, *, tol: float = _NR_TOL) -> float:
    """The (n, l) eigenvalue, extrapolated over the basis ladder.

    Raises ConvergenceFailure where :func:`.reference.ladder` refuses the
    level at ``tol`` relative, which bounds the levels it reaches (see the
    module docstring), and DomainError where the r^p matrix (a steep p) or
    the energy unit of (mu, rho) leaves the double range.
    """
    log_unit = _log_energy_unit(mu, rho, p)
    return _rescale(_solve(p, state, tol), log_unit)

