"""Auxiliary-field upper bounds for the two-body spinless Salpeter equation.

The semirelativistic eigenvalue problem with kinetic terms
sqrt(p^2 + m1^2) + sqrt(p^2 + m2^2) and a power-law potential reduces, after
extremizing over the auxiliary (einbein) fields, to a single transcendental
equation for the mean radius r0:

    p0^2/nu1 + p0^2/nu2 = r0 V'(r0),   p0 = Q/r0,  nu_i = sqrt(p0^2 + m_i^2),

after which the mass is M = nu1 + nu2 + V(r0).  The auxiliary potential
sign(p) r^p enters only through the global quantum number Q.  When the real
potential is a concave function of the auxiliary one, M is a certified upper
bound on the true eigenvalue.

This module solves that system generically, provides the closed forms for
the Coulomb (-a/r) and linear (b*r) potentials with one massless particle,
their symmetric-kinetic (sigma-fold) counterparts, and the ultra- and
nonrelativistic expansions of the linear solution.
"""
from __future__ import annotations

import math
import sys

from .airy import airy_ai_zeros
from .errors import CollapseDetected, ConvergenceFailure, DomainError, NoBoundState, UnsupportedCase
from .types import (
    CERT_CONCAVE,
    CERT_NONE,
    CERT_PROPORTIONAL,
    AfmSolution,
    BoundCertificate,
    GlobalQ,
    PowerLawPotential,
    QuantumState,
)

__all__ = [
    "q_exact",
    "q_numeric",
    "solve_afm",
    "concavity_certificate",
    "coulomb_closed",
    "coulomb_symmetric",
    "linear_closed",
    "linear_symmetric_massless",
    "linear_ur_expansion",
    "linear_nr_expansion",
    "rotation_radii",
    "residuals",
]

_ROOT32 = math.sqrt(32.0)

# A candidate length scale beyond 1e250 or below 1e-250, in decades.
_DECADE_LIMIT = 250.0

# Iterations of Brent's method before it gives up, scipy's brentq default.
_BRENT_MAXITER = 100


# ---------------------------------------------------------------------------
# global quantum numbers


def q_exact(p: float, state: QuantumState) -> GlobalQ:
    """Analytic global quantum number for p in {2, 1, -1}.

    Q(2) = 2n + l + 3/2, Q(-1) = n + l + 1, and for p = 1 (s-waves only)
    Q(1) = 2*(-a_n/3)**(3/2) with a_n the (n+1)-th zero of Ai.  Note the 3/2
    power: it is forced by the eigenvalue parameterization that defines Q,
    as the linear-potential spectrum is -a_n (rho^2/2mu)^(1/3).
    """
    if p == 2:
        return GlobalQ(2.0 * state.n + state.l + 1.5, "analytic_p2", 2.0)
    if p == -1:
        return GlobalQ(float(state.n + state.l + 1), "analytic_pm1", -1.0)
    if p == 1:
        if state.l != 0:
            raise UnsupportedCase("p = 1 has analytic Q only for l = 0; use q_numeric")
        a_n = airy_ai_zeros(state.n + 1)[state.n]
        return GlobalQ(2.0 * (-a_n / 3.0) ** 1.5, "analytic_p1", 1.0)
    raise UnsupportedCase(f"no analytic Q for p = {p:g}; use q_numeric")


def q_numeric(
    p: float,
    state: QuantumState,
    *,
    mu: float = 1.0,
    rho: float = 1.0,
    tol: float = 1e-6,
) -> GlobalQ:
    """Global quantum number from the nonrelativistic oracle, any p > -2.

    Solves p^2/2 + sign(p)*r^p for the (n, l) level and inverts the Q
    parameterization.  The result is independent of the (mu, rho) chosen, so
    they are only checked to be positive; ``tol`` is the absolute accuracy
    requested on Q itself.  Steep-cusp s-waves (l = 0, p <= -1.5) converge
    slowly in the Laguerre basis and may need a looser tol to avoid
    ConvergenceFailure.  The basis of at most 160 functions reaches
    n <= 17-29 (by p, at l = 0) and l <= 69-73 (attractive p) or 80-83
    (confining p, at n = 0), as listed in :mod:`.oracle`; beyond
    that it raises ConvergenceFailure, or DomainError for l >= 85 (l = 84
    when p >= 1).
    """
    from . import oracle  # imports numpy and scipy: loaded here, so the solver itself runs on floats alone

    oracle.check_args(mu, rho, p)
    # dQ/Q = |(p+2)/(2p)| * deps/eps
    eps_tol = max(tol / oracle.seed_q(p, state) * abs(2.0 * p / (p + 2.0)), 1e-9)
    return oracle.invert_q(oracle.nr_energy(1.0, 1.0, p, state, tol=eps_tol), 1.0, 1.0, p)


def _resolve_q(q: GlobalQ | float) -> GlobalQ:
    if isinstance(q, GlobalQ):
        return q
    return GlobalQ.explicit(float(q))


# ---------------------------------------------------------------------------
# certificates


def concavity_certificate(potential: PowerLawPotential, p: float) -> BoundCertificate:
    """Certify the upper-bound property of the auxiliary exponent p.

    Writing V(x) = g(sign(p) x^p), the mass is an upper bound when g is
    concave.  For a term sign(lam) alpha r^lam this reduces to
    sign(lam) * (lam/p) * (lam/p - 1) <= 0, applied termwise; a sum of
    concave terms is concave, so the test is sufficient but not necessary.
    """
    if not math.isfinite(p) or p <= -2.0 or p == 0.0:
        raise DomainError("auxiliary exponent must be finite, > -2 and nonzero")
    active = potential.active_terms()
    if not active:
        return BoundCertificate(False, CERT_NONE)
    if all(lam == p for _, lam in active):
        return BoundCertificate(True, CERT_PROPORTIONAL)
    for _, lam in active:
        ratio = lam / p
        if math.copysign(1.0, lam) * ratio * (ratio - 1.0) > 0.0:
            return BoundCertificate(False, CERT_NONE)
    return BoundCertificate(True, CERT_CONCAVE)


def _certified(potential: PowerLawPotential, q: GlobalQ) -> bool:
    if q.p is None:
        return False
    return concavity_certificate(potential, q.p).is_upper_bound


# ---------------------------------------------------------------------------
# the generic solver


def check_mass_squares(*masses: float) -> None:
    """Raise DomainError for a mass whose square leaves the double range."""
    if not all(math.isfinite(m * m) for m in masses):
        raise DomainError("masses above ~1.3e154 square beyond the double range")


def _scan_window(
    potential: PowerLawPotential, q_value: float, m1: float, m2: float
) -> tuple[float, float]:
    """Decades (log10 radii) of the scan where the virial balance may close.

    Each active term and the heavier mass give a candidate length scale; the
    scan runs from six decades below the smallest to six above the largest,
    so a term with a negligible coupling widens the window without moving it
    off the root.  Candidates are formed as logarithms, so an exponent near
    -1 cannot overflow; those that would push the scan outside the double
    range are dropped (a vanishingly small mass contributes no usable scale).
    """
    log_q = math.log10(q_value)
    logs = [
        (log_q - math.log10(abs(lam)) - math.log10(a)) / (lam + 1.0)
        for a, lam in potential.active_terms()
        if lam != -1.0
    ]
    heaviest = max(m1, m2)
    if heaviest > 0.0:
        logs.append(log_q - math.log10(heaviest))
    logs = [x for x in logs if abs(x) < _DECADE_LIMIT] or [0.0]
    return min(logs) - 6.0, max(logs) + 6.0


def _virial_balance(terms, q_value: float, k1: float, k2: float):
    """The virial balance divided by r (same sign, same roots), as balance(r, hypot).

    r^2 V'(r) - Q p0 (1/nu1 + 1/nu2) with p0/nu = 1/hypot(1, m r/Q), k_i =
    m_i/Q.  r^2 V'(r) goes term by term, since the product r**2 * V'(r)
    underflows to a spurious sign far below the root, where the scan window
    may reach; no term of this form overflows at a root.  ``hypot`` is
    math.hypot for a float r (the default) and np.hypot for an array.
    """
    pulls = [(abs(lam) * a, lam + 1.0) for a, lam in terms]

    def balance(r, hypot=math.hypot):
        pull = 0.0
        for c, e in pulls:
            pull = pull + c * r**e
        return pull - q_value / hypot(1.0, k1 * r) - q_value / hypot(1.0, k2 * r)

    return balance


def _bracket_root(balance, window: tuple[float, float], q_value: float, monotone: bool) -> tuple[float, float]:
    """First - to + crossing of the balance on a log grid over the window's decades.

    Grid point i is 10**(lo + i*step), 40 points per decade.  For the
    balance of :func:`solve_afm`, dM/dr0 = balance/r0^2, so such a crossing
    is a local minimum of M(r0); a + to - crossing is a local maximum and is
    skipped.  ``balance`` is :func:`_virial_balance`'s.  When every active
    term has lam >= -1 (``monotone``) the balance is nondecreasing in r and
    changes sign at most once, so bisecting the grid indices on float
    values finds the scan's cell in about a dozen evaluations; otherwise
    (a steep attractive term can make it cross twice) the whole grid is
    evaluated as one array.  Returns a bracketing pair, or raises the
    no-root errors :func:`solve_afm` documents, from the sign of the first
    finite grid value.
    """
    lo, hi = window
    count = round(40 * (hi - lo)) + 1
    step = (hi - lo) / (count - 1)
    search = _bisect_grid if monotone else _scan_grid
    bracket, lead = search(balance, lo, step, count)
    if bracket is not None:
        return bracket
    if lead is None:
        raise DomainError("virial balance is not representable over the scanned range")
    if lead > 0.0:
        # potential overwhelms kinetic pressure at every radius
        raise CollapseDetected(
            f"virial balance has no root: the interaction drives the system to r0 -> 0 at Q={q_value:g}"
        )
    raise NoBoundState(
        f"virial balance has no root: the interaction is too weak to bind at Q={q_value:g}"
    )


def _scan_grid(balance, lo: float, step: float, count: int):
    """(bracket of the first - to + cell, first finite value), from one array evaluation.

    Either is None when there is none.
    """
    import numpy as np

    grid = 10.0 ** (lo + np.arange(count) * step)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        values = balance(grid, np.hypot)
    ups = np.nonzero((values[:-1] < 0.0) & (values[1:] >= 0.0))[0]
    if len(ups):
        i = ups[0]
        return (float(grid[i]), float(grid[i + 1])), None
    finite = values[np.isfinite(values)]
    return None, float(finite[0]) if len(finite) else None


def _bisect_grid(balance, lo: float, step: float, count: int):
    """:func:`_scan_grid`'s outcome for a nondecreasing balance, from float values.

    An OverflowError of a float power counts as +inf.  Without a crossing
    the second item is a finite value with the sign of the first finite
    one: a balance that is +inf (or NaN) at the first point is nowhere
    finite, one that is >= 0 there never crosses, and one still < 0 at the
    last point is < 0 throughout.
    """

    def point(i):
        return 10.0 ** (lo + i * step)

    def value(i):
        try:
            return balance(point(i))
        except OverflowError:
            return math.inf

    first = value(0)
    if not first < math.inf:
        return None, None
    if first >= 0.0:
        return None, first
    last = value(count - 1)
    if last < 0.0:
        # all negative, and -inf only where the kinetic terms overflow at small r
        return None, last if last > -math.inf else None
    below, above = 0, count - 1
    while above - below > 1:
        mid = (below + above) // 2
        if value(mid) < 0.0:
            below = mid
        else:
            above = mid
    return (point(below), point(above)), None


def _brent(f, xa: float, xb: float, xtol: float, rtol: float) -> float:
    """Root of the scalar function f in the bracket [xa, xb] by Brent's method.

    R. P. Brent, *Algorithms for Minimization without Derivatives* (1973),
    ch. 4, as coded in scipy's ``brentq.c`` and ported here step for step,
    so every iterate, and the root, is the double ``scipy.optimize.brentq``
    returns for the same arguments and its default of 100 iterations.  Stops
    when half the bracket is below (xtol + rtol*|x|)/2.  A NaN value of f
    raises DomainError, no sign change ValueError, and 100 iterations without
    convergence ConvergenceFailure.
    """

    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise DomainError(f"the function value at x={x!r} is NaN")
        return fx

    # doubles, as scipy's C loop has them: a numpy scalar here would leak into the root
    xpre, xcur, xtol, rtol = float(xa), float(xb), float(xtol), float(rtol)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # keep the best point in xcur
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                denom = dblk * dpre * (fblk - fpre)
                # C divides a zero denominator to inf or nan, and both bisect below
                stry = -fcur * (fblk * dblk - fpre * dpre) / denom if denom else math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # a good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise ConvergenceFailure(f"Brent's method did not converge in {_BRENT_MAXITER} iterations (last x={xcur!r})")


def solve_afm(m1: float, m2: float, potential: PowerLawPotential, q: GlobalQ | float) -> AfmSolution:
    """Solve the reduced extremization system for one level.

    Locates the smallest radius where the semirelativistic virial balance
    crosses from negative to positive, a local minimum of M(r0) (a log grid
    of 40 points per decade from six decades below the smallest candidate
    length scale to six above the largest, searched by bisection when every
    term has lam >= -1 and scanned whole otherwise, see
    :func:`_bracket_root`; then Brent's method on that grid cell to machine
    precision, see :func:`_brent`), and assembles the mass in floats.  All
    three defining relations hold to better than 1e-10 relative on the
    returned solution.  At m1 = 0, r0 solves
    Q + Q^2/sqrt(Q^2 + m2^2 r0^2) = sum_i |lam_i| alpha_i r0^(lam_i+1).

    Without such a crossing, raises NoBoundState when the balance is
    negative at small radii (no binding, e.g. pure Coulomb with Q >= a) and
    CollapseDetected when it is positive there (strong-coupling collapse);
    CollapseDetected also when the assembled mass is nonpositive, and
    DomainError when the balance is nowhere finite, when the mass or
    p0 = Q/r0 leaves the double range, or when the root fails the 1e-10
    contract: its virial residual, recomputed in floats, is above 1e-10
    (the balance is not representable near the root).
    A negative or non-finite particle mass raises ValueError.
    """
    if not (0.0 <= m1 < math.inf and 0.0 <= m2 < math.inf):
        raise ValueError("masses must be finite and non-negative")
    q = _resolve_q(q)
    qv = q.value
    terms = potential.active_terms()
    if not terms:
        raise DomainError("potential has no active term")

    balance = _virial_balance(terms, qv, m1 / qv, m2 / qv)
    monotone = all(lam >= -1.0 for _, lam in terms)
    bracket = _bracket_root(balance, _scan_window(potential, qv, m1, m2), qv, monotone)
    try:
        r0 = _brent(balance, *bracket, xtol=1e-20 * bracket[0], rtol=1e-15)
    except OverflowError as err:  # a bracket end where a term exceeds the double range
        raise DomainError("virial balance is not representable near the root") from err
    return _assemble(m1, m2, potential, q, r0)


def _assemble(m1, m2, potential, q: GlobalQ, r0: float) -> AfmSolution:
    """The solution at r0, M = nu1 + nu2 + V(r0) in floats over the active terms.

    The virial residual is checked first: above 1e-10 the balance lost its
    digits at r0 (a power subnormal or 0 while its product is not), or Brent
    converged on a jump to infinity where a term overflows, not on a root.
    """
    p0 = q.value / r0
    if p0 < sys.float_info.min:  # below the normal range p0 * r0 no longer reproduces Q
        raise DomainError(f"the momentum Q/r0 at r0={r0:g} underflows the double range")
    nu1 = math.hypot(p0, m1)
    nu2 = math.hypot(p0, m2)
    terms = potential.active_terms()
    if not _virial_residual(terms, r0, p0, nu1, nu2) <= 1e-10:
        raise DomainError(f"virial balance is not representable near the root (r0={r0:g})")
    try:
        v0 = sum(math.copysign(1.0, lam) * a * r0**lam for a, lam in terms)
    except OverflowError as err:
        raise DomainError(f"the potential at r0={r0:g} exceeds the double range") from err
    mass = nu1 + nu2 + v0
    if not math.isfinite(mass):
        raise DomainError(f"the mass at r0={r0:g} exceeds the double range")
    if mass <= 0.0:
        raise CollapseDetected(f"solution at r0={r0:g} has nonpositive mass {mass:g}")
    return AfmSolution(r0, p0, nu1, nu2, mass, q, _certified(potential, q))


# ---------------------------------------------------------------------------
# Coulomb potential, one massless particle


def coulomb_closed(m: float, a: float, q: GlobalQ | float) -> AfmSolution:
    """Closed-form solution for V = -a/r with masses (0, m).

    Exists only inside the window a/2 < Q < a: at Q >= a the binding
    cancels (M -> m, r0 -> infinity), at Q <= a/2 the system collapses
    (M -> 0, r0 -> 0).
    """
    if m <= 0.0:
        raise DomainError("the massive particle must have m > 0 (no scale otherwise)")
    if a <= 0.0:
        raise DomainError("coupling must be positive")
    q = _resolve_q(q)
    qv = q.value
    if qv >= a:
        raise NoBoundState(
            f"no binding: Q >= a cancels the attraction (Q={qv:g}, a={a:g}); need a/2 < Q < a"
        )
    if qv <= a / 2.0:
        raise CollapseDetected(
            f"collapse: Q <= a/2 (Q={qv:g}, a={a:g}); need a/2 < Q < a"
        )
    r0 = (qv / m) * math.sqrt(a * (2.0 * qv - a)) / (a - qv)
    p0 = qv / r0
    nu2 = math.hypot(p0, m)
    x = a / (2.0 * qv)
    mass = 2.0 * m * math.sqrt(x * (1.0 - x))
    potential = PowerLawPotential.coulomb(a)
    return AfmSolution(r0, p0, p0, nu2, mass, q, _certified(potential, q))


def coulomb_symmetric(sigma: float, m: float, a: float, q: GlobalQ | float) -> float:
    """Mass for the sigma-fold symmetric kinetic term with V = -a/r.

    M = sigma * m * sqrt(1 - (a/(sigma Q))^2); requires a < sigma*Q.
    """
    if sigma <= 0.0 or m < 0.0 or a <= 0.0:
        raise DomainError("need sigma > 0, m >= 0, a > 0")
    qv = _resolve_q(q).value
    if a >= sigma * qv:
        raise NoBoundState(f"no bound state: a >= sigma*Q (a={a:g}, sigma*Q={sigma * qv:g})")
    ratio = a / (sigma * qv)
    return sigma * m * math.sqrt(1.0 - ratio * ratio)


# ---------------------------------------------------------------------------
# linear potential, one massless particle


def _linear_mass_scale(b: float, q_value: float) -> float:
    """Mass of the fully massless two-body linear system, 2*sqrt(2 b Q)."""
    return 2.0 * math.sqrt(2.0 * b * q_value)


def _linear_radius(x: float, b: float, q_value: float) -> float:
    # r0^2 = Q/b - Q^2/(2m^2) + Q^(3/2)/(2m^2) sqrt(Q + 4m^2/b) with m = x*M0,
    # so 4m^2/b = 32 Q x^2, rewritten with the conjugate so every term is
    # positive for all m >= 0 and nothing overflows for large x
    return math.sqrt(q_value / b * (1.0 + 2.0 / (1.0 + math.hypot(1.0, _ROOT32 * x))))


def _linear_mass(x: float, m0: float) -> float:
    # the closed form in units of M0: a = sqrt(1 + 32 x^2) + 1 and the
    # conjugate 32 x^2/a, no cancellation and no x^2 that can overflow
    a = math.hypot(1.0, _ROOT32 * x) + 1.0
    num = 2.0 * math.sqrt(2.0) * (1.0 + 1.0 / a) + math.hypot(4.0 * x, math.sqrt(a))
    return m0 * (num / math.sqrt(16.0 + 32.0 / a))


def linear_closed(m: float, b: float, q: GlobalQ | float) -> AfmSolution:
    """Closed-form solution for V = b*r with masses (0, m), any m >= 0."""
    if b <= 0.0:
        raise DomainError("slope must be positive")
    if m < 0.0:
        raise ValueError("mass must be non-negative")
    q = _resolve_q(q)
    m0 = _linear_mass_scale(b, q.value)
    x = m / m0
    r0 = _linear_radius(x, b, q.value)
    p0 = q.value / r0
    mass = _linear_mass(x, m0)
    if not math.isfinite(mass):
        raise DomainError(f"the linear closed form is not representable at m={m:g}, b={b:g}")
    potential = PowerLawPotential.linear(b)
    return AfmSolution(r0, p0, p0, math.hypot(p0, m), mass, q, _certified(potential, q))


def linear_symmetric_massless(sigma: float, b: float, q: GlobalQ | float) -> float:
    """Massless mass scale for the sigma-fold symmetric kinetic term: 2*sqrt(sigma b Q)."""
    if sigma <= 0.0 or b <= 0.0:
        raise DomainError("need sigma > 0 and b > 0")
    return 2.0 * math.sqrt(sigma * b * _resolve_q(q).value)


def linear_ur_expansion(m: float, b: float, q: GlobalQ | float) -> float:
    """Ultrarelativistic (m << sqrt(b)) expansion: M0 + 2 m^2/M0."""
    if b <= 0.0:
        raise DomainError("slope must be positive")
    m0 = _linear_mass_scale(b, _resolve_q(q).value)
    mass = m0 + 2.0 * m * m / m0
    if not math.isfinite(mass):
        raise DomainError(f"the ultrarelativistic expansion exceeds the double range at m={m:g}")
    return mass


def linear_nr_expansion(m: float, b: float, q: GlobalQ | float) -> float:
    """Nonrelativistic (m >> sqrt(b)) expansion: m + M1 + M1^2/(8m), M1 = 2*sqrt(bQ)."""
    if m <= 0.0:
        raise DomainError("the nonrelativistic expansion needs m > 0")
    if b <= 0.0:
        raise DomainError("slope must be positive")
    m1 = 2.0 * math.sqrt(b * _resolve_q(q).value)
    return m + m1 + m1 * m1 / (8.0 * m)


# ---------------------------------------------------------------------------
# diagnostics


def rotation_radii(sol: AfmSolution) -> tuple[float, float]:
    """Split r0 into the two rigid-rotation radii, r_i = r0 * nu_j/(nu1+nu2).

    The heavier particle orbits closer to the center of mass; r1 + r2 = r0.
    """
    total = sol.nu1 + sol.nu2
    return sol.r0 * sol.nu2 / total, sol.r0 * sol.nu1 / total


def residuals(
    sol: AfmSolution,
    m1: float,
    m2: float,
    potential: PowerLawPotential,
    q: GlobalQ | float,
) -> tuple[float, float, float]:
    """Relative residuals of the three defining relations of a solution.

    Returns (mass assembly, p0*r0 = Q, virial balance); each is below 1e-10
    for every solution produced by this module.
    """
    qv = _resolve_q(q).value
    nu1 = math.hypot(sol.p0, m1)
    nu2 = math.hypot(sol.p0, m2)
    res_mass = abs(sol.mass - (nu1 + nu2 + potential.value(sol.r0))) / abs(sol.mass)
    res_q = abs(sol.p0 * sol.r0 - qv) / qv
    return res_mass, res_q, _virial_residual(potential.active_terms(), sol.r0, sol.p0, nu1, nu2)


def _virial_residual(terms, r0: float, p0: float, nu1: float, nu2: float) -> float:
    """Relative residual of the virial balance r0 V'(r0) = p0^2/nu1 + p0^2/nu2, in floats.

    inf where the pull sum |lam| alpha r0^lam is 0 or leaves the double range.
    """
    try:
        pull = sum(abs(lam) * a * r0**lam for a, lam in terms)
    except OverflowError:
        return math.inf
    if not 0.0 < pull < math.inf:
        return math.inf
    # p0 * (p0/nu), since p0**2 leaves the double range for p0 above ~1e154 or below ~1e-154
    return abs(p0 * (p0 / nu1) + p0 * (p0 / nu2) - pull) / pull
