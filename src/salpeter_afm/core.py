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

from .airy import airy_ai_zero
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
    _trusted_solution,
)

__all__ = [
    "q_exact",
    "q_numeric",
    "solve_afm",
    "concavity_certificate",
    "coulomb_closed",
    "coulomb_symmetric",
    "linear_closed",
    "linear_closed_mass",
    "linear_symmetric_massless",
    "linear_ur_expansion",
    "linear_nr_expansion",
    "rotation_radii",
    "residuals",
]

_ROOT32 = math.sqrt(32.0)

# A candidate length scale beyond 1e250 or below 1e-250, in decades.
_DECADE_LIMIT = 250.0

_LN10 = math.log(10.0)

# Iterations of Brent's method before it gives up, scipy's brentq default.
_BRENT_MAXITER = 100


# ---------------------------------------------------------------------------
# global quantum numbers


def q_exact(p: float, state: QuantumState) -> GlobalQ:
    """Analytic global quantum number for p in {2, 1, -1}.

    Q(2) = 2n + l + 3/2, Q(-1) = n + l + 1, and for p = 1 (s-waves only)
    Q(1) = 2*(-a_n/3)**(3/2) with a_n the (n+1)-th zero of Ai.  Note the 3/2
    power: it is forced by the eigenvalue parameterization that defines Q,
    as the linear-potential spectrum is -a_n (rho^2/2mu)^(1/3).  Raises
    DomainError where Q does not fit a double.
    """
    if p not in (2, -1, 1):
        raise UnsupportedCase(f"no analytic Q for p = {p:g}; use q_numeric")
    if p == 1 and state.l != 0:
        raise UnsupportedCase("p = 1 has analytic Q only for l = 0; use q_numeric")
    try:
        if p == 2:
            return GlobalQ(2.0 * state.n + state.l + 1.5, "analytic_p2", 2.0)
        if p == -1:
            return GlobalQ(float(state.n + state.l + 1), "analytic_pm1", -1.0)
        return GlobalQ(2.0 * (-airy_ai_zero(state.n) / 3.0) ** 1.5, "analytic_p1", 1.0)
    except (OverflowError, ValueError):  # an int beyond the double range, or GlobalQ refusing Q = inf
        raise DomainError(f"Q for p = {p:g} leaves the double range at this n and l") from None


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
    n <= 17-29 (by p, at l = 0) and l <= 69-73 (attractive p, at n = 0),
    and any l for a confining p, as listed in :mod:`.oracle`; beyond that
    it raises ConvergenceFailure.  A non-integer p past l ~ 1.6e5 raises
    DomainError, as does a level whose matrices or seed radius leave the
    double range: p = 2 past l ~ 3e153, p = -1 past Q ~ 1.3e154, p = 1 past
    l ~ 1e306.
    """
    from . import oracle  # numpy, and scipy at its ladder: loaded here, so the solver itself runs on floats alone

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


def concavity_certificate(potential: PowerLawPotential, p: float | None) -> BoundCertificate:
    """Certify the upper-bound property of the auxiliary exponent p.

    Writing V(x) = g(sign(p) x^p), the mass is an upper bound when g is
    concave.  For a term sign(lam) alpha r^lam this reduces to
    sign(lam) * (lam/p) * (lam/p - 1) <= 0, applied termwise; a sum of
    concave terms is concave, so the test is sufficient but not necessary.
    Without p (None, an explicit Q given alone) nothing is certified.
    """
    terms = potential.active_terms()
    if not _certified(terms, p):
        return BoundCertificate(False, CERT_NONE)
    return BoundCertificate(True, CERT_PROPORTIONAL if all(lam == p for _, lam in terms) else CERT_CONCAVE)


def _certified(terms, p: float | None) -> bool:
    """Whether the active ``terms`` pass :func:`concavity_certificate`'s termwise test for p.

    False without a term or without p (None); a term with lam == p passes
    (its ratio is 1).  DomainError for a p that is not finite, > -2 and
    nonzero, with or without terms.
    """
    if p is None:
        return False
    if not math.isfinite(p) or p <= -2.0 or p == 0.0:
        raise DomainError("auxiliary exponent must be finite, > -2 and nonzero")
    for _, lam in terms:
        ratio = lam / p
        if math.copysign(1.0, lam) * ratio * (ratio - 1.0) > 0.0:
            return False
    return bool(terms)


# ---------------------------------------------------------------------------
# the generic solver


def check_mass_squares(*masses: float) -> None:
    """Raise DomainError for a mass whose square leaves the double range."""
    if not all(math.isfinite(m * m) for m in masses):
        raise DomainError("masses above ~1.3e154 square beyond the double range")


def _scan_window(terms, q_value: float, m1: float, m2: float) -> tuple[float, float]:
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
        for a, lam in terms
        if lam != -1.0
    ]
    heaviest = max(m1, m2)
    if heaviest > 0.0:
        logs.append(log_q - math.log10(heaviest))
    logs = [x for x in logs if abs(x) < _DECADE_LIMIT] or [0.0]
    return min(logs) - 6.0, max(logs) + 6.0


def _virial_balance(terms, q_value: float, k1: float, k2: float):
    """The virial balance divided by r (same sign, same roots), as balance(r).

    r^2 V'(r) - Q p0 (1/nu1 + 1/nu2) with p0/nu = 1/hypot(1, m r/Q), k_i =
    m_i/Q.  r^2 V'(r) goes term by term, since the product r**2 * V'(r)
    underflows to a spurious sign far below the root, where the scan window
    may reach.  A power beyond the double range makes the pull +inf, so
    every value is a float; no term of this form overflows at a root.  r is
    a float.
    """
    pulls = [(abs(lam) * a, lam + 1.0) for a, lam in terms]
    hypot, inf = math.hypot, math.inf

    def balance(r):
        pull = 0.0
        try:
            for c, e in pulls:
                pull = pull + c * r**e
        except OverflowError:  # every term is >= 0, so the sum is +inf
            pull = inf
        return pull - q_value / hypot(1.0, k1 * r) - q_value / hypot(1.0, k2 * r)

    return balance


def _root_estimate(terms, c: float, e: float, q_value: float, k1: float, k2: float, window) -> float:
    """A log10 radius near the root of a nondecreasing balance, where its search starts.

    The term with the largest e = lam + 1 > 0, c = |lam| alpha, balances Q
    alone at s0 = ln(Q/c)/e; without such a term (pure Coulomb, e = 0) s0
    is the window's middle.  From s0 one Newton step on F(s) = ln(pull/(Q kin)),
    r = e^s, with pull = sum |lam| alpha r^(lam+1) and kin = 1/hypot(1, k1 r)
    + 1/hypot(1, k2 r), F' = sum e |lam| alpha r^e / pull
    + sum (k r)^2/hypot^3 / kin.  A pure Coulomb balance at masses (0, m)
    has the closed-form root r0 = (Q/m) sqrt(2u - 1)/(1 - u), u = Q/a with a
    the sum of the couplings, which is the estimate itself.  The estimate
    only chooses where the search starts, never an outcome: where it cannot
    be formed in floats it is the window's middle.
    """
    middle = (window[0] + window[1]) / 2
    try:
        if e:
            s = (math.log(q_value) - math.log(c)) / e
        elif min(k1, k2) == 0.0:
            u = q_value / sum(a for a, _ in terms)
            return (0.5 * math.log(2.0 * u - 1.0) - math.log(1.0 - u) - math.log(k1 + k2)) / _LN10
        else:
            s = middle * _LN10
        r = math.exp(s)
        pull = slope = 0.0
        for a, lam in terms:
            t = abs(lam) * a * r ** (lam + 1.0)
            pull += t
            slope += (lam + 1.0) * t
        h1, h2 = math.hypot(1.0, k1 * r), math.hypot(1.0, k2 * r)
        kin = 1.0 / h1 + 1.0 / h2
        x1, x2 = k1 * r / h1, k2 * r / h2
        s -= (math.log(pull) - math.log(q_value * kin)) / (slope / pull + (x1 * x1 / h1 + x2 * x2 / h2) / kin)
    except (OverflowError, ValueError, ZeroDivisionError):
        return middle
    return s / _LN10 if math.isfinite(s) else middle


def _bracket_root(
    balance, window: tuple[float, float], q_value: float, estimate: float | None, terms, k1: float, k2: float
):
    """First - to + crossing of the balance on a log grid over the window's decades.

    Grid point i is 10**(lo + i*step), 40 points per decade.  For the
    balance of :func:`solve_afm`, dM/dr0 = balance/r0^2, so such a crossing
    is a local minimum of M(r0); a + to - crossing is a local maximum and is
    skipped.  ``balance`` is :func:`_virial_balance`'s.  When every active
    term has lam >= -1 the balance is nondecreasing in r and changes sign at
    most once: ``estimate`` is then :func:`_root_estimate`'s log10 radius,
    and the search starts at its grid cell, gallops to a - / + pair and
    bisects it on float values: two evaluations when the estimate's cell
    holds the root, as it does for 99.5 % of the seeded bound draws.
    Otherwise (``estimate`` None: a steep attractive term can make the
    balance cross twice) :func:`_steep_grid` bisects the grid from the left,
    skipping the ranges whose bounds from ``terms`` and k_i = m_i/Q show no
    crossing, and bisects the range it shows rising through 0 with the same
    :func:`_bisect_grid`: ~12 evaluations on the seeded draws, of ~800 points.
    Returns (xa, xb, f(xa), f(xb)), or raises the no-root errors
    :func:`solve_afm` documents, from the sign of the first finite grid
    value.
    """
    lo, hi = window
    count = round(40 * (hi - lo)) + 1
    step = (hi - lo) / (count - 1)
    if estimate is None:
        cell, lead = _steep_grid(balance, terms, q_value, k1, k2, lo, step, count)
    else:
        start = min(math.floor((min(max(estimate, lo), hi) - lo) / step), count - 2)
        cell, lead = _bisect_grid(balance, lo, step, count, start)
    if cell is not None:
        return cell
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


def _bisect_grid(balance, lo: float, step: float, count: int, start: int, below=None, above=None):
    """(the first - to + grid cell, first finite value) of a nondecreasing balance, from float values.

    Probes the cell [start, start + 1] first, gallops down or up from it in
    doubling steps to a grid point below 0 and one not below 0, and bisects
    between them.  Since the sign changes at most once, that is the cell a
    bisection of the whole grid finds.  ``below`` and ``above`` are the
    (index, x, value) of points known below 0 and not below 0, if any: the
    ends of a range :func:`_steep_grid` has shown rising, around ``start``,
    which is then bisected alone.  The cell comes with its end values for
    Brent, +inf where a power leaves the double range.  Without a crossing
    the second item is a finite value with the sign of the first finite
    one: a balance that is +inf (or NaN) at the first point is nowhere
    finite, one that is >= 0 there never crosses, and one still < 0 at the
    last point is < 0 throughout.
    """
    i, width = start, 1
    while True:
        x = 10.0 ** (lo + i * step)
        fx = balance(x)
        if fx < 0.0:
            below = i, x, fx
            if i == count - 1:
                # all negative, and -inf only where the kinetic terms overflow at small r
                return None, fx if fx > -math.inf else None
        else:
            above = i, x, fx
            if i == 0:
                return None, fx if fx < math.inf else None
        if below is None:
            i, width = max(i - width, 0), 2 * width
        elif above is None:
            i, width = min(i + width, count - 1), 2 * width
        elif above[0] - below[0] > 1:
            i = (below[0] + above[0]) // 2
        else:
            return (below[1], above[1], below[2], above[2]), None


# the kinetic slope Q t^2/hypot(1, t)^3 of one particle, t = k r, peaks at t = sqrt(2), at 2/3^(3/2) Q
_KINETIC_PEAK_T = math.sqrt(2.0)
_KINETIC_PEAK = 2.0 / 3.0**1.5


def _balance_parts(terms, q_value: float, k1: float, k2: float):
    """The virial balance at a float r with the monotone parts that bound it on a range of radii.

    parts(r) is (r, f, d, p, kin, ds, ks1, ks2).  f is the balance of
    :func:`_virial_balance`, bit for bit, and a power beyond the double
    range counts as +inf in every part.  d is the pull of the lam < -1
    terms, which does not increase with r, p that of the other terms, which
    does not decrease, and kin = (Q/hypot(1, t1) + Q/hypot(1, t2))/2, t_i =
    k_i r, which does not increase: f = d + p - 2 kin up to rounding
    (halved, so that it stays finite for Q up to the largest double).  In s = ln r the pull has the
    slope ds = sum (lam + 1) |lam| alpha r^(lam+1), whose lam < -1 part
    rises to 0 and the rest from 0, and -Q/hypot(1, t_i) the slope
    ks_i = Q t_i^2/hypot(1, t_i)^3 >= 0.
    """
    pulls = [(abs(lam) * a, lam + 1.0, lam < -1.0) for a, lam in terms]
    hypot, inf = math.hypot, math.inf

    def parts(r):
        pull = d = p = ds = 0.0
        for c, e, steep in pulls:
            try:
                t = c * r**e
            except OverflowError:
                t = inf
            pull = pull + t
            ds += e * t
            if steep:
                d += t
            else:
                p += t
        t1, t2 = k1 * r, k2 * r
        h1, h2 = hypot(1.0, t1), hypot(1.0, t2)
        kin1, kin2 = q_value / h1, q_value / h2
        f = pull - kin1 - kin2
        s1 = t1 / h1 if t1 < inf else 1.0
        s2 = t2 / h2 if t2 < inf else 1.0
        return r, f, d, p, 0.5 * kin1 + 0.5 * kin2, ds, kin1 * s1 * s1, kin2 * s2 * s2

    return parts


def _steep_grid(balance, terms, q_value: float, k1: float, k2: float, lo: float, step: float, count: int):
    """(the first - to + grid cell with its end values, first finite value) of any balance, from float values.

    Either is None when there is none.  Ranges [i, j] of the grid are
    bisected from the left, and one is skipped when it cannot hold such a
    cell (interval bounds from monotone parts, as in R. E. Moore, *Interval
    Analysis*, 1966).  With the parts of
    :func:`_balance_parts`, every value on [i, j] lies between
    d(x_j) + p(x_i) - 2 kin(x_i) and d(x_i) + p(x_j) - 2 kin(x_j), and every
    slope in ln r between ds(x_i) + min ks and ds(x_j) + max ks, where ks_i
    peaks at t_i = sqrt(2).  A range is skipped when its values have one
    sign, or its slope is negative, beyond a rounding margin of a few eps
    times the magnitudes in play; with a positive slope the float values
    rise from point to point, so the range holds the cell only when its
    ends differ in sign, and :func:`_bisect_grid` then bisects it.  A range
    whose d(x_j) or p(x_i) is +inf is +inf throughout; any other non-finite
    bound is split down to single points, where the balance values
    decide.  Since the ranges are visited left to right, the cell found is
    the first one; without one, the first finite value is the left end of
    the first range skipped at a finite value, or the last point.
    """
    parts = _balance_parts(terms, q_value, k1, k2)
    # each float value below is off by at most ~(terms + 7) roundings of the magnitudes summed into it
    rounding = 4.0 * (len(terms) + 8) * sys.float_info.epsilon
    slope_scale = max([abs(lam + 1.0) for _, lam in terms])
    inf = math.inf
    # the radii where the two kinetic slopes peak, and their common peak value
    peak1, peak2 = (_KINETIC_PEAK_T / k if k else inf for k in (k1, k2))
    peak = _KINETIC_PEAK * q_value
    two_over_span = 2.0 / (step * _LN10)
    i = 0
    x, f, d, p, kin, ds, ks1, ks2 = parts(10.0 ** lo)
    pending = [(count - 1, parts(10.0 ** (lo + (count - 1) * step)))]  # right ends, the nearest last
    lead = None
    while pending:
        j, right = pending[-1]
        if j - i == 1:
            if f < 0.0 <= right[1]:
                return (x, right[0], f, right[1]), None
        else:
            xj, fj, dj, pj, kinj, dsj, ks1j, ks2j = right
            if dj == inf or p == inf:  # a power beyond the double range throughout: +inf
                pending.pop()
                i = j
                x, f, d, p, kin, ds, ks1, ks2 = right
                continue
            margin = rounding * (d + pj) + 2.0 * rounding * kin
            # no - to + cell where the values have one sign, the slope is < 0, or it is > 0 and the ends agree
            settled = dj + p - kin - kin > margin or d + pj - kinj - kinj < -margin
            if not settled:
                ks1_max = ks1j if xj <= peak1 else ks1 if x >= peak1 else peak
                ks2_max = ks2j if xj <= peak2 else ks2 if x >= peak2 else peak
                # a slope beyond it moves the values by more than their rounding from one point to the next
                gap = rounding * (slope_scale * (d + pj) + ks1_max + ks2_max) + two_over_span * margin
                if ds + min(ks1, ks1j) + min(ks2, ks2j) > gap:
                    if f < 0.0 <= fj:
                        return _bisect_grid(balance, lo, step, count, (i + j) // 2, (i, x, f), (j, xj, fj))
                    settled = True
                else:
                    settled = dsj + ks1_max + ks2_max < -gap
            if not settled or lead is None and not -inf < f < inf:
                m = (i + j) // 2
                pending.append((m, parts(10.0 ** (lo + m * step))))
                continue
        if lead is None and -inf < f < inf:
            lead = f
        pending.pop()
        i = j
        x, f, d, p, kin, ds, ks1, ks2 = right
    if lead is None and -inf < f < inf:
        lead = f
    return None, lead


def _brent(
    f, xa: float, xb: float, xtol: float, rtol: float, fa: float | None = None, fb: float | None = None
) -> float:
    """Root of the scalar function f in the bracket [xa, xb] by Brent's method.

    R. P. Brent, *Algorithms for Minimization without Derivatives* (1973),
    ch. 4, as coded in scipy's ``brentq.c`` and ported here step for step,
    so every iterate, and the root, is the double ``scipy.optimize.brentq``
    returns for the same arguments and its default of 100 iterations.
    ``fa`` and ``fb``, when given, stand for f(xa) and f(xb), which are then
    not evaluated; the root is still ``brentq``'s double whenever they are
    those values.  Stops when half the bracket is below
    (xtol + rtol*|x|)/2.  A NaN value of f raises DomainError, no sign
    change ValueError, and 100 iterations without convergence
    ConvergenceFailure.
    """
    # doubles, as scipy's C loop has them: a numpy scalar here would leak into the root
    xpre, xcur, xtol, rtol = float(xa), float(xb), float(xtol), float(rtol)
    fpre = float(f(xpre) if fa is None else fa)
    if fpre != fpre:
        raise _nan_value(xpre)
    fcur = float(f(xcur) if fb is None else fb)
    if fcur != fcur:
        raise _nan_value(xcur)
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
        fcur = float(f(xcur))
        if fcur != fcur:
            raise _nan_value(xcur)
    raise ConvergenceFailure(f"Brent's method did not converge in {_BRENT_MAXITER} iterations (last x={xcur!r})")


def _nan_value(x: float) -> DomainError:
    return DomainError(f"the function value at x={x!r} is NaN")


def solve_afm(m1: float, m2: float, potential: PowerLawPotential, q: GlobalQ | float) -> AfmSolution:
    """Solve the reduced extremization system for one level.

    Locates the smallest radius where the semirelativistic virial balance
    crosses from negative to positive, a local minimum of M(r0) (a log grid
    of 40 points per decade from six decades below the smallest candidate
    length scale to six above the largest, see :func:`_bracket_root`; when
    every term has lam >= -1 the search starts at the cell of a one-step
    Newton estimate of ln r0, see :func:`_root_estimate`, and otherwise
    bisects ranges of the grid from the left, skipping those whose
    monotone bounds show no crossing, see :func:`_steep_grid`, both ending
    in the one bisection of :func:`_bisect_grid`; then Brent's method on
    that grid cell to machine precision, handed the cell's end values, see
    :func:`_brent`), and assembles the mass in floats, with no numpy.  With
    every lam >= -1 a call evaluates the balance ~7 times, ~2 for the cell
    and ~5 in Brent, and takes ~17 us (CPython 3.11, 2-core x86_64), ~2 us
    of it in the balance; with a lam < -1 term ~17 times, ~12 for the cell,
    in ~40 us.  All three defining relations hold to better than 1e-10
    relative on the returned solution.  At m1 = 0, r0 solves
    Q + Q^2/sqrt(Q^2 + m2^2 r0^2) = sum_i |lam_i| alpha_i r0^(lam_i+1).

    Without such a crossing, raises NoBoundState when the balance is
    negative at small radii (no binding, e.g. pure Coulomb with Q >= a) and
    CollapseDetected when it is positive there (strong-coupling collapse);
    CollapseDetected also when the assembled mass is nonpositive, and
    DomainError when the balance is nowhere finite, when the mass or
    p0 = Q/r0 leaves the double range, or when the root fails the 1e-10
    contract: its virial residual, recomputed in floats, is above 1e-10
    (the balance is not representable near the root, or Brent converged on
    a jump to +inf: the balance counts a power beyond the double range as
    +inf).
    A negative or non-finite particle mass raises ValueError.
    """
    if not (0.0 <= m1 < math.inf and 0.0 <= m2 < math.inf):
        raise ValueError("masses must be finite and non-negative")
    q = q if isinstance(q, GlobalQ) else _resolve_q(q)
    qv = q.value
    terms = potential.active_terms()
    if not terms:
        raise DomainError("potential has no active term")

    # whether the balance is nondecreasing, and its term with the largest e = lam + 1 > 0
    monotone, c, e = True, 0.0, 0.0
    for a, lam in terms:
        if lam < -1.0:
            monotone = False
        elif lam + 1.0 > e:
            c, e = abs(lam) * a, lam + 1.0
    k1, k2 = m1 / qv, m2 / qv
    balance = _virial_balance(terms, qv, k1, k2)
    window = _scan_window(terms, qv, m1, m2)
    estimate = _root_estimate(terms, c, e, qv, k1, k2, window) if monotone else None
    xa, xb, fa, fb = _bracket_root(balance, window, qv, estimate, terms, k1, k2)
    r0 = _brent(balance, xa, xb, xtol=1e-20 * xa, rtol=1e-15, fa=fa, fb=fb)
    return _assemble(m1, m2, potential, q, r0)


def _assemble(m1, m2, potential: PowerLawPotential, q: GlobalQ, r0: float) -> AfmSolution:
    """The solution at r0, M = nu1 + nu2 + V(r0) with V(r0) from ``potential.value``'s float sum.

    The virial residual is checked first: above 1e-10 the balance lost its
    digits at r0 (a power subnormal or 0 while its product is not), or Brent
    converged on a jump to infinity where a term overflows, not on a root.
    """
    p0 = q.value / r0
    if p0 < sys.float_info.min:  # below the normal range p0 * r0 no longer reproduces Q
        raise DomainError(f"the momentum Q/r0 at r0={r0:g} underflows the double range")
    nu1 = math.hypot(p0, m1)
    nu2 = math.hypot(p0, m2)
    if not _virial_residual(potential.terms, r0, p0, nu1, nu2) <= 1e-10:
        raise DomainError(f"virial balance is not representable near the root (r0={r0:g})")
    mass = nu1 + nu2 + potential.value(r0)
    if not math.isfinite(mass):
        raise DomainError(f"the mass at r0={r0:g} exceeds the double range")
    if mass <= 0.0:
        raise CollapseDetected(f"solution at r0={r0:g} has nonpositive mass {mass:g}")
    return _trusted_solution(r0, p0, nu1, nu2, mass, q, _certified(potential.terms, q.p))


# ---------------------------------------------------------------------------
# Coulomb potential, one massless particle


def coulomb_closed(m: float, a: float, q: GlobalQ | float) -> AfmSolution:
    """Closed-form solution for V = -a/r with masses (0, m).

    Exists only inside the window a/2 < Q < a: at Q >= a the binding
    cancels (M -> m, r0 -> infinity), at Q <= a/2 the system collapses
    (M -> 0, r0 -> 0).  A non-finite m or a raises DomainError, as does an
    r0 or p0 = Q/r0 outside the normal double range or a nu2 beyond it;
    the mass, at most m, is then finite.
    """
    if not (math.isfinite(m) and math.isfinite(a)):
        raise DomainError("mass and coupling must be finite")
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
    # r0 = (Q/m) sqrt(a (2Q - a))/(a - Q) = (Q/m) sqrt(2u - 1)/(1 - u), u = Q/a, whose a (2Q - a) would leave the
    # double range; 2u - 1 and 1 - u are taken as (Q - a/2)/a and (a - Q)/a, each difference exact (Sterbenz)
    r0 = (qv / m) * math.sqrt(2.0 * ((qv - 0.5 * a) / a)) / ((a - qv) / a)
    x = 0.5 * (a / qv)  # a/(2Q), whose 2Q would overflow for Q above half the largest double
    mass = m * (2.0 * math.sqrt(x * (1.0 - x)))  # not 2m, which overflows for m near the largest double
    return _closed_record(m, (a, -1.0), q, r0, mass)


def _closed_record(m: float, term: tuple[float, float], q: GlobalQ, r0: float, mass: float) -> AfmSolution:
    """The record of a (0, m) closed form for the one ``term`` -a/r or b*r at r0, p0 = Q/r0 = nu1:
    DomainError where r0 or p0 leaves the normal double range or nu2 exceeds it, else its checks hold."""
    p0 = q.value / r0 if r0 else math.inf
    nu2 = math.hypot(p0, m)
    # a NaN or infinite r0 fails here too, through p0
    if not (r0 >= sys.float_info.min and p0 >= sys.float_info.min and nu2 < math.inf):
        raise DomainError(f"the closed form for the term {term} leaves the double range at m={m:g}, Q={q.value:g}")
    return _trusted_solution(r0, p0, p0, nu2, mass, q, _certified((term,), q.p))


def coulomb_symmetric(sigma: float, m: float, a: float, q: GlobalQ | float) -> float:
    """Mass for the sigma-fold symmetric kinetic term with V = -a/r.

    M = sigma * m * sqrt(1 - (a/(sigma Q))^2); requires a < sigma*Q.
    """
    if sigma <= 0.0 or m < 0.0 or not a > 0.0:  # a NaN a would pass the window test and divide by a sigma*Q of 0
        raise DomainError("need sigma > 0, m >= 0, a > 0")
    qv = _resolve_q(q).value
    if a >= sigma * qv:
        raise NoBoundState(f"no bound state: a >= sigma*Q (a={a:g}, sigma*Q={sigma * qv:g})")
    ratio = a / (sigma * qv)
    mass = sigma * m * math.sqrt(1.0 - ratio * ratio)
    if not math.isfinite(mass):
        raise DomainError(f"the symmetric Coulomb mass is not representable at sigma={sigma:g}, m={m:g}, a={a:g}")
    return mass


# ---------------------------------------------------------------------------
# linear potential, one massless particle


def _linear_massless(sigma: float, b: float, q_value: float) -> float:
    """2*sqrt(sigma b Q), the massless linear mass with a sigma-fold kinetic term: M0 at sigma = 2, M1 at 1."""
    return 2.0 * math.sqrt(sigma * b * q_value)


def _linear_scale(m: float, b: float, q: GlobalQ | float) -> tuple[GlobalQ, float]:
    """(Q, M0) for the (0, m) linear forms, which divide by M0: DomainError where it is 0."""
    if b <= 0.0:
        raise DomainError("slope must be positive")
    if m < 0.0:
        raise ValueError("mass must be non-negative")
    q = _resolve_q(q)
    m0 = _linear_massless(2.0, b, q.value)
    if not m0:
        raise DomainError(f"the massless scale 2*sqrt(2 b Q) underflows to 0 at b={b:g}, Q={q.value:g}")
    return q, m0


def _linear_closed(m: float, b: float, q: GlobalQ | float) -> tuple[float, GlobalQ, float]:
    """(mass, Q, a = sqrt(1 + 32 x^2) + 1) of the linear closed form, x = m/M0: the mass in units of M0
    takes a and the conjugate 32 x^2/a, so nothing cancels and no x^2 can overflow."""
    q, m0 = _linear_scale(m, b, q)
    x = m / m0
    a = math.hypot(1.0, _ROOT32 * x) + 1.0
    num = 2.0 * math.sqrt(2.0) * (1.0 + 1.0 / a) + math.hypot(4.0 * x, math.sqrt(a))
    mass = m0 * (num / math.sqrt(16.0 + 32.0 / a))
    if not math.isfinite(mass):
        raise DomainError(f"the linear closed form is not representable at m={m:g}, b={b:g}")
    return mass, q, a


def linear_closed_mass(m: float, b: float, q: GlobalQ | float) -> float:
    """The mass of linear_closed(m, b, q) alone: no radius and no certificate."""
    return _linear_closed(m, b, q)[0]


def linear_closed(m: float, b: float, q: GlobalQ | float) -> AfmSolution:
    """Closed-form solution for V = b*r with masses (0, m), any m >= 0."""
    mass, q, a = _linear_closed(m, b, q)
    # r0^2 = Q/b - Q^2/(2m^2) + Q^(3/2)/(2m^2) sqrt(Q + 4m^2/b) with 4m^2/b = 32 Q x^2, rewritten with the
    # conjugate so every term is positive for all m >= 0 and nothing overflows for large x
    return _closed_record(m, (b, 1.0), q, math.sqrt(q.value / b * (1.0 + 2.0 / a)), mass)


def linear_symmetric_massless(sigma: float, b: float, q: GlobalQ | float) -> float:
    """Massless mass scale for the sigma-fold symmetric kinetic term: 2*sqrt(sigma b Q)."""
    if sigma <= 0.0 or b <= 0.0:
        raise DomainError("need sigma > 0 and b > 0")
    mass = _linear_massless(sigma, b, _resolve_q(q).value)
    if not math.isfinite(mass):
        raise DomainError(f"the symmetric linear mass is not representable at sigma={sigma:g}, b={b:g}")
    return mass


def linear_ur_expansion(m: float, b: float, q: GlobalQ | float) -> float:
    """Ultrarelativistic (m << sqrt(b)) expansion: M0 + 2 m^2/M0."""
    _, m0 = _linear_scale(m, b, q)
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
    m1 = _linear_massless(1.0, b, _resolve_q(q).value)
    mass = m + m1 + m1 * m1 / (8.0 * m)
    if not math.isfinite(mass):
        raise DomainError(f"the nonrelativistic expansion is not representable at m={m:g}, b={b:g}")
    return mass


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
    for every solution produced by this module.  The mass is summed again
    with fsum, so its residual is the rounding of the assembly's float sum.
    """
    qv = _resolve_q(q).value
    nu1 = math.hypot(sol.p0, m1)
    nu2 = math.hypot(sol.p0, m2)
    terms = potential.active_terms()
    try:  # correctly rounded, where the assembly rounds at each float add
        exact = math.fsum([nu1, nu2, *(math.copysign(1.0, lam) * a * sol.r0**lam for a, lam in terms)])
    except (OverflowError, ValueError):  # a power beyond the double range, or inf - inf
        exact = math.inf
    res_mass = abs(sol.mass - exact) / abs(sol.mass)
    res_q = abs(sol.p0 * sol.r0 - qv) / qv
    return res_mass, res_q, _virial_residual(terms, sol.r0, sol.p0, nu1, nu2)


def _virial_residual(terms, r0: float, p0: float, nu1: float, nu2: float) -> float:
    """Relative residual of the virial balance r0 V'(r0) = p0^2/nu1 + p0^2/nu2, in floats.

    inf where the pull sum |lam| alpha r0^lam is 0 or leaves the double range.
    """
    pull = 0.0
    try:
        for a, lam in terms:
            pull += abs(lam) * a * r0**lam
    except OverflowError:
        return math.inf
    if not 0.0 < pull < math.inf:
        return math.inf
    # p0 * (p0/nu), since p0**2 leaves the double range for p0 above ~1e154 or below ~1e-154
    return abs(p0 * (p0 / nu1) + p0 * (p0 / nu2) - pull) / pull
