"""Reference eigensolver for the genuine spinless Salpeter equation.

Rayleigh-Ritz for sqrt(p^2 + m1^2) + sqrt(p^2 + m2^2) + V(r), or the symmetric
sigma * sqrt(p^2 + m^2) + V, in the orthonormal Laguerre basis
chi_k(r) = h^(-1/2) x^(l+1) e^(-x/2) p_k(x), x = r/h, k < N, with p_k the
L_k^(2l+2) normalised by its three-term recurrence.  The matrices of the
paper's potentials are in closed form.  The Coulomb-Sturmian functions
s_k = sqrt(k+2l+2) chi_k - sqrt(k) chi_(k-1) (x^(l+1) e^(-x/2) L_k^(2l+1),
normalised; s = chi M with M upper bidiagonal) obey
(p_l^2 + 1/4) s_k = (k+l+1) s_k / x and <s_j|1/x|s_k> = delta_jk, so on the
first N functions P + 1/4 = M^-T D M^-1 with D = diag(k+l+1), and the 1/x
matrix is M^-T M^-1, both exactly.  Both are semiseparable, and the
eigenpairs of P come from the tridiagonal (P + 1/4)^-1 = M D^-1 M^T.  The x
matrix is the tridiagonal Jacobi matrix J of the recurrence, and x^m, m a
positive integer, is the top-left block of J^m.  Any other exponent
expands L_j^(2l+2) in the L_i^(2l+2+lam) (a connection formula) and is
exact as well.  In the basis of scale h the
p_l^2 matrix is P(l, N) / h^2 and the r^lam matrix h^lam W(lam, l, N), so
the eigendecomposition of P, from which the kinetic sum of both masses is
built, and each W are made once per (l, N) at unit scale and shared by
every mass, scale and problem of the process (bounded functools caches).
sqrt(x + m^2) is operator monotone and non-negative on [0, inf), so by
Hansen's inequality (Math. Ann. 1980) and min-max every eigenvalue is an
upper bound on the true one, falling as the nested bases grow.  The ladder
N = 20, 40, 80, 160 stops when two rungs agree to 1e-7 relative, or else
(an attractive tail's origin cusp converges slowly) returns the Aitken
limit of the last three; ``ladder`` alone accepts, extrapolates or refuses
a level, of the reference and the oracle alike.  The cap at N = 160 is the
ladder's own choice of rungs, not a limit of the matrices.
The nonrelativistic oracle runs the same ladder on
P/(2 h^2) + sign(p) h^p W(p, l, N), with the same scale rule.  Where the
unit-scale r^lam entries would leave the double range (a steep exponent),
the matrix is not built and DomainError is raised, as it is for a
non-integer exponent at l beyond ~1.6e5, where the rounding of its
log-Gamma terms passes 1e-9 relative, and for a rung whose J (the x
matrix) would leave the double range: N = 160 past l ~ 5.6e305.
Every ladder runs on one BLAS thread: the rung products and eigensolves are
small (N <= 160), and waking a second OpenBLAS thread for each costs more
than it saves.  The thread counts of the OpenBLAS copies that numpy and
scipy load are set to 1 on entry and put back on exit, also when the
ladder raises; where no such control is found (another BLAS), nothing is
changed.  scipy is not imported with this module: the four functions that
call it import it where they run, and the first ladder of a process loads
scipy.linalg before it looks up those controls, so a process that runs no
ladder loads no scipy.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import logging
import math
import sys
import threading
from dataclasses import dataclass

import numpy as np

from . import core
from .errors import CollapseDetected, ConvergenceFailure, DomainError, NoBoundState
from .types import GlobalQ, PowerLawPotential, QuantumState

_SIZES = (20, 40, 80, 160)
_TOL = 1e-7  # relative change between two rungs accepted as converged
_CAPPED_TOL = 2e-6  # largest relative Aitken correction accepted on a capped basis scale
_CACHE_SIZE = 32  # unit-scale matrices kept per cache: eight ladders of four rungs
_LOG_MAX = math.log(sys.float_info.max)
_EPS = sys.float_info.epsilon
_ABSTOL = 2 * sys.float_info.min  # dstebz's most accurate bisection tolerance
_LGAMMA_ROUNDING = 1e-9  # the finest relative accuracy the oracle asks of a level
# extension modules linked to the BLAS that numpy's products and scipy's eigensolvers run on
_BLAS_MODULES = ("numpy._core._multiarray_umath", "scipy.linalg._flapack")
# (get, set) thread count functions of OpenBLAS: numpy's wheel, scipy's wheel, a plain build
_BLAS_THREAD_CONTROLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


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

    def __post_init__(self):
        if not (0.0 <= self.m1 < np.inf and 0.0 <= self.m2 < np.inf):
            raise ValueError("masses must be finite and non-negative")
        if self.sigma is not None:
            if not (0.0 < self.sigma < np.inf):
                raise ValueError("sigma must be positive and finite")
            if self.m1 != self.m2:
                raise ValueError("the symmetric mode uses a single mass; set m1 == m2")


def _check_jacobi_range(l: int, size: int) -> None:
    """DomainError where a product (k+1)(k+2l+3), k < size - 1, under the square
    roots of J's off-diagonal leaves the double range: at N = 160 past
    l ~ 5.6e305, at N = 20 past ~4.5e307."""
    if size * (size + 2 * l + 2) > sys.float_info.max:
        where = f"log10(l+1)={math.log10(l + 1):.4g}, N={size}"
        raise DomainError(f"Laguerre basis matrices at {where} leave the double range")


def jacobi_matrix(l: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of J, the matrix <chi_j|x|chi_k> on the first
    ``size`` functions: 2k+2l+3 and -sqrt((k+1)(k+2l+3)), from the three-term
    recurrence of p_k."""
    _check_jacobi_range(l, size)
    k = np.arange(size, dtype=float)
    return 2 * k + 2 * l + 3, -np.sqrt((k[:-1] + 1) * (k[:-1] + 2 * l + 3))


def _sturmian_form(d: np.ndarray, l: int) -> np.ndarray:
    """M^-T diag(d) M^-1 on the first len(d) functions, M the upper-bidiagonal
    map from chi to the Coulomb-Sturmian functions.

    It is semiseparable: the diagonal is g_0 = d_0 / (2l+2),
    g_k = (k g_(k-1) + d_k) / (k+2l+2), and for j < k the entry is
    g_j prod_(i=j+1..k) sqrt(i / (i+2l+2)).  Each product runs from its own
    row's diagonal, so nothing underflows at large l."""
    size = len(d)
    g = np.empty(size)
    previous = 0.0
    for k in range(size):
        previous = g[k] = (k * previous + d[k]) / (k + 2 * l + 2)
    k = np.arange(size)
    steps = np.where(k > k[:, None], np.sqrt(k / (k + 2.0 * l + 2.0)), 1.0)
    upper = np.triu(g[:, None] * np.cumprod(steps, axis=1), 1)
    form = upper + upper.T
    form[k, k] = g
    return form


def _jacobi_power(m: int, l: int, size: int) -> np.ndarray:
    """<chi_j|x^m|chi_k> for j, k < size, m >= 1: the top-left block of J^m.

    A path of m steps between two of the first ``size`` functions reaches no
    further than size + m // 2 functions, so J of that size gives the block
    exactly, from m - 1 tridiagonal-times-dense products on its first
    ``size`` columns."""
    diag, off = jacobi_matrix(l, size + m // 2)
    power = (np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))[:, :size]
    for _ in range(m - 1):
        step = diag[:, None] * power
        step[:-1] += off[:, None] * power[1:]
        step[1:] += off[:, None] * power[:-1]
        power = step
    block = power[:size]
    return 0.5 * (block + block.T)


def _connection_power(lam: float, l: int, size: int) -> np.ndarray:
    """<chi_j|x^lam|chi_k> for j, k < size, any lam > -2l-3: F F^T.

    With alpha = 2l+2, L_j^alpha = sum_(i<=j) a_(j-i) L_i^(alpha+lam),
    a_d = (-lam)_d / d! (DLMF 18.18.18), and the L_i^(alpha+lam) are
    orthogonal with weight x^(alpha+lam) e^-x, so F is lower triangular with
    F_ji = a_(j-i) sqrt(j! Gamma(i+alpha+lam+1) / (Gamma(j+alpha+1) i!)).  The
    exponential is taken on i <= j alone: above the diagonal it would overflow
    at large l.  Each log-Gamma term of argument up to t rounds by ~eps t ln t,
    and so does each entry: DomainError where that passes 1e-9 (l >~ 1.6e5),
    as the entries would then be wrong by more than the oracle's tolerance."""
    from scipy import special

    alpha = 2 * l + 2
    top = size + alpha + math.ceil(abs(lam))  # the largest argument, an int: no float overflow at any l
    if top > _LGAMMA_ROUNDING / (_EPS * math.log(top)):
        raise DomainError(f"r^{lam:g} matrices at l beyond ~1.6e5 lose more than {_LGAMMA_ROUNDING:g} to rounding")
    k = np.arange(size, dtype=float)
    a = np.cumprod(np.concatenate(([1.0], (k[1:] - 1.0 - lam) / k[1:])))
    g = special.gammaln(k + 1.0)
    row, column = g - special.gammaln(k + alpha + 1.0), special.gammaln(k + alpha + lam + 1.0) - g
    j, i = np.tril_indices(size)
    f = np.zeros((size, size))
    f[j, i] = a[j - i] * np.exp(0.5 * (row[j] + column[i]))
    return f @ f.T


@functools.lru_cache(maxsize=_CACHE_SIZE)
def psq_matrix(l: int, size: int) -> np.ndarray:
    """<chi_j| p^2 + l(l+1)/r^2 |chi_k> for j, k < size at unit scale, read-only:
    the closed form P = M^-T D M^-1 - 1/4, D = diag(k+l+1)."""
    k = np.arange(size)
    psq = _sturmian_form(k + (l + 1.0), l)
    psq[k, k] -= 0.25
    psq.flags.writeable = False
    return psq


@functools.lru_cache(maxsize=_CACHE_SIZE)
def power_matrix(lam: float, l: int, size: int) -> np.ndarray:
    """<chi_j| r^lam |chi_k> for j, k < size at unit scale, read-only.

    Closed forms for the integer exponents: W(-1) = M^-T M^-1 and, for a
    positive integer m, W(m) the top-left block of J^m; any other exponent is
    F F^T from the connection coefficients of :func:`_connection_power`.  Raises
    DomainError, before anything is computed, where the entries might leave
    the double range (lam > 0): each <chi_k|x^lam|chi_k> is at most
    ||J^m||^(lam/m) <= (4(size+m) + 4l + 6)^lam, m = ceil(lam) (Lyapunov's
    inequality), and every other entry is at most the largest of these
    (Cauchy-Schwarz)."""
    if lam > 0 and lam * math.log(4 * (size + math.ceil(lam)) + 4 * l + 6) >= _LOG_MAX:
        where = f"log10(l+1)={math.log10(l + 1):.4g}"  # an int past 4300 digits has no str, past ~1.8e308 no float
        raise DomainError(f"Laguerre basis matrices at {where}, N={size} (r^{lam:g}) leave the double range")
    if lam == -1:
        w = _sturmian_form(np.ones(size), l)
    elif lam >= 1 and float(lam).is_integer():
        w = _jacobi_power(int(lam), l, size)
    else:
        w = _connection_power(lam, l, size)
    w.flags.writeable = False
    return w


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _psq_spectrum(l: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and orthonormal eigenvectors of psq_matrix(l, size), read-only.

    (P + 1/4)^-1 = M D^-1 M^T is tridiagonal: its diagonal is (k+2l+2)/(k+l+1)
    + (k+1)/(k+l+2), without the second term on the last row, and its
    off-diagonal -sqrt((k+1)(k+2l+3))/(k+l+2).  Each of its eigenpairs
    (mu, u) is an eigenpair (1/mu - 1/4, u) of P."""
    import scipy.linalg as sla

    _check_jacobi_range(l, size)
    k = np.arange(size, dtype=float)
    diag = (k + 2 * l + 2) / (k + l + 1)
    diag[:-1] += (k[:-1] + 1) / (k[:-1] + l + 2)
    off = -np.sqrt((k[:-1] + 1) * (k[:-1] + 2 * l + 3)) / (k[:-1] + l + 2)
    mu, u = sla.eigh_tridiagonal(diag, off)
    p2 = np.clip(1.0 / mu - 0.25, 0.0, None)  # round-off can push the smallest below zero
    p2.flags.writeable = u.flags.writeable = False
    return p2, u


def kinetic_matrix(terms: tuple[tuple[float, float], ...], p2: np.ndarray, u: np.ndarray) -> np.ndarray:
    """sum(weight * sqrt(p^2 + mass^2)) over (weight, mass) terms, from the
    eigenvalues p2 and eigenvectors u of the p_l^2 matrix."""
    return (u * sum(weight * np.sqrt(p2 + mass * mass) for weight, mass in terms)) @ u.T


def _rung(kinetic, terms, l: int, scale: float, size: int) -> np.ndarray:
    """kinetic() + sum(sign(lam) alpha h^lam W(lam, l, N)) over the (alpha, lam) terms, added in their order.

    Every W is formed first, so that its range DomainError precedes the
    kinetic term's (:func:`_kinetic_divisor`) and any overflow of the
    kinetic term or of a power of the scale h."""
    powers = [power_matrix(lam, l, size) for _, lam in terms]
    h = kinetic()
    for (alpha, lam), w in zip(terms, powers):
        h += math.copysign(alpha, lam) * scale**lam * w
    return h


def _kinetic_divisor(scale: float, factor: float, top: float) -> float:
    """factor h^2, by which a unit-scale p_l^2 operator of largest entry ``top`` is divided at
    basis scale h; DomainError, before the scaled matrix is formed, where factor h^2 is not a
    normal double or top / (factor h^2) overflows.  The range is checked on float products
    and quotients, which give inf or 0 where the power would raise OverflowError or a numpy
    quotient would warn; the value is the power's."""
    square = factor * scale * scale
    if not (sys.float_info.min <= square <= sys.float_info.max and float(top) / square < math.inf):
        raise DomainError(f"the kinetic term at basis scale h={scale:.6g} leaves the double range")
    return factor * scale**2


def sse_hamiltonian(problem: SseProblem, scale: float, size: int) -> np.ndarray:
    """Symmetric Hamiltonian matrix in the first ``size`` basis functions of scale h; DomainError
    where the p_l^2 matrix at scale h would leave the double range."""
    masses = ((1.0, problem.m1), (1.0, problem.m2)) if problem.sigma is None else ((problem.sigma, problem.m1),)
    l = problem.state.l

    def kinetic():
        p2, u = _psq_spectrum(l, size)
        return kinetic_matrix(masses, p2 / _kinetic_divisor(scale, 1.0, p2.max()), u)

    h = _rung(kinetic, problem.potential.active_terms(), l, scale, size)
    return 0.5 * (h + h.T)


def nr_hamiltonian(p: float, l: int, scale: float, size: int) -> np.ndarray:
    """p_l^2/2 + sign(p)*r^p in the first ``size`` basis functions of scale h; DomainError where
    the p_l^2/2 matrix at scale h would leave the double range."""

    def kinetic():  # P is positive semidefinite: its largest entry is on the diagonal
        psq = psq_matrix(l, size)
        return psq / _kinetic_divisor(scale, 2.0, psq.diagonal().max())

    return _rung(kinetic, ((1.0, p),), l, scale, size)


def attractive_only(terms) -> bool:
    """Whether every (alpha, lam) term attracts (lam < 0): V < 0 falls to 0 at infinity, so each
    level is bound, below the continuum threshold, and the origin cusp wants a finer basis."""
    return all(lam < 0 for _, lam in terms)


def basis_scale(radius: float, energy: float, state: QuantumState, terms, tol: float) -> tuple[float, bool]:
    """Basis scale h for a level of variational radius and energy |energy|,
    and whether a confining term capped it.

    The n-th basis function has mean radius (2n+2l+3) h, so h puts it at the
    radius; cusped attractive-only potentials get a 3x finer scale.  Each
    confining term alpha r^lam then caps h: the spectrum of x on the finest
    rung lies below (4N + 4l + 6), so the r^lam matrix carries a round-off of
    eps * alpha * ((4N + 4l + 6) h)^lam, which must stay below tol * |energy|.
    The cap is formed in logarithms, so a tiny alpha leaves h uncapped
    instead of overflowing.  DomainError where 2n+2l+3, the diagonal of J,
    leaves the double range (l past ~9e307).
    """
    if 2 * state.n + 2 * state.l + 3 > sys.float_info.max:
        raise DomainError(f"Laguerre basis matrices at log10(l+1)={math.log10(state.l + 1):.4g} leave the double range")
    natural = radius / (2 * state.n + 2 * state.l + 3) / (3.0 if attractive_only(terms) else 1.0)
    span = 4 * _SIZES[-1] + 4 * state.l + 6
    h = natural
    for alpha, lam in terms:
        if lam > 0:
            log_cap = (math.log(tol * abs(energy)) - math.log(_EPS) - math.log(alpha)) / lam - math.log(span)
            if log_cap < math.log(h):
                h = math.exp(log_cap)
    return h, h < natural


def _scale(problem: SseProblem) -> tuple[float, bool]:
    """Basis scale from the cheap variational solve (tried at Q(-1), then Q(2))
    of the larger radius, and whether the round-off cap bound."""
    seed = collapse = None
    for q in (core.q_exact(-1, problem.state), core.q_exact(2, problem.state)):
        try:
            sol = core.solve_afm(problem.m1, problem.m2, problem.potential, q)
        except CollapseDetected as err:
            collapse = err
            continue
        except NoBoundState:
            continue
        seed = sol if seed is None or sol.r0 > seed.r0 else seed
    if seed is None:
        if collapse is not None:
            raise collapse
        raise NoBoundState("could not find a variational bound state to size the basis")
    return basis_scale(seed.r0, seed.mass, problem.state, problem.potential.active_terms(), _TOL)


@functools.cache
def _blas_controls() -> tuple:
    """(get, set) thread count functions of the OpenBLAS each of :data:`_BLAS_MODULES`
    loaded, found with dlsym on the loaded extension module, which also
    searches the libraries it links; () where there is none.  The result is cached,
    so scipy.linalg is loaded first: the first ladder of a process enters before
    its first eigensolve imports scipy, and an OpenBLAS missed then would stay on
    every thread for the life of the process."""
    import scipy.linalg  # loads scipy.linalg._flapack, one of _BLAS_MODULES

    controls = []
    for name in _BLAS_MODULES:
        path = getattr(sys.modules.get(name), "__file__", None)
        if path is None:
            continue
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _BLAS_THREAD_CONTROLS:
            try:
                controls.append((library[get_name], library[set_name]))
                break
            except AttributeError:
                continue
    return tuple(controls)


class _OneBlasThread(contextlib.ContextDecorator):
    """Context manager, and decorator, that runs its body with every OpenBLAS of the process on one thread.

    One lock and a depth count: the first caller to enter saves each
    library's thread count and sets 1, the last one to leave puts the
    counts back, so nested and concurrent bodies all run on one thread and
    the counts are restored once, whether the body returns or raises.  The
    counts are process-wide: BLAS calls made meanwhile outside any such body
    run on one thread too.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = ()

    def __enter__(self):
        with self._lock:
            if self._depth == 0:
                self._saved = tuple((set_, get()) for get, set_ in _blas_controls())
                for set_, _ in self._saved:
                    set_(1)
            self._depth += 1

    def __exit__(self, *exc_info):
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                for set_, count in self._saved:
                    set_(count)


_one_blas_thread = _OneBlasThread()


def _level(h: np.ndarray, n: int) -> float:
    """Level n of the symmetric matrix h.

    p_l^2 grows like k and r^lam like k^lam down the diagonal, so h is
    reversed and LAPACK dsyevx reduces its lower triangle to a tridiagonal
    graded downward (dsytrd) and bisects level n alone (dstebz).  At
    abstol 2 safmin, LAPACK's most accurate setting, bisection keeps a
    graded matrix's low levels to high relative accuracy (Barlow and Demmel,
    SIAM J. Numer. Anal. 27 (1990) 762): within 2.1e-14 of a QR solve of all
    N levels on the steep rungs.  At abstol 0 it stops at eps ||T||, up to
    2e-7 off at a steep confining term's capped scale; that, not bisection,
    is what the subset solvers lost.  DomainError where h is not finite;
    ConvergenceFailure where LAPACK does not return the one level.
    """
    import scipy.linalg as sla

    size = len(h)
    if not np.isfinite(h).all():
        raise DomainError(f"the N={size} Hamiltonian matrix leaves the double range")
    w, _, found, _, info = sla.lapack.dsyevx(
        h[::-1, ::-1], compute_v=0, range="I", lower=1, il=n + 1, iu=n + 1,
        abstol=_ABSTOL, lwork=int(sla.lapack.dsyevx_lwork(size, lower=1)[0]),
    )
    if info != 0 or found != 1:
        raise ConvergenceFailure(f"level n={n} of the N={size} matrix: dsyevx returned info={info}, {found} levels")
    return float(w[0])


@_one_blas_thread
def ladder(
    name: str, build, state: QuantumState, scale: float, tol: float, limit: float, threshold: float, bound: bool
) -> tuple[float, float, int]:
    """Level n of build(N) on the rungs N = 20, 40, 80, 160 with N > n.

    Every rung is an upper bound.  The first rung within ``tol`` relative of
    the one before is taken, with that difference as its error estimate;
    otherwise the Aitken limit of the last three rungs is taken with the
    Aitken correction as its error estimate.  It is refused
    (ConvergenceFailure) where those rungs do not fall geometrically (each
    step positive and below 0.98 of the one before), and either is refused
    where its error estimate is above ``limit`` relative or the binding
    energy |finest rung - threshold| (``threshold`` is where the continuum
    starts: m1 + m2, sigma m, or 0), and a ``bound`` level
    (:func:`attractive_only` terms) where it is not below ``threshold``: the
    one place where a level is accepted, extrapolated or refused.  Returns
    (value, error estimate, size of the last rung), with one DEBUG record per
    rung and one for the result to the ``name`` logger, on one BLAS thread
    (:class:`_OneBlasThread`).
    """
    log = logging.getLogger(f"{__package__}.{name}")
    values = []
    for size in (s for s in _SIZES if s > state.n):
        # level n alone, bisected on the reversed matrix's graded tridiagonal at abstol 2 safmin; the
        # eps ||H|| that the subset solvers lost came from their abstol 0, not from bisection
        values.append(_level(build(size), state.n))
        log.debug("%s rung N=%d h=%.9g value=%.12g", name, size, scale, values[-1])
        if len(values) > 1 and abs(values[-1] - values[-2]) <= tol * abs(values[-1]):
            result, estimate, value, error = "converged", "a rung difference", values[-1], values[-2] - values[-1]
            geometric = True
            break
    else:
        if len(values) < 3:
            raise ConvergenceFailure(
                f"{name}: level n={state.n} needs more than {_SIZES[-1]} basis functions at l={state.l:.6g}"
            )
        d1, d2 = values[-3] - values[-2], values[-2] - values[-1]
        geometric = d1 > 0 and d2 > 0 and d2 / d1 < 0.98
        result, estimate = "Aitken limit", "an Aitken correction"
        value = values[-1] - d2 * d2 / (d1 - d2) if geometric else math.nan
        error = values[-1] - value
    log.debug("%s %s: %.12g, error estimate %.3g", name, result, value, error)
    basis = f"{size} basis functions of scale h={scale:.6g} at l={state.l:.6g}"
    binding = abs(values[-1] - threshold)
    if not geometric:
        rungs = ", ".join(f"{v:.12g}" for v in values[-3:])
        refusal = f"has last rungs {rungs}, not geometrically decreasing, with {basis}"
    elif abs(error) > limit * abs(value):
        refusal = (f"stuck at relative error ~{abs(error / value):.1e} with {basis} (limit {limit:g}); a steep cusp "
                   "(l = 0, p <= -1.5) or a steep confining term converges slowly in this basis")
    elif abs(error) > binding:
        refusal = f"has {estimate} {abs(error):.3g} above the binding energy {binding:.3g} of its finest rung ({basis})"
    elif bound and not value < threshold:
        refusal = f"came out at {value:.12g}, not below the continuum threshold {threshold:.12g}, with {basis}"
    else:
        return value, error, size
    raise ConvergenceFailure(f"{name}: level n={state.n} {refusal}; the basis does not reach the level")


def sse_eigenvalue(problem: SseProblem) -> float:
    """The (n, l) eigenvalue of the semirelativistic Hamiltonian, as :func:`ladder` accepts it: rungs
    within 1e-7 relative, the continuum threshold m1 + m2 (sigma m1 in the symmetric mode), a bound
    level for an attractive-only potential, and, where a steep confining term capped the basis scale
    (the first rungs then miss the state), an Aitken correction of at most 2e-6 relative."""
    core.check_mass_squares(problem.m1, problem.m2)
    scale, capped = _scale(problem)
    build = functools.partial(sse_hamiltonian, problem, scale)
    threshold = problem.m1 + problem.m2 if problem.sigma is None else problem.sigma * problem.m1
    limit = _CAPPED_TOL if capped else math.inf
    bound = attractive_only(problem.potential.terms)
    return ladder("reference", build, problem.state, scale, _TOL, limit, threshold, bound)[0]


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
