import functools
import json
import logging
import math
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.special

from salpeter_afm import (
    CollapseDetected,
    ConvergenceFailure,
    DomainError,
    GlobalQ,
    NoBoundState,
    PowerLawPotential,
    QuantumState,
    SseProblem,
    bound_gap,
    oracle,
    q_exact,
    q_numeric,
    reference,
    solve_afm,
    sse_eigenvalue,
)
from salpeter_afm.reference import kinetic_matrix, power_matrix, psq_matrix, sse_hamiltonian

SRC = Path(__file__).resolve().parents[1] / "src"
LINEAR = PowerLawPotential.linear(0.2)
FUNNEL = SseProblem(0.3, 1.5, PowerLawPotential.funnel(0.5, 0.2), QuantumState(0, 1))
COULOMB = SseProblem(0.0, 1.0, PowerLawPotential.coulomb(1.2), QuantumState(0))
SCALE, SIZE = 1.3, 40
# sse_eigenvalue with every rung's matrices built directly at its own scale: the
# unit-scale caches must reproduce these to 1e-10 relative
PINNED = {"coulomb": 0.8446131980916747, "funnel": 2.8882782491616874}
CRITERION_3_VALUES = {  # masses (0, m), 0.2 r, m = 0, 0.1, ..., 1
    0: [1.411821875098474, 1.4292751032198523, 1.4729213646975137, 1.5326325431784704, 1.6025276843916605,
        1.6792163055273317, 1.7606457594027591, 1.8455095158587234, 1.932938865138003, 2.022334499578351,
        2.1132698882215797],
    1: [2.1060873073850277, 2.1213003602188345, 2.158071297986621, 2.208190931317125, 2.2676010133843105,
        2.333913036246453, 2.4055335374419897, 2.4813288281547137, 2.5604632595615877, 2.642306400960528,
        2.7263741178264063],
}


def pinned_problems():
    """Every problem whose reference value a test below pins: the Coulomb and funnel anchors,
    the steep and moderate confinements and the 22 criterion-3 rows."""
    problems = [COULOMB, FUNNEL]
    problems += [SseProblem(0.0, 1.0, PowerLawPotential(((0.2, lam),)), QuantumState(0))
                 for lam in (2.0, 4.0, 4.5, 6.0, 8.0)]
    problems += [SseProblem(0.0, round(0.1 * i, 1), LINEAR, QuantumState(n)) for n in (0, 1) for i in range(11)]
    return problems


# q_numeric levels the thread tests pin: integer and non-integer p (the connection build's GEMM), up to N = 160
Q_NUMERIC_SPECS = [
    (p, n, l) for p in (-1.0, -0.5, 0.5, 1.5, 2.0, 4.0) for n, l in ((0, 0), (3, 0), (10, 0), (0, 5), (2, 3))
]


def rung_values(problem):
    """Level n on every rung of the basis ladder, at the scale sse_eigenvalue picks."""
    (scale, _), n = reference._scale(problem), problem.state.n
    return [
        scipy.linalg.eigvalsh(sse_hamiltonian(problem, scale, size), subset_by_index=(n, n))[0]
        for size in reference._SIZES
    ]


def gauss_laguerre_basis(l, size, lam):
    """Nodes x_i of the size-point Gauss-Laguerre rule with weight x^(2l+2+lam) e^-x, and sqrt(w_i) p_k(x_i)
    for k < size by the three-term recurrence: an independent oracle for the closed forms.  The weights sum to
    Gamma(2l+3+lam), which must stay finite: l <= 84 for lam < 1, and lower for a larger lam."""
    alpha = 2 * l + 2
    x, w = scipy.special.roots_genlaguerre(size, alpha + lam)
    phi = np.zeros((size, size))
    phi[:, 0] = np.sqrt(w / scipy.special.gamma(alpha + 1.0))
    for k in range(size - 1):
        down, up = math.sqrt(k * (k + alpha)), math.sqrt((k + 1) * (k + 1 + alpha))
        phi[:, k + 1] = ((2 * k + 1 + alpha - x) * phi[:, k] - down * phi[:, k - 1]) / up
    return x, phi


def quadrature_psq(l, size):
    """P as the exact Gauss-Laguerre sum on size + 1 nodes with weight x^(2l):
    d/dx [x^(l+1) e^(-x/2) p_k] = x^l e^(-x/2) q_k, using x p_k' = k p_k - sqrt(k(k+2l+2)) p_(k-1)."""
    x, phi = gauss_laguerre_basis(l, size + 1, -2.0)
    phi = phi[:, :size]
    k = np.arange(size)
    q = (l + 1 + k - 0.5 * x[:, None]) * phi
    q[:, 1:] -= np.sqrt(k[1:] * (k[1:] + 2 * l + 2)) * phi[:, :-1]
    return q.T @ q + l * (l + 1) * (phi.T @ phi)


def quadrature_power(lam, l, size):
    """W(lam) as the exact Gauss-Laguerre sum on size nodes with weight x^(2l+2+lam)."""
    _, phi = gauss_laguerre_basis(l, size, lam)
    return phi.T @ phi


def mpmath_connection_rows(lam, l, rows, mp):
    """Rows j of F, F_ji = a_(j-i) sqrt(j! Gamma(i+2l+3+lam) / (Gamma(j+2l+3) i!)) for i <= j, in the
    working precision of ``mp``."""
    alpha, lam = 2 * l + 2, mp.mpf(lam)
    return {j: [mp.rf(-lam, j - i) / mp.factorial(j - i)
                * mp.sqrt(mp.factorial(j) * mp.gamma(i + alpha + lam + 1) / (mp.gamma(j + alpha + 1) * mp.factorial(i)))
                for i in range(j + 1)]
            for j in rows}


def dense_jacobi(l, size):
    diag, off = reference.jacobi_matrix(l, size)
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def assert_massless_sqrt_on_momentum_eigenvectors(l):
    """sqrt(p^2) maps an eigenvector of the p_l^2 matrix (from numpy's own
    eigensolver) onto sqrt(eigenvalue) times itself."""
    p2, u = reference._psq_spectrum(l, SIZE)
    vals, vecs = np.linalg.eigh(psq_matrix(l, SIZE) / SCALE**2)
    w = kinetic_matrix(((1.0, 0.0),), p2 / SCALE**2, u)
    for j in (0, 10, SIZE - 1):
        np.testing.assert_allclose(w @ vecs[:, j], np.sqrt(vals[j]) * vecs[:, j], atol=1e-10 * np.sqrt(vals[-1]))


def assert_non_increasing(values):
    for coarse, fine in zip(values, values[1:]):
        assert fine <= coarse + 1e-12 * abs(coarse)


class TestProblemValidation:
    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError):
            SseProblem(-1.0, 1.0, LINEAR, QuantumState(0))

    @pytest.mark.parametrize(
        "m1, m2, sigma",
        [(0.0, np.inf, None), (np.inf, 1.0, None), (0.0, np.nan, None), (1.0, 1.0, np.inf)],
    )
    def test_rejects_non_finite_mass_or_sigma(self, m1, m2, sigma):
        with pytest.raises(ValueError):
            SseProblem(m1, m2, LINEAR, QuantumState(0), sigma=sigma)

    def test_sigma_mode_needs_equal_masses(self):
        with pytest.raises(ValueError):
            SseProblem(1.0, 2.0, LINEAR, QuantumState(0), sigma=2.0)
        with pytest.raises(ValueError):
            SseProblem(1.0, 1.0, LINEAR, QuantumState(0), sigma=-1.0)

    def test_mass_squaring_past_the_double_range_is_a_domain_error(self):
        with pytest.raises(DomainError, match="square beyond the double range"):
            sse_eigenvalue(SseProblem(0.0, 1e300, LINEAR, QuantumState(0)))

    @pytest.mark.parametrize(
        "potential, l", [(PowerLawPotential(((0.2, 150.0),)), 0), (LINEAR, 10**307)], ids=["exponent-150", "l-1e307"]
    )
    def test_non_representable_laguerre_matrices_are_a_domain_error(self, potential, l):
        # the r^lam entries, or the products under the square roots of J, would overflow; no warning escapes
        with pytest.raises(DomainError, match="leave the double range"):
            sse_eigenvalue(SseProblem(0.0, 1.0, potential, QuantumState(0, l)))

    def test_quadratic_refusal_at_l_1e250_warns_nothing(self):
        # every r^lam matrix is formed before the kinetic term, whose p^2/h^2 would overflow at this
        # scale: the range refusal is the first thing raised, with no numpy warning before it
        problem = SseProblem(0.0, 1.0, PowerLawPotential(((1.0, 2.0),)), QuantumState(0, 10**250))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as info:
                sse_eigenvalue(problem)
        assert str(info.value) == "Laguerre basis matrices at log10(l+1)=250, N=20 (r^2) leave the double range"

    @pytest.mark.parametrize(
        "alpha, h", [(1e-300, "1.10064e+200"), (1e300, "1.10064e-200"), (4e230, "2.0274e-154")],
        ids=["square-overflows", "square-underflows", "p2-over-square-overflows"],
    )
    def test_a_basis_scale_whose_kinetic_term_leaves_the_double_range_is_a_domain_error(self, alpha, h):
        # at masses (0, 1e-300) h^2 of alpha r^0.5 overflows, underflows to 0, or is a normal double
        # that the largest p_l^2 eigenvalue over h^2 overflows; the refusal names h before the kinetic
        # term is formed, with no warning before it
        problem = SseProblem(0.0, 1e-300, PowerLawPotential(((alpha, 0.5),)), QuantumState(0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as info:
                sse_eigenvalue(problem)
        assert str(info.value) == f"the kinetic term at basis scale h={h} leaves the double range"

    @pytest.mark.parametrize("scale", [1e-155, 1.2e-154, 1e155])
    def test_an_oracle_scale_whose_kinetic_term_leaves_the_double_range_is_a_domain_error(self, scale):
        # 2 h^2 underflows, is normal but P/(2 h^2) overflows (the largest entry of P is 6.58), or overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as info:
                reference.nr_hamiltonian(1.0, 0, scale, 20)
        assert str(info.value) == f"the kinetic term at basis scale h={scale:.6g} leaves the double range"

    def test_linear_reference_at_l_1e306(self):
        # the ladder stops before the N = 160 rung, whose J would leave the double range; at such l
        # both kinetic terms are ~ l/r, and the level is the minimum of 2l/r + b r, 2 sqrt(2 b l)
        level = sse_eigenvalue(SseProblem(0.0, 1.0, LINEAR, QuantumState(0, 10**306)))
        assert level == pytest.approx(2.0 * math.sqrt(2.0 * 0.2 * 1e306), rel=1e-12)

    def test_l_80_is_still_representable(self):
        assert sse_eigenvalue(SseProblem(0.0, 1.0, LINEAR, QuantumState(0, 80))) == pytest.approx(11.568674, abs=1e-6)

    @pytest.mark.parametrize("l", [84, 200])
    def test_linear_reference_past_the_gamma_limit(self, caplog, l):
        # the closed-form x matrix needs no Gamma function: the rungs do not rise, and the level sits below
        # the certified p = 2 bound (the linear potential is concave in r^2) and above the l = 80 level
        state = QuantumState(0, l)
        with caplog.at_level(logging.DEBUG, logger="salpeter_afm"):
            value = sse_eigenvalue(SseProblem(0.0, 1.0, LINEAR, state))
        rungs = [float(r.getMessage().split()[-1].removeprefix("value="))
                 for r in caplog.records if r.getMessage().startswith("reference rung")]
        assert len(rungs) >= 2
        assert_non_increasing(rungs)
        assert 11.568674 < value < solve_afm(0.0, 1.0, LINEAR, q_exact(2, state)).mass

    def test_tiny_confining_coupling_leaves_the_scale_uncapped(self):
        # the round-off cap (tol |E| / (eps alpha))^(1/lam) would overflow; formed in logarithms it
        # does not bind, and no warning escapes
        problem = SseProblem(0.0, 1.0, PowerLawPotential(((1e-300, 1.0),)), QuantumState(0))
        assert reference._scale(problem)[1] is False
        assert sse_eigenvalue(problem) == pytest.approx(1.0, rel=1e-12)


class TestOperatorConstruction:
    @pytest.mark.parametrize("l", [0, 1, 2, 3])
    def test_ground_function_closed_forms(self, l):
        # chi_0 = r^(l+1) e^(-r/2h) normalised: <p_l^2> = 1/(4h^2), <r> = (2l+3)h, <1/r> = 1/(2(l+1)h)
        h = 0.7
        assert psq_matrix(l, 5)[0, 0] / h**2 == pytest.approx(1.0 / (4.0 * h * h), rel=1e-14)
        assert h * power_matrix(1.0, l, 5)[0, 0] == pytest.approx((2 * l + 3) * h, rel=1e-14)
        assert power_matrix(-1.0, l, 5)[0, 0] / h == pytest.approx(1.0 / (2 * (l + 1) * h), rel=1e-14)

    @pytest.mark.parametrize("size", [20, 160])
    @pytest.mark.parametrize("l", [0, 1, 5, 40, 84])
    def test_closed_form_psq_matches_quadrature(self, l, size):
        quadrature = quadrature_psq(l, size)
        scale = np.abs(quadrature).max()
        assert np.abs(psq_matrix(l, size) - quadrature).max() <= 1e-12 * scale

    @pytest.mark.parametrize("size", [20, 160])
    @pytest.mark.parametrize(
        "lam, l",
        [(lam, l) for lam in (-1.0, 1.0, 2.0, 3.0) for l in (0, 1, 5, 40, 84) if lam < 1 or l < 84],
    )
    def test_closed_form_powers_match_quadrature(self, lam, l, size):
        # at l = 84 the Gauss-Laguerre weights of a positive exponent leave the double range
        quadrature = quadrature_power(lam, l, size)
        assert np.abs(power_matrix(lam, l, size) - quadrature).max() <= 1e-12 * np.abs(quadrature).max()

    @pytest.mark.parametrize("size", [20, 160])
    @pytest.mark.parametrize("l", [0, 1, 5, 40, 84, 200])
    def test_coulomb_sturmians_are_orthonormal_with_weight_1_over_x(self, l, size):
        # s = chi M, M upper bidiagonal with M_kk = sqrt(k+2l+2) and M_(k-1)k = -sqrt(k): M^T W(-1) M = I
        k = np.arange(size)
        m = np.diag(np.sqrt(k + 2.0 * l + 2.0)) - np.diag(np.sqrt(k[1:] + 0.0), 1)
        assert np.abs(m.T @ power_matrix(-1.0, l, size) @ m - np.eye(size)).max() <= 1e-13

    @pytest.mark.parametrize("size", [20, 160])
    @pytest.mark.parametrize("l", [0, 5, 200])
    def test_integer_powers_are_blocks_of_jacobi_powers(self, l, size):
        # W(1) is J itself; W(2) and W(3) are the top-left blocks of J^2 and J^3 on one more function
        assert np.array_equal(power_matrix(1.0, l, size), dense_jacobi(l, size))
        jacobi = dense_jacobi(l, size + 1)
        for m in (2, 3):
            block = np.linalg.matrix_power(jacobi, m)[:size, :size]
            assert np.abs(power_matrix(float(m), l, size) - block).max() <= 1e-14 * np.abs(block).max()

    def test_no_exponent_needs_a_quadrature(self, monkeypatch):
        # every r^lam matrix, and so every reference and oracle level, builds without a Gauss-Laguerre rule
        def refuse(*args, **kwargs):
            raise AssertionError("Gauss-Laguerre rule built")

        monkeypatch.setattr(scipy.special, "roots_genlaguerre", refuse)
        reference.power_matrix.cache_clear()
        try:
            for lam in (-1.5, -1.0, 0.5, 1.0, 2.0, 2.5, 3.0, 8):
                assert np.isfinite(power_matrix(lam, 2, 40)).all()
            assert sse_eigenvalue(COULOMB) == pytest.approx(PINNED["coulomb"], rel=1e-10)
            assert sse_eigenvalue(FUNNEL) == pytest.approx(PINNED["funnel"], rel=1e-10)
            for p, want in ((-1, 1.0), (1, q_exact(1, QuantumState(0)).value), (2, 1.5)):
                assert q_numeric(p, QuantumState(0)).value == pytest.approx(want, abs=1e-6)
            # Q(p) rises with p: Q(-1) = 1 < Q(-0.5) < Q(0.5) < Q(1) < Q(2) = 1.5 < Q(2.5)
            q = [q_numeric(p, QuantumState(0)).value for p in (-0.5, 0.5, 2.5)]
            assert 1.0 < q[0] < q[1] < q_exact(1, QuantumState(0)).value < 1.5 < q[2]
        finally:
            reference.power_matrix.cache_clear()

    @pytest.mark.parametrize("size", [20, 160])
    @pytest.mark.parametrize(
        "lam, l",
        [(lam, l) for lam in (-1.7, -1.5, -0.5, 0.5, 1.2, 2.5, 3.5, 4.5) for l in (0, 1, 5, 40, 84)
         if lam < 1 or l < 84],
    )
    def test_connection_form_matches_quadrature(self, lam, l, size):
        # at l = 84 the Gauss-Laguerre weights of an exponent >= 1 leave the double range
        quadrature = quadrature_power(lam, l, size)
        assert np.abs(power_matrix(lam, l, size) - quadrature).max() <= 2e-12 * np.abs(quadrature).max()

    @pytest.mark.parametrize("l", [0, 5, 84])
    @pytest.mark.parametrize("lam", [-1.7, -0.5, 0.5, 2.5, 6.5, 8.5])
    def test_connection_form_matches_40_digit_entries(self, lam, l):
        # the same sum F F^T in 40 digits: the doubles lose no more than 5e-13 of sqrt(W_jj W_kk)
        mp = pytest.importorskip("mpmath").mp.clone()
        mp.dps = 40
        pairs = [(0, 0), (0, 159), (3, 150), (80, 81), (120, 37), (159, 159)]
        rows = mpmath_connection_rows(lam, l, {j for pair in pairs for j in pair}, mp)
        exact = {(j, k): mp.fsum(a * b for a, b in zip(rows[j], rows[k])) for j, k in pairs}
        exact.update({(j, j): mp.fsum(a * a for a in rows[j]) for j in rows})
        w = power_matrix(lam, l, 160)
        for j, k in pairs:
            assert abs(w[j, k] - exact[j, k]) <= 5e-13 * mp.sqrt(exact[j, j] * exact[k, k])

    @pytest.mark.parametrize("lam, l", [(0.5, 1000), (-1.5, 200)])
    def test_non_integer_powers_are_positive_definite_at_large_l(self, lam, l):
        # the exponential of the connection coefficients is taken on the lower triangle alone, so
        # nothing overflows (warnings are errors) and F F^T is positive definite
        w = power_matrix(lam, l, 160)
        assert np.isfinite(w).all() and np.array_equal(w, w.T)
        np.linalg.cholesky(w)

    def test_closed_form_psq_first_entries(self):
        # at l = 0: <chi_0|p^2|chi_0> = 1/4, <chi_1|p^2|chi_1> = 7/12 and <chi_0|p^2|chi_1> = 1/sqrt(12)
        psq = psq_matrix(0, 5)
        assert psq[0, 0] == 0.25
        assert psq[1, 1] == pytest.approx(7.0 / 12.0, rel=1e-15)
        assert psq[0, 1] == psq[1, 0] == pytest.approx(1.0 / math.sqrt(12.0), rel=1e-15)

    @pytest.mark.parametrize("size", [20, 160])
    @pytest.mark.parametrize("l", [0, 1, 5, 40, 84])
    def test_tridiagonal_spectrum_reproduces_psq(self, l, size):
        p2, u = reference._psq_spectrum(l, size)
        assert np.abs(u.T @ u - np.eye(size)).max() <= 1e-13
        psq = psq_matrix(l, size)
        assert np.abs((u * p2) @ u.T - psq).max() <= 1e-12 * np.abs(psq).max()

    def test_momentum_and_power_matrices_are_finite_at_l_200(self):
        # no matrix of the basis has an l limit
        p2, u = reference._psq_spectrum(200, 160)
        assert np.isfinite(psq_matrix(200, 160)).all() and np.isfinite(p2).all() and np.isfinite(u).all()
        for lam in (-1.0, 1.0, 2.0, 2.5):
            assert np.isfinite(power_matrix(lam, 200, 160)).all()

    @pytest.mark.parametrize("lam", [0.5, 2.0])
    def test_range_error_at_an_l_past_4300_digits_is_short(self, lam):
        # l is written in logarithms: in full it would pass the int-to-str digit limit, and 'g' cannot take it
        with pytest.raises(DomainError) as info:
            power_matrix(lam, 10**5000, 20)
        want = f"Laguerre basis matrices at log10(l+1)=5000, N=20 (r^{lam:g}) leave the double range"
        assert str(info.value) == want

    @pytest.mark.parametrize("l", [0, 2])
    def test_bases_are_nested(self, l):
        # every matrix element is exact, so a smaller basis sees the leading block of a larger one
        for small, large in ((psq_matrix(l, 20), psq_matrix(l, 160)),
                             (power_matrix(0.5, l, 20), power_matrix(0.5, l, 160))):
            np.testing.assert_allclose(large[:20, :20], small, rtol=0.0, atol=1e-12 * np.abs(small).max())

    @pytest.mark.parametrize("l", [0, 2])
    def test_hamiltonian_is_symmetric(self, l):
        problem = SseProblem(0.3, 1.1, PowerLawPotential.funnel(0.4, 0.2), QuantumState(0, l))
        h = sse_hamiltonian(problem, SCALE, SIZE)
        assert np.array_equal(h, h.T)

    def test_massless_sqrt_on_momentum_eigenvector_l0(self):
        assert_massless_sqrt_on_momentum_eigenvectors(0)

    def test_massless_sqrt_on_momentum_eigenvector_l2(self):
        assert_massless_sqrt_on_momentum_eigenvectors(2)

    @pytest.mark.parametrize("l", [0, 2])
    def test_two_masses_sum_single_terms(self, l):
        p2, u = reference._psq_spectrum(l, SIZE)
        p2 = p2 / SCALE**2
        both = kinetic_matrix(((1.0, 0.3), (1.0, 1.5)), p2, u)
        one = kinetic_matrix(((1.0, 0.3),), p2, u)
        two = kinetic_matrix(((1.0, 1.5),), p2, u)
        np.testing.assert_allclose(both, one + two, rtol=0.0, atol=1e-12)

    def test_one_decomposition_per_rung_for_two_masses(self, monkeypatch):
        # the near-critical Coulomb level climbs the whole ladder: from cold caches one tridiagonal
        # p_l^2 decomposition per (l, N), shared by both masses and by a later l = 0 problem,
        # one dsyevx level per rung and no dense eigvalsh or eigh
        reference._psq_spectrum.cache_clear()
        reference.power_matrix.cache_clear()
        calls = {"eigh": [], "eigh_tridiagonal": [], "eigvalsh": [], "dsyevx": []}

        def counting(module, name):
            real = getattr(module, name)

            def solve(a, *args, **kwargs):
                calls[name].append(len(a))
                return real(a, *args, **kwargs)

            return solve

        for name in calls:
            module = scipy.linalg.lapack if name == "dsyevx" else scipy.linalg
            monkeypatch.setattr(module, name, counting(module, name))
        assert sse_eigenvalue(COULOMB) == pytest.approx(PINNED["coulomb"], rel=1e-10)
        assert calls["eigh_tridiagonal"] == [20, 40, 80, 160]
        assert calls["dsyevx"] == calls["eigh_tridiagonal"]
        assert calls["eigvalsh"] == calls["eigh"] == []
        for sizes in calls.values():
            sizes.clear()
        assert sse_eigenvalue(SseProblem(0.0, 0.5, LINEAR, QuantumState(0))) == pytest.approx(
            CRITERION_3_VALUES[0][5], rel=1e-10
        )
        assert calls["eigh_tridiagonal"] == calls["eigvalsh"] == calls["eigh"] == []
        assert len(calls["dsyevx"]) >= 2

    def test_sigma_two_equals_equal_mass_two_body(self):
        two_mass = SseProblem(0.8, 0.8, LINEAR, QuantumState(0))
        symmetric = SseProblem(0.8, 0.8, LINEAR, QuantumState(0), sigma=2.0)
        h1 = sse_hamiltonian(two_mass, SCALE, SIZE)
        h2 = sse_hamiltonian(symmetric, SCALE, SIZE)
        assert np.array_equal(h1, h2)


class TestUnitScaleCaches:
    def test_cached_arrays_are_read_only_and_the_hamiltonian_is_fresh(self):
        cached = (psq_matrix(1, SIZE), *reference._psq_spectrum(1, SIZE), power_matrix(0.5, 1, SIZE))
        for array in cached:
            with pytest.raises(ValueError):
                array[0] = 0.0
        problem = SseProblem(0.3, 1.1, PowerLawPotential(((0.4, 0.5),)), QuantumState(0, 1))
        h = sse_hamiltonian(problem, SCALE, SIZE)
        assert h.flags.writeable and not any(np.shares_memory(h, array) for array in cached)
        h[:] = 0.0
        assert np.abs(sse_hamiltonian(problem, SCALE, SIZE)).max() > 0.0

    @pytest.mark.parametrize("l", [0, 1, 2])
    def test_second_problem_matches_a_direct_build(self, l):
        # the first problem fills the caches; the second reuses them at another mass and scale
        potential = PowerLawPotential(((0.4, -1.0), (0.3, 0.5), (0.2, 1.0), (0.1, 2.0)))
        sse_hamiltonian(SseProblem(0.3, 1.5, potential, QuantumState(0, l)), SCALE, SIZE)
        scale = 0.45
        h = sse_hamiltonian(SseProblem(0.0, 2.5, potential, QuantumState(0, l)), scale, SIZE)
        p2, u = scipy.linalg.eigh(psq_matrix(l, SIZE) / scale**2)
        direct = kinetic_matrix(((1.0, 0.0), (1.0, 2.5)), np.clip(p2, 0.0, None), u)
        for alpha, lam in potential.active_terms():
            direct += math.copysign(alpha, lam) * scale**lam * power_matrix(lam, l, SIZE)
        assert np.linalg.norm(h - direct) <= 1e-12 * np.linalg.norm(direct)


class TestEigenvalues:
    def test_discretization_decreases_with_refinement(self):
        # nested bases and Hansen's inequality: every rung bounds the next from above
        assert_non_increasing(rung_values(FUNNEL))

    def test_funnel_frozen_value(self):
        value = sse_eigenvalue(FUNNEL)
        assert value == pytest.approx(2.8882782, abs=1e-6)
        assert value == pytest.approx(PINNED["funnel"], rel=1e-10)

    def test_nonrelativistic_consistency_linear(self, airy_zeros_oracle):
        # for two heavy equal masses the spectrum approaches 2m + (nonrelativistic
        # eigenvalue of p^2/(2 mu) + r at mu = m/2, -a_0 (2 mu)^(-1/3)), at least as fast as 1/m
        pot = PowerLawPotential.linear(1.0)
        gaps = []
        for m in (5.0, 10.0):
            problem = SseProblem(m, m, pot, QuantumState(0))
            mass = sse_eigenvalue(problem)
            eps = -airy_zeros_oracle[0] * (1.0 / m) ** (1.0 / 3.0)
            gaps.append(abs(mass - 2.0 * m - eps))
        assert gaps[0] < 0.05
        assert gaps[1] <= gaps[0] * 0.5 * 1.2  # 1/m decay with 20% slack

    def test_heavy_mass_benchmark(self):
        # m1 = m2 = 10 with unit slope: 20 + 2.338107 * 10^(-1/3)
        problem = SseProblem(10.0, 10.0, PowerLawPotential.linear(1.0), QuantumState(0))
        mass = sse_eigenvalue(problem)
        assert mass == pytest.approx(21.0852533, abs=2e-2)

    def test_heavy_light_linear_frozen_value(self):
        # converged reference for masses (0, 1) with slope 0.2; sits below
        # both certified variational values (2.158 and 2.213)
        problem = SseProblem(0.0, 1.0, LINEAR, QuantumState(0))
        mass = sse_eigenvalue(problem)
        assert mass == pytest.approx(2.1132922, abs=1e-3)
        assert mass < 2.158

    # want: the ladder's rule applied to round-off-free rungs at the capped scale sse_eigenvalue picks,
    # each rung from 40-digit mpmath matrices (P from the weight-x^0 moments, not the closed form; W from
    # the x^(2+lam) moments) and an mpmath eigendecomposition.  At lam = 4.5 the rungs 80 and 160 agree
    # to 1e-7, so want is the N = 160 rung; at 6 and 8 it is the Aitken limit of the last three
    @pytest.mark.parametrize("lam, want", [(4.5, 3.4832284159), (6.0, 3.7533905897), (8.0, 4.0102412415)])
    def test_steep_confinement_converges_with_falling_rungs(self, caplog, lam, want):
        # the basis scale is capped so that the round-off of the r^lam matrix stays below the tolerance
        problem = SseProblem(0.0, 1.0, PowerLawPotential(((0.2, lam),)), QuantumState(0))
        with caplog.at_level(logging.DEBUG, logger="salpeter_afm"):
            value = sse_eigenvalue(problem)
        messages = [r.getMessage() for r in caplog.records]
        rungs = [float(m.split()[-1].removeprefix("value=")) for m in messages if m.startswith("reference rung")]
        assert len(rungs) >= 2
        assert all(fine < coarse for coarse, fine in zip(rungs, rungs[1:]))
        assert value == pytest.approx(want, abs=1e-7)

    @pytest.mark.parametrize("lam", [10.0, 30.0])
    def test_too_steep_confinement_is_a_convergence_failure(self, caplog, lam):
        # the capped rungs still fall geometrically, but their Aitken correction
        # (3e-5 at lam = 10, 0.25 at lam = 30) is far above what the ladder can vouch for
        problem = SseProblem(0.0, 1.0, PowerLawPotential(((0.2, lam),)), QuantumState(0))
        with caplog.at_level(logging.DEBUG, logger="salpeter_afm"), pytest.raises(ConvergenceFailure):
            sse_eigenvalue(problem)
        assert any(r.getMessage().startswith("reference Aitken limit") for r in caplog.records)

    @pytest.mark.parametrize("lam, pinned", [(2.0, 2.6983923990859875), (4.0, 3.3697933359694465)])
    def test_scale_cap_leaves_moderate_confinement_unchanged(self, lam, pinned):
        # the cap does not bind, so the level is, to the double, the ladder's at the natural scale
        # r0/(2n+2l+3) of the larger variational radius; pinned, the value before the cap from a rung
        # solve that lost ~eps ||H|| at N = 160, holds to the ladder's own tolerance
        problem = SseProblem(0.0, 1.0, PowerLawPotential(((0.2, lam),)), QuantumState(0))
        seed = max((solve_afm(0.0, 1.0, problem.potential, q_exact(p, problem.state)) for p in (-1, 2)),
                   key=lambda sol: sol.r0)
        natural = seed.r0 / 3
        terms = problem.potential.active_terms()
        assert reference.basis_scale(seed.r0, seed.mass, problem.state, terms, reference._TOL) == (natural, False)
        build = functools.partial(sse_hamiltonian, problem, natural)
        value = sse_eigenvalue(problem)
        assert value == reference.ladder("reference", build, 0, natural, reference._TOL, math.inf, 1.0)[0]
        assert value == pytest.approx(pinned, rel=reference._TOL)

    def test_pure_coulomb_massless_pair_has_no_scale(self):
        problem = SseProblem(0.0, 0.0, PowerLawPotential.coulomb(0.5), QuantumState(0))
        with pytest.raises(NoBoundState):
            sse_eigenvalue(problem)

    def test_supercritical_coulomb_takes_its_scale_from_q2(self):
        # -2.5/r collapses at Q(-1) = 1 but not at Q(2) = 3/2, whose radius seeds the basis; the
        # supercritical rungs then fall without limit, and the ladder refuses them
        problem = SseProblem(0.0, 1.0, PowerLawPotential.coulomb(2.5), QuantumState(0))
        seed = solve_afm(0.0, 1.0, problem.potential, q_exact(2, problem.state))
        assert reference._scale(problem) == (seed.r0 / 3 / 3.0, False)
        with pytest.raises(ConvergenceFailure, match="not geometrically decreasing"):
            sse_eigenvalue(problem)

    def test_coulomb_collapsing_at_both_seeds_is_a_collapse(self):
        with pytest.raises(CollapseDetected, match="r0 -> 0 at Q=1.5"):
            sse_eigenvalue(SseProblem(0.0, 1.0, PowerLawPotential.coulomb(5.0), QuantumState(0)))

    @pytest.mark.parametrize("sigma", [None, 2.0], ids=["two-mass", "symmetric"])
    def test_coulomb_at_l_1000_refuses_an_aitken_step_past_its_binding_energy(self, sigma):
        # the rungs fall to 2 - 1.51e-7 (threshold m1 + m2 = sigma m = 2); their Aitken step, 2.27e-6,
        # is 15 times that binding energy, for a level at ~2 - 3.59e-7, so the ladder refuses it
        problem = SseProblem(1.0, 1.0, PowerLawPotential.coulomb(1.2), QuantumState(0, 1000), sigma=sigma)
        with pytest.raises(ConvergenceFailure, match=r"Aitken correction 2.27e-06 above the binding energy 1.51e-07"):
            sse_eigenvalue(problem)

    @pytest.mark.parametrize(
        "problem",
        [SseProblem(0.0, 1.0, PowerLawPotential(((0.2, lam),)), QuantumState(0)) for lam in (4.0, 4.5, 6.0, 8.0)]
        + [COULOMB],
        ids=["r^4", "r^4.5", "r^6", "r^8", "coulomb"],
    )
    def test_bisected_rungs_match_a_qr_solve_of_every_level(self, problem):
        # bisection at abstol 2 safmin keeps these graded rungs to high relative accuracy; at abstol 0
        # the same rungs are off by up to 3.3e-8
        scale, n = reference._scale(problem)[0], problem.state.n
        for size in (80, 160):
            h = sse_hamiltonian(problem, scale, size)
            qr = scipy.linalg.eigvalsh(h[::-1, ::-1], driver="ev")[n]
            assert reference._level(h, n) == pytest.approx(qr, rel=1e-13, abs=0.0)

    def test_coulomb_benchmark_keeps_its_aitken_limit(self):
        # its Aitken step, 8.9e-3, is 6 % of the finest rung's binding energy
        assert sse_eigenvalue(COULOMB) == 0.8446131980862305


class TestBoundGap:
    def test_rows_and_signs(self):
        problem = SseProblem(0.0, 0.5, LINEAR, QuantumState(0))
        state = QuantumState(0)
        rows = bound_gap(problem, [q_exact(1, state), q_exact(2, state)])
        assert len(rows) == 2
        assert rows[0].mass_ref == rows[1].mass_ref
        for row in rows:
            assert row.gap == pytest.approx(row.mass_afm - row.mass_ref, rel=1e-12)
            assert row.gap > 0  # certified bounds sit above the reference value

    def test_sigma_mode_rejected(self):
        problem = SseProblem(0.5, 0.5, LINEAR, QuantumState(0), sigma=2.0)
        with pytest.raises(ValueError):
            bound_gap(problem, [GlobalQ.explicit(1.5, 1.0)])

    def test_coulomb_benchmark_gap(self):
        # variational 0.9798 over the accurate 0.8454 leaves a 0.134 gap
        problem = SseProblem(0.0, 1.0, PowerLawPotential.coulomb(1.2), QuantumState(0))
        rows = bound_gap(problem, [q_exact(-1, QuantumState(0))])
        assert rows[0].gap == pytest.approx(0.1344, abs=4e-3)


class TestCertificates:
    @pytest.mark.parametrize("n", [0, 1])
    def test_criterion_3_rows_are_certified(self, n):
        # M_true <= M_160 (Hansen and min-max) and M_160 < M_afm: each row is a proof, not a comparison
        state = QuantumState(n)
        q_choices = [q_exact(1, state), q_exact(2, state)]
        for m, pinned in zip((round(0.1 * i, 1) for i in range(11)), CRITERION_3_VALUES[n]):
            problem = SseProblem(0.0, m, LINEAR, state)
            values = rung_values(problem)
            assert_non_increasing(values)
            for q in q_choices:
                assert values[-1] < solve_afm(0.0, m, LINEAR, q).mass
            # the returned rung is converged to the 1e-7 stopping rule
            value = sse_eigenvalue(problem)
            assert -1e-12 <= value / values[-1] - 1.0 <= 1e-7
            assert value == pytest.approx(pinned, rel=1e-10)

    @pytest.mark.parametrize("values", [[1.0, 0.9, 0.95], [1.0, 0.9, 0.8], [1.0, 0.99, 0.9801], [1.0, 1.0, 0.9]])
    def test_aitken_refuses_a_ladder_that_does_not_fall_geometrically(self, values):
        with pytest.raises(ConvergenceFailure):
            reference._aitken(values)


class TestLadder:
    """The one verdict on a ladder, with a stub whose level n = 0 takes scripted values."""

    @staticmethod
    def run(levels, limit, threshold=0.0):
        return reference.ladder(
            "stub", lambda size: np.diag(np.full(size, levels[size])), 0, 1.0, 1e-7, limit, threshold
        )

    def test_two_agreeing_rungs_return_the_last(self):
        value, error, size = self.run({20: 2.001, 40: 2.0 + 1e-8, 80: 2.0, 160: 1.0}, 1e-7)
        assert (value, size) == (2.0, 80)
        assert error == pytest.approx(1e-8, rel=1e-6)

    def test_a_geometric_fall_within_the_limit_returns_the_aitken_limit(self):
        value, error, size = self.run({20: 1.1, 40: 1.05, 80: 1.025, 160: 1.0125}, 0.02)
        assert value == pytest.approx(1.0, rel=1e-12)
        assert error == pytest.approx(0.0125, rel=1e-9)
        assert size == 160

    def test_a_correction_beyond_the_limit_raises_naming_the_caller(self):
        with pytest.raises(ConvergenceFailure, match="stub"):
            self.run({20: 1.1, 40: 1.05, 80: 1.025, 160: 1.0125}, 1e-3)

    def test_a_correction_beyond_the_binding_energy_raises(self):
        # the fall accepted above against a threshold of 0 (binding energy 1.0125) is refused against
        # 1.01, whose binding energy 0.0025 is below the Aitken correction 0.0125
        with pytest.raises(ConvergenceFailure, match="stub: level n=0 has an Aitken correction 0.0125 above"):
            self.run({20: 1.1, 40: 1.05, 80: 1.025, 160: 1.0125}, 0.02, threshold=1.01)

    def test_a_fall_with_ratio_1e_5_is_accepted(self):
        value, error, _ = self.run({20: 3.0, 40: 2.0, 80: 1.0 + 1e-5, 160: 1.0}, 1e-7)
        assert value == pytest.approx(1.0 - 1e-10, rel=1e-12)
        assert error == pytest.approx(1e-10, rel=1e-4)


class TestLogging:
    @pytest.mark.parametrize(
        "problem, result", [(FUNNEL, "converged"), (COULOMB, "Aitken limit")], ids=["funnel", "coulomb"]
    )
    def test_debug_record_per_rung_and_result(self, caplog, problem, result):
        with caplog.at_level(logging.DEBUG, logger="salpeter_afm"):
            value = sse_eigenvalue(problem)
        *rungs, last = [r.getMessage() for r in caplog.records if r.name.startswith("salpeter_afm")]
        sizes = [int(m.split()[2].removeprefix("N=")) for m in rungs]
        assert sizes == list(reference._SIZES[: len(sizes)]) and len(sizes) >= 2
        assert last.startswith(f"reference {result}: {value:.12g}, error estimate")


class TestThreadCount:
    CHILD = (
        "import json, sys\n"
        "from salpeter_afm import PowerLawPotential, QuantumState, SseProblem, sse_eigenvalue\n"
        "print(json.dumps([sse_eigenvalue(SseProblem(m1, m2, PowerLawPotential(terms), QuantumState(n, l)))\n"
        "                  for m1, m2, terms, n, l in json.load(sys.stdin)]))\n"
    )

    def test_one_blas_thread_gives_the_same_doubles(self):
        # every pinned reference value is the same double with one BLAS thread as in this process
        problems = pinned_problems()
        specs = [(p.m1, p.m2, p.potential.terms, p.state.n, p.state.l) for p in problems]
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(SRC))
        child = subprocess.run([sys.executable, "-c", self.CHILD], input=json.dumps(specs), env=env,
                               capture_output=True, text=True, timeout=300, check=True)
        assert json.loads(child.stdout) == [sse_eigenvalue(p) for p in problems]

    Q_CHILD = (
        "import json, sys\n"
        "from salpeter_afm import QuantumState, q_numeric\n"
        "print(json.dumps([q_numeric(p, QuantumState(n, l)).value for p, n, l in json.load(sys.stdin)]))\n"
    )

    def test_one_blas_thread_gives_the_same_q_numeric_doubles(self):
        # and so does every pinned oracle level behind q_numeric
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(SRC))
        child = subprocess.run([sys.executable, "-c", self.Q_CHILD], input=json.dumps(Q_NUMERIC_SPECS), env=env,
                               capture_output=True, text=True, timeout=300, check=True)
        assert json.loads(child.stdout) == [q_numeric(p, QuantumState(n, l)).value for p, n, l in Q_NUMERIC_SPECS]


def blas_counts():
    """The thread count of each OpenBLAS the reference pins."""
    return [get() for get, _ in reference._blas_controls()]


def counting_build(seen):
    """A rung build that records the BLAS thread counts at each rung: a diagonal matrix, so the
    ladder converges on its second rung."""

    def build(size):
        seen.append(blas_counts())
        return np.diag(np.arange(1.0, size + 1.0))

    return build


def run_ladder(build, n=0):
    return reference.ladder("test", build, n, 1.0, reference._TOL, math.inf, 0.0)


@pytest.fixture
def two_blas_threads():
    """Every pinned OpenBLAS at two threads for the test and at its own count again after it, so
    that a count the code under test left at one, or at any other value, shows."""
    controls = reference._blas_controls()
    if not controls:
        pytest.skip("no OpenBLAS thread control in this process")
    before = blas_counts()
    for _, set_ in controls:
        set_(2)
    yield [2] * len(controls)
    for (_, set_), count in zip(controls, before):
        set_(count)


class TestOneBlasThread:
    """Every ladder of the reference and the oracle runs on one BLAS thread, and
    puts each library's thread count back however it ends."""

    def test_a_ladder_that_returns(self, two_blas_threads):
        seen = []
        assert run_ladder(counting_build(seen)) == (1.0, 0.0, 40)
        assert seen == [[1] * len(two_blas_threads)] * 2
        assert blas_counts() == two_blas_threads

    @pytest.mark.parametrize("error", [ConvergenceFailure, DomainError])
    def test_a_ladder_whose_build_raises(self, two_blas_threads, error):
        seen = []

        def build(size):
            if size == 40:
                raise error("refused")
            return counting_build(seen)(size)

        with pytest.raises(error, match="refused"):
            run_ladder(build)
        assert seen == [[1] * len(two_blas_threads)]
        assert blas_counts() == two_blas_threads

    def test_a_ladder_that_refuses_its_rungs(self, two_blas_threads):
        # p = -1.5 at (0, 0): the Aitken correction exceeds q_numeric's tolerance
        with pytest.raises(ConvergenceFailure, match="stuck at relative error"):
            q_numeric(-1.5, QuantumState(0))
        with pytest.raises(ConvergenceFailure, match="needs more than"):
            run_ladder(counting_build([]), n=reference._SIZES[-1])
        assert blas_counts() == two_blas_threads

    def test_a_ladder_whose_matrix_leaves_the_double_range(self, two_blas_threads):
        with pytest.raises(DomainError, match="leave the double range"):
            oracle.nr_energy(1.0, 1.0, 150.0, QuantumState(0))
        assert blas_counts() == two_blas_threads

    def test_nested_ladders(self, two_blas_threads):
        inner, outer, after_inner = [], [], []

        def build(size):
            if size == 20:
                run_ladder(counting_build(inner))
                after_inner.append(blas_counts())
            return counting_build(outer)(size)

        run_ladder(build)
        one = [1] * len(two_blas_threads)
        assert inner == outer == [one, one] and after_inner == [one]
        assert blas_counts() == two_blas_threads

    def test_two_threads_running_ladders_at_once(self, two_blas_threads):
        # b's ladder is still running when a's returns, and must stay on one thread
        both_inside, a_returned = threading.Barrier(2, timeout=30), threading.Event()
        seen, errors = {"a": [], "b": []}, []

        def run(name):
            def build(size):
                if size == 20:
                    both_inside.wait()
                    if name == "b":
                        assert a_returned.wait(timeout=30)
                return counting_build(seen[name])(size)

            try:
                run_ladder(build)
            except BaseException as err:  # reported by the test thread
                errors.append(err)
            if name == "a":
                a_returned.set()

        threads = [threading.Thread(target=run, args=(name,)) for name in seen]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        one = [1] * len(two_blas_threads)
        assert not errors and seen == {"a": [one, one], "b": [one, one]}
        assert blas_counts() == two_blas_threads

    def test_the_eigenvector_of_nr_eigenvalue(self, two_blas_threads, monkeypatch):
        seen, dsyevx = [], scipy.linalg.lapack.dsyevx

        def counting_dsyevx(*args, **kwargs):
            if kwargs.get("compute_v"):
                seen.append(blas_counts())
            return dsyevx(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg.lapack, "dsyevx", counting_dsyevx)
        oracle.nr_eigenvalue(1.0, 1.0, 1.5, QuantumState(2, 1))
        assert seen == [[1] * len(two_blas_threads)]
        assert blas_counts() == two_blas_threads

    # In a fresh interpreter, with every OpenBLAS at up to two threads: "ladder" runs one oracle ladder
    # in a process that has not loaded scipy and prints how many controls the ladder pinned, how many
    # there are once it has run, and the counts at each rung and after it; "fresh" prints the counts
    # of a process that runs no ladder.
    FIRST_LADDER = (
        "import json, sys\n"
        "from salpeter_afm import QuantumState, core, reference\n"
        "if sys.argv[1] == 'fresh':\n"
        "    print(json.dumps([get() for get, _ in reference._blas_controls()]))\n"
        "    raise SystemExit\n"
        "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "level, rungs = reference._level, []\n"
        "def counting_level(h, n, **options):\n"
        "    value = level(h, n, **options)  # scipy.linalg is loaded by now\n"
        "    rungs.append([get() for get, _ in reference._blas_controls.__wrapped__()])\n"
        "    return value\n"
        "reference._level = counting_level\n"
        "core.q_numeric(0.5, QuantumState(0, 0))\n"
        "controls = reference._blas_controls.__wrapped__()\n"
        "print(json.dumps({'pinned': len(reference._blas_controls()), 'loaded': len(controls), 'rungs': rungs,\n"
        "                  'after': [get() for get, _ in controls]}))\n"
    )

    def test_the_first_ladder_of_a_process_that_has_not_loaded_scipy(self):
        # the ladder enters before its first eigensolve imports scipy.linalg; the controls it looks
        # up then must include scipy's OpenBLAS, or that library stays on every thread for good
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2", PYTHONPATH=str(SRC))

        def child(mode):
            run = subprocess.run([sys.executable, "-c", self.FIRST_LADDER, mode], env=env,
                                 capture_output=True, text=True, timeout=120, check=True)
            return json.loads(run.stdout)

        fresh = child("fresh")
        if not fresh:
            pytest.skip("no OpenBLAS thread control in this process")
        first = child("ladder")
        assert first["pinned"] == first["loaded"] == len(fresh)
        assert first["rungs"] and all(counts == [1] * len(fresh) for counts in first["rungs"])
        assert first["after"] == fresh

    def test_without_a_control_nothing_changes_and_every_pinned_value_holds(self, two_blas_threads, monkeypatch):
        # the path of a BLAS without a control (MKL, Accelerate): the counts stay, and the pinned
        # reference and oracle values, built afresh, are the same doubles on two threads as on one
        def values():
            for cache in (reference.psq_matrix, reference.power_matrix, reference._psq_spectrum):
                cache.cache_clear()
            sse = [sse_eigenvalue(p) for p in pinned_problems()]
            return sse, [q_numeric(p, QuantumState(n, l)).value for p, n, l in Q_NUMERIC_SPECS]

        one_thread, controls = values(), reference._blas_controls()
        monkeypatch.setattr(reference, "_blas_controls", lambda: ())
        with reference._one_blas_thread:
            assert [get() for get, _ in controls] == two_blas_threads
        assert values() == one_thread
