import warnings

import numpy as np
import pytest
import scipy.linalg
from conftest import dst1_matrix

import salpeter_afm.oracle as oracle
from salpeter_afm import (
    ConvergenceFailure,
    DomainError,
    GlobalQ,
    PowerLawPotential,
    QuantumState,
    SpectralGrid,
    afm_eigenstate,
    coulomb_closed,
    linear_closed,
    nr_eigenvalue,
)


class TestSineOperator:
    @pytest.mark.parametrize("points", [64, 100, 300])  # N+1 = 101 is prime
    def test_matches_explicit_sine_basis(self, points):
        s = dst1_matrix(points)
        k = np.arange(1, points + 1) * np.pi / 30.0
        rng = np.random.default_rng(points)
        for symbol in (k * k, np.sqrt(k * k + 0.09), rng.normal(size=points)):
            want = (s * symbol) @ s
            got = oracle.sine_operator(symbol)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
            assert np.array_equal(got, got.T)


class TestSpectralGrid:
    def test_radii_layout(self):
        grid = SpectralGrid(10.0, 99)
        r = grid.radii
        assert len(r) == 99
        assert r[0] == pytest.approx(0.1)
        assert r[-1] == pytest.approx(9.9)

    def test_validation(self):
        with pytest.raises(ValueError):
            SpectralGrid(-1.0, 200)
        with pytest.raises(ValueError):
            SpectralGrid(10.0, 32)


class TestExactCases:
    def test_harmonic_ground(self):
        pair = nr_eigenvalue(1.0, 0.5, 2.0, QuantumState(0, 0))
        assert pair.energy == pytest.approx(1.5, abs=1e-9)

    def test_harmonic_excited_with_l(self):
        # contract accuracy is 1e-7 relative
        pair = nr_eigenvalue(1.0, 0.5, 2.0, QuantumState(2, 1))
        assert pair.energy == pytest.approx(6.5, abs=6.5e-7)

    def test_hydrogen_ground(self):
        pair = nr_eigenvalue(1.0, 1.0, -1.0, QuantumState(0, 0))
        assert pair.energy == pytest.approx(-0.5, abs=1e-7)

    def test_linear_ground_is_airy_zero(self, airy_zeros_oracle):
        pair = nr_eigenvalue(0.5, 1.0, 1.0, QuantumState(0, 0))
        assert pair.energy == pytest.approx(-airy_zeros_oracle[0], abs=1e-7)


class TestEigenpairStructure:
    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_node_count(self, n):
        pair = nr_eigenvalue(1.0, 0.5, 2.0, QuantumState(n, 0))
        u = pair.amplitudes
        live = u[np.abs(u) > 1e-6 * np.max(np.abs(u))]
        flips = np.count_nonzero(np.sign(live[:-1]) != np.sign(live[1:]))
        assert flips == n

    def test_normalization_and_sign(self):
        pair = nr_eigenvalue(1.0, 1.0, -1.0, QuantumState(1, 0))
        norm = np.sum(pair.amplitudes**2) * pair.grid.spacing
        assert norm == pytest.approx(1.0, abs=1e-10)
        lead = np.nonzero(np.abs(pair.amplitudes) > 1e-8 * np.max(np.abs(pair.amplitudes)))[0][0]
        assert pair.amplitudes[lead] > 0

    def test_virial_theorem(self):
        # 2<T> = p<V> for an eigenstate of p^2/(2 mu) + rho sign(p) r^p
        mu, rho, p = 0.8, 0.6, 1.5
        pair = nr_eigenvalue(mu, rho, p, QuantumState(1, 1))
        grid, u = pair.grid, pair.amplitudes
        r = grid.radii
        s = dst1_matrix(grid.points)
        k2 = oracle.box_momenta(grid) ** 2
        t_op = (s * (k2 / (2.0 * mu))) @ s
        kin = u @ (t_op @ u) * grid.spacing + np.sum(
            (1 * 2) / (2.0 * mu * r * r) * u * u
        ) * grid.spacing
        pot = np.sum(rho * r**p * u * u) * grid.spacing
        assert 2.0 * kin == pytest.approx(p * pot, rel=1e-5)


class TestScalingLaw:
    @pytest.mark.parametrize("s", [2.0, 10.0])
    @pytest.mark.parametrize("p", [2.0, -1.0, 0.5])
    def test_reduced_mass_scaling(self, s, p):
        state = QuantumState(0, 1)
        base, _ = oracle.nr_energy(1.0, 1.0, p, state, tol=1e-8)
        scaled, _ = oracle.nr_energy(s, 1.0, p, state, tol=1e-8)
        assert scaled == pytest.approx(base * s ** (-p / (p + 2.0)), rel=1e-6)


class TestConvergenceControl:
    def test_grid_doubling_at_defaults_smooth(self):
        # raw doubling difference below 1e-7 for a smooth confining potential
        state = QuantumState(0, 0)
        grid = oracle.default_grid(1.0, 0.5, 2.0, state)
        e1 = oracle._dense_levels(1.0, 0.5, 2.0, state, SpectralGrid(grid.box_radius, 600))[0][0]
        e2 = oracle._dense_levels(1.0, 0.5, 2.0, state, SpectralGrid(grid.box_radius, 1200))[0][0]
        assert abs(e2 - e1) / abs(e2) < 1e-7

    def test_unbound_state_raises(self):
        # a hard-wall box this small pushes the lowest level above threshold
        with pytest.raises(DomainError):
            nr_eigenvalue(1.0, 1.0, -1.0, QuantumState(0, 0), SpectralGrid(0.5, 64))

    def test_convergence_failure_at_cap(self, monkeypatch):
        monkeypatch.setattr(oracle, "_DEFAULT_CAP", 600)
        with pytest.raises(ConvergenceFailure):
            oracle.nr_energy(1.0, 1.0, -1.0, QuantumState(0, 0), tol=1e-13)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            oracle.nr_energy(-1.0, 1.0, 2.0, QuantumState(0, 0))
        with pytest.raises(ValueError):
            oracle.nr_energy(1.0, 1.0, -2.0, QuantumState(0, 0))


def counting(monkeypatch, *names):
    """Record the matrix size of every scipy.linalg call of the given names."""
    calls = []
    for name in names:
        real = getattr(scipy.linalg, name)

        def counted(*args, _real=real, **kwargs):
            calls.append(args[0].shape[0])
            return _real(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, name, counted)
    return calls


def dense_level(p, state, grid, mu=1.0, rho=1.0):
    h = oracle._hamiltonian(mu, rho, p, state.l, grid)
    return scipy.linalg.eigvalsh(h, subset_by_index=(state.n, state.n))[0]


class TestMatrixFreeLadder:
    @pytest.mark.parametrize("p, n, l", [(-1.0, 3, 0), (2.0, 1, 0), (-0.5, 1, 1)])
    def test_refined_rungs_match_dense(self, monkeypatch, p, n, l):
        state = QuantumState(n, l)
        grid = oracle.default_grid(1.0, 1.0, p, state)
        levels, coeffs = oracle._dense_levels(1.0, 1.0, p, state, grid)
        rescues = counting(monkeypatch, "eigh")
        for points in (600, 1200):
            rung = SpectralGrid(grid.box_radius, points)
            levels, coeffs = oracle._next_rung(1.0, 1.0, p, state, rung, levels, coeffs)
            assert levels[n] == pytest.approx(dense_level(p, state, rung), rel=1e-10)
        assert rescues == []

    def test_missed_residual_bound_is_rescued_densely(self, monkeypatch):
        # LOBPCG stops after one step, which makes it warn, and every residual
        # is reported far above its bound, so every refined rung is rescued
        refine = oracle._refined_levels

        def missing(*args):
            values, vectors, residuals = refine(*args)
            return values, vectors, residuals + 1.0

        monkeypatch.setattr(oracle, "_refined_levels", missing)
        monkeypatch.setattr(oracle, "_MAXITER", 1)
        state = QuantumState(0, 0)
        solves = counting(monkeypatch, "eigh")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            energy, finest = oracle.nr_energy(1.0, 1.0, 1.0, state)
        assert caught == []
        rungs = [300 * 2**k for k in range(len(solves))]
        assert solves == rungs and len(rungs) >= 3 and rungs[-1] == finest.points
        grids = [SpectralGrid(finest.box_radius, pts) for pts in rungs]
        values = [oracle._dense_levels(1.0, 1.0, 1.0, state, g)[0][state.n] for g in grids]
        assert energy == oracle._ladder_estimate(values)[0]

    def test_one_dense_eigensolve_per_ladder(self, monkeypatch):
        solves = counting(monkeypatch, "eigh", "eigvalsh")
        _, finest = oracle.nr_energy(1.0, 1.0, -1.0, QuantumState(3, 0))
        assert finest.points == 4800
        assert solves == [300]
        solves.clear()
        pair = nr_eigenvalue(1.0, 1.0, -1.0, QuantumState(3, 0))
        assert pair.grid.points == 4800
        assert solves == [300]


class TestAfmEigenstate:
    def test_coulomb_coupling_is_constant(self):
        sol = coulomb_closed(1.0, 1.2, GlobalQ(1.0, "analytic_pm1", -1.0))
        rho = oracle.auxiliary_coupling(sol, PowerLawPotential.coulomb(1.2), -1.0)
        assert rho == pytest.approx(1.2, rel=1e-12)

    def test_linear_coupling_is_slope(self):
        sol = linear_closed(1.0, 0.2, GlobalQ(1.5, "analytic_p2", 2.0))
        rho = oracle.auxiliary_coupling(sol, PowerLawPotential.linear(0.2), 1.0)
        assert rho == pytest.approx(0.2, rel=1e-12)

    def test_linear_coupling_under_quadratic_auxiliary(self):
        sol = linear_closed(1.0, 0.2, GlobalQ(1.5, "analytic_p2", 2.0))
        rho = oracle.auxiliary_coupling(sol, PowerLawPotential.linear(0.2), 2.0)
        assert rho == pytest.approx(0.2 / (2.0 * sol.r0), rel=1e-12)

    def test_returns_matching_level(self):
        # the frozen-einbein eigenstate reproduces the hydrogen-like spectrum
        # at the effective reduced mass and coupling
        sol = coulomb_closed(1.0, 1.2, GlobalQ(1.0, "analytic_pm1", -1.0))
        pair = afm_eigenstate(sol, PowerLawPotential.coulomb(1.2), -1.0, QuantumState(0, 0))
        mu = sol.nu1 * sol.nu2 / (sol.nu1 + sol.nu2)
        assert pair.energy == pytest.approx(-mu * 1.2**2 / 2.0, rel=1e-7)
