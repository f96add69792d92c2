import logging
import math

import numpy as np
import pytest
import scipy.linalg

import salpeter_afm.oracle as oracle
from salpeter_afm import (
    AfmError,
    ConvergenceFailure,
    DomainError,
    GlobalQ,
    PowerLawPotential,
    QuantumState,
    afm_eigenstate,
    coulomb_closed,
    linear_closed,
    nr_eigenvalue,
    q_numeric,
    reference,
)


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
        spacing = pair.radii[0]
        np.testing.assert_allclose(np.diff(pair.radii), spacing, rtol=1e-9)
        assert np.sum(pair.amplitudes**2) * spacing == pytest.approx(1.0, abs=1e-10)
        lead = np.nonzero(np.abs(pair.amplitudes) > 1e-8 * np.max(np.abs(pair.amplitudes)))[0][0]
        assert pair.amplitudes[lead] > 0

    def test_virial_theorem(self):
        # 2<T> = p<V> for an eigenstate of p^2/(2 mu) + rho sign(p) r^p.  <u'^2>
        # from first differences of the samples (u(0) = 0) and the rectangle sums
        # err by O(dr^2); Richardson over dr and 2 dr removes that term
        mu, rho, p = 0.8, 0.6, 1.5
        pair = nr_eigenvalue(mu, rho, p, QuantumState(1, 1))

        def expectations(step):
            r, u = pair.radii[step - 1 :: step], pair.amplitudes[step - 1 :: step]
            dr = r[0]
            kin = (np.sum(np.diff(u, prepend=0.0) ** 2) / dr + np.sum((1 * 2) / (r * r) * u * u) * dr) / (2.0 * mu)
            return np.array([kin, np.sum(rho * r**p * u * u) * dr])

        kin, pot = (4.0 * expectations(1) - expectations(2)) / 3.0
        assert 2.0 * kin == pytest.approx(p * pot, rel=1e-8)
        assert kin + pot == pytest.approx(pair.energy, rel=1e-8)


class TestScalingLaw:
    @pytest.mark.parametrize("s", [2.0, 10.0])
    @pytest.mark.parametrize("p", [2.0, -1.0, 0.5])
    def test_reduced_mass_scaling(self, s, p):
        state = QuantumState(0, 1)
        base = oracle.nr_energy(1.0, 1.0, p, state, tol=1e-8)
        scaled = oracle.nr_energy(s, 1.0, p, state, tol=1e-8)
        assert scaled == pytest.approx(base * s ** (-p / (p + 2.0)), rel=1e-6)


class TestConvergenceControl:
    def test_convergence_failure_at_cap(self):
        # the r^-1.7 s-wave cusp is still far from converged on the N = 160 rung
        with pytest.raises(ConvergenceFailure):
            oracle.nr_energy(1.0, 1.0, -1.7, QuantumState(0, 0))
        with pytest.raises(ConvergenceFailure):
            q_numeric(-1.7, QuantumState(0, 0))

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            oracle.nr_energy(-1.0, 1.0, 2.0, QuantumState(0, 0))
        with pytest.raises(ValueError):
            oracle.nr_energy(1.0, 1.0, -2.0, QuantumState(0, 0))


class TestExtremeUnits:
    @pytest.mark.parametrize("p", [-1.5, -0.5, 0.5, 3.0, 8.0])
    @pytest.mark.parametrize("mu", [1e-200, 1e-30, 1.0, 1e30, 1e200])
    @pytest.mark.parametrize("rho", [1e-200, 1e-30, 1.0, 1e30, 1e200])
    def test_a_value_or_a_typed_error(self, p, mu, rho):
        # p^2/2 + sign(p) r^p is solved once and rescaled: Q is the unit value, and an
        # energy or radius unit outside the double range is a DomainError
        state = QuantumState(0, 0)
        outcomes = []
        for solve in (
            lambda: q_numeric(p, state, mu=mu, rho=rho, tol=1e-3).value,
            lambda: oracle.nr_energy(mu, rho, p, state, tol=1e-3),
            lambda: oracle.nr_eigenvalue(mu, rho, p, state),
        ):
            try:
                outcomes.append(solve())
            except AfmError:
                outcomes.append(None)
        q, energy, pair = outcomes
        assert q == q_numeric(p, state, tol=1e-3).value
        if energy is not None:
            assert math.isfinite(energy) and energy != 0.0
        if pair is not None:
            assert all(np.all(np.isfinite(a)) for a in (pair.energy, pair.radii, pair.amplitudes))
            assert pair.radii[0] > 0.0

    def test_a_level_beyond_the_double_range_is_a_domain_error(self):
        # the energy unit, 1e308, is a double; the n = 5 harmonic level in that unit is not
        with pytest.raises(DomainError, match="energy unit"):
            oracle.nr_energy(1e-308, 1e308, 2.0, QuantumState(5, 0))

    @pytest.mark.parametrize("l", [10**152, 10**153, 10**155], ids=["1e152", "1e153", "1e155"])
    def test_amplitudes_past_the_double_range_are_a_domain_error(self, l):
        # the level converges, but the recurrence of the basis functions overflows on the sampled radii
        with pytest.raises(DomainError, match="basis functions"):
            nr_eigenvalue(1.0, 1.0, 1.0, QuantumState(0, l))

    @pytest.mark.parametrize("l", [10**150, 10**200, 10**300], ids=["1e150", "1e200", "1e300"])
    def test_linear_eigenpair_at_a_huge_l(self, l):
        # E = (3/2) Q^(2/3) with Q = l to double precision, also where Q^2 overflows
        pair = nr_eigenvalue(1.0, 1.0, 1.0, QuantumState(0, l))
        assert pair.energy == pytest.approx(1.5 * float(l) ** (2.0 / 3.0), rel=1e-12)
        assert np.all(np.isfinite(pair.amplitudes)) and np.max(pair.amplitudes) > 0.0


def counting(monkeypatch):
    """Record the matrix size of every dense scipy.linalg eigvalsh and eigh call, as ("eigvalsh", N)
    and ("eigh", N), and of every LAPACK dsyevx call, as ("level", N) or, with its vector, ("pair", N)."""
    calls = []
    for module, name in ((scipy.linalg, "eigvalsh"), (scipy.linalg, "eigh"), (scipy.linalg.lapack, "dsyevx")):
        real = getattr(module, name)

        def counted(a, *args, _real=real, _name=name, **kwargs):
            if _name == "dsyevx":
                _name = "pair" if kwargs.get("compute_v", 1) else "level"
            calls.append((_name, a.shape[0]))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


class TestLaguerreLadder:
    def test_one_level_per_rung_and_one_eigenpair_at_the_finest_rung(self, monkeypatch):
        calls = counting(monkeypatch)
        oracle.nr_energy(1.0, 1.0, -1.0, QuantumState(3, 0))
        rungs = [size for _, size in calls]
        assert calls == [("level", size) for size in rungs]
        assert rungs == list(reference._SIZES[: len(rungs)]) and len(rungs) >= 2
        calls.clear()
        nr_eigenvalue(1.0, 1.0, -1.0, QuantumState(3, 0))
        assert calls == [("level", size) for size in rungs] + [("pair", rungs[-1])]

    def test_debug_record_per_rung_and_rungs_bound_the_level(self, caplog):
        # hydrogen 2s: E = -1/8; Rayleigh-Ritz rungs lie above it and fall
        with caplog.at_level(logging.DEBUG, logger="salpeter_afm"):
            energy = oracle.nr_energy(1.0, 1.0, -1.0, QuantumState(1, 0), tol=1e-9)
        records = [r for r in caplog.records if r.name == "salpeter_afm.oracle"]
        *rungs, last = [r.getMessage() for r in records]
        assert [m.split()[2] for m in rungs] == [f"N={s}" for s in reference._SIZES[: len(rungs)]]
        values = [float(m.split()[-1].removeprefix("value=")) for m in rungs]
        assert all(v >= -0.125 - 1e-12 for v in values)
        assert values == sorted(values, reverse=True)
        assert last.startswith(f"oracle converged: {energy:.12g}, error estimate")


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
