import logging
import math

import pytest
import scipy.linalg

import salpeter_afm.oracle as oracle
from salpeter_afm import (
    AfmError,
    ConvergenceFailure,
    DomainError,
    GlobalQ,
    QuantumState,
    coulomb_closed,
    q_numeric,
    reference,
)


class TestExactCases:
    def test_harmonic_ground(self):
        energy = oracle.nr_energy(1.0, 0.5, 2.0, QuantumState(0, 0))
        assert energy == pytest.approx(1.5, abs=1e-9)

    def test_harmonic_excited_with_l(self):
        # contract accuracy is 1e-7 relative
        energy = oracle.nr_energy(1.0, 0.5, 2.0, QuantumState(2, 1))
        assert energy == pytest.approx(6.5, abs=6.5e-7)

    def test_hydrogen_ground(self):
        energy = oracle.nr_energy(1.0, 1.0, -1.0, QuantumState(0, 0))
        assert energy == pytest.approx(-0.5, abs=1e-7)

    def test_linear_ground_is_airy_zero(self, airy_zeros_oracle):
        energy = oracle.nr_energy(0.5, 1.0, 1.0, QuantumState(0, 0))
        assert energy == pytest.approx(-airy_zeros_oracle[0], abs=1e-7)

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_harmonic_level_n_is_the_nth_level(self, n):
        # E = 2n + l + 3/2: the ladder returns the level with n radial nodes, not a neighbour
        energy = oracle.nr_energy(1.0, 0.5, 2.0, QuantumState(n, 0))
        assert energy == pytest.approx(2.0 * n + 1.5, rel=1e-7)

    def test_hydrogen_excited(self):
        energy = oracle.nr_energy(1.0, 1.0, -1.0, QuantumState(1, 0))
        assert energy == pytest.approx(-0.125, abs=1e-7)

    def test_coulomb_level_at_the_afm_reduced_mass(self):
        # the frozen einbeins nu1, nu2 of the AFM Coulomb solution give a hydrogen-like level
        # at their reduced mass
        sol = coulomb_closed(1.0, 1.2, GlobalQ(1.0, "analytic_pm1", -1.0))
        mu = sol.nu1 * sol.nu2 / (sol.nu1 + sol.nu2)
        energy = oracle.nr_energy(mu, 1.2, -1.0, QuantumState(0, 0))
        assert energy == pytest.approx(-mu * 1.2**2 / 2.0, rel=1e-7)


class TestScalingLaw:
    @pytest.mark.parametrize("s", [2.0, 10.0])
    @pytest.mark.parametrize("p", [2.0, -1.0, 0.5])
    def test_reduced_mass_scaling(self, s, p):
        state = QuantumState(0, 1)
        base = oracle.nr_energy(1.0, 1.0, p, state, tol=1e-8)
        scaled = oracle.nr_energy(s, 1.0, p, state, tol=1e-8)
        assert scaled == pytest.approx(base * s ** (-p / (p + 2.0)), rel=1e-6)

    def test_virial_theorem(self):
        # 2<T> = p<V> for an eigenstate of p^2/(2 mu) + rho sign(p) r^p.  By Hellmann-Feynman
        # <T> = -mu dE/dmu and <V> = rho dE/drho, here as central differences in ln mu and ln rho
        mu, rho, p, h = 0.8, 0.6, 1.5, 1e-3
        state = QuantumState(1, 1)
        energy = oracle.nr_energy(mu, rho, p, state)

        def log_slope(level):
            return (math.log(level(math.exp(h))) - math.log(level(math.exp(-h)))) / (2.0 * h)

        kin = -energy * log_slope(lambda f: oracle.nr_energy(mu * f, rho, p, state))
        pot = energy * log_slope(lambda f: oracle.nr_energy(mu, rho * f, p, state))
        assert 2.0 * kin == pytest.approx(p * pot, rel=1e-8)
        assert kin + pot == pytest.approx(energy, rel=1e-8)


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
        # energy unit outside the double range is a DomainError
        state = QuantumState(0, 0)
        q = q_numeric(p, state, mu=mu, rho=rho, tol=1e-3).value
        assert q == q_numeric(p, state, tol=1e-3).value
        try:
            energy = oracle.nr_energy(mu, rho, p, state, tol=1e-3)
        except AfmError:
            return
        assert math.isfinite(energy) and energy != 0.0

    def test_a_capped_level_keeps_the_oracle_tolerance_as_its_limit(self, caplog, monkeypatch):
        # at p = 8 and tol = 1e-3 the r^8 term caps the basis scale, and the converged level's error
        # estimate, 3.4e-5 relative, is above the 2e-6 that a capped reference level may carry: the
        # oracle's limit stays its tol
        capped, basis_scale = [], reference.basis_scale

        def recording(*args):
            scale = basis_scale(*args)
            capped.append(scale[1])
            return scale

        monkeypatch.setattr(reference, "basis_scale", recording)
        with caplog.at_level(logging.DEBUG, logger="salpeter_afm"):
            value = oracle._solve.__wrapped__(8.0, QuantumState(0, 0), 1e-3)
        [result] = [r.getMessage() for r in caplog.records if r.getMessage().startswith("oracle converged")]
        assert capped == [True]
        assert float(result.split()[-1]) / value > reference._CAPPED_TOL

    def test_a_level_beyond_the_double_range_is_a_domain_error(self):
        # the energy unit, 1e308, is a double; the n = 5 harmonic level in that unit is not
        with pytest.raises(DomainError, match="energy unit"):
            oracle.nr_energy(1e-308, 1e308, 2.0, QuantumState(5, 0))

    @pytest.mark.parametrize(
        "value, log_unit", [(0.0, 0.0), (1.0, 710.0), (1.0, -710.0), (1e300, 30.0), (1e-300, -30.0)]
    )
    def test_a_unit_or_rescaled_level_beyond_the_double_range_is_a_domain_error(self, value, log_unit):
        with pytest.raises(DomainError, match="energy unit"):
            oracle._rescale(value, log_unit)

    @pytest.mark.parametrize(
        "l",
        [10**150, 10**152, 10**153, 10**155, 10**200, 10**300],
        ids=["1e150", "1e152", "1e153", "1e155", "1e200", "1e300"],
    )
    def test_linear_level_at_a_huge_l(self, l):
        # E = (3/2) Q^(2/3) with Q = l to double precision, also where Q^2 overflows
        energy = oracle.nr_energy(1.0, 1.0, 1.0, QuantumState(0, l))
        assert energy == pytest.approx(1.5 * float(l) ** (2.0 / 3.0), rel=1e-12)


def counting(monkeypatch):
    """Record the name and matrix size of every scipy.linalg eigvalsh and eigh and every LAPACK dsyevx call."""
    calls = []
    for module, name in ((scipy.linalg, "eigvalsh"), (scipy.linalg, "eigh"), (scipy.linalg.lapack, "dsyevx")):
        real = getattr(module, name)

        def counted(a, *args, _real=real, _name=name, **kwargs):
            calls.append((_name, a.shape[0]))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


class TestLaguerreLadder:
    def test_one_level_per_rung(self, monkeypatch):
        calls = counting(monkeypatch)
        oracle.nr_energy(1.0, 1.0, -1.0, QuantumState(3, 0))
        rungs = [size for _, size in calls]
        assert calls == [("dsyevx", size) for size in rungs]
        assert rungs == list(reference._SIZES[: len(rungs)]) and len(rungs) >= 2

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
