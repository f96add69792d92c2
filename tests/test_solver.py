import math

import pytest
from conftest import bisect_root
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from salpeter_afm import (
    CollapseDetected,
    DomainError,
    GlobalQ,
    NoBoundState,
    PowerLawPotential,
    QuantumState,
    q_exact,
    residuals,
    rotation_radii,
    solve_afm,
)

COULOMB_12 = PowerLawPotential.coulomb(1.2)
LINEAR_02 = PowerLawPotential.linear(0.2)
TWO_ROOTS = PowerLawPotential(((1.2248, 2.570), (0.3937, -1.658)))


def _balance(m1, m2, potential, qv, r):
    """r^3 dM/dr0: negative below a local minimum of M(r0), positive above."""
    p0 = qv / r
    return r**3 * potential.derivative(r) - qv * qv * (1.0 / math.hypot(p0, m1) + 1.0 / math.hypot(p0, m2))


class TestSolveAfm:
    def test_heavy_light_coulomb_benchmark(self):
        sol = solve_afm(0.0, 1.0, COULOMB_12, q_exact(-1, QuantumState(0)))
        assert sol.mass == pytest.approx(0.9798, abs=1e-4)
        # closed-form radius (Q/m) sqrt(a(2Q-a))/(a-Q)
        assert sol.r0 == pytest.approx(math.sqrt(1.2 * 0.8) / 0.2, rel=1e-12)
        assert sol.certified_upper_bound  # proportional auxiliary potential

    def test_heavy_light_linear_against_bisection_oracle(self):
        # independent route: bisect Q + Q^2/sqrt(Q^2+m^2 r^2) = b r^2, then
        # assemble the mass by hand
        m, b, qv = 1.0, 0.2, 1.5

        def balance(r):
            return b * r * r - qv - qv * qv / math.hypot(qv, m * r)

        r0 = bisect_root(balance, 1e-3, 1e3)
        p0 = qv / r0
        want = p0 + math.hypot(p0, m) + b * r0
        sol = solve_afm(0.0, m, LINEAR_02, GlobalQ.explicit(qv, 1.0))
        assert sol.r0 == pytest.approx(r0, rel=1e-12)
        assert sol.mass == pytest.approx(want, rel=1e-12)
        assert sol.mass == pytest.approx(2.2129009441667554, rel=1e-10)  # frozen oracle value

    def test_fully_massless_linear(self):
        sol = solve_afm(0.0, 0.0, LINEAR_02, GlobalQ.explicit(1.5, 1.0))
        assert sol.mass == pytest.approx(2.0 * math.sqrt(2.0 * 0.2 * 1.5), rel=1e-12)
        assert sol.r0 == pytest.approx(math.sqrt(2.0 * 1.5 / 0.2), rel=1e-12)

    def test_mass_symmetry_under_swap(self):
        pot = PowerLawPotential.funnel(0.4, 0.19)
        q = GlobalQ.explicit(2.0)
        a = solve_afm(0.3, 1.2, pot, q)
        b = solve_afm(1.2, 0.3, pot, q)
        assert a.mass == b.mass  # bitwise: the system is symmetric under 1<->2
        assert a.r0 == b.r0

    def test_window_errors(self):
        with pytest.raises(NoBoundState):
            solve_afm(0.0, 1.0, COULOMB_12, GlobalQ.explicit(2.0, -1.0))
        with pytest.raises(CollapseDetected):
            solve_afm(0.0, 1.0, COULOMB_12, GlobalQ.explicit(0.5, -1.0))

    @pytest.mark.parametrize("ratio", [0.3, 0.45, 0.499, 0.5, 0.52, 0.7, 0.9, 0.999, 1.0, 1.01, 1.5, 3.0])
    def test_window_trichotomy_sweep(self, ratio):
        # the heavy-light Coulomb classification is exactly Q <= a/2 collapse,
        # a/2 < Q < a bound, Q >= a unbound
        a = 1.2
        q = GlobalQ.explicit(ratio * a, -1.0)
        if ratio <= 0.5:
            with pytest.raises(CollapseDetected):
                solve_afm(0.0, 1.0, COULOMB_12, q)
        elif ratio < 1.0:
            assert solve_afm(0.0, 1.0, COULOMB_12, q).mass > 0
        else:
            with pytest.raises(NoBoundState):
                solve_afm(0.0, 1.0, COULOMB_12, q)

    @pytest.mark.parametrize("masses", [(0.0, math.inf), (math.inf, 1.0), (0.0, math.nan)])
    def test_rejects_non_finite_mass(self, masses):
        with pytest.raises(ValueError):
            solve_afm(*masses, LINEAR_02, 1.0)

    @pytest.mark.parametrize(
        "m, potential, qv, lo, hi",
        [
            pytest.param(1.0, COULOMB_12, 1.0, 1e-3, 1e3, id="coulomb"),
            pytest.param(1.0, LINEAR_02, 1.5, 1e-3, 1e3, id="linear"),
            pytest.param(0.8, PowerLawPotential.funnel(0.3, 0.15), 1.7, 1e-3, 1e3, id="funnel"),
            # [0.1, 10] holds the minimum near 1.2865, not the local maximum at 0.0177
            pytest.param(2.8044, TWO_ROOTS, 4.634, 0.1, 10.0, id="two-roots"),
            # r**(lam + 2) of the undivided balance overflows above r ~ 5e102
            pytest.param(1.0, PowerLawPotential.linear(1e-300), 1.0, 1e149, 1e151, id="root-near-1e150"),
        ],
    )
    def test_one_massless_particle_against_bisection(self, m, potential, qv, lo, hi):
        # at m1 = 0 the balance reduces to Q + Q^2/sqrt(Q^2 + m^2 r^2) = sum |lam| alpha r^(lam+1)
        def gap(r):
            pull = sum(abs(lam) * a * r ** (lam + 1.0) for a, lam in potential.terms)
            return pull - qv - qv * qv / math.hypot(qv, m * r)

        r0 = bisect_root(gap, lo, hi)
        sol = solve_afm(0.0, m, potential, qv)
        assert sol.r0 == pytest.approx(r0, rel=1e-10)
        assert max(residuals(sol, 0.0, m, potential, qv)) <= 1e-10

    def test_rejects_empty_potential(self):
        with pytest.raises(DomainError):
            solve_afm(1.0, 1.0, PowerLawPotential(((0.0, 1.0),)), GlobalQ.explicit(1.0))

    def test_plain_float_q_accepted(self):
        sol = solve_afm(0.0, 0.0, LINEAR_02, 1.5)
        assert sol.q.source == "explicit"
        assert not sol.certified_upper_bound  # no auxiliary exponent attached

    def test_two_roots_choose_the_minimum(self):
        # the steep attractive term makes the balance + - + in r0: the first
        # root is a local maximum of M(r0) at r0 ~ 0.0177, M ~ 207
        masses = (1.0987, 2.8044)
        sol = solve_afm(*masses, TWO_ROOTS, GlobalQ.explicit(4.634))
        assert sol.mass == pytest.approx(10.41, abs=5e-3)
        assert sol.r0 == pytest.approx(1.277, abs=5e-4)
        assert _balance(*masses, TWO_ROOTS, 4.634, sol.r0 * (1 - 1e-6)) < 0.0
        assert _balance(*masses, TWO_ROOTS, 4.634, sol.r0 * (1 + 1e-6)) > 0.0

    def test_exponent_near_minus_one_does_not_overflow(self):
        # the intrinsic scale (Q/(|lam| a))^(1/(lam+1)) of the -0.998 term is ~1e412
        pot = PowerLawPotential(((0.5, 1.0), (0.3, -0.998)))
        sol = solve_afm(1.0, 1.0, pot, GlobalQ.explicit(2.0))
        assert max(residuals(sol, 1.0, 1.0, pot, sol.q)) < 1e-10

    @pytest.mark.parametrize("coupling", [1e-20, 1e-300])
    def test_negligible_coupling_keeps_the_root_in_view(self, coupling):
        # the second term's own length scale lies 10 (150) decades above the root
        pot = PowerLawPotential(((1.0, 1.0), (coupling, 1.0)))
        assert solve_afm(0.0, 0.0, pot, 1.0).r0 == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_einbein_energy_reconstruction(self):
        # With frozen einbeins the mass must also assemble as
        # (nu1^2+m1^2)/(2 nu1) + (nu2^2+m2^2)/(2 nu2) + eps(mu, rho), where for
        # the Coulomb case eps is the hydrogen-like value -mu a^2/(2 Q^2).
        a, qv = 1.2, 1.0
        sol = solve_afm(0.0, 1.0, COULOMB_12, GlobalQ.explicit(qv, -1.0))
        mu = sol.nu1 * sol.nu2 / (sol.nu1 + sol.nu2)
        eps = -mu * a * a / (2.0 * qv * qv)
        one_body = sol.nu1 / 2.0 + (sol.nu2**2 + 1.0) / (2.0 * sol.nu2)
        assert one_body + eps == pytest.approx(sol.mass, rel=1e-12)


class TestMasslessTranscendental:
    """The balance equation with particle 1 massless, solved through solve_afm."""

    def test_massless_limit_closed_form(self):
        # with both particles massless the balance is algebraic: r0 = sqrt(2Q/b)
        sol = solve_afm(0.0, 0.0, LINEAR_02, GlobalQ.explicit(1.5, 1.0))
        assert sol.r0 == pytest.approx(math.sqrt(2.0 * 1.5 / 0.2), rel=1e-12)

    def test_window_errors_propagate(self):
        # the window edges themselves: Q = a is unbound, Q = a/2 collapses
        with pytest.raises(NoBoundState):
            solve_afm(0.0, 1.0, COULOMB_12, GlobalQ.explicit(1.2, -1.0))
        with pytest.raises(CollapseDetected):
            solve_afm(0.0, 1.0, COULOMB_12, GlobalQ.explicit(0.6, -1.0))


class TestResiduals:
    def test_solution_satisfies_all_relations(self):
        sol = solve_afm(0.0, 1.0, COULOMB_12, GlobalQ.explicit(1.0, -1.0))
        res = residuals(sol, 0.0, 1.0, COULOMB_12, sol.q)
        assert max(res) < 1e-10

    def test_virial_residual_is_sensitive(self):
        # a 1% shift of the radius must blow the virial residual far past
        # solver precision, so the residual is a real certificate
        sol = solve_afm(0.0, 1.0, COULOMB_12, GlobalQ.explicit(1.0, -1.0))
        from dataclasses import replace

        bad_r0 = sol.r0 * 1.01
        shifted = replace(
            sol,
            r0=bad_r0,
            p0=sol.q.value / bad_r0,
            nu1=sol.q.value / bad_r0,
            nu2=math.hypot(sol.q.value / bad_r0, 1.0),
        )
        res = residuals(shifted, 0.0, 1.0, COULOMB_12, sol.q)
        assert res[2] > 1e-3


class TestRotationRadii:
    def test_equal_masses_split_evenly(self):
        sol = solve_afm(0.7, 0.7, LINEAR_02, GlobalQ.explicit(1.5, 1.0))
        r1, r2 = rotation_radii(sol)
        assert r1 == pytest.approx(sol.r0 / 2.0, rel=1e-14)
        assert r2 == pytest.approx(sol.r0 / 2.0, rel=1e-14)

    def test_heavy_particle_sits_near_center(self):
        light = solve_afm(0.0, 50.0, LINEAR_02, GlobalQ.explicit(1.5, 1.0))
        r1, r2 = rotation_radii(light)
        assert r2 < 0.05 * r1  # particle 2 is the heavy one

    def test_coulomb_benchmark_split(self):
        sol = solve_afm(0.0, 1.0, COULOMB_12, GlobalQ.explicit(1.0, -1.0))
        r1, r2 = rotation_radii(sol)
        assert r1 == pytest.approx(sol.r0 * sol.nu2 / (sol.nu1 + sol.nu2), rel=1e-15)
        assert r1 + r2 == pytest.approx(sol.r0, rel=1e-15)


# property: every solvable configuration satisfies the defining relations


@st.composite
def bound_configurations(draw):
    alpha = draw(st.floats(0.05, 2.0))
    lam = draw(st.floats(0.2, 3.0))
    terms = [(alpha, lam)]
    if draw(st.booleans()):
        extra_lam = draw(
            st.floats(-1.8, 2.5).filter(lambda x: abs(x) > 0.05)
        )
        terms.append((draw(st.floats(0.0, 1.0)), extra_lam))
    m1 = draw(st.one_of(st.just(0.0), st.floats(0.0, 5.0)))
    m2 = draw(st.floats(0.0, 5.0))
    qv = draw(st.floats(0.3, 8.0))
    return m1, m2, PowerLawPotential(tuple(terms)), qv


@given(bound_configurations())
@settings(
    max_examples=80,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
def test_solution_relations_hold_everywhere(config):
    m1, m2, potential, qv = config
    try:
        sol = solve_afm(m1, m2, potential, GlobalQ.explicit(qv))
    except (NoBoundState, CollapseDetected):
        assume(False)
        return
    res = residuals(sol, m1, m2, potential, sol.q)
    assert max(res) < 1e-10
    assert sol.nu1**2 - sol.p0**2 == pytest.approx(m1 * m1, abs=1e-10 * max(m1 * m1, 1.0))
    assert sol.nu2**2 - sol.p0**2 == pytest.approx(m2 * m2, abs=1e-10 * max(m2 * m2, 1.0))
    r1, r2 = rotation_radii(sol)
    assert abs(r1 + r2 - sol.r0) <= 2e-15 * sol.r0


@given(bound_configurations())
@settings(
    max_examples=80,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
def test_returned_root_is_a_local_minimum(config):
    m1, m2, potential, qv = config
    try:
        sol = solve_afm(m1, m2, potential, GlobalQ.explicit(qv))
    except (NoBoundState, CollapseDetected, DomainError):
        assume(False)
        return
    assert _balance(m1, m2, potential, qv, sol.r0 * (1 - 1e-6)) < 0.0
    assert _balance(m1, m2, potential, qv, sol.r0 * (1 + 1e-6)) > 0.0


@given(
    bound_configurations(),
    st.floats(1e-30, 1e-12),
    st.integers(0, 1),
)
@settings(
    max_examples=80,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
def test_negligible_term_leaves_the_root_unchanged(config, coupling, which):
    m1, m2, potential, qv = config
    try:
        sol = solve_afm(m1, m2, potential, GlobalQ.explicit(qv))
    except (NoBoundState, CollapseDetected, DomainError):
        assume(False)
        return
    active = potential.active_terms()
    lam = active[which % len(active)][1]
    padded = PowerLawPotential(potential.terms + ((coupling, lam),))
    assert solve_afm(m1, m2, padded, GlobalQ.explicit(qv)).r0 == pytest.approx(sol.r0, rel=1e-9)
