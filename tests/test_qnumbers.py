import math

import pytest

from salpeter_afm import (
    ConvergenceFailure,
    DomainError,
    GlobalQ,
    QuantumState,
    UnsupportedCase,
    energy_from_q,
    invert_q,
    oracle,
    q_exact,
    q_numeric,
)


class TestQExact:
    def test_harmonic_ladder(self):
        assert q_exact(2, QuantumState(0, 0)).value == pytest.approx(1.5)
        assert q_exact(2, QuantumState(1, 2)).value == pytest.approx(5.5)
        assert q_exact(2, QuantumState(0, 0)).source == "analytic_p2"

    def test_hydrogen_ladder(self):
        assert q_exact(-1, QuantumState(1, 0)).value == pytest.approx(2.0)
        assert q_exact(-1, QuantumState(2, 3)).value == pytest.approx(6.0)

    def test_linear_ground_state_from_airy_oracle(self, airy_zeros_oracle):
        # Q(1) must reproduce the exact linear-potential spectrum through the
        # defining parameterization, which fixes the 3/2 power of the zero.
        want = 2.0 * (-airy_zeros_oracle[0] / 3.0) ** 1.5
        got = q_exact(1, QuantumState(0, 0))
        assert got.value == pytest.approx(want, abs=1e-10)
        assert got.source == "analytic_p1"

    def test_linear_q_consistent_with_parameterization(self, airy_zeros_oracle):
        # eigenvalue of p^2 + r (mu = 1/2, rho = 1) is |a_n|; feeding it through
        # the parameterization must land exactly on q_exact
        for n in range(3):
            eps = -airy_zeros_oracle[n]
            assert invert_q(eps, 0.5, 1.0, 1.0).value == pytest.approx(
                q_exact(1, QuantumState(n, 0)).value, abs=1e-10
            )

    def test_unsupported_cases(self):
        with pytest.raises(UnsupportedCase):
            q_exact(1, QuantumState(0, 1))  # p = 1 is s-wave only
        with pytest.raises(UnsupportedCase):
            q_exact(0.5, QuantumState(0, 0))

    @pytest.mark.parametrize(
        "p, state",
        [
            (2, QuantumState(10**308)),  # 2n + l + 3/2 = 2e308
            (2, QuantumState(0, 10**309)),  # l itself does not fit a double
            (1, QuantumState(10**308)),  # the Airy zero's series overflows
            (-1, QuantumState(10**308, 10**308)),  # n + l + 1 does not fit a double
        ],
    )
    def test_q_beyond_the_double_range_is_a_domain_error(self, p, state):
        with pytest.raises(DomainError, match="double range"):
            q_exact(p, state)

    def test_largest_q_still_fits(self):
        assert q_exact(-1, QuantumState(10**308 - 1)).value == 1e308


class TestInvertQ:
    def test_harmonic_point(self):
        assert invert_q(1.5, 1.0, 0.5, 2.0).value == pytest.approx(1.5, abs=1e-12)

    def test_hydrogen_point(self):
        assert invert_q(-0.5, 1.0, 1.0, -1.0).value == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("p", [2.0, 1.0, -1.0, 0.7, -1.4])
    @pytest.mark.parametrize("q", [0.8, 1.5, 4.2])
    def test_round_trip(self, p, q):
        mu, rho = 1.3, 0.9
        eps = energy_from_q(q, mu, rho, p)
        assert invert_q(eps, mu, rho, p).value == pytest.approx(q, rel=1e-12)

    @pytest.mark.parametrize(
        "q, mu, rho, p, energy",
        [(1e100, 1e-200, 1e200, 2.0, math.sqrt(2.0) * 1e300), (1.0, 1e-300, 1e300, -1.9, -(1.9**20) / 38.0 * 1e300)],
        ids=["oscillator", "steep"],
    )
    def test_an_eigenvalue_that_fits_a_double_is_returned_and_inverted(self, q, mu, rho, p, energy):
        # the formula is applied at mu = rho = 1 and rescaled by the energy unit of (mu, rho) once: Q^2/mu
        # (1e400) and the steep unit factors (1e6000 and 1e-5700) would leave the double range on their own; the
        # logarithm of the steep unit, 2 ln rho - p ln mu = 1381.6 - 1312.5 over p + 2 = 0.1, rounds by ~3e-12
        assert energy_from_q(q, mu, rho, p) == pytest.approx(energy, rel=1e-11)
        assert invert_q(energy, mu, rho, p).value == pytest.approx(q, rel=1e-11)

    def test_sign_mismatch_raises(self):
        with pytest.raises(DomainError):
            invert_q(-1.0, 1.0, 1.0, 2.0)  # confining spectrum cannot be negative
        with pytest.raises(DomainError):
            invert_q(0.5, 1.0, 1.0, -1.0)  # attractive tail needs a bound state


class TestQNumeric:
    def test_reproduces_harmonic(self):
        got = q_numeric(2.0, QuantumState(0, 0))
        assert got.value == pytest.approx(1.5, abs=1e-6)
        assert got.source == "numeric"
        assert got.p == 2.0

    def test_reproduces_hydrogen_p_wave(self):
        assert q_numeric(-1.0, QuantumState(0, 1)).value == pytest.approx(2.0, abs=1e-6)

    def test_reproduces_linear_first_excited(self, airy_zeros_oracle):
        want = 2.0 * (-airy_zeros_oracle[1] / 3.0) ** 1.5
        assert q_numeric(1.0, QuantumState(1, 0)).value == pytest.approx(want, abs=1e-6)

    def test_independent_of_chosen_scale(self):
        # the parameterization strips (mu, rho) exactly
        state = QuantumState(1, 1)
        q_a = q_numeric(0.5, state, mu=1.0, rho=1.0)
        q_b = q_numeric(0.5, state, mu=2.0, rho=5.0)
        assert q_a.value == pytest.approx(q_b.value, abs=1e-6)

    def test_fractional_exponent_between_neighbors(self):
        # Q grows monotonically with the auxiliary exponent at fixed state
        state = QuantumState(0, 0)
        q_half = q_numeric(0.5, state).value
        assert 1.0 < q_half < 1.5

    @pytest.mark.parametrize(
        "p, n, l, want",
        [
            # a Richardson-extrapolated sine-basis ladder on uniform grids in a hard
            # wall box of 3 (r_turn + 12/kappa), at tol 1e-9: no Laguerre basis
            (-0.1, 2, 0, 4.136925041),
            (-0.1, 0, 0, 1.200294568),
            (-0.3, 2, 0, 3.928818735),
            (-0.3, 1, 1, 3.509147105),
            (-0.7, 1, 1, 3.238324677),
            # the same ladder in a 12 r_turn box at tol 1e-6; they guard the basis-scale cap
            (6.0, 0, 0, 1.8284662776),
            (8.0, 0, 0, 1.9383970016),
        ],
    )
    def test_independent_anchors(self, p, n, l, want):
        assert q_numeric(p, QuantumState(n, l)).value == pytest.approx(want, abs=1e-6)

    @pytest.mark.parametrize("p, n, l, want", [(2.0, 19, 0, 39.5), (-1.0, 19, 0, 20.0), (-1.0, 0, 60, 61.0)])
    def test_ladders_that_fall_faster_than_geometrically(self, p, n, l, want):
        # the last rungs fall by ratios of 1e-5 to 1e-3, the N = 160 rung is already
        # near exact, and the Aitken correction is far inside the tolerance
        assert q_numeric(p, QuantumState(n, l)).value == pytest.approx(want, abs=1e-6)

    @pytest.mark.parametrize("l", [85, 200])
    def test_half_power_past_l_84_lies_between_the_exact_q(self, l):
        # the connection-formula r^0.5 matrix is finite at any l: Q(0.5) lies between Q(-1) = l + 1
        # and Q(2) = l + 3/2 and, at large l, rises by one per unit of l
        q = q_numeric(0.5, QuantumState(0, l)).value
        assert l + 1.0 < q < l + 1.5
        assert q - q_numeric(0.5, QuantumState(0, l - 1)).value == pytest.approx(1.0, abs=1e-5)

    @pytest.mark.parametrize("l", [85, 200])
    def test_oscillator_past_the_gamma_limit_is_exact(self, l):
        # the closed-form r^2 matrix needs no Gamma function
        assert q_numeric(2.0, QuantumState(0, l)).value == pytest.approx(l + 1.5, abs=1e-6)

    @pytest.mark.parametrize("l", [84, 200])
    def test_linear_past_the_gamma_limit_lies_between_the_exact_q(self, l):
        # Q(1) lies between Q(-1) = l + 1 and Q(2) = l + 3/2 and, at large l, rises by one per unit of l
        q = q_numeric(1.0, QuantumState(0, l)).value
        assert l + 1.0 < q < l + 1.5
        assert q - q_numeric(1.0, QuantumState(0, l - 1)).value == pytest.approx(1.0, abs=1e-5)

    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
    @pytest.mark.parametrize("l", [2**62, 2**63, int(9.3e18), 10**19, 10**30])
    def test_l_beyond_a_c_long_is_the_exact_q(self, p, l):
        # at such l every Q(p) is l + O(1), l to double precision; the closed-form matrices stay exact
        state = QuantumState(0, l)
        assert q_numeric(p, state).value == pytest.approx(q_exact(2, state).value, rel=1e-14)

    @pytest.mark.parametrize("p", [0.5, 1.5, 2.5])
    def test_non_integer_p_at_l_1e5_is_the_large_l_q(self, p):
        # Q = l + 1/2 + (n + 1/2) sqrt(p + 2) + O(1/l) at large l; at l = 1e5 the O(1/l) term is ~1.6e-12
        want = 10**5 + 0.5 + 0.5 * math.sqrt(p + 2)
        assert q_numeric(p, QuantumState(0, 10**5)).value == pytest.approx(want, rel=1e-11)

    @pytest.mark.parametrize(
        ("l", "p"),
        [(l, p) for l in (2 * 10**5, 10**7, 2**63, 10**30) for p in (0.5, 1.5, 2.5, -0.5)]
        # past Q^2 overflow the seed radius and the r^p matrix still fit
        + [(10**160, 0.5), (10**160, 1.5), (10**160, -0.5), (10**300, 0.5)],
    )
    def test_non_integer_p_at_a_huge_l_is_the_large_l_q(self, p, l):
        # the r^p matrix rounds by ~eps p ln l at any l (no log-Gamma difference): Q = l + 1/2 + sqrt(p + 2)/2
        # to the O(1/l) term at l = 2e5 (~4e-13) and to rounding (~3.5e-14) from l = 1e7 up
        want = l + 0.5 + 0.5 * math.sqrt(p + 2)
        assert q_numeric(p, QuantumState(0, l)).value == pytest.approx(want, rel=1e-12 if l < 10**7 else 1e-13)

    @pytest.mark.parametrize(
        ("l", "p"),
        [(10**160, -1.0), (10**160, -1.5), (10**160, 2.5)]
        + [(10**300, p) for p in (1.5, -0.5, -1.0, -1.5)]
        + [(l, p) for l in (int(1.7e308), 10**309) for p in (0.5, 1.0, 1.5, -0.5, -1.0, -1.5)],
    )
    def test_l_whose_radius_leaves_the_double_range_is_a_domain_error(self, p, l):
        # the seed radius, or an r^p matrix (p = 2.5 at l = 1e160, p = 1.5 at l = 1e300), leaves the double range
        with pytest.raises(DomainError, match="double range"):
            q_numeric(p, QuantumState(0, l))

    @pytest.mark.parametrize("l", [10**160, 10**200, 10**300, 10**306], ids=["1e160", "1e200", "1e300", "1e306"])
    def test_linear_past_q_squared_overflow_is_the_exact_q(self, l):
        # Q^2 overflows above Q ~ 1.3e154; the seed radius does not, and Q(1) = l to double precision
        # (at l = 1e306 the ladder stops before the N = 160 rung, whose J would leave the double range)
        state = QuantumState(0, l)
        assert q_numeric(1.0, state).value == pytest.approx(q_exact(2, state).value, rel=1e-14)

    @pytest.mark.parametrize("l", [10**160, 10**200, 10**300], ids=["1e160", "1e200", "1e300"])
    def test_oscillator_past_q_squared_overflow_is_a_domain_error(self, l):
        # the W(2) range bound: (4(N+2) + 4l + 6)^2 leaves the double range beyond l ~ 3e153
        with pytest.raises(DomainError, match=r"Laguerre basis matrices .*\(r\^2\) leave the double range"):
            q_numeric(2.0, QuantumState(0, l))

    @pytest.mark.parametrize(
        "l, where",
        [(3 * 10**306, "log10(l+1)=306.5, N=40"), (10**307, "log10(l+1)=307, N=20"), (10**308, "log10(l+1)=308")],
        ids=["3e306", "1e307", "1e308"],
    )
    def test_l_past_the_x_matrix_range_is_a_domain_error(self, l, where):
        # the x matrix J of a rung has off-diagonal products (k+1)(k+2l+3) and diagonal 2k+2l+3: the ladder
        # refuses the first rung whose products leave the double range, and every rung once the diagonal does
        with pytest.raises(DomainError) as info:
            q_numeric(1.0, QuantumState(0, l))
        assert str(info.value) == f"Laguerre basis matrices at {where} leave the double range"

    @pytest.mark.parametrize("p", [-1.999, -1.99999])
    def test_p_near_minus_2_is_a_domain_error(self, p):
        # the seed energy (|p| rho)^(2/(p+2)) ... overflows, which leaves the basis scale uncapped; the
        # radius (Q^2/|p|)^(1/(p+2)) underflows, and the kinetic term at that scale leaves the double range
        with pytest.raises(DomainError, match="the kinetic term at basis scale h=.* leaves the double range"):
            q_numeric(p, QuantumState(0))

    @pytest.mark.parametrize("n", [0, 3])
    @pytest.mark.parametrize("l", [70, 85, 300, 1000, 10**4])
    def test_coulomb_past_l_69_is_the_exact_q(self, n, l):
        # at l >= 1 the Coulomb level has no cusp and takes the natural basis scale; the 3x finer cusp
        # scale would put every basis function near a third of the level's radius and leave it
        # unconverged at N = 160 beyond l = 69
        state = QuantumState(n, l)
        assert q_numeric(-1.0, state).value == pytest.approx(q_exact(-1, state).value, rel=1e-15)

    @pytest.mark.parametrize("l", [10**20, 10**50, 10**150], ids=["1e20", "1e50", "1e150"])
    def test_coulomb_level_at_a_huge_l_is_the_exact_level(self, l):
        # the level -1/(2(l+1)^2) and Q = l + 1, where the cusp scale would give positive rungs
        state = QuantumState(0, l)
        assert oracle.nr_energy(1.0, 1.0, -1.0, state) == pytest.approx(-0.5 / float(l + 1) ** 2, rel=1e-15)
        assert q_numeric(-1.0, state).value == pytest.approx(float(l + 1), rel=1e-15)

    @pytest.mark.parametrize("p", [0.5, -1.0, 2.0])
    def test_n_beyond_the_laguerre_basis_is_a_convergence_failure(self, p):
        # level n needs rungs N > n; n = 160 has none, and no ladder reaches n >= 80
        for n in (80, 160):
            with pytest.raises(ConvergenceFailure):
                q_numeric(p, QuantumState(n, 0))

    @pytest.mark.parametrize("p", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_exponent(self, p):
        with pytest.raises(ValueError, match="finite"):
            q_numeric(p, QuantumState(0, 0))

    def test_steep_cusp_s_wave_at_relaxed_tolerance(self):
        # the r^-1.5 cusp converges slowly for l = 0; at a looser tolerance
        # the value is still scale-invariant and sits below the p = -1 one
        state = QuantumState(0, 0)
        q_a = q_numeric(-1.5, state, tol=1e-3)
        q_b = q_numeric(-1.5, state, mu=2.0, rho=5.0, tol=1e-3)
        assert q_a.value == pytest.approx(q_b.value, abs=2e-3)
        assert 0.5 < q_a.value < 1.0


def test_global_q_explicit_factory():
    q = GlobalQ.explicit(2.5, -1.0)
    assert q.value == 2.5
    assert q.source == "explicit"
    assert math.isclose(q.p, -1.0)
