import math

import numpy as np
import pytest
from conftest import bisect_root

from salpeter_afm import (
    CollapseDetected,
    DomainError,
    GlobalQ,
    NoBoundState,
    PowerLawPotential,
    coulomb_closed,
    coulomb_symmetric,
    linear_closed,
    linear_nr_expansion,
    linear_symmetric_massless,
    linear_ur_expansion,
    residuals,
    solve_afm,
)


class TestCoulombClosed:
    def test_benchmark_point(self):
        sol = coulomb_closed(1.0, 1.2, GlobalQ.explicit(1.0, -1.0))
        assert sol.mass == pytest.approx(0.979796, abs=1e-6)
        assert sol.mass == pytest.approx(2.0 * math.sqrt(0.24), rel=1e-14)
        assert sol.r0 == pytest.approx(4.898979485566356, rel=1e-13)
        assert sol.certified_upper_bound

    def test_direct_evaluation_stronger_coupling(self):
        sol = coulomb_closed(1.0, 1.5, GlobalQ.explicit(1.0, -1.0))
        assert sol.mass == pytest.approx(2.0 * math.sqrt(0.75 * 0.25), rel=1e-14)

    def test_binding_cancellation_boundary(self):
        # approaching Q -> a from below: M -> m and r0 -> infinity
        masses, radii = [], []
        for a in (1.0 + 1e-3, 1.0 + 1e-5, 1.0 + 1e-7):
            sol = coulomb_closed(1.0, a, GlobalQ.explicit(1.0, -1.0))
            masses.append(sol.mass)
            radii.append(sol.r0)
        assert abs(masses[-1] - 1.0) < 1e-6
        assert masses[0] < masses[1] < masses[2]
        assert radii[0] < radii[1] < radii[2]
        assert radii[-1] > 1e6

    def test_window_errors(self):
        with pytest.raises(NoBoundState):
            coulomb_closed(1.0, 1.2, GlobalQ.explicit(1.2, -1.0))
        with pytest.raises(NoBoundState):
            coulomb_closed(1.0, 1.2, GlobalQ.explicit(2.0, -1.0))
        with pytest.raises(CollapseDetected):
            coulomb_closed(1.0, 1.2, GlobalQ.explicit(0.6, -1.0))
        with pytest.raises(DomainError):
            coulomb_closed(0.0, 1.2, GlobalQ.explicit(1.0, -1.0))

    def test_mass_monotone_in_q_inside_window(self):
        a = 1.2
        qs = np.linspace(0.61, 1.19, 30)
        masses = [coulomb_closed(1.0, a, GlobalQ.explicit(float(q), -1.0)).mass for q in qs]
        assert all(m2 > m1 for m1, m2 in zip(masses, masses[1:]))

    def test_residuals_feed_back_clean(self):
        sol = coulomb_closed(0.7, 0.9, GlobalQ.explicit(0.6, -1.0))
        res = residuals(sol, 0.0, 0.7, PowerLawPotential.coulomb(0.9), sol.q)
        assert max(res) < 1e-10


class TestCoulombSymmetric:
    def test_two_body_value(self):
        assert coulomb_symmetric(2.0, 1.0, 1.2, GlobalQ.explicit(1.0)) == pytest.approx(1.6, rel=1e-14)

    def test_one_body_value(self):
        assert coulomb_symmetric(1.0, 1.0, 0.6, GlobalQ.explicit(1.0)) == pytest.approx(0.8, rel=1e-14)

    def test_free_limit(self):
        assert coulomb_symmetric(2.0, 1.0, 1e-12, GlobalQ.explicit(1.0)) == pytest.approx(2.0, rel=1e-9)

    def test_no_bound_state(self):
        with pytest.raises(NoBoundState):
            coulomb_symmetric(2.0, 1.0, 2.5, GlobalQ.explicit(1.0))


class TestLinearClosed:
    def test_against_independent_bisection(self):
        # oracle route: bisect the radius balance, assemble the mass by hand
        for m, b, qv in [(1.0, 0.2, 1.5), (0.4, 0.7, 2.3), (3.0, 0.1, 0.9)]:
            balance = lambda r: b * r * r - qv - qv * qv / math.hypot(qv, m * r)
            r0 = bisect_root(balance, 1e-4, 1e4)
            p0 = qv / r0
            want = p0 + math.hypot(p0, m) + b * r0
            sol = linear_closed(m, b, GlobalQ.explicit(qv, 1.0))
            assert sol.mass == pytest.approx(want, rel=1e-8)
            assert sol.r0 == pytest.approx(r0, rel=1e-10)

    def test_benchmark_point(self):
        sol = linear_closed(1.0, 0.2, GlobalQ.explicit(1.5, 1.0))
        assert sol.mass == pytest.approx(2.2129009441667554, rel=1e-12)  # frozen oracle value
        assert sol.r0**2 == pytest.approx(10.634181259350205, rel=1e-12)

    def test_radius_formula_written_out(self):
        # r0^2 = Q/b - Q^2/(2m^2) + Q^(3/2)/(2m^2) sqrt(Q + 4m^2/b)
        m, b, qv = 1.0, 0.2, 1.3760835433437749
        sol = linear_closed(m, b, GlobalQ.explicit(qv, 1.0))
        direct = qv / b - qv * qv / 2.0 + qv**1.5 / 2.0 * math.sqrt(qv + 4.0 / b)
        assert sol.r0**2 == pytest.approx(direct, rel=1e-12)

    def test_massless_point_equals_symmetric_scale(self):
        sol = linear_closed(0.0, 0.2, GlobalQ.explicit(1.5, 1.0))
        assert sol.mass == pytest.approx(1.5491933384829668, rel=1e-14)
        assert sol.mass == pytest.approx(
            linear_symmetric_massless(2.0, 0.2, GlobalQ.explicit(1.5)), rel=1e-14
        )

    def test_series_branch_joins_smoothly(self):
        # the small-mass expansion takes over below m/M0 = 1e-4; both branches
        # agree to near machine precision in a window around the cutover
        b, qv = 0.2, 1.5
        m0 = 2.0 * math.sqrt(2.0 * b * qv)
        for x in (0.3e-4, 0.9e-4, 1.1e-4, 3e-4):
            m = x * m0
            sol = linear_closed(m, b, GlobalQ.explicit(qv, 1.0))
            series = m0 * (1.0 + 2.0 * x * x - 10.0 * x**4)
            assert sol.mass == pytest.approx(series, rel=1e-13)

    def test_residuals_feed_back_clean(self):
        for m in (0.0, 1e-6, 0.5, 8.0):
            sol = linear_closed(m, 0.3, GlobalQ.explicit(2.0, 1.0))
            res = residuals(sol, 0.0, m, PowerLawPotential.linear(0.3), sol.q)
            assert max(res) < 1e-10

    @pytest.mark.parametrize("m", [1e160, 1e300])
    def test_heavy_mass_stays_finite(self, m):
        # m*m overflows above ~1.3e154; the nonrelativistic expansion is exact
        # there to O(1/m^2), and r0^2 tends to Q/b
        sol = linear_closed(m, 0.2, GlobalQ.explicit(1.5, 1.0))
        assert sol.mass == pytest.approx(linear_nr_expansion(m, 0.2, 1.5), rel=1e-15)
        assert sol.r0**2 == pytest.approx(1.5 / 0.2, rel=1e-15)

    def test_ur_expansion_beyond_double_range_raises(self):
        with pytest.raises(DomainError):
            linear_ur_expansion(1e300, 0.2, 1.5)

    def test_agrees_with_generic_solver(self):
        q = GlobalQ.explicit(2.5, 2.0)
        closed = linear_closed(0.8, 0.15, q)
        generic = solve_afm(0.0, 0.8, PowerLawPotential.linear(0.15), q)
        assert closed.mass == pytest.approx(generic.mass, rel=1e-10)
        assert closed.r0 == pytest.approx(generic.r0, rel=1e-10)


class TestLinearSymmetricMassless:
    def test_values(self):
        assert linear_symmetric_massless(2.0, 0.2, GlobalQ.explicit(1.5)) == pytest.approx(
            1.5491933384829668, rel=1e-14
        )
        assert linear_symmetric_massless(1.0, 0.2, GlobalQ.explicit(1.5)) == pytest.approx(
            1.0954451150103322, rel=1e-14
        )

    def test_two_body_is_root_two_times_one_body(self):
        q = GlobalQ.explicit(2.7)
        assert linear_symmetric_massless(2.0, 0.4, q) == pytest.approx(
            math.sqrt(2.0) * linear_symmetric_massless(1.0, 0.4, q), rel=1e-14
        )


class TestExpansions:
    def test_ur_reduces_to_massless_scale(self):
        assert linear_ur_expansion(0.0, 0.2, GlobalQ.explicit(1.5)) == pytest.approx(
            1.5491933384829668, rel=1e-14
        )

    def test_ur_direct_value(self):
        assert linear_ur_expansion(0.1, 0.2, GlobalQ.explicit(1.5)) == pytest.approx(
            1.5621032829703248, rel=1e-13
        )

    def test_nr_direct_value(self):
        assert linear_nr_expansion(10.0, 0.2, GlobalQ.explicit(1.5)) == pytest.approx(
            11.110445115010332, rel=1e-13
        )

    def test_nr_needs_positive_mass(self):
        with pytest.raises(DomainError):
            linear_nr_expansion(0.0, 0.2, GlobalQ.explicit(1.5))

    def test_nr_leading_behavior(self):
        # M - m approaches the one-body massless scale from above as m grows
        q = GlobalQ.explicit(1.5)
        m1 = 2.0 * math.sqrt(0.2 * 1.5)
        gaps = [linear_nr_expansion(m, 0.2, q) - m - m1 for m in (10.0, 100.0, 1000.0)]
        assert gaps[0] > gaps[1] > gaps[2] > 0
        assert gaps[2] < 1e-3

    def test_ur_error_at_small_mass_is_quartic(self):
        # |closed - ur| = 10 (m/M0)^4 M0 + O(m^6): check the measured constant
        b, qv = 0.2, 1.5
        q = GlobalQ.explicit(qv, 1.0)
        m0 = 2.0 * math.sqrt(2.0 * b * qv)
        for x in (0.003, 0.01, 0.03):
            m = x * m0
            gap = abs(linear_closed(m, b, q).mass - linear_ur_expansion(m, b, q))
            assert gap == pytest.approx(10.0 * x**4 * m0, rel=0.02)

    def test_ur_error_benchmark_mass(self):
        # frozen figure: at m = 0.05 sqrt(b) the expansion is good to ~4.3e-7
        b, qv = 0.2, 1.5
        m = 0.05 * math.sqrt(b)
        q = GlobalQ.explicit(qv, 1.0)
        err = abs(linear_ur_expansion(m, b, q) - linear_closed(m, b, q).mass) / linear_closed(
            m, b, q
        ).mass
        assert err < 1e-6
        assert err == pytest.approx(4.328e-7, rel=0.05)

    def test_nr_error_vanishes_faster_than_one_over_m(self):
        b, qv = 0.2, 1.5
        q = GlobalQ.explicit(qv, 1.0)
        scaled = []
        for m in (2.0, 4.0, 8.0, 16.0):
            gap = abs(linear_closed(m, b, q).mass - linear_nr_expansion(m, b, q))
            scaled.append(gap * m)
        assert all(b2 < 0.8 * b1 for b1, b2 in zip(scaled, scaled[1:]))


class TestEqualMassReduction:
    def test_coulomb_equal_masses_reduce_to_sigma_two(self):
        for m, a, qv in [(1.0, 1.2, 1.0), (0.5, 0.8, 1.7), (3.0, 1.9, 1.2)]:
            q = GlobalQ.explicit(qv, -1.0)
            sol = solve_afm(m, m, PowerLawPotential.coulomb(a), q)
            assert sol.mass == pytest.approx(coulomb_symmetric(2.0, m, a, q), rel=1e-9)

    def test_massless_linear_reduces_to_sigma_two(self):
        for b, qv in [(0.2, 1.5), (0.9, 3.2)]:
            q = GlobalQ.explicit(qv, 1.0)
            sol = solve_afm(0.0, 0.0, PowerLawPotential.linear(b), q)
            assert sol.mass == pytest.approx(linear_symmetric_massless(2.0, b, q), rel=1e-9)
