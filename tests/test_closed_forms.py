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
from salpeter_afm.core import linear_closed_mass


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

    @pytest.mark.parametrize(
        "m, a, qv",
        [
            pytest.param(math.inf, 1.2, 1.0, id="infinite-mass"),
            pytest.param(math.nan, 1.2, 1.0, id="nan-mass"),
            pytest.param(1.0, math.inf, 1.0, id="infinite-coupling"),
            pytest.param(1.0, math.nan, 1.0, id="nan-coupling"),
            pytest.param(1e-308, 1.2, 1.0, id="r0-overflows"),
            pytest.param(1e308, 1e-300, 7.5e-301, id="r0-underflows-to-zero"),
            pytest.param(1e308, 1.0, 0.55, id="r0-subnormal"),
            pytest.param(1.5e308, 1e10, 5.8e9, id="nu2-overflows"),
        ],
    )
    def test_edge_of_double_range_raises_domain_error(self, m, a, qv):
        with pytest.raises(DomainError):
            coulomb_closed(m, a, GlobalQ.explicit(qv, -1.0))

    def test_mass_near_largest_double_stays_finite(self):
        # M = 2m sqrt(x(1 - x)) <= m, but 2m alone overflows
        sol = coulomb_closed(1e308, 1.2, GlobalQ.explicit(1.0, -1.0))
        assert sol.mass == pytest.approx(2.0 * math.sqrt(0.24) * 1e308, rel=1e-14)

    @pytest.mark.parametrize("m, a, qv", [(1e200, 1e200, 7.5e199), (1.0, 1e-300, 7.5e-301), (1.0, 1.7e308, 1e308)])
    def test_coupling_at_the_edge_of_the_double_range(self, m, a, qv):
        # r0 = (Q/m) sqrt(2u - 1)/(1 - u), u = Q/a: a (2Q - a) and 2Q would leave the double range
        u, x = qv / a, 0.5 * a / qv
        sol = coulomb_closed(m, a, GlobalQ.explicit(qv, -1.0))
        assert sol.r0 == pytest.approx((qv / m) * math.sqrt(2.0 * u - 1.0) / (1.0 - u), rel=1e-13)
        assert sol.mass == pytest.approx(2.0 * m * math.sqrt(x * (1.0 - x)), rel=1e-14)

    def test_large_coupling_matches_the_generic_solver(self):
        q = GlobalQ.explicit(7.5e199, -1.0)
        closed = coulomb_closed(1e200, 1e200, q)
        generic = solve_afm(0.0, 1e200, PowerLawPotential.coulomb(1e200), q)
        assert closed.r0 == pytest.approx(generic.r0, rel=1e-14)
        assert closed.mass == pytest.approx(generic.mass, rel=1e-14)


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

    @pytest.mark.parametrize("m", [0.0, 1e-300, 0.4, 1.0, 3.0, 1e100, 1e154, 1e200])
    @pytest.mark.parametrize("q", [GlobalQ.explicit(1.5, 1.0), GlobalQ.explicit(2.5, 2.0), 0.9])
    def test_mass_alone_is_the_same_double(self, m, q):
        # the mass scan's path: no radius, no potential and no certificate, the same mass
        assert linear_closed_mass(m, 0.2, q) == linear_closed(m, 0.2, q).mass

    @pytest.mark.parametrize("m, b, error", [(1.0, 0.0, DomainError), (-1.0, 0.2, ValueError),
                                             (1e308, 1e-300, DomainError)])
    def test_mass_alone_raises_as_the_closed_form_does(self, m, b, error):
        for fn in (linear_closed, linear_closed_mass):
            with pytest.raises(error):
                fn(m, b, GlobalQ.explicit(1.5, 1.0))

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
        # the closed form has no subtraction, so at small m/M0 it agrees with its
        # small-mass expansion m0 (1 + 2x^2 - 10x^4) to near machine precision
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

    @pytest.mark.parametrize("closed_form", [linear_closed, linear_ur_expansion])
    def test_negative_mass_is_a_value_error(self, closed_form):
        with pytest.raises(ValueError, match="mass must be non-negative"):
            closed_form(-1.0, 0.2, GlobalQ.explicit(1.5))

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


@pytest.mark.parametrize(
    "closed_form, args",
    [
        pytest.param(linear_nr_expansion, (1e-320, 1.0, 1.0), id="nr-subnormal-mass"),
        pytest.param(linear_nr_expansion, (1.0, math.nan, 1.0), id="nr-nan-slope"),
        pytest.param(coulomb_symmetric, (2.0, 1.0, math.nan, 1.0), id="coulomb-symmetric-nan-coupling"),
        pytest.param(coulomb_symmetric, (2.0, math.inf, 1.0, 1.0), id="coulomb-symmetric-infinite-mass"),
        pytest.param(coulomb_symmetric, (math.inf, 0.0, 1.0, 1.0), id="coulomb-symmetric-infinite-sigma"),
        pytest.param(linear_symmetric_massless, (math.inf, 1.0, 1.0), id="linear-symmetric-infinite-sigma"),
        pytest.param(linear_symmetric_massless, (2.0, math.nan, 1.0), id="linear-symmetric-nan-slope"),
    ],
)
def test_non_finite_result_raises_domain_error(closed_form, args):
    with pytest.raises(DomainError):
        closed_form(*args)


@pytest.mark.parametrize(
    "closed_form, args, message",
    [
        pytest.param(coulomb_closed, (1.0, 0.0, 1.0), "coupling must be positive", id="coulomb-zero-coupling"),
        pytest.param(coulomb_closed, (1.0, -1.2, 1.0), "coupling must be positive", id="coulomb-negative-coupling"),
        pytest.param(coulomb_symmetric, (0.0, 1.0, 1.2, 1.0), "need sigma > 0, m >= 0, a > 0", id="sym-sigma"),
        pytest.param(coulomb_symmetric, (2.0, -1.0, 1.2, 1.0), "need sigma > 0, m >= 0, a > 0", id="sym-mass"),
        pytest.param(coulomb_symmetric, (2.0, 1.0, 0.0, 1.0), "need sigma > 0, m >= 0, a > 0", id="sym-coupling"),
        pytest.param(linear_symmetric_massless, (0.0, 0.2, 1.0), "need sigma > 0 and b > 0", id="linear-sym-sigma"),
        pytest.param(linear_symmetric_massless, (2.0, 0.0, 1.0), "need sigma > 0 and b > 0", id="linear-sym-slope"),
        pytest.param(linear_ur_expansion, (1.0, 0.0, 1.0), "slope must be positive", id="ur-zero-slope"),
        pytest.param(linear_nr_expansion, (1.0, -0.2, 1.0), "slope must be positive", id="nr-negative-slope"),
    ],
)
def test_parameters_outside_the_domain_raise_domain_error(closed_form, args, message):
    with pytest.raises(DomainError, match=message):
        closed_form(*args)


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
