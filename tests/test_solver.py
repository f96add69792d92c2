import hashlib
import math
import sys

import numpy as np
import pytest
from conftest import bisect_root
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from salpeter_afm import (
    AfmError,
    CollapseDetected,
    DomainError,
    GlobalQ,
    NoBoundState,
    PowerLawPotential,
    QuantumState,
    core,
    q_exact,
    residuals,
    rotation_radii,
    solve_afm,
)
from salpeter_afm.verification import random_bound_configuration, random_coulomb_config, random_linear_config

COULOMB_12 = PowerLawPotential.coulomb(1.2)
LINEAR_02 = PowerLawPotential.linear(0.2)
TWO_ROOTS = PowerLawPotential(((1.2248, 2.570), (0.3937, -1.658)))


def _balance(m1, m2, potential, qv, r):
    """r^3 dM/dr0: negative below a local minimum of M(r0), positive above; V'(r) = sum |lam| alpha r^(lam-1)."""
    p0 = qv / r
    slope = sum(abs(lam) * alpha * r ** (lam - 1.0) for alpha, lam in potential.terms)
    return r**3 * slope - qv * qv * (1.0 / math.hypot(p0, m1) + 1.0 / math.hypot(p0, m2))


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


def _scan_oracle(m1, m2, potential, qv):
    """(outcome, r0) of solve_afm by the full 40-per-decade numpy scan.

    Every grid value of the balance at once, the first - to + crossing,
    scipy's brentq on it and the mass assembled by hand; without a crossing
    the first finite value decides, and nowhere finite is a DomainError, as
    is a "root" where the balance jumps to infinity (a term overflows).  A
    power beyond the double range is +inf, at a grid point and at one of
    brentq's float radii alike.  Only the scan window is shared with the
    solver.
    """
    terms = potential.terms

    def balance(r):
        pull = sum(abs(lam) * a * np.power(r, lam + 1.0) for a, lam in terms)
        return pull - qv / np.hypot(1.0, m1 / qv * r) - qv / np.hypot(1.0, m2 / qv * r)

    lo, hi = core._scan_window(potential.terms, qv, m1, m2)
    grid = np.logspace(lo, hi, round(40 * (hi - lo)) + 1)
    with np.errstate(all="ignore"):
        values = balance(grid)
        ups = np.nonzero((values[:-1] < 0.0) & (values[1:] >= 0.0))[0]
        if not len(ups):
            finite = values[np.isfinite(values)]
            if not len(finite):
                return DomainError, None
            return (CollapseDetected if finite[0] > 0.0 else NoBoundState), None
        left, right = float(grid[ups[0]]), float(grid[ups[0] + 1])
        try:
            r0 = brentq(lambda r: float(balance(r)), left, right, xtol=1e-20 * left, rtol=1e-15)
            if not all(np.isfinite(balance(r0 * (1.0 + step))) for step in (-1e-14, 1e-14)):
                return DomainError, None
            p0 = qv / r0
            potential_at_r0 = sum(math.copysign(1.0, lam) * a * r0**lam for a, lam in terms)
        except OverflowError:
            return DomainError, None
        mass = math.hypot(p0, m1) + math.hypot(p0, m2) + potential_at_r0
    if not math.isfinite(mass) or p0 < sys.float_info.min:
        return DomainError, None
    return (CollapseDetected if mass <= 0.0 else "solved"), r0


def _outcome(m1, m2, potential, qv):
    try:
        return "solved", solve_afm(m1, m2, potential, GlobalQ.explicit(qv)).r0
    except AfmError as err:
        return type(err), None


# the rows TestPinnedOutcomes' digest was recorded over
PINNED_EDGE_ROWS = [
    # the balance is exactly 0 at every radius
    pytest.param(0.0, 0.0, PowerLawPotential.coulomb(2.0), 1.0, NoBoundState, id="balance-zero"),
    # nowhere finite: the pull overflows at every grid radius
    pytest.param(0.0, 1.0, PowerLawPotential(((1e-300, 3.0),)), 1e300, DomainError, id="pull-overflows"),
    pytest.param(0.0, 0.0, PowerLawPotential(((1e308, 3.0),)), 1e308, DomainError, id="huge-cubic"),
    # a - 2Q = 1e307 - 2e308 overflows to -inf at every radius, so no grid value is finite
    pytest.param(0.0, 0.0, PowerLawPotential.coulomb(1e307), 1e308, DomainError, id="kinetic-overflows"),
    # the balance jumps from -2e307 to inf where 1e308 r^2 overflows, at r = 1.34;
    # the root sqrt(2Q/alpha) = 1.41, where 1e308 r^2 = 2e308, is beyond the double range
    pytest.param(0.0, 0.0, PowerLawPotential(((1e308, 1.0),)), 1e308, DomainError, id="overflow-jump"),
    # a root at r0 = 1.10 whose mass 8 p0/3 = 1.9e308 overflows
    pytest.param(0.0, 0.0, PowerLawPotential(((3.64e307, 3.0),)), 8e307, DomainError, id="mass-overflows"),
    # a root at r0 = 8.6e160 whose p0 = Q/r0 underflows to 0
    pytest.param(
        0.0, 3.5e-274, PowerLawPotential(((5.2e-309, -0.437),)), 9.2e-219, DomainError, id="momentum-underflows"
    ),
    pytest.param(0.0, 1.0, PowerLawPotential.coulomb(2.0), 0.9, CollapseDetected, id="coulomb-collapse"),
    # the root's cell ends at r = 4.98e56, where r^5.44 overflows: +inf there, and the root is r0 = 4.708e56
    pytest.param(
        6.20515946784944e160,
        4.4750034593502297e-212,
        PowerLawPotential(((1.2991747738616603e-108, 4.437407153857256),)),
        8.208701777449884e200,
        "solved",
        id="overflow-at-the-cell-end",
    ),
]
EDGE_ROWS = PINNED_EDGE_ROWS + [
    # lam < -1: the balance crosses upward at r = 0.00228 and again at r = 57.3, and the first root is kept
    pytest.param(
        0.03417883015199504,
        2862.6121773991945,
        PowerLawPotential(((1.7887875095822916, -1.1180939309019897), (0.00012386119364067648, 1.1943313196351413))),
        2.9244015143575197,
        "solved",
        id="steep-two-upward-crossings",
    ),
    # lam < -1 strong enough that the balance stays positive: no minimum of M(r0)
    pytest.param(1.0, 1.0, PowerLawPotential(((5.0, -1.5), (0.01, 1.0))), 1.0, CollapseDetected, id="steep-collapse"),
    # the lam < -1 term's scale lies beyond the window, and the Coulomb pull 0.5 < Q never binds
    pytest.param(0.0, 1.0, PowerLawPotential(((1e-300, -1.5), (0.5, -1.0))), 1.0, NoBoundState, id="steep-no-bound"),
]


class TestBisectedBracket:
    """The bracket comes from float values on the scan's grid: the same
    outcome as the scan, and the same root to round-off."""

    @pytest.mark.parametrize("m1, m2, potential, qv, kind", EDGE_ROWS)
    def test_edge_rows(self, m1, m2, potential, qv, kind):
        want_kind, want_r0 = _scan_oracle(m1, m2, potential, qv)
        assert want_kind == kind
        if kind == "solved":
            assert solve_afm(m1, m2, potential, qv).r0 == pytest.approx(want_r0, rel=1e-14)
        else:
            with pytest.raises(kind):
                solve_afm(m1, m2, potential, qv)

    def test_seeded_configurations_match_the_scan(self, monkeypatch):
        arguments = set()

        def spy(factory):
            def make(*args):
                evaluate = factory(*args)

                def value(r):
                    arguments.add(type(r))
                    return evaluate(r)

                return value

            return make

        monkeypatch.setattr(core, "_virial_balance", spy(core._virial_balance))
        monkeypatch.setattr(core, "_balance_parts", spy(core._balance_parts))
        rng = np.random.default_rng(20261018)
        monotone = steep = 0
        while monotone < 3000:
            m1, m2, potential, qv = random_bound_configuration(rng)
            if all(lam >= -1.0 for _, lam in potential.terms):
                monotone += 1
            else:
                steep += 1  # a lam < -1 term: the bounded search, checked here too
            kind, r0 = _outcome(m1, m2, potential, qv)
            want_kind, want_r0 = _scan_oracle(m1, m2, potential, qv)
            assert kind == want_kind, (m1, m2, potential, qv)
            if r0 is not None:
                assert abs(r0 - want_r0) <= 1e-14 * want_r0, (m1, m2, potential, qv)
        # no balance, with or without a lam < -1 term, is ever evaluated on an array
        assert steep > 100 and arguments == {float}

    def test_minus_infinity_below_the_root_still_brackets(self):
        # Q + Q overflows to -inf at the first grid points, the heavy masses
        # bring the kinetic terms back into range at the root r0 = 2.7e105
        potential = PowerLawPotential.linear(1.0)
        kind, r0 = _scan_oracle(1e300, 1e300, potential, 1e308)
        assert kind == "solved"
        sol = solve_afm(1e300, 1e300, potential, 1e308)
        assert sol.r0 == pytest.approx(r0, rel=1e-14)
        assert max(residuals(sol, 1e300, 1e300, potential, 1e308)) < 1e-10

    def test_mass_overflow_is_a_domain_error(self):
        with pytest.raises(DomainError, match="the mass at r0=1.1"):
            solve_afm(0.0, 0.0, PowerLawPotential(((3.64e307, 3.0),)), 8e307)

    def test_overflow_jump_is_no_root(self):
        # Brent converges on the jump where 1e308 r^2 reaches 1.8e308, not on a root
        with pytest.raises(DomainError, match="not representable near the root"):
            solve_afm(0.0, 0.0, PowerLawPotential(((1e308, 1.0),)), 1e308)


def _whole_grid_bisection(balance, lo, step, count, start):
    """The grid search before the root estimate, kept as the oracle of the seeded one.

    Both grid ends first, then bisection of the whole grid; ``start`` is
    unused and no end value is handed to Brent.
    """

    def point(i):
        return 10.0 ** (lo + i * step)

    def value(i):
        return balance(point(i))

    first = value(0)
    if not first < math.inf:
        return None, None
    if first >= 0.0:
        return None, first
    last = value(count - 1)
    if last < 0.0:
        return None, last if last > -math.inf else None
    below, above = 0, count - 1
    while above - below > 1:
        mid = (below + above) // 2
        if value(mid) < 0.0:
            below = mid
        else:
            above = mid
    return (point(below), point(above), None, None), None


@pytest.fixture
def both_searches(monkeypatch):
    """solve_afm's (Brent cells, outcome) with the seeded search, then with the whole-grid bisection.

    An outcome is the five doubles of the solution as hex, or the error's
    type and message.  A solve that never reaches this grid search (a lam <
    -1 term takes core._steep_grid) is run once and reported twice; the
    rising range that core._steep_grid hands to core._bisect_grid, with its
    two ends known, goes to the real search.
    """
    seeded, real_brent = core._bisect_grid, core._brent
    oracle, cells, searches = [False], [], []

    def search(*args):
        if len(args) > 5:  # a range core._steep_grid has shown rising, with its known ends
            return seeded(*args)
        searches.append(args)
        return (_whole_grid_bisection if oracle[0] else seeded)(*args)

    def brent(f, xa, xb, **kwargs):
        cells.append((xa, xb))
        return real_brent(f, xa, xb, **kwargs)

    monkeypatch.setattr(core, "_bisect_grid", search)
    monkeypatch.setattr(core, "_brent", brent)

    def run(m1, m2, potential, qv):
        results = []
        searches.clear()
        for oracle[0] in (False, True):
            if oracle[0] and not searches:
                return results * 2
            cells.clear()
            try:
                sol = solve_afm(m1, m2, potential, qv)
                outcome = tuple(x.hex() for x in (sol.r0, sol.p0, sol.nu1, sol.nu2, sol.mass))
            except AfmError as err:
                outcome = (type(err), str(err))
            results.append((tuple(cells), outcome))
        return results

    return run


def _solved(result):
    """Whether a (cells, outcome) of ``both_searches`` is a solution: its outcome holds hex strings."""
    return isinstance(result[1][0], str)


class TestSeededSearch:
    """With every lam >= -1 the grid search starts at the root estimate's
    cell: the same cell, the same doubles and the same errors as bisecting
    the whole grid, in far fewer balance evaluations."""

    def test_seeded_draws(self, both_searches):
        rng = np.random.default_rng(20261018)
        solved = 0
        for _ in range(3000):
            m1, m2, potential, qv = random_bound_configuration(rng)
            seeded, oracle = both_searches(m1, m2, potential, qv)
            assert seeded == oracle, (m1, m2, potential, qv)
            solved += _solved(seeded)
        assert solved > 2500

    def test_log_uniform_draws(self, both_searches):
        # shaped like TestResidualContract's draws: powers of r0 subnormal, 0 or beyond the double range
        rng = np.random.default_rng(20261019)
        solved = 0
        for _ in range(30000):
            terms = [(10.0 ** rng.uniform(-300, 300), rng.uniform(0.2, 5.0))]
            if rng.random() < 0.5:
                terms.append((10.0 ** rng.uniform(-300, 300), rng.choice([-1.9, -1.0, -0.5, 0.5, 2.0, 4.5])))
            m1 = 0.0 if rng.random() < 0.25 else 10.0 ** rng.uniform(-300, 300)
            m2 = 10.0 ** rng.uniform(-300, 300)
            potential, qv = PowerLawPotential(tuple(terms)), 10.0 ** rng.uniform(-300, 300)
            seeded, oracle = both_searches(m1, m2, potential, qv)
            assert seeded == oracle, (m1, m2, terms, qv)
            solved += _solved(seeded)
        assert solved > 15000

    def test_coulomb_draws(self, both_searches):
        # no term with lam + 1 > 0: the search starts at the closed-form root of masses (0, m)
        rng = np.random.default_rng(20261018)
        kinds = set()
        for i in range(3000):
            if i % 2:
                m, a, qv = 10.0 ** rng.uniform(-300, 300, size=3)
            else:
                m, a, qv = rng.uniform(0.1, 5.0), rng.uniform(0.1, 3.0), rng.uniform(0.3, 3.0)
            seeded, oracle = both_searches(0.0, float(m), PowerLawPotential.coulomb(float(a)), float(qv))
            assert seeded == oracle, (m, a, qv)
            kinds.add("solved" if _solved(seeded) else seeded[1][0])
        assert kinds == {"solved", NoBoundState, CollapseDetected}

    @pytest.mark.parametrize("m1, m2, potential, qv, kind", EDGE_ROWS)
    def test_edge_rows(self, both_searches, m1, m2, potential, qv, kind):
        seeded, oracle = both_searches(m1, m2, potential, qv)
        assert seeded == oracle and (_solved(seeded) if kind == "solved" else seeded[1][0] is kind)

    @pytest.fixture
    def evaluations(self, monkeypatch):
        """[n], n the balance evaluations made by the solves of the test."""
        real_balance, evaluations = core._virial_balance, [0]

        def counted(*args):
            balance = real_balance(*args)

            def value(r, *rest):
                evaluations[0] += 1
                return balance(r, *rest)

            return value

        monkeypatch.setattr(core, "_virial_balance", counted)
        return evaluations

    def test_balance_evaluations_per_call(self, evaluations):
        # the whole-grid bisection takes 18: both ends, ~9 halvings and Brent's 7
        rng = np.random.default_rng(20261018)
        calls = 0
        while calls < 2000:
            m1, m2, potential, qv = random_bound_configuration(rng)
            if all(lam >= -1.0 for _, lam in potential.terms):
                calls += 1
                solve_afm(m1, m2, potential, qv)
        assert evaluations[0] / calls <= 9.0

    def test_coulomb_balance_evaluations_per_call(self, evaluations):
        # from the closed-form root ~6.6: 2 for the cell and Brent's ~4.6; ~8.6 from the window's middle
        rng = np.random.default_rng(20261018)
        for _ in range(400):
            m, a, qv = random_coulomb_config(rng)
            solve_afm(0.0, m, PowerLawPotential.coulomb(a), GlobalQ.explicit(qv, -1.0))
        assert evaluations[0] / 400 <= 7.0


def _array_balance(pulls, q_value, k1, k2):
    """The balance of core._virial_balance over an array of radii, in numpy, from its
    (|lam| alpha, lam + 1) pull table."""

    def balance(r, hypot=np.hypot):
        pull = 0.0
        for c, e in pulls:
            pull = pull + c * r**e
        return pull - q_value / hypot(1.0, k1 * r) - q_value / hypot(1.0, k2 * r)

    return balance


def _scan_grid(balance, lo, step, count):
    """The lam < -1 search before the bounded one, kept as its oracle: the whole grid as one array.

    (the first - to + cell as (xa, xb, None, None), first finite value);
    either is None when there is none.
    """
    grid = 10.0 ** (lo + np.arange(count) * step)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        values = balance(grid, np.hypot)
    ups = np.nonzero((values[:-1] < 0.0) & (values[1:] >= 0.0))[0]
    if len(ups):
        i = ups[0]
        return (float(grid[i]), float(grid[i + 1]), None, None), None
    finite = values[np.isfinite(values)]
    return None, float(finite[0]) if len(finite) else None


def _upward_crossings(m1, m2, potential, qv):
    """How many - to + cells the scan's grid has."""
    terms = potential.terms
    lo, hi = core._scan_window(terms, qv, m1, m2)
    grid = np.logspace(lo, hi, round(40 * (hi - lo)) + 1)
    with np.errstate(all="ignore"):
        pulls = [(abs(lam) * a, lam + 1.0) for a, lam in terms]
        values = _array_balance(pulls, qv, m1 / qv, m2 / qv)(grid)
    return int(np.count_nonzero((values[:-1] < 0.0) & (values[1:] >= 0.0)))


@pytest.fixture
def steep_and_scan(monkeypatch):
    """solve_afm's (grid cell index, outcome) with the bounded search, then with the array scan.

    The index is that of the Brent cell's left end on the grid, None
    without a crossing.  An outcome is ("solved", r0) or the error's type
    and message.
    """
    bounded, searches = core._steep_grid, []

    def scan(balance, pulls, q_value, k1, k2, lo, step, count):
        return _scan_grid(_array_balance(pulls, q_value, k1, k2), lo, step, count)

    def recorded(search):
        def run(balance, pulls, q_value, k1, k2, lo, step, count):
            cell, lead = search(balance, pulls, q_value, k1, k2, lo, step, count)
            index = None
            if cell is not None:
                index = round((math.log10(cell[0]) - lo) / step)
                assert cell[1] / cell[0] == pytest.approx(10.0**step, rel=1e-12)
                if search is bounded:  # end values for Brent: floats, f(x) to the bit; the scan hands it none
                    for x, fx in ((cell[0], cell[2]), (cell[1], cell[3])):
                        assert type(fx) is float and repr(fx) == repr(balance(x)), (x, fx)
            searches.append(index)
            return cell, lead

        return run

    def run(m1, m2, potential, qv):
        results = []
        for search in (bounded, scan):
            monkeypatch.setattr(core, "_steep_grid", recorded(search))
            searches.clear()
            try:
                outcome = ("solved", solve_afm(m1, m2, potential, qv).r0)
            except AfmError as err:
                outcome = (type(err), str(err))
            assert len(searches) == 1
            results.append((searches[0], outcome))
        return results

    return run


def _same_outcome(bounded, scanned):
    """The same cell and the same error, or the same root to round-off (the scan's grid is numpy's pow)."""
    (cell, outcome), (want_cell, want) = bounded, scanned
    if cell != want_cell or outcome[0] != want[0]:
        return False
    if outcome[0] == "solved":
        return abs(outcome[1] - want[1]) <= 1e-14 * want[1]
    return outcome == want


class TestSteepSearch:
    """With a lam < -1 term the grid search bisects ranges of the grid from
    the left, skipping those whose monotone bounds show no crossing: the
    same first - to + cell, the same error and the same root to round-off
    as evaluating the whole grid as one array."""

    def test_seeded_draws(self, steep_and_scan):
        rng = np.random.default_rng(20261018)
        steep = solved = 0
        while steep < 3000:
            m1, m2, potential, qv = random_bound_configuration(rng)
            if all(lam >= -1.0 for _, lam in potential.terms):
                continue
            steep += 1
            bounded, scanned = steep_and_scan(m1, m2, potential, qv)
            assert _same_outcome(bounded, scanned), (m1, m2, potential, qv, bounded, scanned)
            solved += bounded[1][0] == "solved"
        assert solved > 2500

    def test_mass_hierarchy_draws(self, steep_and_scan):
        # masses four to six decades apart and a weak confining term: some balances cross upward twice
        rng = np.random.default_rng(20261020)
        kinds, twice = set(), 0
        for _ in range(3000):
            m1, m2 = (float(m) for m in 10.0 ** rng.uniform(-2.0, 4.0, size=2))
            steep = (10.0 ** rng.uniform(-1.0, 0.5), rng.uniform(-1.3, -1.02))
            potential = PowerLawPotential((steep, (10.0 ** rng.uniform(-5.0, -2.0), rng.uniform(0.5, 2.0))))
            qv = rng.uniform(0.3, 8.0)
            bounded, scanned = steep_and_scan(m1, m2, potential, qv)
            assert _same_outcome(bounded, scanned), (m1, m2, potential, qv, bounded, scanned)
            kinds.add(bounded[1][0])
            twice += bounded[1][0] == "solved" and _upward_crossings(m1, m2, potential, qv) > 1
        assert kinds == {"solved", CollapseDetected} and twice >= 10

    def test_log_uniform_draws(self, steep_and_scan):
        # powers of the radii subnormal, 0 or beyond the double range, with a lam = -1.9 term in each
        rng = np.random.default_rng(20261021)
        kinds = set()
        for _ in range(3000):
            terms = ((10.0 ** rng.uniform(-300, 300), rng.uniform(0.2, 5.0)), (10.0 ** rng.uniform(-300, 300), -1.9))
            m1 = 0.0 if rng.random() < 0.25 else 10.0 ** rng.uniform(-300, 300)
            m2 = 10.0 ** rng.uniform(-300, 300)
            potential, qv = PowerLawPotential(terms), 10.0 ** rng.uniform(-300, 300)
            bounded, scanned = steep_and_scan(m1, m2, potential, qv)
            assert _same_outcome(bounded, scanned), (m1, m2, terms, qv, bounded, scanned)
            kinds.add(bounded[1][0])
        assert kinds == {"solved", CollapseDetected, NoBoundState, DomainError}

    def test_kinetic_overflow_draws(self, steep_and_scan, monkeypatch):
        # Q up to the largest double: Q/hypot(1, k1 r) + Q/hypot(1, k2 r) overflows, and the bounds stay finite
        real_parts, points = core._balance_parts, [0]

        def counted(*args):
            parts = real_parts(*args)

            def value(r):
                points[0] += 1
                return parts(r)

            return value

        monkeypatch.setattr(core, "_balance_parts", counted)
        rng = np.random.default_rng(20261022)
        kinds = set()
        for _ in range(1000):
            terms = (
                (10.0 ** rng.uniform(-300, 308), rng.uniform(0.2, 5.0)),
                (10.0 ** rng.uniform(-300, 308), float(rng.choice([-1.9, -1.5, -1.1]))),
            )
            m1 = 0.0 if rng.random() < 0.5 else 10.0 ** rng.uniform(-300, 300)
            m2 = 0.0 if rng.random() < 0.3 else 10.0 ** rng.uniform(-300, 300)
            potential, qv = PowerLawPotential(terms), 10.0 ** rng.uniform(306, 308.25)
            bounded, scanned = steep_and_scan(m1, m2, potential, qv)
            assert _same_outcome(bounded, scanned), (m1, m2, terms, qv, bounded, scanned)
            kinds.add(bounded[1][0])
        assert kinds == {"solved", CollapseDetected, NoBoundState, DomainError}
        # ~28 points per search; split down to single points, a grid of up to ~6000 would be evaluated whole
        assert points[0] / 1000 <= 40.0

    def test_two_upward_crossings_keep_the_first_root(self):
        m1, m2, potential, qv = EDGE_ROWS[-3].values[:4]
        assert _upward_crossings(m1, m2, potential, qv) == 2
        sol = solve_afm(m1, m2, potential, qv)
        assert sol.r0 == 0.002361431092936742
        assert max(residuals(sol, m1, m2, potential, qv)) < 1e-10

    def test_grid_evaluations_per_search(self, monkeypatch):
        # the array scan evaluated every grid point, ~800 for these draws
        real_search, real_parts, evaluations, searches = core._steep_grid, core._balance_parts, [0], [0]

        def counted(evaluate):
            def value(r):
                evaluations[0] += 1
                return evaluate(r)

            return value

        def search(balance, *args):
            searches[0] += 1
            return real_search(counted(balance), *args)

        monkeypatch.setattr(core, "_balance_parts", lambda *args: counted(real_parts(*args)))
        monkeypatch.setattr(core, "_steep_grid", search)
        rng = np.random.default_rng(20261018)
        while searches[0] < 2000:
            m1, m2, potential, qv = random_bound_configuration(rng)
            if any(lam < -1.0 for _, lam in potential.terms):
                _outcome(m1, m2, potential, qv)
        assert evaluations[0] / searches[0] <= 14.0  # ~18 % above the measured 11.9


def _pinned(solve, *args):
    """One line per outcome: the solution's five doubles as hex and its certificate, or the error."""
    try:
        sol = solve(*args)
    except AfmError as err:
        return f"{type(err).__name__}: {err}"
    return " ".join([*(x.hex() for x in (sol.r0, sol.p0, sol.nu1, sol.nu2, sol.mass)), str(sol.certified_upper_bound)])


class TestPinnedOutcomes:
    """solve_afm and the closed forms return the same doubles, certificates
    and errors as the code this digest was recorded from."""

    DIGEST = "fd89562d1b11e32e580b27e5ea5d9852aaa461cba8c7d285ca052ceee80ce1e6"

    def test_outcome_digest(self):
        """SHA-256 over 2000 seeded bound draws, 200 Coulomb and 200 linear
        closed-form configurations (generic solve and closed form each) and
        the edge rows it was recorded with.  Like the other pinned doubles it pins this
        platform's libm: a pow or hypot that rounds differently moves it.
        """
        rng = np.random.default_rng(20261018)
        lines = []
        for _ in range(2000):
            m1, m2, potential, qv = random_bound_configuration(rng)
            lines.append(_pinned(solve_afm, m1, m2, potential, GlobalQ.explicit(qv)))
        for _ in range(200):
            m, a, qv = random_coulomb_config(rng)
            q = GlobalQ.explicit(qv, -1.0)
            lines.append(_pinned(solve_afm, 0.0, m, PowerLawPotential.coulomb(a), q))
            lines.append(_pinned(core.coulomb_closed, m, a, q))
            m, b, qv = random_linear_config(rng)
            q = GlobalQ.explicit(qv, 1.0)
            lines.append(_pinned(solve_afm, 0.0, m, PowerLawPotential.linear(b), q))
            lines.append(_pinned(core.linear_closed, m, b, q))
        for row in PINNED_EDGE_ROWS:
            lines.append(_pinned(solve_afm, *row.values[:4]))
        assert sum(not line.startswith("0x") for line in lines) == 23  # 15 draws collapse, and 8 of the 9 edge rows
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == self.DIGEST

    def test_no_state_outlives_a_call(self):
        """200 solves leave core's names, objects, caches and containers as
        they were, and every potential and Q passed in unchanged."""

        def module_state():
            return {
                name: (
                    id(value),
                    value.cache_info() if hasattr(value, "cache_info") else None,
                    len(value) if isinstance(value, (dict, list, set)) else None,
                )
                for name, value in vars(core).items()
            }

        def fields(obj):
            return {name: (id(value), value) for name, value in vars(obj).items()}

        rng = np.random.default_rng(20261018)
        args = [random_bound_configuration(rng) for _ in range(200)]
        args = [(m1, m2, potential, GlobalQ.explicit(qv)) for m1, m2, potential, qv in args]
        before = module_state(), [(fields(potential), fields(q)) for _, _, potential, q in args]
        for m1, m2, potential, q in args:
            try:
                solve_afm(m1, m2, potential, q)
            except AfmError:
                pass
        assert (module_state(), [(fields(potential), fields(q)) for _, _, potential, q in args]) == before


class TestResidualContract:
    """Every returned solution has residuals below 1e-10; a root that fails
    that contract is a DomainError."""

    @pytest.mark.parametrize(
        "m1, m2, potential, qv",
        [
            # r0^2 = 2.6e-320 is subnormal: Brent's root has a virial residual of 5.5e-5
            pytest.param(0.0, 4.3e-292, PowerLawPotential(((4.77e180, 1.0),)), 6.13e-140, id="subnormal-pull"),
            # r0^4.127 underflows to 0, and with it the pull r0 V'(r0)
            pytest.param(1.3e-22, 1.2e-34, PowerLawPotential(((3.64e235, 4.127),)), 8e-237, id="pull-underflows"),
        ],
    )
    def test_root_without_digits_is_a_domain_error(self, m1, m2, potential, qv):
        with pytest.raises(DomainError, match="not representable near the root"):
            solve_afm(m1, m2, potential, qv)

    def test_log_uniform_draws_keep_the_contract(self):
        # couplings, masses and Q over 1e-300..1e300, where the powers of r0
        # can be subnormal, 0 or beyond the double range
        rng = np.random.default_rng(7)
        solved = 0
        for _ in range(2000):
            terms = [(10.0 ** rng.uniform(-300, 300), rng.uniform(0.2, 5.0))]
            if rng.random() < 0.5:
                terms.append((10.0 ** rng.uniform(-300, 300), rng.choice([-1.9, -1.0, -0.5, 0.5, 2.0, 4.5])))
            m1 = 0.0 if rng.random() < 0.25 else 10.0 ** rng.uniform(-300, 300)
            m2 = 10.0 ** rng.uniform(-300, 300)
            potential, qv = PowerLawPotential(tuple(terms)), 10.0 ** rng.uniform(-300, 300)
            try:
                sol = solve_afm(m1, m2, potential, qv)
            except AfmError:
                continue
            solved += 1
            assert max(residuals(sol, m1, m2, potential, qv)) <= 1e-10, (m1, m2, terms, qv)
        assert solved > 1000


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

    def test_mass_residual_measures_the_float_assembly(self):
        # the float sum nu1 + nu2 + V(r0) the mass was assembled from rounds
        # away from the correctly rounded sum here, so the residual is not 0
        sol = solve_afm(0.0, 1.0, COULOMB_12, GlobalQ.explicit(1.0, -1.0))
        parts = [sol.nu1, sol.nu2, -1.2 * sol.r0**-1.0]
        assert sol.mass == sum(parts) != math.fsum(parts)
        assert 0.0 < residuals(sol, 0.0, 1.0, COULOMB_12, sol.q)[0] <= 1e-10

    @pytest.mark.parametrize("b, qv", [(1e10, 1e300), (1e-300, 1e-300)], ids=["p0-7e154", "p0-7e-301"])
    def test_extreme_momentum_scales(self, b, qv):
        # p0**2 would overflow (underflow) here; both particles are massless
        sol = solve_afm(0.0, 0.0, PowerLawPotential.linear(b), qv)
        assert sol.r0 == pytest.approx(math.sqrt(2.0 * qv / b), rel=1e-12)
        assert max(residuals(sol, 0.0, 0.0, PowerLawPotential.linear(b), qv)) < 1e-10

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

    def test_a_power_past_the_double_range_reads_infinite(self):
        # checked against r^2000 at r0 ~ 4.9, whose power overflows, the mass and virial relations cannot hold
        sol = solve_afm(0.0, 1.0, COULOMB_12, GlobalQ.explicit(1.0, -1.0))
        res = residuals(sol, 0.0, 1.0, PowerLawPotential(((1.0, 2000.0),)), sol.q)
        assert res[0] == res[2] == math.inf


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
    active = potential.terms
    lam = active[which % len(active)][1]
    padded = PowerLawPotential(potential.terms + ((coupling, lam),))
    assert solve_afm(m1, m2, padded, GlobalQ.explicit(qv)).r0 == pytest.approx(sol.r0, rel=1e-9)
