import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from salpeter_afm import AfmError, AfmSolution, GlobalQ, PowerLawPotential, QuantumState, solve_afm
from salpeter_afm.types import _value_and_pull
from salpeter_afm.verification import random_bound_configuration

# terms (alpha, lam) and float radii from the whole double range, so that powers and sums overflow
_TERMS = st.lists(
    st.tuples(
        st.floats(0.0, 1e300),
        st.floats(-1.99, 40.0).filter(lambda lam: lam != 0.0),
    ),
    min_size=1,
    max_size=4,
)
_RADII = st.floats(5e-324, 1.7e308)


class TestPowerLawPotential:
    def test_sign_convention(self):
        funnel = PowerLawPotential.funnel(1.2, 0.2)
        assert funnel.value(2.0) == pytest.approx(-1.2 / 2.0 + 0.2 * 2.0)
        assert funnel(2.0) == funnel.value(2.0)  # calling the potential is V(r)

    def test_value_increasing_everywhere(self):
        # every term is sign(lam) r^lam times a positive coupling, so V rises with r
        pot = PowerLawPotential(((0.5, -1.5), (0.1, 0.7), (0.3, 2.0)))
        r = np.logspace(-3, 3, 61)
        assert np.all(np.diff(pot.value(r)) > 0)

    def test_vectorized_value(self):
        pot = PowerLawPotential.coulomb(1.0)
        r = np.array([0.5, 1.0, 2.0])
        np.testing.assert_allclose(pot.value(r), [-2.0, -1.0, -0.5])
        np.testing.assert_array_equal(pot(r), pot.value(r))

    @pytest.mark.parametrize(
        "terms",
        [
            (),
            ((-0.1, 1.0),),
            ((1.0, 0.0),),
            ((1.0, -2.0),),
            ((1.0, -2.5),),
            ((float("nan"), 1.0),),
        ],
    )
    def test_rejects_bad_terms(self, terms):
        with pytest.raises(ValueError):
            PowerLawPotential(terms)

    def test_active_terms_drops_zero_couplings(self):
        pot = PowerLawPotential(((0.0, -1.0), (0.2, 1.0)))
        assert pot.active_terms() == ((0.2, 1.0),)
        assert pot.terms == ((0.2, 1.0),)  # dropped at construction
        assert pot == PowerLawPotential.linear(0.2)

    def test_all_zero_couplings_construct_without_an_active_term(self):
        pot = PowerLawPotential(((0.0, -1.0), (0.0, 1.0)))
        assert pot.terms == () and pot.value(2.0) == 0.0
        with pytest.raises(AfmError, match="potential has no active term"):
            solve_afm(0.0, 1.0, pot, 1.0)


def _numpy_value(pot, r):
    """V(r) through numpy, as value computes it for any input but a float r > 0."""
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    for a, lam in pot.terms:
        out = out + math.copysign(1.0, lam) * a * r**lam
    return out if out.ndim else float(out)


class TestValueFloatPath:
    """A float r > 0 is summed in floats, as core assembles the mass; numpy takes the rest."""

    def _draws(self):
        rng = np.random.default_rng(13)
        for _ in range(400):
            lams = rng.uniform(-1.99, 4.0, rng.integers(1, 4))
            terms = tuple((float(a), float(lam)) for a, lam in zip(10 ** rng.uniform(-3, 3, len(lams)), lams) if lam)
            yield PowerLawPotential(terms), float(10 ** rng.uniform(-30, 30))

    def test_equals_the_sum_core_assembles(self):
        for pot, r in self._draws():
            value = pot.value(r)
            assert type(value) is float
            assert value == sum(math.copysign(1.0, lam) * a * r**lam for a, lam in pot.active_terms())

    def test_agrees_with_the_array_path_to_4_ulp(self):
        for pot, r in self._draws():
            scale = sum(a * r**lam for a, lam in pot.terms)
            assert abs(pot.value(r) - pot.value(np.array([r]))[0]) <= 4 * math.ulp(scale), (pot, r)

    @given(_TERMS, _RADII)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_value_and_pull_in_one_pass(self, terms, r):
        """Item 0 is value(r) to the bit; item 1 is the ordered float sum of |lam| alpha r**lam,
        a power beyond the double range counted as inf."""
        pot = PowerLawPotential(terms)
        value, pull = _value_and_pull(r, pot.terms)
        assert repr(value) == repr(pot.value(r))
        expected = 0.0
        for a, lam in pot.terms:
            try:
                power = r**lam
            except OverflowError:
                power = math.inf
            expected += abs(lam) * a * power
        assert type(pull) is float and repr(pull) == repr(expected)

    def test_value_and_pull_past_the_double_range(self):
        funnel = PowerLawPotential(((0.5, -1.5), (2.0, 3.0)))
        assert _value_and_pull(1e200, funnel.terms) == (math.inf, math.inf)
        assert _value_and_pull(1e-250, funnel.terms) == (-math.inf, math.inf)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "terms,r,expected",
        [
            (((1.0, 1.9),), 1e300, math.inf),
            (((1.0, -1.9),), 1e-300, -math.inf),
            (((0.5, -1.5), (2.0, 3.0)), 1e200, math.inf),
            (((0.5, -1.5), (2.0, 3.0)), 1e-250, -math.inf),
        ],
    )
    def test_overflow_is_infinite_without_a_warning(self, terms, r, expected):
        assert PowerLawPotential(terms).value(r) == expected

    @pytest.mark.filterwarnings("error")
    def test_array_overflow_is_infinite_without_a_warning(self):
        # arrays go through numpy, whose power overflow is inf as the float path's is
        funnel = PowerLawPotential(((0.5, -1.5), (2.0, 3.0)))
        assert funnel.value(np.array([1e-250, 1.0, 1e200])).tolist() == [-math.inf, funnel.value(1.0), math.inf]

    @pytest.mark.parametrize("r", [np.float64(2.5), np.float64(1e-3), 3, 0.0, -0.0, -2.0, float("nan")])
    def test_other_inputs_take_the_numpy_path(self, r):
        pot = PowerLawPotential(((0.4, -1.0), (0.2, 1.0), (0.1, 0.5)))
        with np.errstate(all="ignore"):
            value, expected = pot.value(r), _numpy_value(pot, r)
        assert type(value) is float
        assert value == expected or (math.isnan(value) and math.isnan(expected))


class TestQuantumState:
    def test_accepts_non_negative_integers(self):
        s = QuantumState(2, 1)
        assert (s.n, s.l) == (2, 1)

    @pytest.mark.parametrize("n,l", [(-1, 0), (0, -2), (0.5, 0)])
    def test_rejects_bad_numbers(self, n, l):
        with pytest.raises(ValueError):
            QuantumState(n, l)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("name", ["n", "l"])
    def test_rejects_non_finite_numbers_with_its_own_error(self, name, value):
        # int() alone raises OverflowError on +-inf and its own ValueError on nan
        with pytest.raises(ValueError, match=f"^{name} must be a non-negative integer, got {value}$"):
            QuantumState(**{"n": 0, name: value})


class TestGlobalQ:
    def test_sources(self):
        assert GlobalQ(1.5, "analytic_p2", 2.0).describe() == "analytic_p2"
        assert GlobalQ(1.5, "numeric", 0.5).describe() == "numeric(p=0.5)"
        assert GlobalQ.explicit(2.0).p is None

    def test_rejects_nonpositive_value(self):
        with pytest.raises(ValueError):
            GlobalQ(0.0, "explicit")
        with pytest.raises(ValueError):
            GlobalQ(-1.0, "explicit")

    def test_rejects_unknown_source(self):
        with pytest.raises(ValueError):
            GlobalQ(1.0, "guesswork")

    @pytest.mark.parametrize("p", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_exponent(self, p):
        with pytest.raises(ValueError, match="finite"):
            GlobalQ.explicit(1.5, p)


class TestAfmSolution:
    def test_q_consistency_enforced(self):
        q = GlobalQ.explicit(1.0)
        with pytest.raises(ValueError):
            AfmSolution(r0=2.0, p0=1.0, nu1=1.0, nu2=1.5, mass=1.0, q=q, certified_upper_bound=False)

    @pytest.mark.parametrize(
        "fields, match",
        [
            ((0.0, 1.0, 1.0, 1.0, 1.0), "positive"),
            ((1.0, -1.0, 1.0, 1.0, 1.0), "positive"),
            ((1.0, 1.0, 0.5, 1.0, 1.0), "einbeins"),
            ((1.0, 1.0, 1.0, 0.5, 1.0), "einbeins"),
        ],
    )
    def test_caller_built_record_keeps_every_check(self, fields, match):
        # the solver builds its records without these checks; a caller's constructor still runs them
        with pytest.raises(ValueError, match=match):
            AfmSolution(*fields, GlobalQ.explicit(1.0), False)

    def test_solver_records_equal_checked_records(self):
        # every record solve_afm makes passes the checks and equals the one the constructor builds
        rng = np.random.default_rng(7)
        solved = 0
        for _ in range(300):
            m1, m2, potential, qv = random_bound_configuration(rng)
            try:
                sol = solve_afm(m1, m2, potential, GlobalQ.explicit(qv))
            except AfmError:
                continue
            checked = AfmSolution(**vars(sol))
            assert (checked, vars(checked), hash(checked), repr(checked)) == (sol, vars(sol), hash(sol), repr(sol))
            solved += 1
        assert solved > 250
