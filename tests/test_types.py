import numpy as np
import pytest

from salpeter_afm import AfmSolution, GlobalQ, PowerLawPotential, QuantumState


class TestPowerLawPotential:
    def test_sign_convention(self):
        funnel = PowerLawPotential.funnel(1.2, 0.2)
        assert funnel.value(2.0) == pytest.approx(-1.2 / 2.0 + 0.2 * 2.0)
        assert funnel.derivative(2.0) == pytest.approx(1.2 / 4.0 + 0.2)

    def test_derivative_positive_everywhere(self):
        pot = PowerLawPotential(((0.5, -1.5), (0.1, 0.7), (0.3, 2.0)))
        r = np.logspace(-3, 3, 61)
        assert np.all(pot.derivative(r) > 0)

    def test_vectorized_value(self):
        pot = PowerLawPotential.coulomb(1.0)
        r = np.array([0.5, 1.0, 2.0])
        np.testing.assert_allclose(pot.value(r), [-2.0, -1.0, -0.5])

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


class TestQuantumState:
    def test_accepts_non_negative_integers(self):
        s = QuantumState(2, 1)
        assert (s.n, s.l) == (2, 1)

    @pytest.mark.parametrize("n,l", [(-1, 0), (0, -2), (0.5, 0)])
    def test_rejects_bad_numbers(self, n, l):
        with pytest.raises(ValueError):
            QuantumState(n, l)


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
