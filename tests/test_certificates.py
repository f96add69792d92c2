import pytest

from salpeter_afm import DomainError, PowerLawPotential, concavity_certificate


class TestConcavityCertificate:
    def test_linear_under_quadratic_auxiliary_is_concave(self):
        cert = concavity_certificate(PowerLawPotential.linear(0.2), 2.0)
        assert cert.is_upper_bound
        assert cert.reason == "concave_g"

    def test_coulomb_under_matching_auxiliary_is_proportional(self):
        cert = concavity_certificate(PowerLawPotential.coulomb(1.2), -1.0)
        assert cert.is_upper_bound
        assert cert.reason == "proportional"

    def test_quadratic_under_linear_auxiliary_is_not_certified(self):
        # V = b r^2 seen through P = r is convex, g(y) = b y^2
        cert = concavity_certificate(PowerLawPotential(((0.3, 2.0),)), 1.0)
        assert not cert.is_upper_bound
        assert cert.reason == "not_certified"

    def test_every_matching_exponent_reads_proportional(self):
        cert = concavity_certificate(PowerLawPotential(((0.3, 1.5), (0.7, 1.5))), 1.5)
        assert cert.reason == "proportional"

    @pytest.mark.parametrize("p,expected", [(1.0, True), (2.0, True), (-1.0, False)])
    def test_funnel_certification(self, p, expected):
        # -a/r + b r is concave through both confining auxiliary choices but
        # not through the Coulomb one (the linear term turns convex there)
        cert = concavity_certificate(PowerLawPotential.funnel(0.4, 0.2), p)
        assert cert.is_upper_bound is expected

    def test_zero_coupling_terms_are_ignored(self):
        pot = PowerLawPotential(((0.0, 2.0), (0.5, -1.0)))
        assert concavity_certificate(pot, -1.0).reason == "proportional"

    def test_exponent_validation(self):
        with pytest.raises(DomainError):
            concavity_certificate(PowerLawPotential.linear(0.2), 0.0)
        with pytest.raises(DomainError):
            concavity_certificate(PowerLawPotential.linear(0.2), -2.0)

    @pytest.mark.parametrize("p", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_exponent_is_a_domain_error(self, p):
        with pytest.raises(DomainError, match="finite"):
            concavity_certificate(PowerLawPotential.linear(0.2), p)

    def test_every_coupling_zero_is_not_certified(self):
        # no active term, so nothing to certify, even through the matching exponent
        cert = concavity_certificate(PowerLawPotential(((0.0, 2.0),)), 2.0)
        assert (cert.is_upper_bound, cert.reason) == (False, "not_certified")

    @pytest.mark.parametrize("p", [0.0, -2.0, -3.0, float("nan"), float("inf")])
    def test_exponent_is_checked_when_every_coupling_is_zero(self, p):
        with pytest.raises(DomainError, match="auxiliary exponent must be finite, > -2 and nonzero"):
            concavity_certificate(PowerLawPotential(((0.0, 2.0),)), p)

    def test_certificate_flows_into_solutions(self):
        from salpeter_afm import GlobalQ, solve_afm

        pot = PowerLawPotential(((0.3, 2.0),))
        certified = solve_afm(0.5, 0.5, pot, GlobalQ.explicit(1.5, 2.0))
        assert certified.certified_upper_bound  # proportional choice
        uncertified = solve_afm(0.5, 0.5, pot, GlobalQ.explicit(1.5, 1.0))
        assert not uncertified.certified_upper_bound
