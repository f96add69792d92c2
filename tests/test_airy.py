import time

import numpy as np
import pytest
from scipy import special

from salpeter_afm import QuantumState, q_exact
from salpeter_afm.airy import airy_ai_zero


def airy_ai_zeros(count):
    """The first count zeros of Ai, each from airy_ai_zero."""
    return tuple(airy_ai_zero(i) for i in range(count))


def _polished_ai_zeros(count):
    """scipy's ai_zeros, refined by two Newton steps on (Ai, Ai').

    ai_zeros alone is off by up to 1e-12 relative at a_3 .. a_5 (its a_5 is
    -7.944133587112781 against -7.9441335871208532).
    """
    zeros = special.ai_zeros(count)[0]
    for _ in range(2):
        ai, aip, _, _ = special.airy(zeros)
        zeros = zeros - ai / aip
    return zeros


def test_first_ten_zeros_match_ode_integration(airy_zeros_oracle):
    computed = airy_ai_zeros(10)
    assert len(airy_zeros_oracle) >= 10
    for got, want in zip(computed, airy_zeros_oracle[:10]):
        assert got == pytest.approx(want, abs=5e-11)


def test_table_matches_polished_scipy_zeros():
    np.testing.assert_allclose(airy_ai_zeros(10), _polished_ai_zeros(10), rtol=1e-15, atol=0.0)


def test_asymptotic_series_beyond_the_table():
    # a_11 .. a_200 from the six-term series; ai_zeros is exact to round-off there
    zeros = airy_ai_zeros(200)
    np.testing.assert_allclose(zeros[10:], special.ai_zeros(200)[0][10:], rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(zeros[10:], _polished_ai_zeros(200)[10:], rtol=1e-15, atol=0.0)


def test_zeros_are_negative_and_ordered():
    zeros = airy_ai_zeros(40)
    assert all(z < 0 for z in zeros)
    assert all(a > b for a, b in zip(zeros, zeros[1:]))
    assert airy_ai_zeros(12)[:10] == airy_ai_zeros(10)


def test_ground_zero_value(airy_zeros_oracle):
    # the classic -2.338107...
    assert airy_zeros_oracle[0] == pytest.approx(-2.338107410459767, abs=1e-10)
    assert airy_ai_zeros(1)[0] == pytest.approx(-2.338107410459767, abs=1e-12)


def test_count_validation():
    with pytest.raises(ValueError):
        airy_ai_zero(-1)


def test_single_zero_is_the_same_double():
    for n in range(200):
        assert q_exact(1, QuantumState(n)).value == 2.0 * (-airy_ai_zero(n) / 3.0) ** 1.5


def test_high_level_q_does_not_build_the_lower_zeros():
    # building all 10**7 + 1 zeros took seconds and hundreds of MB
    start = time.perf_counter()
    q = q_exact(1, QuantumState(10**7))
    assert time.perf_counter() - start < 0.1
    assert q.value == 2.0 * (-airy_ai_zero(10**7) / 3.0) ** 1.5
