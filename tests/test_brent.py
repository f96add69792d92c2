"""The in-package Brent root finder against scipy.optimize.brentq, whose C
loop it ports: the same double on every bracket, typed failures, and the
CLI exit codes those failures take."""
import json
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from salpeter_afm import (
    AfmError,
    ConvergenceFailure,
    DomainError,
    GlobalQ,
    PowerLawPotential,
    core,
    linear_closed,
    linear_nr_expansion,
    linear_symmetric_massless,
    linear_ur_expansion,
    solve_afm,
)
from salpeter_afm.cli import main
from salpeter_afm.core import _brent
from salpeter_afm.verification import expansion_crossing, random_bound_configuration

# solve_afm's tolerances are relative to the bracket; these are scipy's defaults
XTOL, RTOL = 2e-12, 4 * np.finfo(float).eps
BOUND_COULOMB = {"masses": [0.0, 1.0], "potential": [{"alpha": 1.2, "exponent": -1}], "q": 1.0}


def _slow_search(root_finder):
    """A root at 0 to 1e-300 in a bracket of width 3e300: about 2000 halvings,
    beyond the 100 iterations that either implementation allows."""
    return root_finder(lambda x: math.copysign(abs(x) ** 0.1, x), -1e300, 2e300, xtol=1e-300, rtol=RTOL)


def _same(f, a, b, **tols):
    """_brent returns brentq's double after evaluating f at the same x, in the same order."""

    def recorded(xs):
        def value(x):
            xs.append(x)
            return f(x)

        return value

    our_xs, their_xs = [], []
    ours = _brent(recorded(our_xs), a, b, **tols)
    theirs = brentq(recorded(their_xs), a, b, **tols)
    assert type(ours) is float
    assert repr(ours) == repr(theirs), (a, b, tols)
    assert [repr(x) for x in our_xs] == [repr(x) for x in their_xs], (a, b, tols)


@pytest.fixture
def balances(monkeypatch):
    """Every (balance, bracket end, bracket end, tolerances) that solve_afm hands to _brent.

    The end values that the bracket search passes along must be floats,
    f(a) and f(b) to the bit; they are dropped from the tolerances, since
    brentq evaluates the ends itself.
    """
    calls = []

    def spy(f, xa, xb, fa=None, fb=None, **tols):
        for x, fx in ((xa, fa), (xb, fb)):
            assert type(fx) is float and repr(fx) == repr(f(x)), (x, fx)
        calls.append((f, xa, xb, tols))
        return _brent(f, xa, xb, fa=fa, fb=fb, **tols)

    monkeypatch.setattr(core, "_brent", spy)
    return calls


class TestBitIdentity:
    def test_solve_afm_balances(self, balances):
        rng = np.random.default_rng(20261018)
        for _ in range(300):
            m1, m2, potential, qv = random_bound_configuration(rng)
            try:
                sol = solve_afm(m1, m2, potential, GlobalQ.explicit(qv))
            except AfmError:
                continue
            assert type(sol.r0) is float and type(sol.mass) is float
        assert len(balances) > 250
        for f, a, b, tols in balances:
            assert tols["xtol"] == 1e-20 * a and tols["rtol"] == 1e-15
            _same(f, a, b, **tols)

    @pytest.mark.parametrize(
        "m1, m2, terms, qv",
        [
            pytest.param(
                6.20515946784944e160, 4.4750034593502297e-212, ((1.2991747738616603e-108, 4.437407153857256),),
                8.208701777449884e200, id="r-to-the-5.44",
            ),
            pytest.param(0.0, 1.0, ((1e-254, 20000.0),), 1.0, id="r-to-the-20001"),
        ],
    )
    def test_infinite_bracket_end(self, balances, m1, m2, terms, qv):
        """A power beyond the double range at the cell's upper end: Brent is handed +inf there."""
        sol = solve_afm(m1, m2, PowerLawPotential(terms), qv)
        [(f, a, b, tols)] = balances
        assert f(b) == math.inf
        _same(f, a, b, **tols)
        assert repr(sol.r0) == repr(brentq(f, a, b, **tols))

    @pytest.mark.parametrize("power", [1, 3, 5, 9])
    def test_seeded_polynomials(self, power):
        rng = np.random.default_rng(power)
        for _ in range(100):
            root, width, offset = rng.uniform(-10.0, 10.0), 10.0 ** rng.uniform(-6, 2), rng.uniform(0.01, 0.99)
            a, b = root - offset * width, root + (1.0 - offset) * width
            _same(lambda x: (x - root) ** power + 0.1 * (x - root), a, b, xtol=XTOL, rtol=RTOL)
            _same(lambda x: x**power - root**power, a, b, xtol=1e-12 * width, rtol=1e-15)

    def test_seeded_hard_functions(self):
        """Steep, flat, symmetric and tiny shapes that reject interpolation,
        bisect, tie |f| at the two ends and divide by an underflowed 0."""
        rng = np.random.default_rng(1973)
        for _ in range(100):
            root, width, k = rng.uniform(-1.0, 1.0), 10.0 ** rng.uniform(-3, 1), 10.0 ** rng.uniform(0, 4)
            a, b = root - rng.uniform(0.01, 0.99) * width, root + rng.uniform(0.01, 0.99) * width
            _same(lambda x: math.atan(k * (x - root)), a, b, xtol=XTOL, rtol=RTOL)
            _same(lambda x: math.expm1(min(k * (x - root), 700.0)), a, b, xtol=XTOL, rtol=RTOL)
            _same(lambda x: math.copysign(abs(x - root) ** 0.1, x - root), a, b, xtol=XTOL, rtol=RTOL)
            _same(lambda x: (x - root) ** 3, root - width, root + width, xtol=XTOL, rtol=RTOL)
            # values near 1e-200: the interpolation denominator underflows to 0
            _same(lambda x: ((x - root) ** 3 + 0.01 * (x - root)) * 1e-200, a, b, xtol=XTOL, rtol=RTOL)

    @pytest.mark.parametrize("a, b", [(1.0, 2.0), (0.0, 1.0), (2.0, 1.0)])
    def test_root_at_a_bracket_end(self, a, b):
        assert _brent(lambda x: x - 1.0, a, b, xtol=XTOL, rtol=RTOL) == 1.0
        _same(lambda x: x - 1.0, a, b, xtol=XTOL, rtol=RTOL)

    def test_expansion_crossing(self):
        b, q = 0.2, GlobalQ.explicit(1.5, 1.0)
        m0 = linear_symmetric_massless(2.0, b, q)

        def gap(x):
            return linear_ur_expansion(x * m0, b, q) - linear_nr_expansion(x * m0, b, q)

        x_star = brentq(gap, 0.1, 0.8, rtol=1e-13)
        exact = linear_closed(x_star * m0, b, q).mass
        assert expansion_crossing() == (x_star, (linear_ur_expansion(x_star * m0, b, q) - exact) / exact)


class TestTypedFailures:
    def test_nan_at_a_bracket_end(self):
        with pytest.raises(DomainError, match="NaN"):
            _brent(lambda x: math.nan if x > 0.5 else -1.0, 0.0, 1.0, xtol=XTOL, rtol=RTOL)
        with pytest.raises(DomainError, match=r"at x=0\.0 is NaN"):
            _brent(lambda x: math.nan if x < 0.5 else 1.0, 0.0, 1.0, xtol=XTOL, rtol=RTOL)

    def test_nan_inside_the_bracket(self):
        seen = []

        def f(x):
            seen.append(x)
            return math.nan if 0.6 < x < 0.9 else x - 0.75

        with pytest.raises(DomainError, match="NaN"):
            _brent(f, 0.0, 1.0, xtol=XTOL, rtol=RTOL)
        assert len(seen) == 3  # both ends, then the secant step lands on the NaN

    def test_iteration_limit(self):
        with pytest.raises(ConvergenceFailure, match="100 iterations"):
            _slow_search(_brent)
        with pytest.raises(RuntimeError):  # where scipy gives up too
            _slow_search(brentq)

    def test_no_sign_change(self):
        with pytest.raises(ValueError, match="different signs"):
            _brent(lambda x: x * x + 1.0, -1.0, 1.0, xtol=XTOL, rtol=RTOL)


def _stub(monkeypatch, replace):
    """Route solve_afm's root search through replace(balance, a, b, **tols)."""
    monkeypatch.setattr(core, "_brent", lambda f, a, b, **tols: replace(_brent, f, a, b, **tols))


def _nan(real, f, a, b, **tols):
    return real(lambda x: math.nan, a, b, **tols)


def _slow(real, f, a, b, **tols):
    return _slow_search(real)


@pytest.mark.parametrize(
    "replace, error",
    [(_nan, DomainError), (_slow, ConvergenceFailure)],
    ids=["nan", "iteration-limit"],
)
def test_failures_are_typed_and_exit_2(tmp_path, monkeypatch, capsys, replace, error):
    _stub(monkeypatch, replace)
    with pytest.raises(error):
        solve_afm(0.0, 1.0, PowerLawPotential.coulomb(1.2), 1.0)
    config = tmp_path / "bound.json"
    config.write_text(json.dumps(BOUND_COULOMB))
    assert main(["bound", "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
