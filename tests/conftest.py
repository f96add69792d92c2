"""Shared independent oracles for the test suite.

These deliberately avoid the code paths they are used to check: Airy zeros
come from direct ODE integration and transcendental roots from plain
interval bisection.
"""
import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq
from scipy.special import gamma


@pytest.fixture(scope="session")
def airy_zeros_oracle():
    """First zeros of Ai from integrating y'' = x*y leftward from x = 0.

    Initial values are the exact Ai(0) = 3^(-2/3)/Gamma(2/3) and
    Ai'(0) = -3^(-1/3)/Gamma(1/3); zeros are polished on the dense output.
    """
    ai0 = 3.0 ** (-2.0 / 3.0) / gamma(2.0 / 3.0)
    aip0 = -(3.0 ** (-1.0 / 3.0)) / gamma(1.0 / 3.0)
    sol = solve_ivp(
        lambda x, y: [y[1], x * y[0]],
        (0.0, -14.0),
        [ai0, aip0],
        dense_output=True,
        rtol=1e-12,
        atol=1e-14,
        max_step=0.05,
    )
    xs = np.linspace(0.0, -14.0, 28001)
    ys = sol.sol(xs)[0]
    zeros = []
    for i in np.nonzero(np.sign(ys[:-1]) * np.sign(ys[1:]) < 0)[0]:
        zeros.append(brentq(lambda x: sol.sol(x)[0], xs[i + 1], xs[i], xtol=1e-13))
    return sorted(zeros, reverse=True)  # ordered by increasing magnitude


def bisect_root(fn, lo, hi, iters=200):
    """Plain bisection to machine precision; requires a sign change on [lo, hi]."""
    flo, fhi = fn(lo), fn(hi)
    assert flo * fhi < 0, "oracle bisection needs a bracketing interval"
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
        if hi - lo <= 1e-16 * max(abs(lo), abs(hi)):
            break
    return 0.5 * (lo + hi)

