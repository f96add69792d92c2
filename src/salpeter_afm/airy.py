"""Zeros of the Airy function Ai, needed by the p = 1 analytic quantum numbers."""
import math

# a_1 .. a_10, the doubles nearest the exact zeros (17 significant digits)
_TABLE = (
    -2.3381074104597670,
    -4.0879494441309703,
    -5.5205598280955508,
    -6.7867080900717589,
    -7.9441335871208532,
    -9.0226508533409806,
    -10.040174341558085,
    -11.008524303733262,
    -11.936015563236262,
    -12.828776752865757,
)

# coefficients of t^-2k in a_n ~ -t^(2/3) (1 + 5/48 t^-2 - 5/36 t^-4 + ...)
_SERIES = (1.0, 5.0 / 48.0, -5.0 / 36.0, 77125.0 / 82944.0, -108056875.0 / 6967296.0, 162375596875.0 / 334430208.0)


def _asymptotic_zero(index: int) -> float:
    """Zero a_(index+1) from the six-term asymptotic series, t = 3 pi (4 index + 3)/8.

    Within 6.4e-16 relative of the exact zero from index 10 on.
    """
    t = 3.0 * math.pi * (4.0 * index + 3.0) / 8.0
    u = t**-2
    total = 0.0
    for coefficient in reversed(_SERIES):
        total = total * u + coefficient
    return -(t ** (2.0 / 3.0)) * total


def airy_ai_zero(index: int) -> float:
    """Zero a_(index+1) of Ai, the (index+1)-th on the negative real axis.

    The tabulated value for index < 10, the asymptotic series beyond (DLMF
    9.9.6 and 9.9.18), at machine precision there; the cost does not grow
    with index, and neither needs scipy.
    """
    if index < 0:
        raise ValueError("index must be >= 0")
    return _TABLE[index] if index < len(_TABLE) else _asymptotic_zero(index)

