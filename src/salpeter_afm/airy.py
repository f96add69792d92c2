"""Zeros of the Airy function Ai, needed by the p = 1 analytic quantum numbers."""
from functools import lru_cache


@lru_cache(maxsize=None)
def airy_ai_zeros(count: int = 10) -> tuple[float, ...]:
    """First ``count`` zeros of Ai on the negative real axis.

    Seeds each zero with the standard asymptotic expansion
    a_n ~ -t**(2/3) * (1 + 5/48 t^-2 - 5/36 t^-4), t = 3*pi*(4n+3)/8,
    then polishes by Newton iteration on (Ai, Ai') to machine precision.
    Values are negative and ordered by increasing magnitude.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    from scipy import special  # imported here so that only p = 1 pays for it

    zeros = []
    for n in range(count):
        t = 3.0 * 3.141592653589793 * (4.0 * n + 3.0) / 8.0
        x = -(t ** (2.0 / 3.0)) * (1.0 + 5.0 / 48.0 * t**-2 - 5.0 / 36.0 * t**-4)
        for _ in range(20):
            ai, aip, _, _ = special.airy(x)
            step = ai / aip
            x -= step
            if abs(step) <= 1e-15 * abs(x):
                break
        zeros.append(float(x))
    return tuple(zeros)
