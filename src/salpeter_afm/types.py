"""Domain types: potentials, quantum numbers, and solution records.

All quantities are in natural units (GeV-based, hbar = c = 1): masses and
momenta in GeV, lengths in GeV^-1, couplings of an r**lam term in
GeV**(1+lam).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

Q_SOURCES = ("analytic_p2", "analytic_p1", "analytic_pm1", "numeric", "explicit")

CERT_PROPORTIONAL = "proportional"
CERT_CONCAVE = "concave_g"
CERT_NONE = "not_certified"


@dataclass(frozen=True)
class PowerLawPotential:
    """Attractive or confining sum of signed power-law terms.

    Each term ``(alpha, exponent)`` contributes ``sign(exponent) * alpha *
    r**exponent``, so negative exponents give attractive wells (-alpha/r for
    exponent -1) and positive ones give confinement (+alpha*r for exponent
    +1).  With this sign convention V'(r) > 0 for all r > 0 whenever any
    coupling is nonzero.

    Constraints: every alpha >= 0, every exponent > -2 and != 0.  A zero
    coupling is dropped at construction (0 * inf would be NaN), so ``terms``
    holds the active terms alone, none when every coupling is 0.
    """

    terms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        cleaned = []
        for term in self.terms:
            alpha, lam = (float(term[0]), float(term[1]))
            if not math.isfinite(alpha) or alpha < 0.0:
                raise ValueError(f"coupling must be finite and >= 0, got {alpha}")
            if not math.isfinite(lam) or lam <= -2.0 or lam == 0.0:
                raise ValueError(f"exponent must be > -2 and nonzero, got {lam}")
            cleaned.append((alpha, lam))
        if not cleaned:
            raise ValueError("potential needs at least one term")
        object.__setattr__(self, "terms", tuple(term for term in cleaned if term[0] > 0.0))

    @classmethod
    def coulomb(cls, a: float) -> "PowerLawPotential":
        """-a/r."""
        return cls(((a, -1.0),))

    @classmethod
    def linear(cls, b: float) -> "PowerLawPotential":
        """b*r."""
        return cls(((b, 1.0),))

    @classmethod
    def funnel(cls, a: float, b: float) -> "PowerLawPotential":
        """-a/r + b*r."""
        return cls(((a, -1.0), (b, 1.0)))

    def value(self, r):
        """V(r) at a scalar or an array: a float r > 0 summed in floats (:mod:`.core` assembles the mass
        with it), any other input (an array, an int, a numpy scalar, r <= 0) in numpy; an overflow is inf."""
        return _power_sum(r, self.terms)

    def __call__(self, r):
        return self.value(r)


def _power_sum(r, terms):
    """sum(sign(lam) alpha r**lam) over the (alpha, lam) terms, with a power or sum beyond the
    double range counted as inf.  A float r > 0 is summed in floats, by :func:`_value_and_pull`;
    any other r goes through numpy, whose power can differ from the float one by an ulp."""
    if type(r) is float and r > 0.0:
        return _value_and_pull(r, terms)[0]
    import numpy as np

    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    with np.errstate(over="ignore"):
        for a, lam in terms:
            out = out + math.copysign(a, lam) * r**lam
    return out if out.ndim else float(out)


def _value_and_pull(r: float, terms) -> tuple[float, float]:
    """(V(r), r V'(r)) at a float r > 0: the ordered float sums of sign(lam) alpha r**lam and of
    |lam| alpha r**lam over the (alpha, lam) terms, each power r**lam formed once and counted as
    inf where it leaves the double range.  :mod:`.core` assembles the mass and its virial
    residual from this one pass."""
    value = pull = 0.0
    for a, lam in terms:
        try:
            power = r**lam
        except OverflowError:
            power = math.inf
        value += math.copysign(a, lam) * power
        pull += abs(lam) * a * power
    return value, pull


@dataclass(frozen=True)
class QuantumState:
    """Radial excitation n >= 0 and orbital momentum l >= 0."""

    n: int
    l: int = 0

    def __post_init__(self):
        object.__setattr__(self, "n", _non_negative_int("n", self.n))
        object.__setattr__(self, "l", _non_negative_int("l", self.l))


def _non_negative_int(name: str, value) -> int:
    """value as an int, of any size; ValueError where it is not a non-negative
    integer, also for nan and +-inf, which int() refuses with errors of its own."""
    try:
        whole = int(value)
    except (OverflowError, ValueError):  # +-inf; nan or a string that is no integer
        whole = None
    if whole != value or value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value}")
    return whole


@dataclass(frozen=True)
class GlobalQ:
    """Global quantum number Q > 0 with its provenance.

    ``source`` records how the value was obtained; ``p`` is the auxiliary
    power-law exponent behind it (None when an explicit value was supplied
    without one, in which case no upper-bound certificate can be attached).
    """

    value: float
    source: str
    p: float | None = None

    def __post_init__(self):
        if not (self.value > 0.0) or not math.isfinite(self.value):
            raise ValueError(f"Q must be finite and > 0, got {self.value}")
        if self.source not in Q_SOURCES:
            raise ValueError(f"unknown Q source {self.source!r}")
        if self.p is not None and not math.isfinite(self.p):
            raise ValueError(f"auxiliary exponent must be finite, got {self.p}")
        object.__setattr__(self, "value", float(self.value))

    @classmethod
    def explicit(cls, value: float, p: float | None = None) -> "GlobalQ":
        return cls(float(value), "explicit", p)

    def describe(self) -> str:
        if self.source == "numeric":
            return f"numeric(p={self.p:g})"
        if self.source == "explicit" and self.p is not None:
            return f"explicit(p={self.p:g})"
        return self.source


@dataclass(frozen=True)
class BoundCertificate:
    """Whether the auxiliary-field mass is a certified upper bound, and why."""

    is_upper_bound: bool
    reason: str  # proportional | concave_g | not_certified


@dataclass(frozen=True)
class AfmSolution:
    """Solved triple (r0, p0, M) with the kinetic einbein values.

    r0 is the mean inter-particle distance (GeV^-1), p0 the mean momentum
    per particle (GeV), nu_i = sqrt(p0^2 + m_i^2), and mass the system mass
    M = nu1 + nu2 + V(r0).
    """

    r0: float
    p0: float
    nu1: float
    nu2: float
    mass: float
    q: GlobalQ
    certified_upper_bound: bool

    def __post_init__(self):
        if not (self.r0 > 0.0 and self.p0 > 0.0):
            raise ValueError("r0 and p0 must be positive")
        if abs(self.p0 * self.r0 - self.q.value) > 1e-10 * self.q.value:
            raise ValueError("p0 * r0 does not reproduce Q")
        if self.nu1 < self.p0 * (1 - 1e-12) or self.nu2 < self.p0 * (1 - 1e-12):
            raise ValueError("kinetic einbeins cannot be below p0")


def _trusted_solution(r0, p0, nu1, nu2, mass, q, certified_upper_bound) -> AfmSolution:
    """An AfmSolution built without ``__init__`` and its checks, for the
    solver's own records, which meet them by construction (p0 = Q/r0 > 0,
    nu_i = hypot(p0, m_i)); equal to the checked record of the same fields.
    An AfmSolution built by its constructor keeps every check."""
    sol = object.__new__(AfmSolution)
    sol.__dict__.update(r0=r0, p0=p0, nu1=nu1, nu2=nu2, mass=mass, q=q, certified_upper_bound=certified_upper_bound)
    return sol
