"""Variational upper bounds for the two-body spinless Salpeter equation.

Public surface: the auxiliary-field solver and closed forms (:mod:`.core`),
the nonrelativistic radial oracle (:mod:`.oracle`), the semirelativistic
reference eigensolver (:mod:`.reference`), and the shared domain types.
The oracle and the reference need numpy; their names are resolved on first
access (PEP 562), so importing the package or :mod:`.core` loads no numpy.
scipy is loaded by the first ladder (a reference level or a numeric Q), not
by importing or resolving any name.
"""
import importlib

from .core import (
    concavity_certificate,
    coulomb_closed,
    coulomb_symmetric,
    linear_closed,
    linear_nr_expansion,
    linear_symmetric_massless,
    linear_ur_expansion,
    q_exact,
    q_numeric,
    residuals,
    rotation_radii,
    solve_afm,
)
from .errors import (
    AfmError,
    CollapseDetected,
    ConvergenceFailure,
    DomainError,
    NoBoundState,
    UnsupportedCase,
)
from .types import (
    AfmSolution,
    BoundCertificate,
    GlobalQ,
    PowerLawPotential,
    QuantumState,
)

__version__ = "0.1.0"

# name -> the numpy-backed module that defines it, imported on first access
_LAZY = {
    **dict.fromkeys(
        ("RadialEigenpair", "afm_eigenstate", "energy_from_q", "invert_q", "nr_eigenvalue"),
        "oracle",
    ),
    **dict.fromkeys(("BoundGapRow", "SseProblem", "bound_gap", "sse_eigenvalue"), "reference"),
}

__all__ = [
    "AfmError",
    "AfmSolution",
    "BoundCertificate",
    "BoundGapRow",
    "CollapseDetected",
    "ConvergenceFailure",
    "DomainError",
    "GlobalQ",
    "NoBoundState",
    "PowerLawPotential",
    "QuantumState",
    "RadialEigenpair",
    "SseProblem",
    "UnsupportedCase",
    "afm_eigenstate",
    "bound_gap",
    "concavity_certificate",
    "coulomb_closed",
    "coulomb_symmetric",
    "energy_from_q",
    "invert_q",
    "linear_closed",
    "linear_nr_expansion",
    "linear_symmetric_massless",
    "linear_ur_expansion",
    "nr_eigenvalue",
    "q_exact",
    "q_numeric",
    "residuals",
    "rotation_radii",
    "solve_afm",
    "sse_eigenvalue",
]


def __getattr__(name: str):
    if name in ("oracle", "reference"):
        return importlib.import_module(f".{name}", __name__)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
