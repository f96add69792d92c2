"""Variational upper bounds for the two-body spinless Salpeter equation.

Public surface: the auxiliary-field solver and closed forms (:mod:`.core`),
the nonrelativistic radial oracle (:mod:`.oracle`), the semirelativistic
reference eigensolver (:mod:`.reference`), and the shared domain types.
"""

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
from .oracle import (
    RadialEigenpair,
    SpectralGrid,
    afm_eigenstate,
    energy_from_q,
    invert_q,
    nr_eigenvalue,
)
from .reference import BoundGapRow, SseProblem, bound_gap, sse_eigenvalue
from .types import (
    AfmSolution,
    BoundCertificate,
    GlobalQ,
    PowerLawPotential,
    QuantumState,
)

__version__ = "0.1.0"

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
    "SpectralGrid",
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
