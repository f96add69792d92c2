"""Percentiles and the environment record shared by the runner and compare."""
from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import statistics
import subprocess

# Tail levels tried from the top; a level counts only when at least ten of
# one round's items lie beyond it.  Choosing it per round keeps the level
# the same when a faster program fits more rounds into a run.
TAIL_LEVELS = (99.99, 99.9, 99.0, 90.0)


def percentile(values, level: float) -> float:
    """Linear-interpolation percentile (numpy's default definition)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * level / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail(values, per_round: int) -> tuple[float, float, int] | None:
    """(level, value, samples beyond) over all values, at the highest level
    that leaves at least 10 of a round's per_round items beyond it."""
    for level in TAIL_LEVELS:
        if per_round * (100.0 - level) / 100.0 >= 10.0 - 1e-9:
            value = percentile(values, level)
            return level, value, sum(1 for v in values if v > value)
    return None


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def environment(root: str, nproc: int) -> dict:
    """What a result depends on besides the code: machine, BLAS and library versions."""
    import numpy
    import scipy

    blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(root),
        "src_sha256": _tree_digest(os.path.join(root, "src")),
        "nproc": nproc,
        "machine": platform.machine(),
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": _blas_threads(scipy)},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _git_sha(root: str) -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _tree_digest(path: str) -> str:
    """sha256 over the program's source files, which identifies it where git is absent."""
    digest = hashlib.sha256()
    for name in sorted(glob.glob(os.path.join(path, "**", "*.py"), recursive=True)):
        digest.update(os.path.relpath(name, path).encode())
        with open(name, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def _blas_threads(scipy_module) -> int | None:
    """Thread count reported by the OpenBLAS that scipy.linalg loaded, if it can be asked."""
    libs = os.path.join(os.path.dirname(scipy_module.__file__), os.pardir, "scipy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None
