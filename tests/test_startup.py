"""What a fresh interpreter loads: the `bound` verb (with any exponents), the
scan sweeps without the reference column, the analytic `qtable`, the
`windows` and `linear-limits` suites and the core solver run on floats alone,
numpy loads where an array is needed, the oracle, the reference and the
verification suites load without scipy, and scipy loads at the first ladder.
Each check runs in its own subprocess, since this test process has long
imported numpy and scipy; it asserts on sys.modules, never on times."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

BOUND_COULOMB = {
    "mode": "bound",
    "masses": [0.0, 1.0],
    "potential": [{"alpha": 1.2, "exponent": -1}],
    "state": {"n": 0, "l": 0},
    "q": 1.0,
}
BOUND_P2 = {
    "masses": [0.3, 1.0],
    "potential": [{"alpha": 0.2, "exponent": 1}, {"alpha": 0.4, "exponent": -1}],
    "state": {"n": 1, "l": 1},
    "p": 2,
}
REFERENCE_COULOMB = dict(BOUND_COULOMB, mode="reference")
del REFERENCE_COULOMB["q"]
SCAN_P_WAVE = {
    "mode": "scan",
    "masses": [0.0, 1.0],
    "potential": [{"alpha": 0.2, "exponent": 1}],
    "state": {"n": 0, "l": 1},
    "scan": {"variable": "m", "values": [0.0, 0.5, 1.0], "include_reference": False},
}
# README's mass scan: l = 0, so the Q(1) column needs the Airy zeros
SCAN_S_WAVE = {
    "mode": "scan",
    "masses": [0.0, 1.0],
    "potential": [{"alpha": 0.2, "exponent": 1}],
    "state": {"n": 0, "l": 0},
    "scan": {"variable": "m", "start": 0.0, "stop": 1.0, "step": 0.05, "include_reference": False},
}
SCAN_Q = {
    "mode": "scan",
    "masses": [0.0, 1.0],
    "potential": [{"alpha": 1.2, "exponent": -1}],
    "scan": {"variable": "Q", "start": 0.5, "stop": 1.3, "step": 0.1},
}
QTABLE_ANALYTIC = {
    "mode": "qtable",
    "qtable": {"p_values": [2, 1, -1], "states": [[0, 0], [1, 0]], "numeric": False},
}
# a steep attractive term (lam < -1): the balance may cross twice, and its grid is searched in floats too
BOUND_STEEP = {
    "mode": "bound",
    "masses": [0.5, 1.0],
    "potential": [{"alpha": 0.3, "exponent": -1.5}, {"alpha": 0.2, "exponent": 1}],
    "state": {"n": 0, "l": 0},
    "q": 1.5,
}

# sys.modules entries of numpy and scipy, defined in each fresh interpreter below
ARRAY_MODULES = """
import sys

def array_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy"))
"""

COLD_START = ARRAY_MODULES + """
import salpeter_afm.cli as cli

assert not array_modules(), array_modules()
for config in sys.argv[1:3]:
    for flags in ([], ["--format", "json"]):
        assert cli.main(["bound", "--config", config, *flags]) == 0
        assert not array_modules(), array_modules()
assert "argparse" not in sys.modules  # the command line is read from the VERBS table
assert cli.main(["verify", "--suite", "windows"]) == 0
assert not array_modules(), array_modules()
assert cli.main(["reference", "--config", sys.argv[3]]) == 0
assert "numpy" in sys.modules and "scipy.linalg" in sys.modules
"""

# one verb on the configuration given, after which neither numpy nor scipy is loaded
FLOAT_VERB = ARRAY_MODULES + """
import salpeter_afm.cli as cli

assert cli.main([sys.argv[1], "--config", sys.argv[2]]) == 0
assert not array_modules(), array_modules()
"""

LAZY_ARRAYS = ARRAY_MODULES + """
from salpeter_afm import PowerLawPotential

assert not array_modules(), array_modules()
values = PowerLawPotential.funnel(1.2, 0.2).value([0.5, 1.0, 2.0])
assert "numpy" in sys.modules
import numpy as np

r = np.array([0.5, 1.0, 2.0])
assert type(values) is np.ndarray and values.shape == (3,), values
assert values.tolist() == (np.zeros(3) + -1.0 * 1.2 * r**-1.0 + 1.0 * 0.2 * r**1.0).tolist(), values
"""

Q_NUMERIC = """
import sys
from salpeter_afm import QuantumState, core

assert 1.0 < core.q_numeric(0.5, QuantumState(0, 0)).value < 1.5
assert "scipy.linalg" in sys.modules
unused = sorted(m for m in sys.modules if m.startswith(("scipy.sparse", "scipy.fft")))
assert not unused, unused
"""

# every public name resolves, and neither they nor the oracle, the reference and the verification suites load scipy
SURFACE = ARRAY_MODULES + """
import salpeter_afm

names = salpeter_afm.__all__
listed = dir(salpeter_afm)
assert all(name in listed for name in names), sorted(set(names) - set(listed))
for name in names:
    getattr(salpeter_afm, name)
namespace = {}
exec("from salpeter_afm import *", namespace)
assert set(names) <= set(namespace), sorted(set(names) - set(namespace))
from salpeter_afm import energy_from_q, sse_eigenvalue
try:
    salpeter_afm.no_such_name
except AttributeError as err:
    assert "no_such_name" in str(err)
else:
    raise AssertionError("an unknown attribute resolved")
from salpeter_afm import oracle, reference, verification

assert "numpy" in sys.modules
assert not [m for m in array_modules() if m.startswith("scipy")], array_modules()
"""


# one verify suite, after which the roots of the array modules loaded are printed
VERIFY_SUITE = ARRAY_MODULES + """
import salpeter_afm.cli as cli

assert cli.main(["verify", "--suite", sys.argv[1]]) == 0
print(sorted({m.split(".")[0] for m in array_modules()} | ({"scipy.linalg"} & set(sys.modules))))
"""


def _python(code, *args, cwd):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-c", code, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )


def _run_verb(tmp_path, verb, config):
    path = tmp_path / f"{verb}.json"
    path.write_text(json.dumps(config))
    return _python(FLOAT_VERB, verb, str(path), cwd=tmp_path)


def test_bound_imports_no_scipy_and_later_verbs_load_it(tmp_path):
    paths = []
    for name, config in (("coulomb", BOUND_COULOMB), ("p2", BOUND_P2), ("reference", REFERENCE_COULOMB)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(config))
        paths.append(str(path))
    run = _python(COLD_START, *paths, cwd=tmp_path)
    assert run.returncode == 0, run.stderr
    assert "reference mass M = " in run.stdout
    assert "checks passed" in run.stdout


def test_public_surface_resolves_lazily(tmp_path):
    run = _python(SURFACE, cwd=tmp_path)
    assert run.returncode == 0, run.stderr


def test_mass_scan_without_the_reference_imports_no_scipy(tmp_path):
    run = _run_verb(tmp_path, "scan", SCAN_P_WAVE)
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("m,M_afm_Q1,M_afm_Q2,M_ref,M_ur,M_nr")


def test_s_wave_mass_scan_takes_the_airy_zeros_without_scipy(tmp_path):
    run = _run_verb(tmp_path, "scan", SCAN_S_WAVE)
    assert run.returncode == 0, run.stderr
    rows = run.stdout.splitlines()
    assert rows[0] == "m,M_afm_Q1,M_afm_Q2,M_ref,M_ur,M_nr"
    assert len(rows) == 22 and all(row.split(",")[1] != "n/a" for row in rows[1:])


def test_q_numeric_loads_no_sparse_or_fft_module(tmp_path):
    run = _python(Q_NUMERIC, cwd=tmp_path)
    assert run.returncode == 0, run.stderr


def test_q_scan_imports_neither_numpy_nor_scipy(tmp_path):
    run = _run_verb(tmp_path, "scan", SCAN_Q)
    assert run.returncode == 0, run.stderr
    rows = run.stdout.splitlines()
    assert rows[0] == "Q,r0_am,M_over_m" and len(rows) == 10


def test_analytic_qtable_imports_neither_numpy_nor_scipy(tmp_path):
    run = _run_verb(tmp_path, "qtable", QTABLE_ANALYTIC)
    assert run.returncode == 0, run.stderr
    assert "analytic_p1" in run.stdout


def test_steep_bound_imports_neither_numpy_nor_scipy(tmp_path):
    run = _run_verb(tmp_path, "bound", BOUND_STEEP)
    assert run.returncode == 0, run.stderr
    assert "mass          M   = " in run.stdout


def test_array_paths_load_numpy_when_they_run(tmp_path):
    run = _python(LAZY_ARRAYS, cwd=tmp_path)
    assert run.returncode == 0, run.stderr


@pytest.mark.parametrize(
    "suite,loaded",
    [
        ("windows", []),
        ("linear-limits", []),
        ("closed-forms", ["numpy"]),
        ("residuals", ["numpy"]),
        ("coulomb-paper", ["numpy", "scipy", "scipy.linalg"]),
    ],
)
def test_verify_suites_load_what_their_checks_use(tmp_path, suite, loaded):
    run = _python(VERIFY_SUITE, suite, cwd=tmp_path)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == repr(loaded)
