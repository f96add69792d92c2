import copy
import csv
import json
import math
import re
import string
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from salpeter_afm import GlobalQ, coulomb_closed, linear_closed, linear_ur_expansion, q_exact
from salpeter_afm.cli import SCAN_MAX_POINTS, ConfigError, _build_parser, _scan_values, load_config, main
from salpeter_afm.types import QuantumState


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


BOUND_COULOMB = {
    "mode": "bound",
    "masses": [0.0, 1.0],
    "potential": [{"alpha": 1.2, "exponent": -1}],
    "state": {"n": 0, "l": 0},
    "q": 1.0,
}


class TestRunConfig:
    """The run configuration is checked on load, through main; rejections exit 3."""

    def test_unknown_top_level_key(self, tmp_path, capsys):
        config = write_config(tmp_path, {"mode": "bound", "massses": [1, 1]})
        assert main(["bound", "--config", config]) == 3
        assert "unknown key" in capsys.readouterr().err

    def test_unknown_nested_key(self, tmp_path, capsys):
        config = write_config(tmp_path, {"mode": "bound", "state": {"n": 0, "spin": 1}})
        assert main(["bound", "--config", config]) == 3
        assert "unknown key" in capsys.readouterr().err

    def test_p_and_q_are_exclusive(self, tmp_path, capsys):
        config = write_config(tmp_path, {"mode": "bound", "p": -1, "q": 1.0})
        assert main(["bound", "--config", config]) == 3
        assert "not both" in capsys.readouterr().err

    def test_bad_mode(self, tmp_path, capsys):
        assert main(["bound", "--config", write_config(tmp_path, {"mode": "fit"})]) == 3
        assert "does not match" in capsys.readouterr().err


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_json_blocks_are_valid_configurations(tmp_path):
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    for i, block in enumerate(blocks):
        path = tmp_path / f"readme-{i}.json"
        path.write_text(block)
        mode = json.loads(block)["mode"]
        assert load_config(_build_parser().parse_args([mode, "--config", str(path)]))["mode"] == mode


class TestBoundCommand:
    def test_coulomb_benchmark_text(self, tmp_path, capsys):
        code = main(["bound", "--config", write_config(tmp_path, BOUND_COULOMB)])
        out = capsys.readouterr().out
        assert code == 0
        assert "0.979795897" in out
        assert "upper bound       = yes (proportional)" in out

    def test_coulomb_benchmark_json(self, tmp_path, capsys):
        code = main(
            ["bound", "--config", write_config(tmp_path, BOUND_COULOMB), "--format", "json"]
        )
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["mass"] == pytest.approx(0.9797958971132713, rel=1e-12)
        assert record["certified_upper_bound"] is True
        assert max(record["residuals"].values()) < 1e-10

    def test_momentum_beyond_1e154_json(self, tmp_path, capsys):
        # p0 = 7.1e154, whose square overflows in the virial residual
        config = dict(BOUND_COULOMB, masses=[0.0, 0.0], potential=[{"alpha": 1e10, "exponent": 1}], q=1e300)
        assert main(["bound", "--config", write_config(tmp_path, config), "--format", "json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["mass"] == pytest.approx(2.0 * math.sqrt(2.0 * 1e10) * 1e150, rel=1e-12)
        assert max(record["residuals"].values()) < 1e-10

    def test_no_binding_exits_2_with_window(self, tmp_path, capsys):
        config = dict(BOUND_COULOMB, q=2.0)
        code = main(["bound", "--config", write_config(tmp_path, config)])
        err = capsys.readouterr().err
        assert code == 2
        assert "Q >= a" in err
        assert "a/2 < Q < a" in err

    def test_collapse_exits_2(self, tmp_path, capsys):
        config = dict(BOUND_COULOMB, q=0.5)
        code = main(["bound", "--config", write_config(tmp_path, config)])
        assert code == 2
        assert "collapse" in capsys.readouterr().err.lower()

    def test_linear_massless_from_p(self, tmp_path, capsys):
        config = {
            "mode": "bound",
            "masses": [0.0, 0.0],
            "potential": [{"alpha": 0.2, "exponent": 1}],
            "state": {"n": 0, "l": 0},
            "p": 2,
        }
        code = main(["bound", "--config", write_config(tmp_path, config)])
        out = capsys.readouterr().out
        assert code == 0
        assert "1.54919334" in out  # 2 sqrt(2 b Q) at Q = 1.5

    def test_bad_config_exits_3(self, tmp_path, capsys):
        code = main(["bound", "--config", write_config(tmp_path, {"mode": "bound"})])
        assert code == 3

    def test_mode_mismatch_exits_3(self, tmp_path):
        assert main(["scan", "--config", write_config(tmp_path, BOUND_COULOMB)]) == 3


class TestScanCommand:
    def scan_config(self, include_reference=False):
        return {
            "mode": "scan",
            "masses": [0.0, 1.0],
            "potential": [{"alpha": 0.2, "exponent": 1}],
            "state": {"n": 0, "l": 0},
            "scan": {
                "variable": "m",
                "values": [0.0, 0.5, 1.0],
                "include_reference": include_reference,
            },
        }

    def test_mass_scan_columns_match_formulas(self, tmp_path):
        out = tmp_path / "fig.csv"
        code = main(["scan", "--config", write_config(tmp_path, self.scan_config()), "--out", str(out)])
        assert code == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["m", "M_afm_Q1", "M_afm_Q2", "M_ref", "M_ur", "M_nr"]
        q1, q2 = q_exact(1, QuantumState(0)), q_exact(2, QuantumState(0))
        for row in rows[1:]:
            m = float(row[0])
            assert float(row[1]) == pytest.approx(linear_closed(m, 0.2, q1).mass, rel=1e-8)
            assert float(row[2]) == pytest.approx(linear_closed(m, 0.2, q2).mass, rel=1e-8)
            assert row[3] == ""  # reference disabled
            assert float(row[4]) == pytest.approx(linear_ur_expansion(m, 0.2, q2), rel=1e-8)
        assert rows[1][5] == "n/a"  # no nonrelativistic expansion at m = 0

    def test_heavy_mass_row_is_finite(self, tmp_path, capsys):
        # m*m is finite at 1e150, but the closed form's intermediate products were not
        config = self.scan_config()
        config["scan"]["values"] = [1e150]
        assert main(["scan", "--config", write_config(tmp_path, config)]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert all(math.isfinite(float(cell)) for cell in row if cell)

    def test_deterministic_output(self, tmp_path):
        config = write_config(tmp_path, self.scan_config())
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["scan", "--config", config, "--out", str(a)])
        main(["scan", "--config", config, "--out", str(b)])
        assert a.read_text() == b.read_text()

    def test_empty_grid_gives_header_only(self, tmp_path, capsys):
        config = self.scan_config()
        config["scan"]["values"] = []
        code = main(["scan", "--config", write_config(tmp_path, config)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.strip() == "m,M_afm_Q1,M_afm_Q2,M_ref,M_ur,M_nr"

    def test_q_sweep_with_window_markers(self, tmp_path, capsys):
        config = {
            "mode": "scan",
            "masses": [0.0, 1.0],
            "potential": [{"alpha": 1.2, "exponent": -1}],
            "state": {"n": 0, "l": 0},
            "scan": {"variable": "Q", "values": [0.5, 0.8, 1.0, 1.3]},
        }
        code = main(["scan", "--config", write_config(tmp_path, config)])
        out = capsys.readouterr().out
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        assert rows[0] == ["Q", "r0_am", "M_over_m"]
        assert rows[1][1] == "CollapseDetected"
        assert rows[4][1] == "NoBoundState"
        sol = coulomb_closed(1.0, 1.2, GlobalQ.explicit(0.8, -1.0))
        assert float(rows[2][1]) == pytest.approx(sol.r0 / 1.2, rel=1e-8)
        assert float(rows[2][2]) == pytest.approx(sol.mass, rel=1e-8)

    def test_grid_is_start_plus_index_times_step(self, tmp_path, capsys):
        config = self.scan_config()
        config["scan"] = {"variable": "m", "start": 0.0, "stop": 100.0, "step": 0.1, "include_reference": False}
        assert main(["scan", "--config", write_config(tmp_path, config)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 1001
        values = _scan_values(config["scan"])
        assert values[-1] == 100.0  # repeated x += step ends at 99.999999999999
        assert values == [i * 0.1 for i in range(1001)]

    def test_grid_is_capped(self):
        assert len(_scan_values({"start": 1.0, "stop": float(SCAN_MAX_POINTS), "step": 1.0})) == SCAN_MAX_POINTS
        with pytest.raises(ConfigError, match="more than"):
            _scan_values({"start": 0.0, "stop": float(SCAN_MAX_POINTS), "step": 1.0})


class TestQtableCommand:
    def test_analytic_rows(self, tmp_path, capsys):
        config = {
            "mode": "qtable",
            "qtable": {"p_values": [2, -1], "states": [[0, 0], [1, 0], [2, 0]], "numeric": False},
        }
        code = main(["qtable", "--config", write_config(tmp_path, config)])
        out = capsys.readouterr().out
        assert code == 0
        assert "1.50000000" in out and "3.50000000" in out and "5.50000000" in out
        assert "analytic_pm1" in out

    def test_csv_format_with_cross_check(self, tmp_path, capsys):
        config = {
            "mode": "qtable",
            "qtable": {"p_values": [2], "states": [[0, 0]], "numeric": True},
        }
        code = main(["qtable", "--config", write_config(tmp_path, config), "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        assert rows[0] == ["p", "n", "l", "Q", "source", "cross_check"]
        assert float(rows[1][3]) == pytest.approx(1.5)
        assert float(rows[1][5]) < 1e-6


    def test_levels_beyond_the_oracle_keep_their_exact_q(self, tmp_path, capsys):
        config = {
            "mode": "qtable",
            "format": "json",
            "qtable": {"p_values": [2, -1], "states": [[0, 85], [160, 0], [0, 0]], "numeric": True},
        }
        code = main(["qtable", "--config", write_config(tmp_path, config)])
        rows = json.loads(capsys.readouterr().out)
        assert code == 0
        assert [row["q"] for row in rows] == [86.5, 321.5, 1.5, 86.0, 161.0, 1.0]
        assert [row["cross_check"] is None for row in rows] == [True, True, False] * 2


class TestVerifyCommand:
    def test_windows_suite_passes(self, capsys):
        code = main(["verify", "--suite", "windows"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS window-binds-inside" in out
        assert "FAIL" not in out

    def test_json_format(self, capsys):
        code = main(["verify", "--suite", "windows", "--format", "json"])
        records = json.loads(capsys.readouterr().out)
        assert code == 0
        assert all(r["passed"] for r in records)

    def test_unknown_suite_exits_3(self, capsys):
        assert main(["verify", "--suite", "nonsense"]) == 3


# ---------------------------------------------------------------------------
# every failure exits with its documented code: 2 domain error, 3 bad configuration

REFERENCE_COULOMB = dict(BOUND_COULOMB, mode="reference")
BOUND_WITHOUT_Q = {k: v for k, v in BOUND_COULOMB.items() if k != "q"}
SCAN_LINEAR = {
    "mode": "scan",
    "masses": [0.0, 1.0],
    "potential": [{"alpha": 0.2, "exponent": 1}],
    "state": {"n": 0, "l": 0},
    "scan": {"variable": "m", "values": [0.0, "half"], "include_reference": False},
}


def _with_1e400(config):
    """The configuration as JSON text, with each string "1e400" written as the
    number 1e400, which the JSON reader turns into inf."""
    return json.dumps(config).replace('"1e400"', "1e400")


@pytest.mark.parametrize(
    "verb, config, flags, code",
    [
        pytest.param("bound", dict(BOUND_COULOMB, masses=["heavy", 1.0]), [], 3, id="non-numeric-mass"),
        pytest.param("bound", dict(BOUND_COULOMB, state=3), [], 3, id="state-not-object"),
        pytest.param(
            "bound", dict(BOUND_COULOMB, potential=[{"alpha": "strong", "exponent": -1}]), [], 3,
            id="non-numeric-alpha",
        ),
        # the sine grid's options are gone: an unknown key and unknown flags
        pytest.param(
            "reference", dict(REFERENCE_COULOMB, grid={"points": 32, "box_radius": 10.0}), [], 3,
            id="removed-grid-section",
        ),
        pytest.param(
            "reference", REFERENCE_COULOMB, ["--grid-points", "32", "--box-radius", "10"], 3,
            id="removed-grid-flags",
        ),
        pytest.param(
            "reference", REFERENCE_COULOMB, ["--box-radius", "inf"], 3,
            id="removed-box-radius-flag",
        ),
        pytest.param(
            "reference", dict(REFERENCE_COULOMB, masses=[0.5, 1.0], sigma=2.0), [], 3,
            id="sigma-unequal-masses",
        ),
        pytest.param("bound", dict(BOUND_WITHOUT_Q, p=-2.5), [], 3, id="p-below-minus-2"),
        pytest.param("scan", SCAN_LINEAR, [], 3, id="non-numeric-scan-value"),
        pytest.param(  # ends in ConvergenceFailure on the N = 160 rung
            "qtable", {"mode": "qtable", "qtable": {"p_values": [-1.7], "states": [[0, 0]]}}, [], 2,
            id="qtable-no-convergence",
        ),
        pytest.param(  # no analytic Q and beyond the oracle's Laguerre basis
            "qtable", {"mode": "qtable", "qtable": {"p_values": [0.5], "states": [[0, 85]]}}, [], 2,
            id="qtable-l-85",
        ),
        pytest.param(
            "qtable", {"mode": "qtable", "qtable": {"p_values": [0.5], "states": [[160, 0]]}}, [], 2,
            id="qtable-n-160",
        ),
        pytest.param("bound", None, [], 3, id="bound-without-config"),
        pytest.param("bound", BOUND_COULOMB, ["--format", "csv"], 3, id="bound-format-csv"),
        pytest.param(
            "bound", json.dumps(dict(BOUND_COULOMB, state={"n": float("inf")})), [], 3,
            id="json-infinity",
        ),
        pytest.param("bound", BOUND_COULOMB, ["--out", "no-such-dir/bound.txt"], 3, id="unwritable-out"),
        pytest.param("bound", _with_1e400(dict(BOUND_COULOMB, masses=[0.0, "1e400"])), [], 3, id="bound-mass-1e400"),
        pytest.param(
            "reference", _with_1e400(dict(REFERENCE_COULOMB, masses=[0.0, "1e400"])), [], 3,
            id="reference-mass-1e400",
        ),
        pytest.param(
            "reference", _with_1e400(dict(REFERENCE_COULOMB, masses=[1.0, 1.0], sigma="1e400")), [], 3,
            id="reference-sigma-1e400",
        ),
        pytest.param(
            "scan", _with_1e400(dict(SCAN_LINEAR, scan=dict(SCAN_LINEAR["scan"], values=[0.5, "1e400"]))), [], 3,
            id="scan-value-1e400",
        ),
        pytest.param(
            "bound", json.dumps(dict(BOUND_COULOMB, masses=[0.0, 10**400])), [], 3, id="bound-mass-400-digits"
        ),
        pytest.param("bound", dict(BOUND_COULOMB, masses=[True, 1.0]), [], 3, id="boolean-mass"),
        pytest.param("bound", dict(BOUND_COULOMB, q=True), [], 3, id="boolean-q"),
        pytest.param("bound", dict(BOUND_COULOMB, state={"n": False}), [], 3, id="boolean-state-n"),
        pytest.param(
            "scan", dict(SCAN_LINEAR, scan=dict(SCAN_LINEAR["scan"], values=[0.5, True])), [], 3,
            id="boolean-scan-value",
        ),
        pytest.param(
            "scan", dict(SCAN_LINEAR, scan=dict(SCAN_LINEAR["scan"], values=[0.5], include_reference=0)), [], 3,
            id="switch-not-boolean",
        ),
        pytest.param(  # between two scan points r**20001 goes from ~1 past the double range
            "bound", dict(BOUND_COULOMB, masses=[0.0, 1.0], potential=[{"alpha": 1e-254, "exponent": 20000}], q=1.0),
            [], 2, id="balance-not-representable",
        ),
        pytest.param(
            "scan", dict(SCAN_LINEAR, scan=dict(SCAN_LINEAR["scan"], values=[1e300])), [], 2,
            id="scan-mass-1e300",
        ),
        pytest.param(  # the balance jumps to inf where 1e308 r^2 overflows, below the root
            "bound", dict(BOUND_COULOMB, masses=[0.0, 0.0], potential=[{"alpha": 1e308, "exponent": 1}], q=1e308),
            ["--format", "json"], 2, id="bound-overflow-jump",
        ),
        pytest.param(  # r0 = 1.10 and p0 = 7.3e307: the mass 8 p0/3 overflows
            "bound", dict(BOUND_COULOMB, masses=[0.0, 0.0], potential=[{"alpha": 3.64e307, "exponent": 3}], q=8e307),
            ["--format", "json"], 2, id="bound-mass-overflow",
        ),
        pytest.param(  # the kinetic term is built from m^2
            "reference", dict(REFERENCE_COULOMB, masses=[0.0, 1e300], potential=[{"alpha": 0.2, "exponent": 1}]),
            [], 2, id="reference-mass-1e300",
        ),
        # Gamma(2l+3), the Gauss-Laguerre weights or the r^lam entries of the basis leave the double range
        pytest.param(
            "reference", dict(REFERENCE_COULOMB, potential=[{"alpha": 0.2, "exponent": 1}], state={"n": 0, "l": 84}),
            [], 2, id="reference-l-84",
        ),
        pytest.param(
            "reference", dict(REFERENCE_COULOMB, potential=[{"alpha": 0.2, "exponent": 1}], state={"n": 0, "l": 200}),
            [], 2, id="reference-l-200",
        ),
        pytest.param(
            "reference", dict(REFERENCE_COULOMB, potential=[{"alpha": 0.2, "exponent": 150}]), [], 2,
            id="reference-exponent-150",
        ),
        pytest.param(
            "scan", dict(SCAN_LINEAR, scan={"variable": "m", "values": [1e300]}), [], 2,
            id="scan-mass-1e300-with-reference",
        ),
        pytest.param(  # m*m is finite, M_ur = M0 + 2 m^2/M0 is not
            "scan", dict(SCAN_LINEAR, scan=dict(SCAN_LINEAR["scan"], values=[1.2e154])), [], 2,
            id="scan-mass-ur-overflow",
        ),
        pytest.param(  # r0^4.127 underflows to 0 at the root, and with it r0 V'(r0)
            "bound",
            dict(BOUND_COULOMB, masses=[1.3e-22, 1.2e-34], potential=[{"alpha": 3.64e235, "exponent": 4.127}], q=8e-237),
            [], 2, id="bound-pull-underflows",
        ),
        # a string where a list or a number belongs is not read character by character or converted
        pytest.param(
            "scan", dict(SCAN_LINEAR, scan=dict(SCAN_LINEAR["scan"], values="12")), [], 3, id="scan-values-string",
        ),
        pytest.param(
            "qtable", {"mode": "qtable", "qtable": {"p_values": "21", "states": [[0, 0]], "numeric": False}}, [], 3,
            id="qtable-p-values-string",
        ),
        pytest.param("bound", dict(BOUND_COULOMB, q="1.0"), [], 3, id="q-string"),
        # a start/stop/step grid of more than SCAN_MAX_POINTS points, or an infinite count
        pytest.param(
            "scan", dict(SCAN_LINEAR, scan={"variable": "m", "start": -1e308, "stop": 1e308, "step": 1}), [], 3,
            id="scan-grid-count-overflows",
        ),
        pytest.param(
            "scan", dict(SCAN_LINEAR, scan={"variable": "m", "start": 0, "stop": 1e10, "step": 1e-5}), [], 3,
            id="scan-grid-1e15-points",
        ),
        pytest.param(
            "bound", dict(BOUND_COULOMB, potential=[{"alpha": "1.2", "exponent": -1}]), [], 3, id="alpha-string",
        ),
        pytest.param(
            "qtable", {"mode": "qtable", "qtable": {"p_values": [2], "states": [[0, 0]], "numeric": 1}}, [], 3,
            id="numeric-not-boolean",
        ),
        pytest.param("bound", dict(BOUND_COULOMB, out=5), [], 3, id="out-number"),
        pytest.param("scan", dict(SCAN_LINEAR, scan=dict(SCAN_LINEAR["scan"], variable=5)), [], 3, id="variable-number"),
        pytest.param("verify", {"mode": "verify", "suite": 7}, [], 3, id="suite-number"),
        pytest.param("bound", dict(BOUND_COULOMB, format=True), [], 3, id="format-boolean"),
    ],
)
def test_failure_exit_codes(tmp_path, monkeypatch, verb, config, flags, code):
    monkeypatch.chdir(tmp_path)
    argv = [verb, *flags]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(config if isinstance(config, str) else json.dumps(config))
        argv += ["--config", str(path)]
    assert main(argv) == code


# The README configs.  The scan and the qtable run without their eigensolvers,
# which take seconds per row; dropping those two switches is not a mutation here.
README_CONFIGS = {
    "bound": BOUND_COULOMB,
    "scan": {
        "mode": "scan",
        "masses": [0.0, 1.0],
        "potential": [{"alpha": 0.2, "exponent": 1}],
        "state": {"n": 0, "l": 0},
        "scan": {"variable": "m", "start": 0.0, "stop": 1.0, "step": 0.05, "include_reference": False},
    },
    "qtable": {
        "mode": "qtable",
        "qtable": {"p_values": [2, 1, -1], "states": [[0, 0], [1, 0]], "numeric": False},
    },
}
SPEED_SWITCHES = ("include_reference", "numeric")


def _paths(node, prefix=()):
    """Paths to every value nested in a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


@st.composite
def malformed_configs(draw):
    verb = draw(st.sampled_from(sorted(README_CONFIGS)))
    config = copy.deepcopy(README_CONFIGS[verb])
    text = json.dumps(config)
    kind = draw(st.sampled_from(["drop", "replace", "unknown_key", "truncate"]))
    if kind == "truncate":
        return verb, text[: draw(st.integers(0, len(text) - 1))]
    paths = list(_paths(config))
    if kind == "drop":
        paths = [p for p in paths if p[-1] not in SPEED_SWITCHES]
    if kind == "unknown_key":
        paths = [()] + [p for p in paths if isinstance(_at(config, p), dict)]
    path = draw(st.sampled_from(paths))
    if kind == "unknown_key":
        _at(config, path)["unknown_" + draw(st.text(string.ascii_lowercase, max_size=4))] = 1
    elif kind == "drop":
        del _at(config, path[:-1])[path[-1]]
    else:
        # a numeric string is no number, so it cannot start a slow numeric Q solve
        _at(config, path[:-1])[path[-1]] = draw(
            st.one_of(
                st.text(string.ascii_letters + string.digits + ".", max_size=6),
                st.lists(st.integers(), max_size=2),
                st.none(),
                st.integers(-10, -1),
                st.floats(-1e6, -2.0),
            )
        )
    return verb, json.dumps(config)


@given(malformed_configs())
@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_malformed_readme_configs_never_raise(tmp_path, verb_and_text):
    verb, text = verb_and_text
    path = tmp_path / "config.json"
    path.write_text(text)
    assert main([verb, "--config", str(path)]) in (0, 2, 3)
