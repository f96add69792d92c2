import argparse
import contextlib
import copy
import csv
import io
import json
import math
import re
import string
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from salpeter_afm import GlobalQ, coulomb_closed, linear_closed, linear_ur_expansion, q_exact
from salpeter_afm.cli import (
    SCAN_MAX_POINTS,
    SCHEMA,
    VERBS,
    ConfigError,
    _check,
    _scan_values,
    load_config,
    main,
    parse_argv,
)
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


QTABLE_FLAT_STATES = {"mode": "qtable", "qtable": {"p_values": [2], "states": [0]}}
Q_SWEEP_NEGATIVE = {
    "mode": "scan",
    "masses": [0.0, 1.0],
    "potential": [{"alpha": 1.2, "exponent": -1}],
    "scan": {"variable": "Q", "values": [0.5, -1.0]},
}


MASS_SCAN = {
    "mode": "scan",
    "masses": [0.0, 1.0],
    "potential": [{"alpha": 0.2, "exponent": 1}],
    "state": {"n": 0, "l": 0},
    "scan": {"variable": "m", "values": [0.5]},
}


class TestConfigErrorTexts:
    """The whole message of a rejected configuration, path and reader's text included."""

    @pytest.mark.parametrize(
        "config, message",
        [
            pytest.param(
                dict(BOUND_COULOMB, potential=[{"alpha": 1.2, "exponent": -1}, {"alpha": "x", "exponent": 1}]),
                "configuration.potential[1].alpha must be a finite number",
                id="nested-list-item",
            ),
            pytest.param(
                dict(BOUND_COULOMB, state={"n": 0, "spin": 1}), "unknown key 'spin' in configuration.state",
                id="unknown-nested-key",
            ),
            pytest.param(
                QTABLE_FLAT_STATES, "configuration.qtable.states[0] must be a list", id="list-in-a-list",
            ),
            pytest.param([1, 2], "configuration must be a JSON object", id="top-level-list"),
            pytest.param(dict(BOUND_COULOMB, q=True), "configuration.q must be a finite number", id="boolean-number"),
        ],
    )
    def test_schema_message(self, config, message):
        with pytest.raises(ConfigError) as info:
            _check(config, SCHEMA)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "data, reason",
        [
            pytest.param(
                b'{"mode": "bound", "q": 1.0, "note\xff": 1}',
                "'utf-8' codec can't decode byte 0xff in position 33: invalid start byte",
                id="invalid-utf8",
            ),
            pytest.param(
                b'{"mode": "bou\xe2\x82',
                "'utf-8' codec can't decode bytes in position 13-14: unexpected end of data",
                id="truncated-utf8",
            ),
            pytest.param(
                b"\xef\xbb\xbf" + json.dumps(BOUND_COULOMB).encode(),
                "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)",
                id="utf8-bom",
            ),
            # line ends count as one character, whichever of \r\n, \r or \n they are
            pytest.param(
                b'{\r\n "mode": "bound",\r\n "q": \r\n}', "Expecting value: line 4 column 1 (char 27)", id="crlf",
            ),
            pytest.param(b'{\r "mode": "bound",\r "q": \r}', "Expecting value: line 4 column 1 (char 27)", id="cr"),
            pytest.param(
                b'{"mode": "bo\r\nund"}', "Invalid control character at: line 1 column 13 (char 12)",
                id="crlf-in-a-string",
            ),
            pytest.param(b"", "Expecting value: line 1 column 1 (char 0)", id="empty"),
        ],
    )
    def test_unreadable_file(self, tmp_path, monkeypatch, capsys, data, reason):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "config.json").write_bytes(data)
        assert main(["bound", "--config", "config.json"]) == 3
        assert capsys.readouterr().err == f"configuration error: cannot read configuration config.json: {reason}\n"

    def test_missing_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["bound", "--config", "missing.json"]) == 3
        reason = "[Errno 2] No such file or directory: 'missing.json'"
        assert capsys.readouterr().err == f"configuration error: cannot read configuration missing.json: {reason}\n"

    def test_schema_message_through_main(self, tmp_path, capsys):
        assert main(["qtable", "--config", write_config(tmp_path, QTABLE_FLAT_STATES)]) == 3
        assert capsys.readouterr().err == "configuration error: configuration.qtable.states[0] must be a list\n"

    @pytest.mark.parametrize(
        "verb, config, message",
        [
            pytest.param(
                "bound", {k: v for k, v in BOUND_COULOMB.items() if k != "masses"}, "missing key 'masses'",
                id="missing-key",
            ),
            pytest.param(
                "bound", dict(BOUND_COULOMB, masses=[0, 1, 2]), "masses must be a pair [m1, m2]", id="mass-triple",
            ),
            pytest.param("scan", Q_SWEEP_NEGATIVE, "Q must be finite and > 0, got -1.0", id="q-sweep-value"),
            # the mass is checked before any Q value
            pytest.param(
                "scan", dict(Q_SWEEP_NEGATIVE, masses=[0.0, 0.0]), "the Q sweep needs one positive mass",
                id="q-sweep-mass-first",
            ),
            pytest.param("bound", dict(BOUND_COULOMB, format="csv"), "bound writes only text, json", id="format-csv"),
            pytest.param(
                "scan", dict(MASS_SCAN, scan={"variable": "m", "start": 0.0, "stop": 1.0, "step": 0.0}),
                "scan step must be positive", id="scan-step-zero",
            ),
            pytest.param(
                "scan", dict(MASS_SCAN, potential=[{"alpha": 1.2, "exponent": -1}]),
                "the mass scan requires a single potential term with exponent 1", id="mass-scan-single-term",
            ),
            pytest.param(
                "scan", dict(MASS_SCAN, scan={"variable": "m", "values": [0.5, -1.0]}),
                "scan masses must be non-negative", id="negative-scan-mass",
            ),
        ],
    )
    def test_value_message(self, tmp_path, capsys, verb, config, message):
        assert main([verb, "--config", write_config(tmp_path, config)]) == 3
        assert capsys.readouterr() == ("", f"configuration error: {message}\n")


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_json_blocks_are_valid_configurations(tmp_path):
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    for i, block in enumerate(blocks):
        path = tmp_path / f"readme-{i}.json"
        path.write_text(block)
        mode = json.loads(block)["mode"]
        assert load_config(*parse_argv([mode, "--config", str(path)]))["mode"] == mode


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

    def test_power_overflowing_at_the_cell_end_json(self, tmp_path, capsys):
        # r**20001 goes from ~1 past the double range within the root's grid cell: +inf at that end
        config = dict(BOUND_COULOMB, masses=[0.0, 1.0], potential=[{"alpha": 1e-254, "exponent": 20000}], q=1.0)
        assert main(["bound", "--config", write_config(tmp_path, config), "--format", "json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["r0"] == 1.0291905883170291
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
        # two massive particles: no heavy-light window to hint at
        assert main(["bound", "--config", write_config(tmp_path, dict(config, masses=[1.0, 1.0]))]) == 2
        message = "virial balance has no root: the interaction drives the system to r0 -> 0 at Q=0.5"
        assert capsys.readouterr().err == f"error: {message}\n"

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

    def test_tiny_slope_with_reference_writes_no_warning(self, tmp_path):
        # the reference's round-off cap on the basis scale would overflow at b = 1e-300
        config = self.scan_config(include_reference=True)
        config["potential"] = [{"alpha": 1e-300, "exponent": 1}]
        out = tmp_path / "fig.csv"
        assert main(["scan", "--config", write_config(tmp_path, config), "--out", str(out)]) == 0
        for row in list(csv.reader(out.read_text().splitlines()))[1:]:
            assert 0.0 < float(row[3]) <= min(float(row[1]), float(row[2]))

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

    def test_reference_cell_names_its_error(self, tmp_path, capsys):
        # level n = 200 needs rungs past the ladder's 160 functions: the row keeps its other columns
        config = dict(MASS_SCAN, state={"n": 200, "l": 0})
        assert main(["scan", "--config", write_config(tmp_path, config)]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[3] == "ConvergenceFailure"
        assert all(math.isfinite(float(cell)) for cell in row[:3] + row[4:])

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

    def test_q_sweep_radius_beyond_double_range_is_a_row(self, tmp_path, capsys):
        # r0 = (Q/m) sqrt(a(2Q - a))/(a - Q) overflows at m = 1e-308
        config = {
            "mode": "scan",
            "masses": [0, 1e-308],
            "potential": [{"alpha": 1.2, "exponent": -1}],
            "state": {"n": 0, "l": 0},
            "scan": {"variable": "Q", "values": [1.0]},
        }
        assert main(["scan", "--config", write_config(tmp_path, config)]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "1,DomainError,DomainError"

    @pytest.mark.parametrize("m", [5e-324, 1e-308, 1.0, 1e154, 1.7976931348623157e308])
    @pytest.mark.parametrize("alpha", [1e-320, 1e-300, 1.2, 1e300, 1.7976931348623157e308])
    def test_finite_extremes_never_raise(self, tmp_path, capsys, m, alpha):
        q_sweep = {
            "mode": "scan",
            "masses": [0.0, m],
            "potential": [{"alpha": alpha, "exponent": -1}],
            "state": {"n": 0, "l": 0},
            "scan": {"variable": "Q", "values": [alpha * f for f in (0.4, 0.5000001, 0.75, 0.9999999)]},
        }
        mass_scan = dict(self.scan_config(), potential=[{"alpha": alpha, "exponent": 1}])
        mass_scan["scan"]["values"] = [m]
        assert main(["scan", "--config", write_config(tmp_path, q_sweep)]) == 0
        assert main(["scan", "--config", write_config(tmp_path, mass_scan)]) in (0, 2)
        out = capsys.readouterr().out
        assert "inf" not in out and "nan" not in out

    def test_grid_is_start_plus_index_times_step(self, tmp_path, capsys):
        config = self.scan_config()
        config["scan"] = {"variable": "m", "start": 0.0, "stop": 100.0, "step": 0.1, "include_reference": False}
        assert main(["scan", "--config", write_config(tmp_path, config)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 1001
        values = _scan_values(config["scan"])
        assert values[-1] == 100.0  # repeated x += step ends at 99.999999999999
        assert values == [i * 0.1 for i in range(1001)]

    @pytest.mark.parametrize("start, stop, step", [(0.0, -1.0, 0.25), (0.0, -1e308, 0.25), (1e308, -1e308, 1.0)])
    def test_stop_below_start_is_an_empty_grid(self, tmp_path, capsys, start, stop, step):
        # (stop - start)/step is -inf for the last two, which floor cannot take
        assert _scan_values({"start": start, "stop": stop, "step": step}) == []
        config = dict(self.scan_config(), scan={"variable": "m", "start": start, "stop": stop, "step": step})
        assert main(["scan", "--config", write_config(tmp_path, config)]) == 0
        assert capsys.readouterr().out.splitlines() == ["m,M_afm_Q1,M_afm_Q2,M_ref,M_ur,M_nr"]

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

    def test_numeric_q_at_l_beyond_a_c_long(self, tmp_path, capsys):
        # the oracle's p^2 matrix once converted such an l to a C long and overflowed
        config = {"mode": "qtable", "qtable": {"p_values": [1], "states": [[0, 9.3e18]]}}
        assert main(["qtable", "--config", write_config(tmp_path, config), "--format", "json"]) == 0
        (row,) = json.loads(capsys.readouterr().out)
        assert row["source"] == "numeric(p=1)" and row["q"] == pytest.approx(9.3e18, rel=1e-14)

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
        # n = 160 has no rung; l = 85 is cross-checked at p = 2 and p = -1
        assert [row["cross_check"] is None for row in rows] == [False, True, False, False, True, False]
        assert rows[0]["cross_check"] < 1e-6 and rows[3]["cross_check"] < 1e-6

    @pytest.mark.parametrize("l", [85, 200])
    def test_half_power_past_l_84_has_a_numeric_q(self, tmp_path, capsys, l):
        # no analytic Q; the connection-formula r^0.5 matrix is finite at any l, so the oracle answers
        config = {"mode": "qtable", "format": "json", "qtable": {"p_values": [0.5], "states": [[0, l]]}}
        code = main(["qtable", "--config", write_config(tmp_path, config)])
        [row] = json.loads(capsys.readouterr().out)
        assert code == 0
        assert row["source"].startswith("numeric") and row["cross_check"] is None
        assert l + 1.0 < row["q"] < l + 1.5


class TestReferenceCommand:
    @pytest.mark.parametrize("l", [84, 200])
    def test_linear_reference_past_the_gamma_limit(self, tmp_path, capsys, l):
        # the closed-form x matrix needs no Gamma function; the level lies below the p = 2 bound
        config = dict(REFERENCE_COULOMB, potential=[{"alpha": 0.2, "exponent": 1}], state={"n": 0, "l": l},
                      format="json")
        assert main(["reference", "--config", write_config(tmp_path, config)]) == 0
        mass = json.loads(capsys.readouterr().out)["mass"]
        state = QuantumState(0, l)
        assert 11.568674 < mass < linear_closed(1.0, 0.2, q_exact(2, state)).mass


    def test_coulomb_benchmark_text(self, tmp_path, capsys):
        assert main(["reference", "--config", write_config(tmp_path, REFERENCE_COULOMB)]) == 0
        assert capsys.readouterr().out == "reference mass M = 0.844613198 GeV\n"


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


class TestCachedParser:
    """Each call parses its command line afresh: no flag, error or help carries over to the next."""

    def test_format_does_not_carry_over(self, tmp_path, capsys):
        config = write_config(tmp_path, BOUND_COULOMB)
        assert main(["bound", "--config", config, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["mass"] > 0
        assert main(["bound", "--config", config]) == 0
        assert capsys.readouterr().out.startswith("mass          M   = ")

    def test_out_does_not_carry_over(self, tmp_path, capsys):
        config = write_config(tmp_path, BOUND_COULOMB)
        out = tmp_path / "bound.txt"
        assert main(["bound", "--config", config, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert main(["bound", "--config", config]) == 0
        assert capsys.readouterr().out == out.read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "bad",
        [
            ["bound"],
            ["bound", "--config", "CONFIG", "--format", "xml"],
            ["bound", "--config", "CONFIG", "--suite", "windows"],
            ["fit", "--config", "CONFIG"],
        ],
        ids=["missing-config", "bad-choice", "other-verbs-flag", "unknown-verb"],
    )
    def test_usage_error_leaves_the_next_call_alone(self, tmp_path, capsys, bad):
        config = write_config(tmp_path, BOUND_COULOMB)
        assert main([config if arg == "CONFIG" else arg for arg in bad]) == 3
        assert "usage: salpeter-afm" in capsys.readouterr().err
        assert main(["bound", "--config", config]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("mass          M   = ") and captured.err == ""

    def test_top_level_help_lists_every_verb(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        listed = capsys.readouterr().out
        assert all(verb in listed for verb in VERBS)
        assert main(["bound", "--config", write_config(tmp_path, BOUND_COULOMB)]) == 0

    @pytest.mark.parametrize("verb", list(VERBS))
    def test_verb_help_lists_every_flag(self, capsys, verb):
        with pytest.raises(SystemExit) as exit_info:
            main([verb, "--help"])
        assert exit_info.value.code == 0
        listed = capsys.readouterr().out
        flags = ["--config", "--out"] + ["--format"] * (len(VERBS[verb][1]) > 1) + ["--suite"] * (verb == "verify")
        assert set(re.findall(r"--\w+", listed)) == {"--help", *flags}



class _ArgparseTree(argparse.ArgumentParser):
    """The argparse tree that parsed the verbs before parse_argv, kept as its oracle."""

    def error(self, message):
        raise ConfigError(f"{message}\n{self.format_usage().rstrip()}")


def argparse_tree() -> argparse.ArgumentParser:
    parser = _ArgparseTree(prog="salpeter-afm")
    sub = parser.add_subparsers(dest="command", required=True)
    for verb, (_, formats) in VERBS.items():
        cmd = sub.add_parser(verb)
        cmd.add_argument("--config", required=verb != "verify", help="path to a JSON configuration")
        cmd.add_argument("--out", help="write output to this path instead of stdout")
        if len(formats) > 1:
            cmd.add_argument("--format", choices=formats, help="output format")
        if verb == "verify":
            cmd.add_argument("--suite", help="suite name (default: all)")
    return parser


def argparse_argv(argv):
    args = argparse_tree().parse_args(argv)
    flags = {dest: value for dest, value in vars(args).items() if value is not None}
    return flags.pop("command"), flags


def outcome(parse, argv):
    """("parsed", verb, flags), ("refused", the message's first line) or ("help", exit code)."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return ("parsed", *parse(argv))
    except ConfigError as err:
        assert "\nusage: salpeter-afm " in str(err)
        return "refused", str(err).splitlines()[0]
    except SystemExit as err:
        return "help", err.code


# command lines on which parse_argv must read as argparse read them: the same verb and flags,
# the same refusal (its first line), or help
SAME_AS_ARGPARSE = [
    "", "bound", "fit", "fit --config c", "-x", "-x bound", "--config c bound", "-- bound --config c",
    "--bogus bound --config c", "-1 bound", "--bogus -1 bound --config c",
    "bound --config c", "bound --config=c", "bound --c c", "bound --co=c --fo json", "bound --config=c=d",
    "bound --config c --config d", "bound --config c --out o --out p", "bound --config=",
    "bound --config -1", "bound --config -", "bound --config -1.5", "bound --config -.5", "bound --config=-x",
    "bound --config -1e3", "bound --config -x", "bound --config --", "bound --config -- c", "bound --config",
    "bound -- --config c", "bound -- c", "bound --config c --", "bound --config c -- x", "bound -c x",
    "bound --config c x", "bound --config c -", "bound --config c -1", "bound --config c -x", "bound --config c ---x",
    "bound --config c --bogus", "bound --config c --bogus x", "bound bound --config c",
    "bound --config c --suite windows", "bound --config c --format xml", "bound --format xml",
    "bound --config c --format", "bound --help=x", "bound --help=", "--help=x", "--he=", "--=x",
    "reference --config c --format json", "scan --config c --out o", "scan --config c --format csv",
    "qtable --config c --format csv", "qtable --config c --format=json", "qtable --config c --fo text",
    "verify", "verify --s windows", "verify --suite=", "verify --suite", "verify --suite -w", "verify --config",
    "verify --format xml", "verify --suite windows --format json --out o --config c",
    "-h", "--h", "--help", "--he bound", "-x -h", "bound -h", "bound --config c -h", "bound --config c --h",
    "bound -h --config", "scan --help", "verify -h --suite", "bound --format xml -h", "bound --config -h",
    "bound --config -1e3 -h",
]
# junk flags both refuse, each with its own message: argparse reads -hx and -h=x as -h given a
# value, and calls --=x ambiguous; parse_argv reports the first two and, after a verb, the third as
# unrecognized arguments
REFUSED_BOTH = ["-hx", "bound --config c -hx", "bound --config c -h=x", "bound --=x"]


@pytest.mark.parametrize("line", SAME_AS_ARGPARSE)
def test_parse_argv_reads_as_argparse(line):
    assert outcome(parse_argv, line.split()) == outcome(argparse_argv, line.split())


@pytest.mark.parametrize("line", REFUSED_BOTH)
def test_parse_argv_refuses_where_argparse_refuses(line):
    assert outcome(parse_argv, line.split())[0] == outcome(argparse_argv, line.split())[0] == "refused"


@pytest.mark.parametrize("argv", [[], *([verb] for verb in VERBS)])
def test_help_lists_what_argparse_lists(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "200")  # argparse wraps its help to the terminal's width
    with pytest.raises(SystemExit):
        argparse_tree().parse_args([*argv, "--help"])
    expected = capsys.readouterr().out
    with pytest.raises(SystemExit) as exit_info:
        parse_argv([*argv, "--help"])
    listed = capsys.readouterr().out
    assert exit_info.value.code == 0
    assert set(re.findall(r"--\w+|\{[\w,]+\}", listed)) == set(re.findall(r"--\w+|\{[\w,]+\}", expected))
    help_lines = re.findall(r"  (?:--\w+ \S+|-h, --help) +(\S.*)", expected)
    assert help_lines and all(text in listed for text in help_lines)


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
        pytest.param(  # the root sqrt(2Q/alpha) = 1.41 lies where 1e308 r^2 is beyond the double range
            "bound", dict(BOUND_COULOMB, masses=[0.0, 0.0], potential=[{"alpha": 1e308, "exponent": 1}], q=1e308),
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
        # the r^lam entries of the basis leave the double range
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
        pytest.param(  # M_nr = m + M1 + M1^2/(8m) overflows at a subnormal mass
            "scan", dict(SCAN_LINEAR, scan=dict(SCAN_LINEAR["scan"], values=[1e-320])), [], 2,
            id="scan-mass-nr-overflow",
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
        # a Q beyond the double range is a domain error, whichever verb needs it
        pytest.param(
            "scan", dict(SCAN_LINEAR, state={"n": 1e308}, scan=dict(SCAN_LINEAR["scan"], values=[0.5])), [], 2,
            id="scan-mass-q-overflows",
        ),
        pytest.param(
            "bound", dict(BOUND_WITHOUT_Q, p=-1, state={"n": 1e308, "l": 1e308}), [], 2, id="bound-q-pm1-overflows",
        ),
        pytest.param("bound", dict(BOUND_WITHOUT_Q, p=2, state={"n": 1e308}), [], 2, id="bound-q-p2-overflows"),
        pytest.param(
            "qtable", {"mode": "qtable", "qtable": {"p_values": [2], "states": [[1e308, 0]]}}, [], 2,
            id="qtable-q-p2-overflows",
        ),
        pytest.param(  # the oracle's variational radius at the seed Q = 1e300 leaves the double range
            "bound", dict(BOUND_WITHOUT_Q, p=1.5, state={"n": 0, "l": 1e300}), [], 2, id="bound-numeric-q-huge-l",
        ),
        pytest.param(  # the oracle's basis scale at p = -1.999 underflows: its kinetic term leaves the double range
            "bound", dict(BOUND_WITHOUT_Q, p=-1.999), [], 2, id="bound-numeric-q-p-near-minus-2",
        ),
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
