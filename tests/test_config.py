"""Tests of the configuration file loaders."""

from __future__ import annotations

import math
import re
from pathlib import Path
from textwrap import dedent

import pytest

from caccsim.config import (
    load_axes,
    load_baselines,
    load_build_config,
    load_candidates,
    load_scenario,
    load_sweep,
)
from caccsim.controllers import GainPair, LinearFeedbackGains
from caccsim.gaintable import (
    AxisGrid,
    BuildConfig,
    CandidateSets,
    GainTable,
    TableFormatError,
    load_table,
    save_table,
)
from caccsim.metrics import ComfortWeights, SafetyMode

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(dedent(text), encoding="utf-8")
    return path


def test_shipped_build_config_matches_defaults():
    cfg = load_build_config(CONFIG_DIR / "build_default.ini")
    assert cfg.dt == 0.01
    assert cfg.t_max == 120.0
    assert cfg.comm_delay == 0.06
    assert cfg.leader_length == 5.0
    assert cfg.time_gap == 0.7
    assert cfg.safety_mode is SafetyMode.PROJECTED
    assert cfg.hold_window == 1.0
    assert cfg.thresholds.eta_r == 0.05
    assert cfg.thresholds.delta_jerk == 0.005
    assert cfg.weights.omega_1 == 1.0


def test_shipped_axes_span_the_operating_range():
    axes = load_axes(CONFIG_DIR / "axes_default.ini")
    assert axes.shape == (21, 17, 17)
    assert axes.dr[0] == -100.0 and axes.dr[-1] == 100.0
    assert axes.vi[0] == 2.0 and axes.vi[-1] == 34.0
    assert list(axes.vj) == list(axes.vi)


def test_shipped_candidates():
    cands = load_candidates(CONFIG_DIR / "candidates_default.ini")
    assert list(cands.gammas) == [float(g) for g in range(1, 11)]
    assert list(cands.ks) == [0.1]


def test_shipped_scenarios():
    expected = {
        "scenario1": (50.0, 28.0, 14.0),
        "scenario2": (20.0, 16.0, 22.0),
        "scenario3": (-30.0, 18.0, 10.0),
        "scenario4": (-80.0, 4.0, 21.0),
    }
    for sid, (dr0, vi0, vj0) in expected.items():
        scenario = load_scenario(CONFIG_DIR / f"{sid}.ini")
        assert scenario.scenario_id == sid
        assert (scenario.dr0, scenario.vi0, scenario.vj0) == (dr0, vi0, vj0)
        assert scenario.duration == 120.0
        assert scenario.controller == "lookup"


def test_shipped_baselines():
    baselines = load_baselines(CONFIG_DIR / "baselines_default.ini")
    assert baselines.fixed.gamma == 1.0
    assert baselines.fixed.k == 0.1
    assert baselines.linear.k_v == 0.58
    assert baselines.linear.standstill_gap == 1.0


def test_shipped_sweep():
    sweep = load_sweep(CONFIG_DIR / "sweep_default.ini")
    assert sweep.omega_min == 1e-3
    assert sweep.omega_max == 1e2
    assert sweep.points == 400


def test_build_config_partial_file_uses_defaults(tmp_path):
    path = write(
        tmp_path,
        "partial.ini",
        """
        [build]
        t_max = 40
        """,
    )
    cfg = load_build_config(path)
    assert cfg.t_max == 40.0
    assert cfg.dt == 0.01
    assert cfg.thresholds.eta_v == 0.05


def test_build_config_rejects_unknown_mode(tmp_path):
    path = write(
        tmp_path,
        "mode.ini",
        """
        [build]
        safety_mode = sideways
        """,
    )
    with pytest.raises(ValueError, match="safety_mode"):
        load_build_config(path)


@pytest.mark.parametrize("field, key", [("omega_1", "w1"), ("omega_2", "w2")])
@pytest.mark.parametrize(
    "value, text",
    [(math.nan, "NaN"), (math.inf, "inf"), (-math.inf, "-inf")],
    ids=["nan", "inf", "-inf"],
)
def test_comfort_weights_reject_non_finite_value_naming_the_field(
    tmp_path, field, key, value, text
):
    """The dataclass, a build config file and a table's meta line all
    refuse a weight that is not finite, and the error names the field."""
    with pytest.raises(ValueError, match=field):
        ComfortWeights(**{field: value})
    path = write(tmp_path, "weights.ini", f"[weights]\n{field} = {text}\n")
    with pytest.raises(ValueError, match=field):
        load_build_config(path)
    table = GainTable(
        axes=AxisGrid(dr=[0.0], vi=[10.0], vj=[10.0]),
        candidates=CandidateSets(gammas=[1.0], ks=[0.1]),
        config=BuildConfig(),
        k_cells=[math.nan],
        gamma_cells=[math.nan],
    )
    saved = tmp_path / "table.txt"
    save_table(table, saved)
    meta = saved.read_text(encoding="utf-8").replace(f" {key}=1.0 ", f" {key}={text} ")
    assert f" {key}={text} " in meta
    saved.write_text(meta, encoding="utf-8")
    with pytest.raises(ValueError, match=field):
        load_table(saved)


def test_axes_require_all_three_grids(tmp_path):
    path = write(
        tmp_path,
        "axes.ini",
        """
        [axes]
        dr = 0,10
        vi = 10,14
        """,
    )
    with pytest.raises(ValueError, match="vj"):
        load_axes(path)


def test_scenario_with_controller_params(tmp_path):
    path = write(
        tmp_path,
        "scn.ini",
        """
        [scenario]
        id = probe
        dr0 = 12
        vi0 = 10
        vj0 = 11
        duration = 30
        controller = fixed_consensus

        [controller_params]
        gamma = 4.0
        k = 0.1
        """,
    )
    scenario = load_scenario(path)
    assert scenario.scenario_id == "probe"
    assert scenario.controller == "fixed_consensus"
    assert scenario.gains == GainPair(k=0.1, gamma=4.0)


def test_scenario_params_are_checked_against_the_files_controller(tmp_path):
    """A linear-feedback file may set its gains; a misspelt one is refused."""
    text = """
        [scenario]
        dr0 = 12
        vi0 = 10
        vj0 = 11
        controller = linear_feedback

        [controller_params]
        k_v = 0.5
        """
    scenario = load_scenario(write(tmp_path, "good.ini", text))
    assert scenario.gains == LinearFeedbackGains(k_v=0.5)
    with pytest.raises(ValueError, match="'kv'"):
        load_scenario(write(tmp_path, "bad.ini", text.replace("k_v", "kv")))


SCENARIO = "[scenario]\ndr0 = 12\nvi0 = 10\nvj0 = 11\n"
FIXED = SCENARIO + "controller = fixed_consensus\n[controller_params]\n"
LINEAR = SCENARIO + "controller = linear_feedback\n[controller_params]\n"


UNKNOWN_KEYS = [
    (load_build_config, "build", "[build]\ntmax = 5\n", "tmax"),
    (load_build_config, "build", "[build]\nthresholds = 0.1\n", "thresholds"),
    (load_build_config, "thresholds", "[thresholds]\neta = 0.1\n", "eta"),
    (load_build_config, "weights", "[weights]\nomega1 = 3\n", "omega1"),
    (load_sweep, "sweep", "[sweep]\npoint = 5\n", "point"),
    (load_baselines, "fixed_consensus", "[fixed_consensus]\nvalid = no\n", "valid"),
    (load_baselines, "linear_feedback", "[linear_feedback]\nkv = 0.5\n", "kv"),
    (load_scenario, "scenario", SCENARIO + "durration = 30\n", "durration"),
    (load_scenario, "scenario", SCENARIO + "scenario_id = x\n", "scenario_id"),
    (load_scenario, "controller_params", FIXED + "k = 0.1\ngamma = 4\nkk = 1\n", "kk"),
    (load_axes, "axes", "[axes]\ndr = 0\nvi = 10\nvj = 10\nvk = 10\n", "vk"),
    (load_candidates, "candidates", "[candidates]\ngamma = 1\nk = 0.1\nks = 1\n", "ks"),
]

BAD_NUMBERS = [
    (load_build_config, "build", "[build]\ndt = fast\n", "dt"),
    (load_build_config, "weights", "[weights]\nomega_1 = 5%\n", "omega_1"),
    (load_sweep, "sweep", "[sweep]\npoints = 4.5\n", "points"),
    (load_axes, "axes", "[axes]\ndr = 0,x\nvi = 10\nvj = 10\n", "dr"),
    (load_candidates, "candidates", "[candidates]\ngamma = 1\nk = low\n", "k"),
    (load_scenario, "scenario", SCENARIO + "duration = long\n", "duration"),
]


def _ids(cases):
    return [f"{section}-{key}" for _, section, _, key in cases]


@pytest.mark.parametrize("loader, section, text, key", UNKNOWN_KEYS, ids=_ids(UNKNOWN_KEYS))
def test_unknown_key_is_refused_naming_file_section_and_key(
    tmp_path, loader, section, text, key
):
    """A misspelt key, or a field the reader does not read (nested
    settings, GainPair.valid, a scenario's id under its field name), fails
    at load instead of leaving the default in place."""
    path = write(tmp_path, "bad.ini", text)
    with pytest.raises(ValueError, match=f"unknown key '{key}' in \\[{section}\\]") as info:
        loader(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("loader, section, text, key", BAD_NUMBERS, ids=_ids(BAD_NUMBERS))
def test_bad_number_is_refused_naming_file_section_and_key(
    tmp_path, loader, section, text, key
):
    path = write(tmp_path, "bad.ini", text)
    with pytest.raises(ValueError, match=f"for key '{key}' in \\[{section}\\]") as info:
        loader(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize(
    "text, message",
    [
        (FIXED + "k = -1\ngamma = 4\n", "k must be positive and finite"),
        (FIXED + "k = inf\ngamma = 4\n", "k must be positive and finite"),
        (LINEAR + "k_v = inf\n", "k_v must be finite"),
    ],
    ids=["k=-1", "k=inf", "k_v=inf"],
)
def test_scenario_gains_are_checked_at_load(tmp_path, text, message):
    with pytest.raises(ValueError, match=message):
        load_scenario(write(tmp_path, "gains.ini", text))


EMPTY_ENTRIES = [
    (load_axes, "axes", "[axes]\ndr = 10.0,,20.0\nvi = 10\nvj = 10\n", "dr"),
    (load_axes, "axes", "[axes]\ndr = 10\nvi = 10,14,\nvj = 10\n", "vi"),
    (load_axes, "axes", "[axes]\ndr = 10\nvi = 10\nvj = , 10\n", "vj"),
    (load_candidates, "candidates", "[candidates]\ngamma = 1,,2\nk = 0.1\n", "gamma"),
    (load_candidates, "candidates", "[candidates]\ngamma = 1\nk = 0.1, # low\n", "k"),
]


@pytest.mark.parametrize(
    "loader, section, text, key",
    EMPTY_ENTRIES,
    ids=["dr-doubled-comma", "vi-trailing-comma", "vj-leading-comma",
         "gamma-doubled-comma", "k-trailing-comma"],
)
def test_empty_list_entry_is_refused_naming_file_section_and_key(
    tmp_path, loader, section, text, key
):
    """A doubled, leading or trailing comma is a bad value, not a shorter list."""
    path = write(tmp_path, "bad.ini", text)
    with pytest.raises(ValueError, match=f"bad value .* for key '{key}' in \\[{section}\\]") as info:
        loader(path)
    assert str(info.value).startswith(f"{path}: ")


MALFORMED = [
    (load_build_config, "dt = 0.02\n", "no section headers"),
    (load_build_config, "[build]\ndt = 0.02\n[build]\nt_max = 40\n", "section 'build' already"),
    (load_build_config, "[build]\ndt = 0.02\ndt = 0.05\n", "option 'dt' in section 'build'"),
    (load_sweep, "[sweep]\npoints\n", "parsing errors"),
    (load_build_config, "[DEFAULT]\ndt = 0.02\n[thresholds]\neta_r = 0.1\n", r"\[DEFAULT\]"),
    (load_build_config, "[DEFAULT]\ndt = 0.02\n", r"\[DEFAULT\]"),
    (load_scenario, SCENARIO + "[DEFAULT]\n", r"\[DEFAULT\]"),
]


@pytest.mark.parametrize(
    "loader, text, message",
    MALFORMED,
    ids=["no-header", "duplicate-section", "duplicate-key", "key-without-value",
         "default-keys", "default-only", "default-empty"],
)
def test_malformed_file_is_a_value_error_naming_the_file(tmp_path, loader, text, message):
    """A file not in the section shape fails as a ValueError, never as a
    configparser error; a [DEFAULT] section is refused, not merged into
    every other section or dropped."""
    path = write(tmp_path, "bad.ini", text)
    with pytest.raises(ValueError, match=message) as info:
        loader(path)
    assert str(info.value).startswith(f"{path}: ")


OUT_OF_RANGE = [
    (load_build_config, "build", "[build]\nt_max = 0.5\n", "t_max must exceed hold_window"),
    (load_build_config, "weights", "[weights]\nomega_1 = -1\n", "omega_1 must be non-negative"),
    (load_build_config, "thresholds", "[thresholds]\neta_r = 0\n", "eta_r must be positive"),
    (load_scenario, "scenario", SCENARIO + "duration = 0\n", "duration must be positive"),
    (load_scenario, "controller_params", FIXED + "k = -1\ngamma = 4\n", "k must be positive"),
    (load_sweep, "sweep", "[sweep]\npoints = 1\n", "need at least 2 sweep points"),
    (load_axes, "axes", "[axes]\ndr =\nvi = 10\nvj = 10\n", "dr axis must be a non-empty"),
    (load_candidates, "candidates", "[candidates]\ngamma = 1\nk =\n", "k candidates must be a non-empty"),
]


@pytest.mark.parametrize(
    "loader, section, text, message",
    OUT_OF_RANGE,
    ids=["t_max", "omega_1", "eta_r", "duration", "k", "points", "empty-dr", "empty-k"],
)
def test_out_of_range_value_is_refused_naming_file_and_section(
    tmp_path, loader, section, text, message
):
    """A value that parses but that the settings dataclass refuses keeps
    the dataclass's message, prefixed with the file and the section."""
    path = write(tmp_path, "bad.ini", text)
    prefix = re.escape(f"{path}: [{section}]: ")
    with pytest.raises(ValueError, match=f"^{prefix}{message}"):
        loader(path)


def _table_with_meta(tmp_path, old, new):
    table = GainTable(
        axes=AxisGrid(dr=[0.0], vi=[10.0], vj=[10.0]),
        candidates=CandidateSets(gammas=[1.0], ks=[0.1]),
        config=BuildConfig(),
        k_cells=[math.nan],
        gamma_cells=[math.nan],
    )
    saved = tmp_path / "table.txt"
    save_table(table, saved)
    text = saved.read_text(encoding="utf-8")
    assert f" {old} " in text
    saved.write_text(text.replace(f" {old} ", f" {new} "), encoding="utf-8")
    return saved


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("w1=1.0", "w1=NaN", "omega_1 must be non-negative and finite"),
        ("tmax=120.0", "tmax=0.5", "t_max must exceed hold_window"),
    ],
)
def test_table_meta_rejected_by_the_settings_is_a_format_error(
    tmp_path, old, new, message
):
    with pytest.raises(TableFormatError, match=f"line 4: {message}"):
        load_table(_table_with_meta(tmp_path, old, new))


def test_scenario_id_defaults_to_path(tmp_path):
    path = write(
        tmp_path,
        "unnamed.ini",
        """
        [scenario]
        dr0 = 12
        vi0 = 10
        vj0 = 11
        """,
    )
    scenario = load_scenario(path)
    assert scenario.scenario_id == str(path)


def test_inline_comments_are_stripped(tmp_path):
    path = write(
        tmp_path,
        "comments.ini",
        """
        [build]
        dt = 0.02   # coarse grid
        """,
    )
    assert load_build_config(path).dt == 0.02
