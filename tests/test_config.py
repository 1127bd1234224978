"""Tests of the configuration file loaders."""

from __future__ import annotations

import math
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
from caccsim.gaintable import (
    AxisGrid,
    BuildConfig,
    CandidateSets,
    GainTable,
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
    assert scenario.controller_params == {"gamma": "4.0", "k": "0.1"}


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
    assert scenario.controller_params == {"k_v": "0.5"}
    with pytest.raises(ValueError, match="'kv'"):
        load_scenario(write(tmp_path, "bad.ini", text.replace("k_v", "kv")))


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
