"""Tests of the scenario runner, suite, and report writers."""

from __future__ import annotations

import math

import numpy as np
import pytest

from caccsim.controllers import ConsensusLaw, GainPair, consensus_command
from caccsim.dynamics import FollowerRuns
from caccsim.gaintable import _BLOCK_STEPS, BuildConfig
from caccsim.harness import (
    BENCHMARK_POINTS,
    CONTROLLER_KINDS,
    BaselineConfig,
    ScenarioConfig,
    benchmark_scenarios,
    format_suite_summary,
    run_scenario,
    run_suite,
    simulate_pair,
    write_comparison_csv,
    write_trajectory_csv,
)
from caccsim.metrics import ConsensusThresholds


def test_benchmark_points_are_fixed():
    assert [p[0] for p in BENCHMARK_POINTS] == [
        "scenario1", "scenario2", "scenario3", "scenario4",
    ]
    assert BENCHMARK_POINTS[0][1:] == (50.0, 28.0, 14.0)
    assert BENCHMARK_POINTS[3][1:] == (-80.0, 4.0, 21.0)
    scenarios = benchmark_scenarios(duration=30.0)
    assert len(scenarios) == 4
    assert all(s.controller == "lookup" for s in scenarios)
    assert all(s.duration == 30.0 for s in scenarios)


def test_scenario_config_validation():
    with pytest.raises(ValueError, match="controller"):
        ScenarioConfig("x", 10.0, 10.0, 10.0, controller="pid")
    with pytest.raises(ValueError, match="profile"):
        ScenarioConfig("x", 10.0, 10.0, 10.0, leader_profile="sine")
    with pytest.raises(ValueError, match="duration"):
        ScenarioConfig("x", 10.0, 10.0, 10.0, duration=0.0)
    with pytest.raises(ValueError, match="speeds"):
        ScenarioConfig("x", 10.0, -1.0, 10.0)


@pytest.mark.parametrize(
    "field, value", [("duration", math.inf), ("dr0", math.nan), ("vi0", math.nan)]
)
def test_scenario_config_rejects_non_finite_value_naming_the_field(field, value):
    fields = {"dr0": 10.0, "vi0": 10.0, "vj0": 10.0, "duration": 30.0, field: value}
    with pytest.raises(ValueError, match=field):
        ScenarioConfig("x", **fields)


def test_run_scenario_rejects_duration_under_one_step(tiny_cfg):
    scenario = ScenarioConfig(
        "short", 15.0, 12.0, 11.0, duration=0.001, controller="linear_feedback"
    )
    with pytest.raises(ValueError, match="duration"):
        run_scenario(scenario, tiny_cfg)


def test_simulate_pair_initial_sample_and_leader_motion():
    cfg = BuildConfig(t_max=5.0)
    traj = simulate_pair(
        30.0, 24.0, 18.0, ConsensusLaw.of(GainPair(k=0.1, gamma=3.0)), cfg, 5.0
    )
    assert len(traj) == 501
    assert traj.t[0] == 0.0
    assert traj.r_follower[0] == 0.0
    assert traj.v_follower[0] == 24.0
    assert traj.a_follower[0] == 0.0
    assert traj.gap[0] == 30.0
    assert np.all(traj.v_leader == 18.0)
    leader_steps = np.diff(traj.r_leader)
    assert np.allclose(leader_steps, 18.0 * cfg.dt, rtol=1e-9, atol=0.0)


def test_simulate_pair_delayed_observation_holds_initial_sample():
    """The observed leader position is the one from delay steps earlier,
    with the start-of-run hold before that."""
    cfg = BuildConfig(t_max=5.0)
    traj = simulate_pair(
        30.0, 24.0, 18.0, ConsensusLaw.of(GainPair(k=0.1, gamma=3.0)), cfg, 5.0
    )
    observed = traj.gap + traj.r_follower
    delay = cfg.delay_steps()
    shifted = traj.r_leader[np.maximum(0, np.arange(len(traj)) - delay)]
    assert np.array_equal(observed, shifted)
    assert np.all(observed[: delay + 1] == 30.0)


def test_simulate_pair_command_lands_on_next_sample():
    """The first nonzero command shows up as the acceleration at t1."""
    cfg = BuildConfig(t_max=5.0)
    gains = GainPair(k=0.1, gamma=3.0)
    traj = simulate_pair(30.0, 24.0, 18.0, ConsensusLaw.of(gains), cfg, 1.0)
    first_cmd = consensus_command(
        0.0, 30.0, 24.0, 18.0, cfg.leader_length, cfg.headway_time, 0.1, 3.0
    )
    assert traj.a_follower[0] == 0.0
    assert traj.a_follower[1] == first_cmd


def test_simulate_pair_matches_batched_builder_bit_for_bit():
    """One run equals its column of a builder-like batch (several columns,
    advanced in blocks of the builder's length) exactly."""
    cfg = BuildConfig(t_max=20.0)
    dr0, vi0, vj0, gamma, k = -30.0, 18.0, 10.0, 5.0, 0.1
    traj = simulate_pair(
        dr0, vi0, vj0, ConsensusLaw.of(GainPair(k=k, gamma=gamma)), cfg, cfg.t_max
    )
    law = ConsensusLaw([1.0, gamma, 9.0], [k, k, k])
    runs = FollowerRuns([50.0, dr0, dr0], [28.0, vi0, vi0], [14.0, vj0, vj0], law, cfg)
    blocks = []
    while runs.row < len(traj):
        blocks.append(runs.advance(min(_BLOCK_STEPS, len(traj) - runs.row)))
    r_b, v_b, a_b, gap_b = (np.concatenate(series)[:, 1] for series in zip(*blocks))
    assert np.array_equal(traj.r_follower, r_b)
    assert np.array_equal(traj.v_follower, v_b)
    assert np.array_equal(traj.a_follower, a_b)
    assert np.array_equal(traj.gap, gap_b)


def test_run_scenario_is_deterministic(tiny_table, tiny_cfg):
    scenario = ScenarioConfig("rep", 15.0, 12.0, 11.0, duration=20.0)
    _, t1 = run_scenario(scenario, tiny_cfg, table=tiny_table)
    _, t2 = run_scenario(scenario, tiny_cfg, table=tiny_table)
    assert np.array_equal(t1.v_follower, t2.v_follower)
    assert np.array_equal(t1.gap, t2.gap)


def test_run_scenario_lookup_hit(tiny_table, tiny_cfg):
    scenario = ScenarioConfig("hit", 20.0, 14.0, 14.0, duration=60.0)
    report, _ = run_scenario(scenario, tiny_cfg, table=tiny_table)
    assert not report.fallback_engaged
    assert report.gains == tiny_table.cell(1, 1, 1)
    assert report.metrics.consensus_reached
    assert not report.metrics.safety_violated


def test_run_scenario_lookup_miss_engages_fallback(tiny_table, tiny_cfg):
    scenario = ScenarioConfig("miss", 50.0, 28.0, 14.0, duration=60.0)
    report, _ = run_scenario(scenario, tiny_cfg, table=tiny_table)
    assert report.fallback_engaged
    assert report.gains is None
    assert report.metrics.consensus_reached


def test_run_scenario_lookup_without_table_is_an_error(tiny_cfg):
    scenario = ScenarioConfig("x", 10.0, 10.0, 10.0)
    with pytest.raises(ValueError, match="table"):
        run_scenario(scenario, tiny_cfg, table=None)


def test_run_scenario_fixed_consensus(tiny_cfg):
    scenario = ScenarioConfig(
        "fixed", 15.0, 12.0, 11.0, duration=60.0,
        controller="fixed_consensus",
        controller_params={"gamma": 5.0, "k": 0.1},
    )
    report, _ = run_scenario(scenario, tiny_cfg)
    assert report.gains == GainPair(k=0.1, gamma=5.0)
    assert not report.fallback_engaged


def test_run_scenario_linear_feedback(tiny_cfg):
    scenario = ScenarioConfig(
        "lf", 15.0, 12.0, 11.0, duration=60.0, controller="linear_feedback",
    )
    report, _ = run_scenario(scenario, tiny_cfg)
    assert report.gains is None
    assert not report.fallback_engaged
    assert report.metrics.consensus_reached


def test_run_suite_structure(tiny_table, tiny_cfg):
    result = run_suite(tiny_table, tiny_cfg, duration=30.0)
    assert len(result.reports) == 12
    expected_keys = [
        (sid, kind)
        for sid, _, _, _ in BENCHMARK_POINTS
        for kind in CONTROLLER_KINDS
    ]
    assert [(r.scenario_id, r.controller) for r in result.reports] == expected_keys
    assert sorted(result.trajectories.keys()) == sorted(expected_keys)
    assert sorted(result.lookup_beats_fixed.keys()) == [
        "scenario1", "scenario2", "scenario3", "scenario4",
    ]
    assert result.all_scenarios_beat_fixed == all(
        result.lookup_beats_fixed.values()
    )


def test_trajectory_csv_layout(tiny_cfg, tmp_path):
    traj = simulate_pair(
        30.0, 24.0, 18.0, ConsensusLaw.of(GainPair(k=0.1, gamma=3.0)),
        tiny_cfg, 2.0,
    )
    path = tmp_path / "run.csv"
    write_trajectory_csv(path, traj, ConsensusThresholds())
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "t,r_i,v_i,a_i,jerk_i,r_j,v_j,gap,gap_error,consensus_flag"
    assert len(lines) == 1 + 201
    first = lines[1].split(",")
    assert len(first) == 10
    assert float(first[0]) == 0.0
    assert float(first[7]) == 30.0
    assert first[9] in ("0", "1")
    row = lines[50].split(",")
    gap = float(row[7])
    v_i = float(row[2])
    assert float(row[8]) == gap - (5.0 + v_i * 0.76)


def test_comparison_csv_layout(tiny_table, tiny_cfg, tmp_path):
    result = run_suite(tiny_table, tiny_cfg, duration=20.0)
    path = tmp_path / "comparison.csv"
    write_comparison_csv(path, result.reports)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == (
        "scenario,controller,gamma,k,fallback_engaged,t_consensus,max_accel,"
        "max_decel,max_jerk,min_jerk,omega,min_gap,safety_violated"
    )
    assert len(lines) == 1 + 12
    fixed_row = lines[2].split(",")
    assert fixed_row[0] == "scenario1"
    assert fixed_row[1] == "fixed_consensus"
    assert float(fixed_row[2]) == 1.0
    assert float(fixed_row[3]) == 0.1


def test_suite_summary_format(tiny_table, tiny_cfg):
    result = run_suite(tiny_table, tiny_cfg, duration=20.0)
    text = format_suite_summary(result)
    lines = text.splitlines()
    assert lines[0] == "benchmark suite summary"
    assert "convergence time (s):" in lines
    assert "peak |jerk| (m/s^3):" in lines
    assert any(line.startswith("scenario1") for line in lines)
    assert any(
        line.startswith("lookup faster than fixed_consensus on every scenario:")
        for line in lines
    )


def test_suite_summary_marks_unreached_cells(tiny_table, tiny_cfg):
    """Runs too short to converge show up as n/r rather than a number."""
    result = run_suite(tiny_table, tiny_cfg, duration=2.0)
    text = format_suite_summary(result)
    assert "n/r" in text
    assert all(math.isinf(r.metrics.t_consensus) for r in result.reports)
