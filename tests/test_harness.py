"""Tests of the scenario runner, suite, and report writers."""

from __future__ import annotations

import math

import numpy as np
import pytest

from caccsim.controllers import ControllerInput, GainPair, consensus_accel
from caccsim.dynamics import VehicleState
from caccsim.gaintable import BuildConfig, _CandidateRuns
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


def consensus_control(gains):
    def control(inp):
        return consensus_accel(inp, gains)

    return control


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


def test_simulate_pair_initial_sample_and_leader_motion():
    cfg = BuildConfig(t_max=5.0)
    traj = simulate_pair(
        30.0, 24.0, 18.0, consensus_control(GainPair(k=0.1, gamma=3.0)), cfg, 5.0
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
        30.0, 24.0, 18.0, consensus_control(GainPair(k=0.1, gamma=3.0)), cfg, 5.0
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
    traj = simulate_pair(30.0, 24.0, 18.0, consensus_control(gains), cfg, 1.0)
    first_cmd = consensus_accel(
        ControllerInput(
            follower=VehicleState(position=0.0, speed=24.0),
            leader_delayed=VehicleState(position=30.0, speed=18.0),
        ),
        gains,
    )
    assert traj.a_follower[0] == 0.0
    assert traj.a_follower[1] == first_cmd


def test_simulate_pair_matches_batched_builder_bit_for_bit():
    """One scalar run equals the corresponding builder column exactly."""
    cfg = BuildConfig(t_max=20.0)
    dr0, vi0, vj0, gamma, k = -30.0, 18.0, 10.0, 5.0, 0.1
    traj = simulate_pair(
        dr0, vi0, vj0, consensus_control(GainPair(k=k, gamma=gamma)), cfg, cfg.t_max
    )
    runs = _CandidateRuns(
        np.array([dr0]), np.array([vi0]), np.array([vj0]),
        np.array([gamma]), np.array([k]), cfg,
    )
    v_b, a_b, gap_b = runs.advance(len(traj))
    assert np.array_equal(traj.v_follower, v_b[:, 0])
    assert np.array_equal(traj.a_follower, a_b[:, 0])
    assert np.array_equal(traj.gap, gap_b[:, 0])


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
        30.0, 24.0, 18.0, consensus_control(GainPair(k=0.1, gamma=3.0)),
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
