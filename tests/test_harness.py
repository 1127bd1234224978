"""Tests of the scenario runner, suite, and report writers."""

from __future__ import annotations

import math
import tempfile
import tracemalloc
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caccsim.config import load_scenario
from caccsim.controllers import (
    ConsensusLaw,
    GainPair,
    LinearFeedbackGains,
    consensus_command,
)
from caccsim.dynamics import FollowerRuns
from caccsim.gaintable import (
    _BLOCK_STEPS,
    AxisGrid,
    BuildConfig,
    CandidateSets,
    GainTable,
)
from caccsim.harness import (
    _CSV_CHUNK,
    BENCHMARK_POINTS,
    CONTROLLER_KINDS,
    BaselineConfig,
    ScenarioConfig,
    format_suite_summary,
    run_scenario,
    run_suite,
    simulate_pair,
    write_comparison_csv,
    write_trajectory_csv,
)
from caccsim.metrics import ConsensusThresholds, SafetyMode, evaluate_run

from run_oracle import make_trajectory, oracle_run, oracle_trajectory_csv


def test_benchmark_points_are_fixed():
    assert [p[0] for p in BENCHMARK_POINTS] == [
        "scenario1", "scenario2", "scenario3", "scenario4",
    ]
    assert BENCHMARK_POINTS[0][1:] == (50.0, 28.0, 14.0)
    assert BENCHMARK_POINTS[3][1:] == (-80.0, 4.0, 21.0)


def test_scenario_config_validation():
    with pytest.raises(ValueError, match="controller"):
        ScenarioConfig("x", 10.0, 10.0, 10.0, controller="pid")
    with pytest.raises(ValueError, match="^scenario_id 'a/b' holds a path separator"):
        ScenarioConfig("a/b", 10.0, 10.0, 10.0)
    with pytest.raises(ValueError, match="speeds"):
        ScenarioConfig("x", 10.0, -1.0, 10.0)


def scenario_file(tmp_path, controller, params):
    """A scenario file for controller, with params as [controller_params]
    (None writes an empty value)."""
    lines = ["[scenario]", "dr0 = 10", "vi0 = 10", "vj0 = 10"]
    lines += [f"controller = {controller}", "[controller_params]"]
    lines += [f"{k} = {'' if v is None else v}" for k, v in params.items()]
    path = tmp_path / "scenario.ini"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "params, key",
    [
        ({"gamma": 4.0}, "k"),
        ({"k": 0.1}, "gamma"),
        ({"k": "fast", "gamma": 4.0}, "k"),
        ({"k": 0.1, "gamma": None}, "gamma"),
    ],
)
def test_fixed_consensus_needs_numeric_k_and_gamma(tmp_path, params, key):
    with pytest.raises(ValueError, match=f"'{key}'"):
        load_scenario(scenario_file(tmp_path, "fixed_consensus", params))


@pytest.mark.parametrize(
    "params, key", [({"k_v": 0.58, "kv": 9.0}, "kv"), ({"k_v": "fast"}, "k_v")]
)
def test_linear_feedback_rejects_an_unknown_param(tmp_path, params, key):
    with pytest.raises(ValueError, match=f"'{key}'"):
        load_scenario(scenario_file(tmp_path, "linear_feedback", params))


def test_lookup_takes_no_params(tmp_path):
    with pytest.raises(ValueError, match="'k'"):
        load_scenario(scenario_file(tmp_path, "lookup", {"k": 0.1}))


@pytest.mark.parametrize(
    "controller, gains",
    [
        ("fixed_consensus", None),
        ("fixed_consensus", GainPair.invalid()),
        ("fixed_consensus", LinearFeedbackGains()),
        ("linear_feedback", GainPair(k=0.1, gamma=4.0)),
        ("lookup", GainPair(k=0.1, gamma=4.0)),
        ("lookup", LinearFeedbackGains()),
    ],
)
def test_scenario_config_rejects_gains_that_do_not_fit_the_controller(
    controller, gains
):
    with pytest.raises(ValueError, match=f"{controller} controller cannot take"):
        ScenarioConfig("x", 10.0, 10.0, 10.0, controller=controller, gains=gains)


@pytest.mark.parametrize(
    "field, value", [("dr0", math.nan), ("vi0", math.nan)]
)
def test_scenario_config_rejects_non_finite_value_naming_the_field(field, value):
    fields = {"dr0": 10.0, "vi0": 10.0, "vj0": 10.0, field: value}
    with pytest.raises(ValueError, match=field):
        ScenarioConfig("x", **fields)


def test_simulate_pair_initial_sample_and_leader_motion():
    cfg = BuildConfig(t_max=5.0)
    traj = simulate_pair(
        30.0, 24.0, 18.0, ConsensusLaw.of(GainPair(k=0.1, gamma=3.0)), cfg
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
        30.0, 24.0, 18.0, ConsensusLaw.of(GainPair(k=0.1, gamma=3.0)), cfg
    )
    observed = traj.gap + traj.r_follower
    delay = cfg.steps("comm_delay")
    shifted = traj.r_leader[np.maximum(0, np.arange(len(traj)) - delay)]
    assert np.array_equal(observed, shifted)
    assert np.all(observed[: delay + 1] == 30.0)


def test_simulate_pair_command_lands_on_next_sample():
    """The first nonzero command shows up as the acceleration at t1."""
    cfg = BuildConfig(t_max=2.0)
    gains = GainPair(k=0.1, gamma=3.0)
    traj = simulate_pair(30.0, 24.0, 18.0, ConsensusLaw.of(gains), cfg)
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
    traj = simulate_pair(dr0, vi0, vj0, ConsensusLaw.of(GainPair(k=k, gamma=gamma)), cfg)
    law = ConsensusLaw([1.0, gamma, 9.0], [k, k, k])
    runs = FollowerRuns([50.0, dr0, dr0], [28.0, vi0, vi0], [14.0, vj0, vj0], law, cfg)
    blocks = []
    while runs.row < len(traj):
        rows = min(_BLOCK_STEPS, len(traj) - runs.row)
        blocks.append([s.copy() for s in runs.advance(rows)])
    r_b, v_b, a_b, gap_b = (np.concatenate(series)[:, 1] for series in zip(*blocks))
    assert np.array_equal(traj.r_follower, r_b)
    assert np.array_equal(traj.v_follower, v_b)
    assert np.array_equal(traj.a_follower, a_b)
    assert np.array_equal(traj.gap, gap_b)


def fixed_law():
    """The fixed consensus baseline's law, k 0.1 and gamma 5."""
    return ConsensusLaw.of(GainPair(k=0.1, gamma=5.0))


def test_a_run_carries_the_build_config_it_ran_with():
    """The record holds the very BuildConfig the run was simulated with, and
    its sample times are the steps of that config's dt."""
    cfg = BuildConfig(t_max=20.0)
    traj = simulate_pair(50.0, 28.0, 14.0, fixed_law(), cfg)
    assert traj.cfg is cfg
    assert np.array_equal(traj.t, np.arange(len(traj)) * cfg.dt)


def test_a_run_is_judged_by_the_settings_it_ran_with():
    """evaluate_run reads the hold window and the safety mode of the run's
    own config: it agrees with the oracle under those settings.  Scenario 3
    starts 30 m behind the leader, so the same lane flags it at once, while
    the default projected mode does not."""
    default = BuildConfig(t_max=60.0)
    cfg = replace(default, hold_window=0.5, safety_mode=SafetyMode.SAME_LANE)
    traj = simulate_pair(-30.0, 18.0, 10.0, fixed_law(), cfg)
    got = evaluate_run(traj)
    want = oracle_run(traj, cfg.thresholds, cfg.weights, cfg.safety_mode, cfg.hold_window)
    assert np.array_equal(astuple(got), astuple(want), equal_nan=True)
    assert got.safety_violated
    assert not evaluate_run(replace(traj, cfg=default)).safety_violated


def test_a_trajectory_cannot_carry_a_leader_length_build_config_refuses():
    """A negative leader length, which a run record once accepted and
    judged safe, is refused by the record's BuildConfig, naming the field."""
    traj = simulate_pair(50.0, 28.0, 14.0, fixed_law(), BuildConfig(t_max=5.0))
    with pytest.raises(ValueError, match="^leader_length "):
        replace(traj, cfg=replace(traj.cfg, leader_length=-5.0))


def test_run_scenario_is_deterministic(tiny_table, tiny_cfg):
    scenario = ScenarioConfig("rep", 15.0, 12.0, 11.0)
    cfg = replace(tiny_cfg, t_max=20.0)
    _, t1 = run_scenario(scenario, cfg, table=tiny_table)
    _, t2 = run_scenario(scenario, cfg, table=tiny_table)
    assert np.array_equal(t1.v_follower, t2.v_follower)
    assert np.array_equal(t1.gap, t2.gap)


def test_run_scenario_lookup_hit(tiny_table, tiny_cfg):
    scenario = ScenarioConfig("hit", 20.0, 14.0, 14.0)
    report, _ = run_scenario(scenario, tiny_cfg, table=tiny_table)
    assert not report.fallback_engaged
    assert report.gains == tiny_table.cell(1, 1, 1)
    assert report.metrics.consensus_reached
    assert not report.metrics.safety_violated


def test_run_scenario_lookup_miss_engages_fallback(tiny_table, tiny_cfg):
    scenario = ScenarioConfig("miss", 50.0, 28.0, 14.0)
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
        "fixed", 15.0, 12.0, 11.0,
        controller="fixed_consensus", gains=GainPair(k=0.1, gamma=5.0),
    )
    report, _ = run_scenario(scenario, tiny_cfg)
    assert report.gains == GainPair(k=0.1, gamma=5.0)
    assert not report.fallback_engaged


def test_run_scenario_linear_feedback(tiny_cfg):
    scenario = ScenarioConfig("lf", 15.0, 12.0, 11.0, controller="linear_feedback")
    report, _ = run_scenario(scenario, tiny_cfg)
    assert report.gains is None
    assert not report.fallback_engaged
    assert report.metrics.consensus_reached


def test_linear_feedback_scenario_runs_its_own_gains(tiny_cfg):
    """A scenario's gains drive the run; without them, the run's fallback
    gains do."""
    gains, cfg = LinearFeedbackGains(k_v=0.3), replace(tiny_cfg, t_max=20.0)
    own = ScenarioConfig(
        "lf", 15.0, 12.0, 11.0, controller="linear_feedback", gains=gains
    )
    _, with_gains = run_scenario(own, cfg)
    bare = replace(own, gains=None)
    _, with_fallback = run_scenario(bare, cfg, fallback_gains=gains)
    _, with_default = run_scenario(bare, cfg)
    assert np.array_equal(with_gains.v_follower, with_fallback.v_follower)
    assert not np.array_equal(with_gains.v_follower, with_default.v_follower)


def test_run_suite_structure(tiny_table, tiny_cfg, tmp_path, monkeypatch):
    """The suite writes each run's trajectory CSV to out_dir, byte for byte
    what run_scenario then write_trajectory_csv give for that scenario; with
    no out_dir it writes nothing and reports the same."""
    cfg = replace(tiny_cfg, t_max=30.0)
    out_dir = tmp_path / "suite"
    out_dir.mkdir()
    result = run_suite(tiny_table, cfg, out_dir=out_dir)
    assert len(result.reports) == 12
    expected_keys = [
        (sid, kind)
        for sid, _, _, _ in BENCHMARK_POINTS
        for kind in CONTROLLER_KINDS
    ]
    assert [(r.scenario_id, r.controller) for r in result.reports] == expected_keys
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(
        f"{sid}_{kind}.csv" for sid, kind in expected_keys
    )
    baselines = BaselineConfig()
    gains = {"fixed_consensus": baselines.fixed, "linear_feedback": baselines.linear}
    for sid, dr0, vi0, vj0 in BENCHMARK_POINTS:
        for kind in CONTROLLER_KINDS:
            scenario = ScenarioConfig(
                sid, dr0, vi0, vj0, controller=kind,
                gains=gains.get(kind),
            )
            _, trajectory = run_scenario(
                scenario, cfg, tiny_table, fallback_gains=baselines.linear
            )
            expected = tmp_path / "expected.csv"
            write_trajectory_csv(expected, trajectory, cfg.thresholds)
            written = out_dir / f"{sid}_{kind}.csv"
            assert written.read_bytes() == expected.read_bytes(), (sid, kind)
    assert sorted(result.lookup_beats_fixed.keys()) == [
        "scenario1", "scenario2", "scenario3", "scenario4",
    ]
    assert result.all_scenarios_beat_fixed == all(
        result.lookup_beats_fixed.values()
    )

    bare_dir = tmp_path / "bare"
    bare_dir.mkdir()
    monkeypatch.chdir(bare_dir)
    monkeypatch.setattr(
        "caccsim.harness.write_trajectory_csv",
        lambda *args: pytest.fail("a trajectory was written without out_dir"),
    )
    bare = run_suite(tiny_table, cfg)
    assert list(bare_dir.iterdir()) == []
    # repr, since min_gap is NaN when the floor never armed.
    assert repr(bare) == repr(result)


def test_run_suite_holds_one_trajectory_at_a_time(tiny_table, tiny_cfg, tmp_path):
    """run_suite drops each trajectory once it is written: its traced peak
    stays under three runs' trajectories, and it holds almost nothing once it
    returns.  Holding all twelve, it peaks above thirteen and holds twelve;
    holding the last run's while the next one runs, it peaks at about 3.5."""
    # Long enough that one trajectory outweighs the writer's per-chunk strings.
    cfg = replace(tiny_cfg, t_max=150.0)
    sid, dr0, vi0, vj0 = BENCHMARK_POINTS[0]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run = run_scenario(ScenarioConfig(sid, dr0, vi0, vj0), cfg, tiny_table)
        one = tracemalloc.get_traced_memory()[0] - base
        del run
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = run_suite(tiny_table, cfg, out_dir=tmp_path)
        held, peak = (size - base for size in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert len(result.reports) == len(list(tmp_path.glob("*.csv"))) == 12
    assert peak < 3 * one
    assert held < 0.05 * one


def test_int_operating_point_is_looked_up_as_the_float_the_kernel_runs(tiny_cfg):
    """An int dr0 past 2**53 is stored as the float the kernel starts from:
    2**60 - 100 rounds to 2**60 - 128, below the first dr value, so lookup
    misses and the fallback engages (the int itself bisects into the grid)."""
    table = GainTable(
        axes=AxisGrid(dr=[2.0**60, 2.0**61], vi=[10.0], vj=[10.0]),
        candidates=CandidateSets(gammas=[2.0], ks=[0.1]),
        config=tiny_cfg,
        k_cells=[0.1, 0.1],
        gamma_cells=[2.0, 2.0],
    )
    scenario = ScenarioConfig("far", 2**60 - 100, 10, 10)
    report, _ = run_scenario(scenario, replace(tiny_cfg, t_max=2.0), table)
    assert report.fallback_engaged
    assert report.gains is None
    assert (scenario.dr0, scenario.vi0, scenario.vj0) == (2.0**60 - 128, 10.0, 10.0)
    assert all(type(v) is float for v in (scenario.dr0, scenario.vi0, scenario.vj0))


def test_trajectory_csv_layout(tiny_cfg, tmp_path):
    traj = simulate_pair(
        30.0, 24.0, 18.0, ConsensusLaw.of(GainPair(k=0.1, gamma=3.0)),
        replace(tiny_cfg, t_max=2.0),
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


# Finite and bounded, so the jerk and gap-error arithmetic cannot overflow;
# the strategy still draws both zeros and subnormals.
VALUES = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@st.composite
def csv_column(draw, n):
    """One series of n values: noise, a constant, all 0.0 but one -0.0, or
    noise with a run of one value across a chunk edge."""
    kind = draw(st.sampled_from(["noise", "constant", "negative_zero", "straddle"]))
    if kind == "constant":
        return np.full(n, draw(VALUES))
    if kind == "negative_zero":
        column = np.zeros(n)
        column[draw(st.integers(0, n - 1))] = -0.0
        return column
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # A few distinct values repeat inside a chunk without making it constant.
    column = rng.choice([draw(VALUES) for _ in range(3)] + list(rng.normal(size=3)), n)
    if kind == "straddle":
        edge = draw(st.sampled_from(range(0, n, _CSV_CHUNK)))
        lo = max(0, edge - draw(st.integers(0, _CSV_CHUNK)))
        column[lo : edge + draw(st.integers(1, _CSV_CHUNK + 1))] = draw(VALUES)
    return column


# Loose bands except the acceleration one, so the flags follow a_i.
LOOSE_BANDS = ConsensusThresholds(eta_r=1e9, eta_v=1e9, delta_a=0.5, delta_jerk=1e9)


@pytest.mark.parametrize(
    "n", [2, _CSV_CHUNK - 1, _CSV_CHUNK, _CSV_CHUNK + 1, 2 * _CSV_CHUNK + 1]
)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_trajectory_csv_matches_the_row_template_oracle(n, data):
    """The column-wise writer gives the row template's bytes at and around
    the chunk length: a constant chunk is formatted once, but -0.0 stays
    apart from 0.0."""
    names = ("r_follower", "v_follower", "a_follower", "r_leader", "v_leader", "gap")
    series = {name: data.draw(csv_column(n), label=name) for name in names}
    thresholds = data.draw(st.sampled_from([ConsensusThresholds(), LOOSE_BANDS]))
    trajectory = make_trajectory(
        v_leader_delayed=series["v_leader"], thresholds=thresholds, **series
    )
    with tempfile.TemporaryDirectory() as tmp:
        written, expected = Path(tmp, "run.csv"), Path(tmp, "oracle.csv")
        write_trajectory_csv(written, trajectory, thresholds)
        oracle_trajectory_csv(expected, trajectory, thresholds)
        assert written.read_bytes() == expected.read_bytes()


def test_trajectory_csv_refuses_bands_the_run_was_not_judged_with(tmp_path):
    trajectory = make_trajectory(np.zeros(3), np.zeros(3), np.full(3, 6.0), np.zeros(3))
    path = tmp_path / "run.csv"
    with pytest.raises(ValueError, match="^thresholds .* not the bands"):
        write_trajectory_csv(path, trajectory, LOOSE_BANDS)
    assert not path.exists()


def test_comparison_csv_layout(tiny_table, tiny_cfg, tmp_path):
    result = run_suite(tiny_table, replace(tiny_cfg, t_max=20.0))
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
    result = run_suite(tiny_table, replace(tiny_cfg, t_max=20.0))
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
    result = run_suite(tiny_table, replace(tiny_cfg, t_max=2.0))
    text = format_suite_summary(result)
    assert "n/r" in text
    assert all(math.isinf(r.metrics.t_consensus) for r in result.reports)
