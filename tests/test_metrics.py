"""Tests of run evaluation: bands, convergence, safety, comfort score."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from caccsim.controllers import desired_gap
from caccsim.metrics import (
    ComfortWeights,
    ConsensusThresholds,
    RunMetrics,
    SafetyMode,
    Trajectory,
    _bands_ok,
    evaluate_run,
    jerk_series,
    omega_score,
)

V_EQ = 20.0
GAP_EQ = desired_gap(V_EQ, 5.0, 0.7, 0.06)  # 20.2 m


def equilibrium_trajectory(n, gap=None):
    """Constant-speed run; gap defaults to the in-band target spacing."""
    gap_value = GAP_EQ if gap is None else gap
    return Trajectory(
        dt=0.01,
        leader_length=5.0,
        time_gap=0.7,
        comm_delay=0.06,
        v_follower=np.full(n, V_EQ),
        a_follower=np.zeros(n),
        gap=np.full(n, float(gap_value)),
        v_leader_delayed=np.full(n, V_EQ),
    )


def flagged_trajectory(n, true_mask):
    """Equilibrium samples where true_mask holds, out-of-band gap elsewhere."""
    traj = equilibrium_trajectory(n)
    traj.gap = np.where(np.asarray(true_mask, dtype=bool), GAP_EQ, 30.0)
    return traj


def sample(gap=GAP_EQ, desired=GAP_EQ, v_leader=V_EQ, v_follower=V_EQ,
           accel=0.0, jerk=0.0):
    """One evaluation sample, as _bands_ok's positional arguments."""
    return gap, desired, v_leader, v_follower, accel, jerk


def in_bands(s, thresholds):
    """Whether one sample sits inside all four consensus bands."""
    return bool(_bands_ok(*s, thresholds))


def consensus_time(trajectory, thresholds, hold_window):
    """evaluate_run's consensus time of a whole run."""
    return evaluate_run(
        trajectory, thresholds, ComfortWeights(), SafetyMode.SAME_LANE, hold_window
    ).t_consensus


def gap_floor(trajectory, mode):
    """evaluate_run's gap-floor verdict and min_gap over a whole gap series.

    The acceleration is held out of its band, so the bands never hold and
    the whole run is judged."""
    run = replace(trajectory, a_follower=np.ones(len(trajectory)))
    metrics = evaluate_run(
        run, ConsensusThresholds(), ComfortWeights(), mode, hold_window=1.0
    )
    assert not metrics.consensus_reached
    return metrics.safety_violated, metrics.min_gap


def test_thresholds_validation():
    with pytest.raises(ValueError):
        ConsensusThresholds(eta_r=0.0)
    with pytest.raises(ValueError):
        ConsensusThresholds(delta_jerk=-1.0)


def test_consensus_true_at_exact_equilibrium():
    assert in_bands(sample(), ConsensusThresholds())


def test_consensus_gap_band_five_percent():
    """21.3 m against a 20.2 m target misses the 5 percent band."""
    thr = ConsensusThresholds()
    assert not in_bands(sample(gap=21.3, desired=20.2), thr)
    assert in_bands(sample(gap=21.2, desired=20.2), thr)


def test_consensus_single_condition_veto():
    """One band miss vetoes, however small."""
    thr = ConsensusThresholds()
    assert not in_bands(sample(accel=0.002), thr)
    assert in_bands(sample(accel=0.001), thr)


def test_consensus_speed_band_relative_to_leader():
    thr = ConsensusThresholds()
    assert in_bands(sample(v_leader=20.0, v_follower=21.0), thr)
    assert not in_bands(sample(v_leader=20.0, v_follower=21.1), thr)


def test_consensus_speed_band_absolute_when_leader_stopped():
    """Non-positive leader speed switches to an absolute 1 m/s scale."""
    thr = ConsensusThresholds()
    ok = sample(gap=5.0, desired=5.0, v_leader=0.0, v_follower=0.04)
    bad = sample(gap=5.0, desired=5.0, v_leader=0.0, v_follower=0.06)
    assert in_bands(ok, thr)
    assert not in_bands(bad, thr)


def test_consensus_monotone_in_thresholds():
    rng = np.random.default_rng(21)
    for _ in range(300):
        s = sample(
            gap=float(rng.uniform(18.0, 23.0)),
            v_follower=float(rng.uniform(18.5, 21.5)),
            accel=float(rng.uniform(-0.003, 0.003)),
            jerk=float(rng.uniform(-0.01, 0.01)),
        )
        thr = ConsensusThresholds()
        wide = ConsensusThresholds(
            eta_r=thr.eta_r * float(rng.uniform(1.0, 3.0)),
            eta_v=thr.eta_v * float(rng.uniform(1.0, 3.0)),
            delta_a=thr.delta_a * float(rng.uniform(1.0, 3.0)),
            delta_jerk=thr.delta_jerk * float(rng.uniform(1.0, 3.0)),
        )
        if in_bands(s, thr):
            assert in_bands(s, wide)


def test_jerk_series_constant_accel_is_zero():
    traj = equilibrium_trajectory(50)
    traj.a_follower = np.full(50, 0.4)
    assert jerk_series(traj).tolist() == [0.0] * 50


def test_jerk_series_step_command():
    """A 0 to -1.828 step across one 0.01 s sample is -182.8 m/s^3."""
    traj = equilibrium_trajectory(2)
    traj.a_follower = np.array([0.0, -1.828])
    jerk = jerk_series(traj)
    assert jerk[0] == 0.0
    assert jerk[1] == -182.8


def test_jerk_series_rejects_single_sample():
    """A one-sample run has no jerk, so it is refused when it is built."""
    with pytest.raises(ValueError, match="two samples"):
        equilibrium_trajectory(1)


def test_convergence_immediate_at_equilibrium():
    traj = equilibrium_trajectory(300)
    assert consensus_time(traj, ConsensusThresholds(), 1.0) == 0.0


def test_convergence_first_sustained_time():
    """Bands first all-hold at 24.90 s and persist to the end."""
    n = 3001
    mask = np.arange(n) >= 2490
    traj = flagged_trajectory(n, mask)
    t = consensus_time(traj, ConsensusThresholds(), 1.0)
    assert t == 2490 * traj.dt
    assert t == pytest.approx(24.90, abs=1e-9)


def test_convergence_short_hold_does_not_count():
    """A 0.3 s in-band interval never satisfies a 1.0 s window."""
    n = 2000
    mask = np.zeros(n, dtype=bool)
    mask[100:131] = True
    traj = flagged_trajectory(n, mask)
    assert math.isinf(consensus_time(traj, ConsensusThresholds(), 1.0))
    assert consensus_time(traj, ConsensusThresholds(), 0.3) == 100 * traj.dt


def test_convergence_zero_window_is_single_step_rule():
    n = 500
    mask = np.zeros(n, dtype=bool)
    mask[420] = True
    traj = flagged_trajectory(n, mask)
    assert consensus_time(traj, ConsensusThresholds(), 0.0) == 420 * traj.dt


def test_convergence_window_must_fit_inside_run():
    """True flags only in the tail shorter than the window do not count."""
    n = 400
    mask = np.zeros(n, dtype=bool)
    mask[350:] = True
    traj = flagged_trajectory(n, mask)
    assert math.isinf(consensus_time(traj, ConsensusThresholds(), 1.0))


def test_convergence_weakly_antitone_in_window():
    rng = np.random.default_rng(33)
    for _ in range(50):
        n = 800
        mask = rng.random(n) < 0.7
        mask[600:] = True
        traj = flagged_trajectory(n, mask)
        thr = ConsensusThresholds()
        t_short = consensus_time(traj, thr, 0.2)
        t_long = consensus_time(traj, thr, 1.0)
        assert t_long >= t_short


def test_safety_constant_gap_is_safe_in_both_modes():
    traj = equilibrium_trajectory(100, gap=30.0)
    for mode in (SafetyMode.SAME_LANE, SafetyMode.PROJECTED):
        violated, min_gap = gap_floor(traj, mode)
        assert not violated
        assert min_gap == 30.0


def test_safety_same_lane_dip_below_length():
    traj = equilibrium_trajectory(100, gap=30.0)
    traj.gap[40] = 4.9
    violated, min_gap = gap_floor(traj, SafetyMode.SAME_LANE)
    assert violated
    assert min_gap == 4.9


def test_safety_projected_arms_after_first_clearance():
    """A projected merge trailing in from behind arms only once clear."""
    gap = np.linspace(-30.0, 20.0, 200)
    traj = equilibrium_trajectory(200)
    traj.gap = gap
    violated, min_gap = gap_floor(traj, SafetyMode.PROJECTED)
    assert not violated
    assert min_gap == float(gap[gap > 5.0][0])


def test_safety_projected_recrossing_violates():
    traj = equilibrium_trajectory(6)
    traj.gap = np.array([-10.0, 2.0, 8.0, 6.0, 4.5, 9.0])
    violated, min_gap = gap_floor(traj, SafetyMode.PROJECTED)
    assert violated
    assert min_gap == 4.5


def test_safety_projected_never_armed_reports_nan_gap():
    traj = equilibrium_trajectory(50)
    traj.gap = np.linspace(-40.0, 0.0, 50)
    violated, min_gap = gap_floor(traj, SafetyMode.PROJECTED)
    assert not violated
    assert math.isnan(min_gap)


def test_safety_projected_monotone_after_arming_never_violates():
    rng = np.random.default_rng(55)
    for _ in range(100):
        start = float(rng.uniform(-50.0, 10.0))
        increments = rng.uniform(0.01, 1.5, size=150)
        gap = start + np.concatenate(([0.0], np.cumsum(increments)))
        traj = equilibrium_trajectory(len(gap))
        traj.gap = gap
        violated, _ = gap_floor(traj, SafetyMode.PROJECTED)
        assert not violated


def make_metrics(max_accel=0.0, max_decel=0.0, max_jerk=0.0, min_jerk=0.0):
    return RunMetrics(
        t_consensus=10.0,
        max_accel=max_accel,
        max_decel=max_decel,
        max_jerk=max_jerk,
        min_jerk=min_jerk,
        omega=0.0,
        min_gap=20.0,
        safety_violated=False,
    )


def test_omega_score_zero_extrema():
    assert omega_score(make_metrics(), ComfortWeights()) == 0.0


def test_omega_score_hand_value():
    """Peak |a| 2.0 plus peak |jerk| 5.0 with unit weights."""
    m = make_metrics(max_accel=2.0, max_decel=1.5, max_jerk=5.0, min_jerk=-3.0)
    assert omega_score(m, ComfortWeights()) == 7.0


def test_omega_score_single_term_weighting():
    m = make_metrics(max_accel=1.2, max_decel=3.2, max_jerk=9.0, min_jerk=-9.0)
    assert omega_score(m, ComfortWeights(omega_1=1.0, omega_2=0.0)) == 3.2


def test_omega_score_linear_in_weights():
    rng = np.random.default_rng(77)
    for _ in range(200):
        m = make_metrics(
            max_accel=float(rng.uniform(0.0, 4.0)),
            max_decel=float(rng.uniform(0.0, 4.0)),
            max_jerk=float(rng.uniform(-8.0, 8.0)),
            min_jerk=float(rng.uniform(-8.0, 8.0)),
        )
        w1 = float(rng.uniform(0.0, 3.0))
        w2 = float(rng.uniform(0.0, 3.0))
        scale = float(rng.uniform(0.1, 5.0))
        base = omega_score(m, ComfortWeights(omega_1=w1, omega_2=w2))
        accel_only = omega_score(m, ComfortWeights(omega_1=w1, omega_2=0.0))
        jerk_only = omega_score(m, ComfortWeights(omega_1=0.0, omega_2=w2))
        assert base == pytest.approx(accel_only + jerk_only, rel=1e-12, abs=1e-15)
        scaled = omega_score(m, ComfortWeights(omega_1=scale * w1, omega_2=w2))
        assert scaled - base == pytest.approx(
            (scale - 1.0) * w1 * max(m.max_accel, m.max_decel), rel=1e-9, abs=1e-12
        )


def test_omega_score_depends_only_on_jerk_magnitudes():
    a = make_metrics(max_accel=1.0, max_jerk=6.0, min_jerk=-2.0)
    b = make_metrics(max_accel=1.0, max_jerk=2.0, min_jerk=-6.0)
    w = ComfortWeights()
    assert omega_score(a, w) == omega_score(b, w)


def test_evaluate_run_immediate_equilibrium():
    traj = equilibrium_trajectory(500)
    metrics = evaluate_run(
        traj, ConsensusThresholds(), ComfortWeights(), SafetyMode.SAME_LANE, 1.0
    )
    assert metrics.t_consensus == 0.0
    assert metrics.consensus_reached
    assert metrics.omega == 0.0
    assert metrics.min_gap == GAP_EQ
    assert not metrics.safety_violated


def test_evaluate_run_windows_end_at_consensus():
    """Post-consensus spikes touch neither safety nor comfort numbers."""
    n = 2001
    mask = np.arange(n) >= 500
    traj = flagged_trajectory(n, mask)
    spiked = flagged_trajectory(n, mask)
    spiked.gap[1800] = 1.0
    spiked.a_follower = spiked.a_follower.copy()
    spiked.a_follower[1900] = 9.0
    args = (ConsensusThresholds(), ComfortWeights(), SafetyMode.SAME_LANE, 1.0)
    base = evaluate_run(traj, *args)
    spike = evaluate_run(spiked, *args)
    assert base.t_consensus == 500 * traj.dt
    assert spike.t_consensus == base.t_consensus
    assert not spike.safety_violated
    assert spike.max_accel == base.max_accel
    assert spike.omega == base.omega


def test_evaluate_run_whole_run_when_not_converged():
    n = 800
    traj = flagged_trajectory(n, np.zeros(n, dtype=bool))
    traj.gap[700] = 2.0
    metrics = evaluate_run(
        traj, ConsensusThresholds(), ComfortWeights(), SafetyMode.SAME_LANE, 1.0
    )
    assert not metrics.consensus_reached
    assert metrics.safety_violated
    assert metrics.min_gap == 2.0


def test_evaluate_run_skips_the_switch_on_sample():
    """A spike at sample 1, the switch-on transient, is left out of the
    comfort extrema; the same spike at sample 2 counts."""
    n = 400
    args = (ConsensusThresholds(), ComfortWeights(), SafetyMode.SAME_LANE, 1.0)
    spiked = {}
    for sample_index in (1, 2):
        traj = equilibrium_trajectory(n)
        traj.a_follower = np.zeros(n)
        traj.a_follower[sample_index] = -2.0
        traj.gap = np.full(n, 30.0)
        spiked[sample_index] = evaluate_run(traj, *args)
    assert spiked[1].max_decel == 0.0
    assert spiked[2].max_decel == 2.0
    assert spiked[2].min_jerk == -200.0
