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
    _bands_ok,
    evaluate_run,
    jerk_series,
    omega_score,
)
from run_oracle import make_trajectory

V_EQ = 20.0
GAP_EQ = desired_gap(V_EQ, 5.0, 0.7, 0.06)  # 20.2 m


def equilibrium_trajectory(n, gap=None, **given):
    """Constant-speed run; gap, a value or a series, defaults to the in-band
    target spacing.  Every series is a fresh array, so a test may write into
    it.  given holds other series or settings, as make_trajectory takes
    them."""
    given = {
        "v_follower": np.full(n, V_EQ),
        "a_follower": np.zeros(n),
        "v_leader_delayed": np.full(n, V_EQ),
        **given,
    }
    return make_trajectory(
        gap=np.full(n, GAP_EQ if gap is None else gap, dtype=float), **given
    )


def flagged_trajectory(n, true_mask):
    """Equilibrium samples where true_mask holds, out-of-band gap elsewhere."""
    return equilibrium_trajectory(
        n, gap=np.where(np.asarray(true_mask, dtype=bool), GAP_EQ, 30.0)
    )


def sample(gap=GAP_EQ, desired=GAP_EQ, v_leader=V_EQ, v_follower=V_EQ,
           accel=0.0, jerk=0.0):
    """One evaluation sample, as _bands_ok's positional arguments."""
    return gap, desired, v_leader, v_follower, accel, jerk


def in_bands(s, thresholds):
    """Whether one sample sits inside all four consensus bands.  desired and
    jerk go in as the one-element float buffers _bands_ok overwrites."""
    gap, desired, v_leader, v_follower, accel, jerk = s
    out = _bands_ok(
        gap, np.array([desired], dtype=float), v_leader, v_follower, accel,
        np.array([jerk], dtype=float), thresholds,
        out=np.empty(1, dtype=bool), spare=np.empty(1, dtype=bool),
    )
    return bool(out[0])


def judge(trajectory, **settings):
    """evaluate_run of the run with the given settings of its BuildConfig
    replaced."""
    return evaluate_run(replace(trajectory, cfg=replace(trajectory.cfg, **settings)))


def consensus_time(trajectory, thresholds, hold_window):
    """evaluate_run's consensus time of a whole run."""
    return judge(
        trajectory, thresholds=thresholds, weights=ComfortWeights(),
        safety_mode=SafetyMode.SAME_LANE, hold_window=hold_window,
    ).t_consensus


def gap_floor(trajectory, mode):
    """evaluate_run's gap-floor verdict and min_gap over a whole gap series.

    The acceleration is held out of its band, so the bands never hold and
    the whole run is judged."""
    run = replace(trajectory, a_follower=np.ones(len(trajectory)))
    metrics = judge(
        run, thresholds=ConsensusThresholds(), weights=ComfortWeights(),
        safety_mode=mode, hold_window=1.0,
    )
    assert not metrics.consensus_reached
    return metrics.safety_violated, metrics.min_gap


def test_hold_window_must_be_whole_steps_of_the_run():
    """At dt 0.03 a 1.0 s hold is 33.3 steps: the run's BuildConfig refuses
    it, naming the field, so no run is judged over 33 steps (0.99 s) for it."""
    run = equilibrium_trajectory(400, dt=0.03, hold_window=0.99)
    with pytest.raises(ValueError, match="^hold_window 1.0 must be .* of dt 0.03"):
        replace(run.cfg, hold_window=1.0)
    assert consensus_time(run, ConsensusThresholds(), hold_window=0.99) == 0.0


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
    traj = equilibrium_trajectory(50, a_follower=np.full(50, 0.4))
    assert jerk_series(traj).tolist() == [0.0] * 50


def test_jerk_series_step_command():
    """A 0 to -1.828 step across one 0.01 s sample is -182.8 m/s^3."""
    traj = equilibrium_trajectory(2, a_follower=np.array([0.0, -1.828]))
    jerk = jerk_series(traj)
    assert jerk[0] == 0.0
    assert jerk[1] == -182.8


def test_jerk_series_rejects_single_sample():
    """A one-sample run has no jerk, so it is refused when it is built."""
    with pytest.raises(ValueError, match="two samples"):
        equilibrium_trajectory(1)


SERIES = (
    "v_follower", "a_follower", "gap", "v_leader_delayed",
    "r_follower", "r_leader", "v_leader",
)


@pytest.mark.parametrize("name", SERIES)
def test_trajectory_refuses_a_series_of_another_shape_naming_it(name):
    """All seven series hold one sample per step, so the CSV writer, which
    zips them, cannot cut a run short at a short one."""
    run = equilibrium_trajectory(5)
    for series in (np.zeros(4), np.zeros(6), np.zeros((5, 1))):
        with pytest.raises(ValueError, match=rf"\b{name}\b"):
            replace(run, **{name: series})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "name", ["dt", "leader_length", "time_gap", "comm_delay", "t_max", "hold_window"]
)
def test_trajectory_refuses_a_non_finite_scalar_naming_it(name, value):
    """A run's step and spacing are those of its BuildConfig, which refuses
    a non-finite value naming it.  dt = inf with no hold window once judged
    a run converged at nan s, and leader_length = nan judged it never armed
    and safe."""
    run = equilibrium_trajectory(5)
    with pytest.raises(ValueError) as caught:
        replace(run, cfg=replace(run.cfg, **{name: value}))
    assert str(caught.value) == f"{name} must be finite, got {value!r}"


def test_trajectory_stores_each_series_as_a_float_array():
    run = replace(equilibrium_trajectory(2), **{name: [1, 2] for name in SERIES})
    for name in SERIES:
        series = getattr(run, name)
        assert isinstance(series, np.ndarray)
        assert series.dtype == np.float64
        assert series.tolist() == [1.0, 2.0]


def test_convergence_immediate_at_equilibrium():
    traj = equilibrium_trajectory(300)
    assert consensus_time(traj, ConsensusThresholds(), 1.0) == 0.0


def test_convergence_first_sustained_time():
    """Bands first all-hold at 24.90 s and persist to the end."""
    n = 3001
    mask = np.arange(n) >= 2490
    traj = flagged_trajectory(n, mask)
    t = consensus_time(traj, ConsensusThresholds(), 1.0)
    assert t == 2490 * traj.cfg.dt
    assert t == pytest.approx(24.90, abs=1e-9)


def test_convergence_short_hold_does_not_count():
    """A 0.3 s in-band interval never satisfies a 1.0 s window."""
    n = 2000
    mask = np.zeros(n, dtype=bool)
    mask[100:131] = True
    traj = flagged_trajectory(n, mask)
    assert math.isinf(consensus_time(traj, ConsensusThresholds(), 1.0))
    assert consensus_time(traj, ConsensusThresholds(), 0.3) == 100 * traj.cfg.dt


def test_convergence_zero_window_is_single_step_rule():
    n = 500
    mask = np.zeros(n, dtype=bool)
    mask[420] = True
    traj = flagged_trajectory(n, mask)
    assert consensus_time(traj, ConsensusThresholds(), 0.0) == 420 * traj.cfg.dt


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
    traj = equilibrium_trajectory(200, gap=gap)
    violated, min_gap = gap_floor(traj, SafetyMode.PROJECTED)
    assert not violated
    assert min_gap == float(gap[gap > 5.0][0])


def test_safety_projected_recrossing_violates():
    traj = equilibrium_trajectory(6, gap=[-10.0, 2.0, 8.0, 6.0, 4.5, 9.0])
    violated, min_gap = gap_floor(traj, SafetyMode.PROJECTED)
    assert violated
    assert min_gap == 4.5


def test_safety_projected_never_armed_reports_nan_gap():
    traj = equilibrium_trajectory(50, gap=np.linspace(-40.0, 0.0, 50))
    violated, min_gap = gap_floor(traj, SafetyMode.PROJECTED)
    assert not violated
    assert math.isnan(min_gap)


def test_safety_projected_monotone_after_arming_never_violates():
    rng = np.random.default_rng(55)
    for _ in range(100):
        start = float(rng.uniform(-50.0, 10.0))
        increments = rng.uniform(0.01, 1.5, size=150)
        gap = start + np.concatenate(([0.0], np.cumsum(increments)))
        traj = equilibrium_trajectory(len(gap), gap=gap)
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
    traj = equilibrium_trajectory(500, safety_mode=SafetyMode.SAME_LANE)
    metrics = evaluate_run(traj)
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
    spiked.a_follower[1900] = 9.0
    base = judge(traj, safety_mode=SafetyMode.SAME_LANE)
    spike = judge(spiked, safety_mode=SafetyMode.SAME_LANE)
    assert base.t_consensus == 500 * traj.cfg.dt
    assert spike.t_consensus == base.t_consensus
    assert not spike.safety_violated
    assert spike.max_accel == base.max_accel
    assert spike.omega == base.omega


def test_evaluate_run_whole_run_when_not_converged():
    n = 800
    traj = flagged_trajectory(n, np.zeros(n, dtype=bool))
    traj.gap[700] = 2.0
    metrics = judge(traj, safety_mode=SafetyMode.SAME_LANE)
    assert not metrics.consensus_reached
    assert metrics.safety_violated
    assert metrics.min_gap == 2.0


def test_evaluate_run_skips_the_switch_on_sample():
    """A spike at sample 1, the switch-on transient, is left out of the
    comfort extrema; the same spike at sample 2 counts."""
    n = 400
    spiked = {}
    for sample_index in (1, 2):
        traj = equilibrium_trajectory(n, gap=30.0, safety_mode=SafetyMode.SAME_LANE)
        traj.a_follower[sample_index] = -2.0
        spiked[sample_index] = evaluate_run(traj)
    assert spiked[1].max_decel == 0.0
    assert spiked[2].max_decel == 2.0
    assert spiked[2].min_jerk == -200.0
