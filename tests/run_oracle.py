"""Whole-array reference evaluation and CSV record of one run.

The oracle that property tests pin caccsim's one run evaluator to, both as
evaluate_run and as the table build's block-by-block scoring.  It shares
only the band arithmetic and the comfort score with caccsim.metrics; the
hold and the safety searches are its own, over whole arrays: the hold by a
cumulative sum of the band flags, the gap floor by an accumulated arming
mask.

oracle_trajectory_csv is the row-template form of the trajectory CSV, the
reference that the column-wise writer in caccsim.harness is pinned to byte
for byte.  Both take the band flags of the whole run from band_flags.

make_trajectory is the one place the tests build a Trajectory by hand.
"""

from __future__ import annotations

import math

import numpy as np

from caccsim.gaintable import BuildConfig
from caccsim.metrics import (
    ONSET_EXCLUDED_SAMPLES,
    RunMetrics,
    SafetyMode,
    Trajectory,
    _bands_ok,
    jerk_series,
    omega_score,
)


def make_trajectory(
    v_follower, a_follower, gap, v_leader_delayed, *,
    r_follower=None, r_leader=None, v_leader=None, **settings,
) -> Trajectory:
    """A Trajectory of the given series, run under BuildConfig(**settings):
    dt, leader_length, time_gap, comm_delay or any other of its fields, each
    at BuildConfig's default when not given.  Any of r_follower, r_leader
    and v_leader not given is filled in from the series: the follower's
    position by explicit Euler from the origin, the leader's as the
    follower's plus the gap, and the leader speed as the delayed one."""
    cfg = BuildConfig(**settings)
    if r_follower is None:
        r_follower = cfg.dt * np.concatenate(([0.0], np.cumsum(v_follower)[:-1]))
    return Trajectory(
        cfg=cfg, v_follower=v_follower, a_follower=a_follower, gap=gap,
        v_leader_delayed=v_leader_delayed, r_follower=r_follower,
        r_leader=r_follower + gap if r_leader is None else r_leader,
        v_leader=v_leader_delayed if v_leader is None else v_leader,
    )


def band_flags(trajectory, thresholds) -> np.ndarray:
    """Per-sample consensus band flags of a whole run, in buffers made here."""
    n = len(trajectory)
    return _bands_ok(
        trajectory.gap,
        trajectory.desired_gaps(),
        trajectory.v_leader_delayed,
        trajectory.v_follower,
        trajectory.a_follower,
        jerk_series(trajectory),
        thresholds,
        out=np.empty(n, dtype=bool),
        spare=np.empty(n, dtype=bool),
    )


def first_sustained_index(flags: np.ndarray, window_samples: int) -> int:
    """First index i with flags[i : i + window_samples + 1] all true, else -1.

    The whole persistence window must fit inside the run; a tail of true
    flags shorter than the window does not count.
    """
    length = window_samples + 1
    n = len(flags)
    if length > n:
        return -1
    counts = np.cumsum(flags, dtype=np.int64)
    window_totals = counts[length - 1 :] - np.concatenate(([0], counts[:-length]))
    hits = window_totals == length
    if not hits.any():
        return -1
    return int(np.argmax(hits))


def safety_from_gap(gap, leader_length: float, mode: SafetyMode) -> tuple[bool, float]:
    """Gap-floor check over a gap series; returns (violated, min_gap).

    min_gap is NaN when the floor never armed within the series.
    """
    gap = np.asarray(gap, dtype=float)
    if mode is SafetyMode.SAME_LANE:
        armed = np.ones(len(gap), dtype=bool)
    else:
        armed = np.maximum.accumulate(gap > leader_length)
    violated = bool((gap <= leader_length)[armed].any())
    min_gap = float(np.min(gap[armed])) if armed.any() else math.nan
    return violated, min_gap


def oracle_run(trajectory, thresholds, weights, mode, hold_window) -> RunMetrics:
    """evaluate_run's result, from whole arrays, for a run judged under the
    given settings; only the step and the spacing (dt, leader_length,
    time_gap, comm_delay) are read from the trajectory's cfg."""
    flags = band_flags(trajectory, thresholds)
    dt, leader_length = trajectory.cfg.dt, trajectory.cfg.leader_length
    idx = first_sustained_index(flags, round(hold_window / dt))
    end = idx if idx >= 0 else len(trajectory) - 1
    violated, min_gap = safety_from_gap(
        trajectory.gap[: end + 1], leader_length, mode
    )
    lo = ONSET_EXCLUDED_SAMPLES
    a = trajectory.a_follower[lo : end + 1]
    jerk = jerk_series(trajectory)[lo : end + 1]
    metrics = RunMetrics(
        t_consensus=math.inf if idx < 0 else idx * dt,
        max_accel=max(0.0, float(a.max())) if len(a) else 0.0,
        max_decel=max(0.0, -float(a.min())) if len(a) else 0.0,
        max_jerk=float(jerk.max()) if len(a) else 0.0,
        min_jerk=float(jerk.min()) if len(a) else 0.0,
        omega=0.0,
        min_gap=min_gap,
        safety_violated=violated,
    )
    metrics.omega = omega_score(metrics, weights)
    return metrics


# One trajectory CSV row: nine floats in repr form, then the band flag.
_CSV_ROW = "%r,%r,%r,%r,%r,%r,%r,%r,%r,%d\n"


def oracle_trajectory_csv(path, trajectory, thresholds) -> None:
    """write_trajectory_csv's file, formatted row by row from one template."""
    series = (
        trajectory.t,
        trajectory.r_follower,
        trajectory.v_follower,
        trajectory.a_follower,
        jerk_series(trajectory),
        trajectory.r_leader,
        trajectory.v_leader,
        trajectory.gap,
        trajectory.gap - trajectory.desired_gaps(),
    )
    columns = [*series, band_flags(trajectory, thresholds)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,r_i,v_i,a_i,jerk_i,r_j,v_j,gap,gap_error,consensus_flag\n")
        rows = zip(*(column.tolist() for column in columns))
        fh.write("".join([_CSV_ROW % row for row in rows]))
