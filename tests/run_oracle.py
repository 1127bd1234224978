"""Whole-array reference evaluation and CSV record of one run.

The oracle that property tests pin caccsim's one run evaluator to, both as
evaluate_run and as the table build's block-by-block scoring.  It shares
only the band arithmetic and the comfort score with caccsim.metrics; the
hold and the safety searches are its own, over whole arrays: the hold by a
cumulative sum of the band flags, the gap floor by an accumulated arming
mask.

oracle_trajectory_csv is the row-template form of the trajectory CSV, the
reference that the column-wise writer in caccsim.harness is pinned to byte
for byte.
"""

from __future__ import annotations

import math

import numpy as np

from caccsim.metrics import (
    ONSET_EXCLUDED_SAMPLES,
    RunMetrics,
    SafetyMode,
    consensus_flags,
    jerk_series,
    omega_score,
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
    """evaluate_run's result, from whole arrays."""
    flags = consensus_flags(trajectory, thresholds)
    idx = first_sustained_index(flags, round(hold_window / trajectory.dt))
    end = idx if idx >= 0 else len(trajectory) - 1
    violated, min_gap = safety_from_gap(
        trajectory.gap[: end + 1], trajectory.leader_length, mode
    )
    lo = ONSET_EXCLUDED_SAMPLES
    a = np.asarray(trajectory.a_follower, dtype=float)[lo : end + 1]
    jerk = jerk_series(trajectory)[lo : end + 1]
    metrics = RunMetrics(
        t_consensus=math.inf if idx < 0 else idx * trajectory.dt,
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
    columns = [np.asarray(s, dtype=float) for s in series]
    columns.append(consensus_flags(trajectory, thresholds))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,r_i,v_i,a_i,jerk_i,r_j,v_j,gap,gap_error,consensus_flag\n")
        rows = zip(*(column.tolist() for column in columns))
        fh.write("".join([_CSV_ROW % row for row in rows]))
