"""Run evaluation: consensus detection, safety, and comfort scoring.

A run is judged on four simultaneous bands (gap, speed, acceleration, jerk),
declared converged at the earliest time the bands hold throughout a
persistence window, and scored for comfort from acceleration and jerk
extrema.  Safety is a hard gap floor at the leader length; in projected mode
the floor only arms once the follower has actually dropped behind it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .controllers import desired_gap

__all__ = [
    "SafetyMode",
    "ConsensusThresholds",
    "ComfortWeights",
    "Trajectory",
    "RunMetrics",
    "jerk_series",
    "consensus_flags",
    "omega_score",
    "evaluate_run",
]

# Comfort extrema start at this sample index.  Sample 1 carries the very
# first command, whose backward-difference jerk is the controller switch-on
# transient (an O(1/dt) artifact), so measurement starts one sample later.
ONSET_EXCLUDED_SAMPLES = 2


class SafetyMode(str, Enum):
    """Gap-floor arming policy.

    SAME_LANE arms the floor from the first sample; PROJECTED arms it only
    once the gap has exceeded the leader length, so a follower that starts
    ahead of the leader (negative gap) is not flagged while dropping back.
    """

    SAME_LANE = "same_lane"
    PROJECTED = "projected"


@dataclass(frozen=True)
class ConsensusThresholds:
    """Band widths of the consensus test.

    eta_r : relative tolerance on the gap against the target spacing.
    eta_v : relative tolerance on the speed match (absolute band of
        eta_v * 1 m/s when the delayed leader speed is not positive).
    delta_a : m/s^2, absolute acceleration band.
    delta_jerk : m/s^3, absolute jerk band.
    """

    eta_r: float = 0.05
    eta_v: float = 0.05
    delta_a: float = 0.001
    delta_jerk: float = 0.005

    def __post_init__(self) -> None:
        for name in ("eta_r", "eta_v", "delta_a", "delta_jerk"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class ComfortWeights:
    """Weights of the comfort score terms (acceleration, jerk)."""

    omega_1: float = 1.0
    omega_2: float = 1.0

    def __post_init__(self) -> None:
        if self.omega_1 < 0 or self.omega_2 < 0:
            raise ValueError("comfort weights must be non-negative")


@dataclass
class Trajectory:
    """Fixed-step series of one car-following run.

    gap is the delayed-leader gap: leader position as observed through the
    communication delay minus follower position.  Optional series (t,
    positions, raw leader speed) are carried for reporting but not needed
    for evaluation.
    """

    dt: float
    leader_length: float
    time_gap: float
    comm_delay: float
    v_follower: np.ndarray
    a_follower: np.ndarray
    gap: np.ndarray
    v_leader_delayed: np.ndarray
    t: np.ndarray | None = None
    r_follower: np.ndarray | None = None
    r_leader: np.ndarray | None = None
    v_leader: np.ndarray | None = None

    def __post_init__(self) -> None:
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt!r}")
        n = len(self.v_follower)
        if n < 1:
            raise ValueError("trajectory needs at least one sample")
        for name in ("a_follower", "gap", "v_leader_delayed"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"series length mismatch on {name}")

    def __len__(self) -> int:
        return len(self.v_follower)

    def desired_gaps(self) -> np.ndarray:
        return desired_gap(
            self.v_follower, self.leader_length, self.time_gap, self.comm_delay
        )


@dataclass
class RunMetrics:
    """Evaluation summary of one run.

    t_consensus is math.inf when the bands never hold for the persistence
    window.  Extrema are taken over [t0, t_consensus] (whole run when not
    reached) minus the switch-on samples; min_gap covers the armed region of
    the same window and is NaN when the floor never armed.
    """

    t_consensus: float
    max_accel: float
    max_decel: float
    max_jerk: float
    min_jerk: float
    omega: float
    min_gap: float
    safety_violated: bool

    @property
    def consensus_reached(self) -> bool:
        return math.isfinite(self.t_consensus)


def jerk_series(trajectory: Trajectory) -> np.ndarray:
    """Backward-difference jerk per sample (m/s^3); first sample is zero."""
    a = np.asarray(trajectory.a_follower, dtype=float)
    if len(a) < 2:
        raise ValueError("jerk needs at least two samples")
    return _jerk(a, trajectory.dt)


def _jerk(a: np.ndarray, dt: float) -> np.ndarray:
    """Backward-difference jerk of an acceleration series; first entry zero."""
    jerk = np.empty_like(a)
    jerk[0] = 0.0
    jerk[1:] = (a[1:] - a[:-1]) / dt
    return jerk


def _speed_tolerance(v_leader_delayed, thresholds):
    """Half-width of the speed band: eta_v relative to a moving leader, else
    eta_v * 1 m/s."""
    return thresholds.eta_v * np.where(v_leader_delayed > 0.0, v_leader_delayed, 1.0)


def _bands_ok(
    gap, desired, v_leader_delayed, v_follower, accel, jerk, thresholds,
    *, speed_tol=None, out=None, spare=None,
):
    """The four consensus bands; elementwise over arrays.

    With out, the bands are computed in buffers the caller owns and no
    array is allocated: out and spare are bool arrays of the result's shape,
    desired and jerk float arrays of that shape, and all four are
    overwritten.  Without it, the buffers are made here and no argument is
    written.  speed_tol is _speed_tolerance(v_leader_delayed, thresholds),
    when already known.
    """
    if out is None:
        shape = np.broadcast_shapes(
            *map(np.shape, (gap, desired, v_leader_delayed, v_follower, accel, jerk))
        )
        out, spare = np.empty(shape, dtype=bool), np.empty(shape, dtype=bool)
        work, deviation = np.empty(shape), np.empty(shape)
    else:
        work, deviation = jerk, desired
    if speed_tol is None:
        speed_tol = _speed_tolerance(v_leader_delayed, thresholds)
    # A deviation is taken in place where it can be: a buffer written while
    # it is read costs less than a third one.  |x - y| and |y - x| are the
    # same float.
    np.abs(jerk, out=work)
    np.less_equal(work, thresholds.delta_jerk, out=out)
    np.multiply(thresholds.eta_r, desired, out=work)
    np.subtract(desired, gap, out=deviation)
    np.abs(deviation, out=deviation)
    np.less_equal(deviation, work, out=spare)
    out &= spare
    np.subtract(v_follower, v_leader_delayed, out=work)
    np.abs(work, out=work)
    np.less_equal(work, speed_tol, out=spare)
    out &= spare
    np.abs(accel, out=work)
    np.less_equal(work, thresholds.delta_a, out=spare)
    out &= spare
    return out


def consensus_flags(
    trajectory: Trajectory, thresholds: ConsensusThresholds
) -> np.ndarray:
    """Per-sample consensus band flags for a whole run."""
    n = len(trajectory)
    # The desired gaps and the jerk are made here, so they serve as buffers.
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


def _first_sustained_index(flags: np.ndarray, window_samples: int) -> int:
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


def _safety_from_gap(
    gap: np.ndarray, leader_length: float, mode: SafetyMode
) -> tuple[bool, float]:
    """Gap-floor check over a gap series; returns (violated, min_gap).

    min_gap is NaN when the floor never armed within the series.
    """
    gap = np.asarray(gap, dtype=float)
    if mode is SafetyMode.SAME_LANE:
        armed = np.ones(len(gap), dtype=bool)
    else:
        armed = np.maximum.accumulate(gap > leader_length)
    below = gap <= leader_length
    violated = bool((below & armed).any())
    if armed.any():
        min_gap = float(np.min(np.where(armed, gap, np.inf)))
    else:
        min_gap = math.nan
    return violated, min_gap


def omega_score(metrics: RunMetrics, weights: ComfortWeights) -> float:
    """Comfort score: weighted worst acceleration plus weighted worst jerk."""
    return _omega(
        metrics.max_accel, metrics.max_decel, metrics.max_jerk, metrics.min_jerk,
        weights,
    )


def _omega(max_accel, max_decel, max_jerk, min_jerk, weights: ComfortWeights) -> float:
    """omega_score of the four extrema."""
    accel_peak = max(max_accel, max_decel)
    jerk_peak = max(abs(max_jerk), abs(min_jerk))
    return weights.omega_1 * accel_peak + weights.omega_2 * jerk_peak


def _window_extrema(
    a: np.ndarray, jerk: np.ndarray, end_idx: int, onset_exclude: int
) -> tuple[float, float, float, float]:
    """Accel and jerk extrema over samples [onset_exclude, end_idx]."""
    lo = onset_exclude
    if end_idx < lo:
        return 0.0, 0.0, 0.0, 0.0
    a_win = a[lo : end_idx + 1]
    jerk_win = jerk[lo : end_idx + 1]
    max_accel = max(0.0, float(np.max(a_win)))
    max_decel = max(0.0, -float(np.min(a_win)))
    return max_accel, max_decel, float(np.max(jerk_win)), float(np.min(jerk_win))


def evaluate_run(
    trajectory: Trajectory,
    thresholds: ConsensusThresholds,
    weights: ComfortWeights,
    mode: SafetyMode,
    hold_window: float,
    onset_exclude: int = ONSET_EXCLUDED_SAMPLES,
) -> RunMetrics:
    """Full evaluation of one run.

    Safety, extrema, and min_gap are judged over [t0, t_consensus], or the
    whole run when consensus is not reached.  onset_exclude skips that many
    leading samples in the comfort extrema; 0 includes the switch-on
    transient.
    """
    flags = consensus_flags(trajectory, thresholds)
    window_samples = round(hold_window / trajectory.dt)
    idx = _first_sustained_index(flags, window_samples)
    last = len(trajectory) - 1
    end_idx = idx if idx >= 0 else last
    t_consensus = math.inf if idx < 0 else idx * trajectory.dt

    violated, min_gap = _safety_from_gap(
        trajectory.gap[: end_idx + 1], trajectory.leader_length, mode
    )
    jerk = jerk_series(trajectory)
    max_accel, max_decel, max_jerk, min_jerk = _window_extrema(
        np.asarray(trajectory.a_follower, dtype=float), jerk, end_idx, onset_exclude
    )
    metrics = RunMetrics(
        t_consensus=t_consensus,
        max_accel=max_accel,
        max_decel=max_decel,
        max_jerk=max_jerk,
        min_jerk=min_jerk,
        omega=0.0,
        min_gap=min_gap,
        safety_violated=violated,
    )
    metrics.omega = omega_score(metrics, weights)
    return metrics
