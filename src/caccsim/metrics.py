"""Run evaluation: consensus detection, safety, and comfort scoring.

A run is judged on four simultaneous bands (gap, speed, acceleration, jerk),
declared converged at the earliest time the bands hold throughout a
persistence window, and scored for comfort from acceleration and jerk
extrema.  Safety is a hard gap floor at the leader length; in projected mode
the floor only arms once the follower has actually dropped behind it.

Every run is judged by one streaming scorer, _RunScorer, which folds rows
into a few numbers per run and keeps none.  evaluate_run scores a whole
run as one column in one block; the table build scores every candidate of
a chunk of cells block by block, and gaintable only selects among the
outcomes.
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
        if n < 2:
            raise ValueError("trajectory needs at least two samples")
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
    jerk = np.empty_like(a)
    jerk[0] = 0.0
    jerk[1:] = (a[1:] - a[:-1]) / trajectory.dt
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


def omega_score(metrics: RunMetrics, weights: ComfortWeights) -> float:
    """Comfort score: weighted worst acceleration plus weighted worst jerk."""
    accel_peak = max(metrics.max_accel, metrics.max_decel)
    jerk_peak = max(abs(metrics.max_jerk), abs(metrics.min_jerk))
    return weights.omega_1 * accel_peak + weights.omega_2 * jerk_peak


class _RunScorer:
    """Streaming judge of a batch of runs, one column per run.

    score() takes the next rows of every column and folds them into a few
    numbers per column: the last acceleration (for the next row's jerk), the
    row of the last band break, the first sustained index (first_hold, -1
    until the bands have held), the row that arms the gap floor (arm_row,
    n_samples until armed) and the first armed gap-floor violation
    (first_violation, n_samples until one).  No rows are kept; keep() drops
    columns.  evaluate_run scores one run as one column in one block; the
    table build scores every candidate of a chunk of cells, block by block.

    spacing gives dt, leader_length, time_gap and comm_delay (a Trajectory
    or a BuildConfig).  v_leader is the delayed leader speed, broadcast
    against each block: a row of one per column, or, when the run is scored
    in one block, one per row.

    A block is scored in scratch buffers made for the largest block seen
    and viewed as (rows, columns): jerk and the desired gap in two float
    arrays, the bands and a spare in two bool arrays.  The hold test is a
    windowed AND of w + 1 rows over the bands, with w carried rows in front
    of them, and every per-column search is an argmax or argmin.
    """

    def __init__(self, spacing, v_leader, n_samples, thresholds, mode, hold_window):
        m = v_leader.shape[1]
        self.dt = spacing.dt
        self.leader_length = spacing.leader_length
        self.headway = spacing.time_gap + spacing.comm_delay
        self.thresholds = thresholds
        self.n_samples = n_samples
        self.window = round(hold_window / self.dt)
        self.rows = 0
        self.v_leader = v_leader
        self.speed_tol = _speed_tolerance(v_leader, thresholds)
        self.prev_accel = np.zeros(m)
        self.last_break = np.full(m, -1)
        self.first_hold = np.full(m, -1)
        self.arm_row = np.full(m, 0 if mode is SafetyMode.SAME_LANE else n_samples)
        self.first_violation = np.full(m, n_samples)
        self._jerk = self._desired = np.empty(0)
        self._bands = self._spare = np.empty(0, dtype=bool)

    def score(self, v_follower, a_follower, gap) -> None:
        """Fold the next rows of every column into the carried state."""
        w, lj = self.window, self.leader_length
        lo = self.rows
        n, m = a_follower.shape
        if n * m > self._spare.size:
            self._jerk, self._desired = np.empty(n * m), np.empty(n * m)
            self._spare = np.empty(n * m, dtype=bool)
        if (w + n) * m > self._bands.size:
            self._bands = np.empty((w + n) * m, dtype=bool)
        jerk, desired, spare = (
            buf[: n * m].reshape(n, m)
            for buf in (self._jerk, self._desired, self._spare)
        )
        # window[w + r] holds the bands of row lo + r, window[:w] rows before.
        window = self._bands[: (w + n) * m].reshape(w + n, m)
        ok = window[w:]

        # Jerk, carried across blocks; the first row of a run has none.
        if lo:
            np.subtract(a_follower[0], self.prev_accel, out=jerk[0])
        else:
            jerk[0] = 0.0
        np.subtract(a_follower[1:], a_follower[:-1], out=jerk[1:])
        np.divide(jerk, self.dt, out=jerk)
        self.prev_accel = a_follower[-1].copy()
        # controllers.desired_gap, in place: lj + v * (time gap + delay).
        np.multiply(v_follower, self.headway, out=desired)
        np.add(desired, lj, out=desired)
        _bands_ok(
            gap, desired, self.v_leader, v_follower, a_follower, jerk,
            self.thresholds, speed_tol=self.speed_tol, out=ok, spare=spare,
        )

        held, self.last_break = _hold_scan(window, w, lo, self.last_break)
        # The first held row closes the first run of w + 1 in-band rows.
        _first_rows(held, self.first_hold < 0, self.first_hold, lo - w)

        below = spare
        np.less_equal(gap, lj, out=below)
        unarmed = self.arm_row == self.n_samples
        if unarmed.any():
            # An unarmed column arms at its first gap above the floor, and
            # the rows before that row are not judged.
            above = window[:n]
            np.greater(gap, lj, out=above)
            _first_rows(above, unarmed, self.arm_row, lo)
            np.less_equal(self.arm_row, np.arange(lo, lo + n)[:, None], out=above)
            np.logical_and(below, above, out=below)
        unviolated = self.first_violation == self.n_samples
        _first_rows(below, unviolated, self.first_violation, lo)
        self.rows = lo + n

    def keep(self, mask) -> None:
        """Drop the columns where mask is false."""
        self.v_leader = self.v_leader[:, mask]
        self.speed_tol = self.speed_tol[:, mask]
        for name in (
            "prev_accel", "last_break", "first_hold", "arm_row", "first_violation"
        ):
            setattr(self, name, getattr(self, name)[mask])


def _first_rows(block: np.ndarray, wanted, into: np.ndarray, lo: int) -> None:
    """into[c] = lo + the first True row of block's column c, for the wanted
    columns that have one.  Few columns are wanted at a time, so the rows
    are searched in those alone."""
    cols = np.flatnonzero(block.any(axis=0) & wanted)
    if len(cols):
        into[cols] = lo + block[:, cols].argmax(axis=0)


def _hold_scan(window: np.ndarray, w: int, lo: int, last_break: np.ndarray):
    """Hold test of one block of band flags with a hold window of w rows.

    window is a C-contiguous (w + n, m) bool block whose rows w.. are the
    bands of rows lo .. lo + n - 1; it is overwritten.  A row before lo is
    taken as in band iff it follows the carried last break.  Returns held,
    (n, m) with held[r] true iff rows lo + r - w .. lo + r are all in band,
    and the new last break of each column: its last row out of band in the
    block, else the carried one.  held is a windowed AND of w + 1 rows,
    built in place on the flat block by doubling the window, about log2(w)
    passes in all.  The whole persistence window must lie inside the run,
    so a tail of in-band rows shorter than it never holds.
    """
    n_rows, m = window.shape
    n = n_rows - w
    back = window[w:][::-1]
    since = back.argmin(axis=0)
    broke = ~back[since, np.arange(m)]
    new_break = np.where(broke, lo + n - 1 - since, last_break)
    np.greater(np.arange(lo - w, lo)[:, None], last_break, out=window[:w])
    # flat[i * m + c] becomes the AND of rows i .. i + span - 1 of column c.
    flat = window.reshape(-1)
    span = 1
    while 2 * span <= w + 1:
        size = (n_rows - 2 * span + 1) * m
        np.logical_and(flat[:size], flat[span * m : span * m + size], out=flat[:size])
        span *= 2
    if w + 1 > span:
        shift = (w + 1 - span) * m
        np.logical_and(flat[: n * m], flat[shift : shift + n * m], out=flat[: n * m])
    return window[:n], new_break


def evaluate_run(
    trajectory: Trajectory,
    thresholds: ConsensusThresholds,
    weights: ComfortWeights,
    mode: SafetyMode,
    hold_window: float,
) -> RunMetrics:
    """Full evaluation of one run, scored as one column in one block.

    Safety, extrema, and min_gap are judged over [t0, t_consensus], or the
    whole run when consensus is not reached; min_gap from the row that arms
    the gap floor.  The comfort extrema skip the first
    ONSET_EXCLUDED_SAMPLES samples.
    """
    n = len(trajectory)
    v, a, gap, v_leader = (
        np.asarray(series, dtype=float)
        for series in (
            trajectory.v_follower, trajectory.a_follower, trajectory.gap,
            trajectory.v_leader_delayed,
        )
    )
    scorer = _RunScorer(trajectory, v_leader[:, None], n, thresholds, mode, hold_window)
    scorer.score(v[:, None], a[:, None], gap[:, None])
    hold, arm = int(scorer.first_hold[0]), int(scorer.arm_row[0])
    end = hold if hold >= 0 else n - 1

    lo = ONSET_EXCLUDED_SAMPLES
    if end < lo:
        extrema = 0.0, 0.0, 0.0, 0.0
    else:
        a_win = a[lo : end + 1]
        jerk_win = jerk_series(trajectory)[lo : end + 1]
        extrema = (
            max(0.0, float(np.max(a_win))),
            max(0.0, -float(np.min(a_win))),
            float(np.max(jerk_win)),
            float(np.min(jerk_win)),
        )
    metrics = RunMetrics(
        math.inf if hold < 0 else hold * trajectory.dt,
        *extrema,
        omega=0.0,
        min_gap=float(np.min(gap[arm : end + 1])) if arm <= end else math.nan,
        safety_violated=bool(scorer.first_violation[0] <= end),
    )
    metrics.omega = omega_score(metrics, weights)
    return metrics
