"""Run evaluation: consensus detection, safety, and comfort scoring.

A run's record is a Trajectory: the gaintable.BuildConfig it ran with, by
whose settings alone it is judged, and seven series, all required and
checked once, when it is built; every reader takes its arrays as they are.

A run is judged on four simultaneous bands (gap, speed, acceleration, jerk),
declared converged at the earliest time the bands hold throughout a
persistence window, and scored for comfort from acceleration and jerk
extrema.  Safety is a hard gap floor at the leader length; in projected mode
the floor only arms once the follower has actually dropped behind it.

Every run is judged by one streaming scorer, _RunScorer, which folds rows
into a few numbers per run and keeps none.  evaluate_run scores a whole
run as one column in one block; the table build scores every candidate of
a chunk of cells block by block, and gaintable only selects among the
outcomes.  The scorer takes the jerk and acceleration bands of every
column first, and the gap and speed bands and the hold test only of the
columns within both somewhere in the block: a held row is in all four
bands, so any other column holds nowhere in the block and breaks at its
last row.  The hold test reads no row of an earlier block: a row holds when
the last band break at or before it, a running maximum of the break rows
carried from block to block, lies more than the persistence window back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .controllers import desired_gap, require

if TYPE_CHECKING:
    from .gaintable import BuildConfig

__all__ = [
    "SafetyMode",
    "ConsensusThresholds",
    "ComfortWeights",
    "Trajectory",
    "RunMetrics",
    "jerk_series",
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
        require(self, "positive and finite", lambda v: 0 < v < math.inf,
                "eta_r", "eta_v", "delta_a", "delta_jerk")


@dataclass(frozen=True)
class ComfortWeights:
    """Weights of the comfort score terms (acceleration, jerk)."""

    omega_1: float = 1.0
    omega_2: float = 1.0

    def __post_init__(self) -> None:
        require(self, "non-negative and finite", lambda v: 0 <= v < math.inf,
                "omega_1", "omega_2")


@dataclass(frozen=True)
class Trajectory:
    """Record of one car-following run on a fixed time step.

    cfg is the gaintable.BuildConfig the run was simulated with; the
    sample time t is derived from its dt.  r_ and v_ are the positions and
    speeds of the follower and the leader, a_follower the follower's
    acceleration.  gap is the delayed-leader gap: leader position as seen
    through the communication delay minus follower position;
    v_leader_delayed is the leader speed seen the same way.  Every field is
    required: each series is stored as a 1-D float array, all seven of one
    length of at least two samples.  Anything else is refused here with a
    ValueError that names the field.  The record is frozen, so no field is
    swapped for one the checks have not seen.
    """

    cfg: BuildConfig
    v_follower: np.ndarray
    a_follower: np.ndarray
    gap: np.ndarray
    v_leader_delayed: np.ndarray
    r_follower: np.ndarray
    r_leader: np.ndarray
    v_leader: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.v_follower)
        if n < 2:
            raise ValueError("trajectory needs at least two samples")
        for name in (
            "v_follower", "a_follower", "gap", "v_leader_delayed",
            "r_follower", "r_leader", "v_leader",
        ):
            series = np.asarray(getattr(self, name), dtype=float)
            if series.shape != (n,):
                raise ValueError(
                    f"{name} must be 1-D with the {n} samples of v_follower, "
                    f"got shape {series.shape}"
                )
            object.__setattr__(self, name, series)

    def __len__(self) -> int:
        return len(self.v_follower)

    @property
    def t(self) -> np.ndarray:
        return np.arange(len(self)) * self.cfg.dt

    def desired_gaps(self) -> np.ndarray:
        lj, tg, tau = self.cfg.leader_length, self.cfg.time_gap, self.cfg.comm_delay
        return desired_gap(self.v_follower, lj, tg, tau)


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


def jerk_series(trajectory: Trajectory) -> np.ndarray:
    """Backward-difference jerk per sample (m/s^3); first sample is zero."""
    a = trajectory.a_follower
    jerk = np.empty_like(a)
    jerk[0] = 0.0
    jerk[1:] = (a[1:] - a[:-1]) / trajectory.cfg.dt
    return jerk


def _speed_tolerance(v_leader_delayed, thresholds):
    """Half-width of the speed band: eta_v relative to a moving leader, else
    eta_v * 1 m/s."""
    return thresholds.eta_v * np.where(v_leader_delayed > 0.0, v_leader_delayed, 1.0)


def _rate_bands(accel, jerk, thresholds, *, out, spare):
    """The jerk and acceleration bands into out; elementwise over arrays.

    out and spare are bool arrays of the result's shape, jerk a float array
    of that shape, and all three are overwritten.
    """
    np.abs(jerk, out=jerk)
    np.less_equal(jerk, thresholds.delta_jerk, out=out)
    np.abs(accel, out=jerk)
    np.less_equal(jerk, thresholds.delta_a, out=spare)
    out &= spare
    return out


def _track_bands(
    gap, desired, v_leader_delayed, v_follower, speed_tol, thresholds,
    *, out, spare, work,
):
    """AND the gap and speed bands into out; elementwise over arrays.

    speed_tol is _speed_tolerance(v_leader_delayed, thresholds); spare is a
    bool array and desired and work float arrays of out's shape, all three
    overwritten.  A deviation is taken in place where it can be: a buffer
    written while it is read costs less than a third one, and |x - y| and
    |y - x| are the same float.
    """
    np.multiply(thresholds.eta_r, desired, out=work)
    np.subtract(desired, gap, out=desired)
    np.abs(desired, out=desired)
    np.less_equal(desired, work, out=spare)
    out &= spare
    np.subtract(v_follower, v_leader_delayed, out=work)
    np.abs(work, out=work)
    np.less_equal(work, speed_tol, out=spare)
    out &= spare
    return out


def _bands_ok(
    gap, desired, v_leader_delayed, v_follower, accel, jerk, thresholds, *, out, spare
):
    """The four consensus bands; elementwise over arrays.

    The bands are computed in buffers the caller owns: out and spare are
    bool arrays of the result's shape, desired and jerk float arrays of
    that shape, and all four are overwritten.
    """
    _rate_bands(accel, jerk, thresholds, out=out, spare=spare)
    speed_tol = _speed_tolerance(v_leader_delayed, thresholds)
    return _track_bands(
        gap, desired, v_leader_delayed, v_follower, speed_tol, thresholds,
        out=out, spare=spare, work=jerk,
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

    Every setting is read from cfg, the gaintable.BuildConfig the runs ran
    with.  v_leader is the delayed leader speed, broadcast against each
    block: a row of one per column, or, when the run is scored in one
    block, one per row.

    A block is scored in scratch buffers made for the largest block seen
    and viewed as (rows, columns): jerk and the desired gap in two float
    arrays, the bands and a spare in two bool arrays.  The hold test is a
    running maximum of the break rows down the block, from the carried last
    break, in the desired gap's buffer viewed as integers once the gap band
    is taken; every per-column search is an argmax.
    """

    def __init__(self, cfg: BuildConfig, v_leader, n_samples):
        m = v_leader.shape[1]
        self.dt = cfg.dt
        self.leader_length = cfg.leader_length
        self.headway = cfg.headway_time
        self.thresholds = cfg.thresholds
        self.n_samples = n_samples
        self.window = cfg.steps("hold_window")
        self.rows = 0
        self.v_leader = v_leader
        self.speed_tol = _speed_tolerance(v_leader, cfg.thresholds)
        self.prev_accel = np.zeros(m)
        self.last_break = np.full(m, -1)
        self.first_hold = np.full(m, -1)
        unarmed = cfg.safety_mode is not SafetyMode.SAME_LANE
        self.arm_row = np.full(m, n_samples if unarmed else 0)
        self.first_violation = np.full(m, n_samples)
        self._jerk = self._desired = np.empty(0)
        self._ok = self._spare = np.empty(0, dtype=bool)

    def score(self, v_follower, a_follower, gap) -> None:
        """Fold the next rows of every column into the carried state."""
        lj = self.leader_length
        lo = self.rows
        n, m = a_follower.shape
        if n * m > self._spare.size:
            self._jerk, self._desired = np.empty(n * m), np.empty(n * m)
            self._ok, self._spare = np.empty((2, n * m), dtype=bool)
        jerk, ok, spare = (
            buf[: n * m].reshape(n, m) for buf in (self._jerk, self._ok, self._spare)
        )

        # Jerk, carried across blocks; the first row of a run has none.
        if lo:
            np.subtract(a_follower[0], self.prev_accel, out=jerk[0])
        else:
            jerk[0] = 0.0
        np.subtract(a_follower[1:], a_follower[:-1], out=jerk[1:])
        np.divide(jerk, self.dt, out=jerk)
        self.prev_accel = a_follower[-1].copy()
        _rate_bands(a_follower, jerk, self.thresholds, out=ok, spare=spare)
        # A held row is in band itself, so a column out of its jerk or
        # acceleration band on every row holds nowhere in the block and
        # breaks at its last row.  The gap and speed bands and the hold test
        # run on the other columns alone.
        cols = np.flatnonzero(ok.any(axis=0))
        last_break = np.full(m, lo + n - 1)
        if len(cols):
            self._hold(cols, v_follower, gap, ok, last_break)
        self.last_break = last_break

        below = spare
        np.less_equal(gap, lj, out=below)
        unarmed = self.arm_row == self.n_samples
        if unarmed.any():
            # An unarmed column arms at its first gap above the floor, and
            # the rows before that row are not judged.  ok is free by now.
            above = ok
            np.greater(gap, lj, out=above)
            _first_rows(above, unarmed, self.arm_row, lo)
            np.less_equal(self.arm_row, np.arange(lo, lo + n)[:, None], out=above)
            np.logical_and(below, above, out=below)
        unviolated = self.first_violation == self.n_samples
        _first_rows(below, unviolated, self.first_violation, lo)
        self.rows = lo + n

    def _hold(self, cols, v_follower, gap, ok, last_break) -> None:
        """The gap and speed bands and the hold test of the block's columns
        cols, whose new last breaks go into last_break; ok is spent."""
        w, lo, (n, m), k = self.window, self.rows, ok.shape, len(cols)
        if k == m:  # every column: views, not copies
            cols, bands = slice(None), ok
        else:
            gap, v_follower, bands = gap[:, cols], v_follower[:, cols], ok[:, cols]
        desired, work, spare = (
            buf[: n * k].reshape(n, k) for buf in (self._desired, self._jerk, self._spare)
        )
        # controllers.desired_gap, in place: lj + v * (time gap + delay).
        np.multiply(v_follower, self.headway, out=desired)
        np.add(desired, self.leader_length, out=desired)
        _track_bands(
            gap, desired, self.v_leader[:, cols], v_follower, self.speed_tol[:, cols],
            self.thresholds, out=bands, spare=spare, work=work,
        )
        # desired is spent, and its buffer takes the break rows.
        broke = desired.view(np.int64)
        held, last_break[cols] = _hold_scan(bands, w, lo, self.last_break[cols], broke)
        # The first held row closes the first run of w + 1 in-band rows.
        first_hold = self.first_hold[cols]
        _first_rows(held, first_hold < 0, first_hold, lo - w)
        self.first_hold[cols] = first_hold

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


def _hold_scan(bands: np.ndarray, w: int, lo: int, last_break, broke: np.ndarray):
    """Hold test of one block of band flags with a hold window of w rows.

    bands is the (n, m) bool block of rows lo .. lo + n - 1, last_break each
    column's last row out of band before lo, and broke an (n, m) integer
    scratch; both blocks are overwritten.  broke takes the row number of
    each row out of band and last_break on the rows in band, so its running
    maximum down the block is the last break at or before each row.  Returns
    held, in bands, true iff that break lies more than w rows back (rows
    lo + r - w .. lo + r all in band), and each column's new last break.
    The whole persistence window must lie inside the run, so a tail of
    in-band rows shorter than it never holds.
    """
    rows = np.arange(lo, lo + len(bands))[:, None]
    broke[...] = rows
    np.copyto(broke, last_break, where=bands)
    np.maximum.accumulate(broke, axis=0, out=broke)
    np.less(broke, rows - w, out=bands)
    return bands, broke[-1].copy()


def evaluate_run(trajectory: Trajectory) -> RunMetrics:
    """Full evaluation of one run under its cfg, as one column in one block.

    Safety, extrema, and min_gap are judged over [t0, t_consensus], or the
    whole run when consensus is not reached; min_gap from the row that arms
    the gap floor.  The comfort extrema skip the first
    ONSET_EXCLUDED_SAMPLES samples.
    """
    n = len(trajectory)
    v, a, gap = trajectory.v_follower, trajectory.a_follower, trajectory.gap
    cfg = trajectory.cfg
    scorer = _RunScorer(cfg, trajectory.v_leader_delayed[:, None], n)
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
        math.inf if hold < 0 else hold * cfg.dt,
        *extrema,
        omega=0.0,
        min_gap=float(np.min(gap[arm : end + 1])) if arm <= end else math.nan,
        safety_violated=bool(scorer.first_violation[0] <= end),
    )
    metrics.omega = omega_score(metrics, cfg.weights)
    return metrics
