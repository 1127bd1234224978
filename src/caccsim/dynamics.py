"""The simulation kernel: batched car-following runs on a fixed-step grid.

Every run, offline for the table build and online for a scheduled
scenario, is integrated here.  A leader holds its initial speed; a
follower starts at the origin with zero acceleration and is driven by a
control law that sees the leader only through the communication delay.
Integration is explicit first order: position advances with the pre-step
speed, speed with the command, and the command is recorded as the
acceleration of the next sample.  A delay is a whole number of steps and
is never interpolated; before any delayed sample exists the initial one is
held.

The step loop has two forms with the same arithmetic.  A step's cost is the
number of numpy calls it makes, about a microsecond each whatever their
length, so a batch steps with a few in-place array operations shared by all
its columns, while a single column (a scheduled scenario run) steps on
Python floats, which make no such calls.

The rows advance() returns are views of block buffers that the kernel
keeps and reuses, so they are valid until the next advance(): a caller
that needs them longer copies them.  Columns that start from the same
leader (dr0 and vj0 of the same bits), as all candidates of a table cell
do, share one running sum of its delayed position per block.  The leaders
are numbered once, by their bits, and kept for the batch's life.  A batch
gathers its columns' leader rows and fills both halves of the step's
[leader | vj] operand on every block; a single column reads its leader's
rows as a view and never makes that operand.  Each column's leader rows
then become its gap.

simulate_pair runs one scenario as a one-column batch and builds the run's
Trajectory; a scheduled scenario and the table build's tie re-run both go
through it.
"""

from __future__ import annotations

import numpy as np

from .metrics import Trajectory

__all__ = ["FollowerRuns", "simulate_pair"]


class FollowerRuns:
    """Batched car-following runs, one column per run.

    law is a control law of caccsim.controllers with one entry per column
    (only ConsensusLaw steps more than one); cfg supplies dt, the delay and
    the spacing policy.  advance() returns the next rows of follower
    position, speed, acceleration and delayed gap, as views valid until the
    next advance(); keep() drops columns and keeps every leader.

    Only the step loop cannot be vectorized over rows, and its cost is
    the number of array operations per step, not their length, so it does
    as few as it can, writing into buffers of the block, with operand pairs
    laid side by side so that one call serves both.  With one column those
    calls would cost ten times the arithmetic, so that loop runs on Python
    floats through the law's column_step instead and writes its rows into
    the block once.  Leader positions are summed for the whole block
    outside the loop, once per leader numbered at construction, and a
    batch gathers them per column on every block; the running sum adds
    the leader's step in the same order as a step-by-step update.
    """

    def __init__(self, dr0, vi0, vj0, law, cfg):
        self.cfg = cfg
        self.law = law
        self.row = 0
        self.delay = cfg.steps("comm_delay")
        # Follower (position, speed) at the last row returned.
        self.state = np.concatenate([np.zeros(len(vi0)), np.array(vi0, dtype=float)])
        self.vj = np.array(vj0, dtype=float)
        # Columns whose (dr0, vj0) have the same bits share one leader;
        # leader_of[c] is column c's, leaders numbered in the order of bits.
        starts = np.stack([np.array(dr0, dtype=float), self.vj], axis=1)
        _, first, self.leader_of = np.unique(
            starts.view(np.int64), axis=0, return_index=True, return_inverse=True
        )
        leader_dr0, leader_vj0 = starts[first].T
        self.leader_step = leader_vj0 * cfg.dt
        # Each leader's position at row max(row - 1 - delay, 0).
        self.leader = leader_dr0.copy()
        # Flat block buffers, reused by every advance() that fits in them.
        self._rows = self._lead = self._column_lead = self._aim = np.empty(0)

    def advance(self, n_rows: int):
        """Rows row .. row + n_rows - 1 as four (n_rows, columns) arrays.

        The arrays are views of the kernel's block buffers, valid until the
        next advance() overwrites them; copy what must outlive it.
        """
        lo, m, n_leaders = self.row, len(self.vj), len(self.leader)
        d = self.delay
        # lead[i]: each leader's position at row max(lo - 1 - d + i, 0),
        # which is the delayed leader the command of row lo + i sees.  Rows
        # before 0 clamp to row 0, so lead[1 : still + 1] repeat lead[0].
        lead = self._block("_lead", n_rows + 1, n_leaders)
        still = min(max(d + 1 - lo, 0), n_rows)
        lead[: still + 1] = self.leader
        lead[still + 1 :] = self.leader_step
        np.add.accumulate(lead[still:], axis=0, out=lead[still:])
        self.leader = lead[-1].copy()
        # rows[i]: positions, speeds and the commands that take them on,
        # each m long, at row lo - 1 + i.  Flat rows keep every operand of
        # the loop one contiguous vector.
        rows = self._block("_rows", n_rows + 1, 3 * m)
        first = 0
        if lo == 0:  # row 0 is the initial state, reached by no command
            rows[0, 2 * m :] = 0.0
            rows[1, : 2 * m] = self.state
            first = 1
        else:
            rows[0, : 2 * m] = self.state
        if m == 1:  # one column reads its leader's rows as its own
            i = self.leader_of.item()
            column_lead = lead[:, i : i + 1]
            self._step_column(rows, column_lead[first:-1, 0], first)
        else:  # each column's leader rows, then [leader | vj] for the step
            column_lead = self._block("_column_lead", n_rows + 1, m)
            np.take(lead, self.leader_of, axis=1, out=column_lead, mode="clip")
            aim = self._block("_aim", n_rows + 1, 2 * m)
            aim[:, :m] = column_lead
            aim[:, m:] = self.vj
            self._step_batch(rows, aim[first:-1], first)
        self.row += n_rows
        self.state = rows[-1, : 2 * m].copy()
        # Each column's leader rows 1.. become its gap.
        gap = np.subtract(column_lead[1:], rows[1:, :m], out=column_lead[1:])
        return rows[1:, :m], rows[1:, m : 2 * m], rows[:-1, 2 * m :], gap

    def _block(self, name: str, n_rows: int, width: int) -> np.ndarray:
        """An (n_rows, width) view of the flat buffer name, grown to fit."""
        size = n_rows * width
        if len(getattr(self, name)) < size:
            setattr(self, name, np.empty(size))
        return getattr(self, name)[:size].reshape(n_rows, width)

    def _step_batch(self, rows, aim, first: int) -> None:
        """Step rows[first:] of the block forward, every column at once."""
        m = len(self.vj)
        command = self.law.command(self.cfg, m)
        delta = np.empty(2 * m)
        dt = np.full(2 * m, self.cfg.dt)
        multiply, add = np.multiply, np.add
        steps = zip(
            rows[first:-1, : 2 * m],  # position and speed
            rows[first:-1, m : 2 * m],  # speed
            rows[first:-1, m:],  # speed and command
            rows[first:-1, 2 * m :],  # command
            rows[first + 1 :, : 2 * m],  # next position and speed
            aim,  # delayed leader position and speed
        )
        for state, speed, rates, cmd, nxt, target in steps:
            command(state, speed, target, cmd)
            multiply(rates, dt, delta)
            add(state, delta, nxt)

    def _step_column(self, rows, lead, first: int) -> None:
        """Step rows[first:] of a one-column block forward on floats."""
        step = self.law.column_step(self.cfg)
        dt, vj = self.cfg.dt, self.vj.item()
        r, v = rows[first, :2].tolist()
        rs, vs, cmds = [], [], []
        for target in lead.tolist():
            cmd = step(r, target, v, vj)
            r, v = r + v * dt, v + cmd * dt
            rs.append(r)
            vs.append(v)
            cmds.append(cmd)
        rows[first + 1 :, 0] = rs
        rows[first + 1 :, 1] = vs
        rows[first:-1, 2] = cmds

    def keep(self, mask: np.ndarray) -> None:
        if mask.all():
            return
        self.state = self.state[np.tile(mask, 2)]
        self.vj, self.leader_of = self.vj[mask], self.leader_of[mask]
        self.law.keep(mask)


def simulate_pair(dr0: float, vi0: float, vj0: float, control, cfg) -> Trajectory:
    """One leader-follower run of cfg.t_max: a one-column batch of the kernel.

    control is a control law (controllers.ConsensusLaw or LinearFeedbackLaw)
    and cfg a gaintable.BuildConfig, whose t_max is a whole number of steps
    (BuildConfig.steps).  The leader starts at dr0 with constant speed vj0,
    the follower at the origin at vi0 with zero acceleration.  The leader
    is observed through the communication delay, with the initial sample
    held before any delayed data exists.  Commands computed at step t land
    on the sample at t + dt.  A non-finite command anywhere in the run
    raises ValueError.  The Trajectory holds cfg itself, so the run is
    judged by the settings it ran with.
    """
    n = cfg.steps("t_max") + 1
    runs = FollowerRuns([dr0], [vi0], [vj0], control, cfg)
    # An overflowing command is reported once, by the check below.
    with np.errstate(over="ignore", invalid="ignore"):
        r_follower, v_follower, a_follower, gap = (
            series[:, 0] for series in runs.advance(n)
        )
    if not np.isfinite(a_follower).all():
        raise ValueError("non-finite value for accel_cmd in the run")
    # The kernel's running sum for the leader, undelayed.
    leader = np.full(n, vj0 * cfg.dt)
    leader[0] = dr0
    return Trajectory(
        cfg=cfg,
        v_follower=v_follower,
        a_follower=a_follower,
        gap=gap,
        v_leader_delayed=np.full(n, float(vj0)),
        r_follower=r_follower,
        r_leader=np.add.accumulate(leader),
        v_leader=np.full(n, float(vj0)),
    )
